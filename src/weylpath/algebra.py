"""Ladder-operator polynomial algebra and Q/P/Weyl symbol calculus.

Operators are stored normal ordered: a polynomial is a map
``(m, n) -> c`` representing ``sum c_mn adag^m a^n`` with ``[a, adag] = 1``.
Phase-space symbols are polynomials in two *independent* complex arguments
``(u, v)``; on the real section ``v = conj(u) = conj(z)``.  Each form's symbol
is an exact (terminating) differential map of the Q symbol, the normal-ordered
coefficients, with the form's ordering parameter s from the one table ``FORM_S``

    A_s = exp(s d_u d_v) A_Q,    s = 0 (q), -1 (p), -1/2 (w),

so all conversions are finite and exact for polynomials.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _EXPORTS
from .errors import DomainError, HamiltonianFormatError, InvalidArgument
from .errors import finite_double, require_finite, require_index, require_positive

__all__ = _EXPORTS["algebra"].split()

HERMITIAN_TOLERANCE = 1e-12  # of OperatorPoly.is_hermitian, relative to the largest coefficient
TRIM_TOLERANCE = 1e-14  # of trimmed symbols and symbol_to_qp, relative to the largest coefficient
FORM_S = {"q": 0.0, "p": -1.0, "w": -0.5}  # each form's symbol is exp(s d_u d_v) of the Q symbol


def form_s(form: str) -> float:
    """Ordering parameter s of the form named q, p or w, in either case; anything but a string
    is refused as ``form must be a string``."""
    if not isinstance(form, str):
        raise InvalidArgument(f"form must be a string, got {form!r}")
    name = form.lower()
    if name not in FORM_S:
        raise InvalidArgument(f"unknown form {name!r}; expected q, p or w")
    return FORM_S[name]


def _term_map(terms: dict) -> dict:
    """``terms`` as a map (m, n) -> complex with int exponents, exact zeros dropped; refuses a key
    that is not a pair, an exponent that is not an integer of at least 0 or a coefficient that is
    a boolean, not a number or not finite."""
    require_finite(coefficients=list(terms.values()))
    out: dict = {}
    for key, c in terms.items():
        try:
            m, n = key
        except (TypeError, ValueError):
            raise InvalidArgument(f"each term must be an exponent pair (m, n), got {key!r}") from None
        if not (type(m) is int and m >= 0 and type(n) is int and n >= 0):
            key = tuple(require_index(k, f"each exponent of term {key}", 0) for k in key)
        if type(c) not in (complex, float, int):  # a boolean, a numpy scalar or no number
            require_finite(**{f"the coefficient of term {key}": c})
            if not isinstance(c, numbers.Complex):
                raise InvalidArgument(f"the coefficient of term {key} must be a number, got {c!r}")
        if c != 0:
            out[key] = complex(c)
    return out


def _in_range(terms: dict, what: str) -> dict:
    """``terms``, or DomainError ``"{what} is not a finite double"`` where a coefficient is not."""
    finite_double(lambda: list(terms.values()), what)
    return terms


def _poly_add(acc: dict, other: dict, scale: complex = 1.0) -> None:
    """In-place ``acc += scale * other`` on exponent-keyed dicts."""
    for key, c in other.items():
        acc[key] = acc.get(key, 0.0) + scale * c


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p1.items():
        for (i2, j2), c2 in p2.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


class OperatorPoly:
    """Polynomial in one ladder pair, kept in normal-ordered canonical form.

    Parameters
    ----------
    terms : dict
        Map ``(m, n) -> coefficient`` of ``adag^m a^n``.  Zero coefficients
        are pruned, so the canonical form is unique.  An exponent that is not
        an integer of at least 0, or a coefficient that is not a finite
        number, raises :class:`InvalidArgument`; a sum or product whose
        coefficient leaves the double range raises :class:`DomainError`.
    hbar : float
        Planck constant carried along for downstream consumers.
    """

    def __init__(self, terms: dict, hbar: float = 1.0):
        require_positive(hbar=hbar)
        self.terms = _term_map(terms)
        self.hbar = float(hbar)

    def __repr__(self):
        inner = ", ".join(
            f"({m},{n}): {c:.6g}" for (m, n), c in sorted(self.terms.items())
        )
        return f"OperatorPoly({{{inner}}}, hbar={self.hbar})"

    @property
    def degree(self) -> int:
        return max((m + n for m, n in self.terms), default=0)

    def is_hermitian(self) -> bool:
        """True iff c_mn = conj(c_nm) for every term, within ``HERMITIAN_TOLERANCE``."""
        scale = max((abs(c) for c in self.terms.values()), default=1.0)
        limit = HERMITIAN_TOLERANCE * max(scale, 1.0)
        for (m, n), c in self.terms.items():
            if abs(c - np.conj(self.terms.get((n, m), 0.0))) > limit:
                return False
        return True

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        acc = dict(self.terms)
        _poly_add(acc, other.terms)
        return OperatorPoly(_in_range(acc, "a coefficient of the sum"), self.hbar)

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        """Canonical product: a^n1 adag^m2 is normal ordered as exp(d_u d_v) v^m2 u^n1, which
        raises DomainError on a coefficient that is not a finite double."""
        acc: dict = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                for (m, n), c in _apply_exp_mixed({(m2, n1): c1 * c2}, 1.0).items():
                    key = (m1 + m, n + n2)
                    acc[key] = acc.get(key, 0.0) + c
        return OperatorPoly(_in_range(acc, "a coefficient of the product"), self.hbar)


def _power(powers: dict, k: int):
    """x^k from ``powers`` (k -> x^k, holding 1 -> x), each power multiplied out of lower ones
    as CPython's complex ``**`` does (x3 = x x2, x4 = x2 x2, x5 = x x4) and kept: the same
    scalars without the call, and on numpy arrays the same numbers element by element, faster
    than ``x ** k``."""
    if k not in powers:
        high = 1 << (k.bit_length() - 1)
        low = k - high or high // 2
        powers[k] = _power(powers, low) * _power(powers, k - low)
    return powers[k]


def _evaluate(parts: tuple, x, y) -> tuple:
    """The sum of ``c x^m y^n`` over each term tuple ``(((m, n), c), ...)`` of ``parts``.

    A term has no factor of exponent 0, the terms are added left to right from the first, and
    an empty tuple sums to ``0j``; only the powers the terms read are built, once per call."""
    xs, ys = {1: x}, {1: y}
    sums = []
    for terms in parts:
        total = None
        for (m, n), c in terms:
            term = c * _power(xs, m) if m else c
            term = term * _power(ys, n) if n else term
            total = term if total is None else total + term
        sums.append(0j if total is None else total)
    return tuple(sums)


def _derivative(terms: dict, wrt: str) -> dict:
    """Exact partial derivative of a (v, u) term map in ``wrt``, "u" or "v"."""
    if wrt == "u":
        return {(m, n - 1): 0.0 + n * c for (m, n), c in terms.items() if n}
    return {(m - 1, n): 0.0 + m * c for (m, n), c in terms.items() if m}


def _partials(terms: dict) -> tuple:
    """The term maps of H_u, H_v, H_uu, H_vv and H_uv."""
    d_u, d_v = _derivative(terms, "u"), _derivative(terms, "v")
    return d_u, d_v, _derivative(d_u, "u"), _derivative(d_v, "v"), _derivative(d_u, "v")


class SymbolPoly:
    """Polynomial phase-space function ``sum c_mn v^m u^n``.

    ``u`` and ``v`` are independent complex arguments; the real section is
    ``u = z``, ``v = conj(z)``.  Evaluation and derivatives are exact.  The
    terms, sums, differences and scalings are refused as :class:`OperatorPoly`'s.
    """

    def __init__(self, terms: dict):
        self.terms = _term_map(terms)

    def __repr__(self):
        inner = ", ".join(
            f"v^{m} u^{n}: {c:.6g}" for (m, n), c in sorted(self.terms.items())
        )
        return f"SymbolPoly({{{inner}}})"

    @property
    def degree(self) -> int:
        return max((m + n for m, n in self.terms), default=0)

    def __add__(self, other: "SymbolPoly") -> "SymbolPoly":
        acc = dict(self.terms)
        _poly_add(acc, other.terms)
        return SymbolPoly(_in_range(acc, "a coefficient of the sum"))

    def __sub__(self, other: "SymbolPoly") -> "SymbolPoly":
        acc = dict(self.terms)
        _poly_add(acc, other.terms, -1.0)
        return SymbolPoly(_in_range(acc, "a coefficient of the difference"))

    def scaled(self, factor: complex) -> "SymbolPoly":
        scaled = {k: factor * c for k, c in self.terms.items()}
        return SymbolPoly(_in_range(scaled, "a coefficient of the scaled symbol"))

    def trimmed(self) -> "SymbolPoly":
        """Drop coefficients up to ``TRIM_TOLERANCE`` times the largest, as symbol_to_qp does."""
        return SymbolPoly(_trim(self.terms))

    @cached_property
    def _jet_terms(self) -> tuple:
        """The term tuples of H, H_u, H_v, H_uu, H_vv and H_uv, built once per symbol."""
        return tuple(tuple(part.items()) for part in (self.terms, *_partials(self.terms)))

    @cached_property
    def _flow_terms(self) -> tuple:
        """The term tuples of H_p, H_q, H_pp, H_qq and H_qp, q^j p^k as the term (j, k)."""
        qp = symbol_to_qp(self, ScaleContext())
        return tuple(tuple(part.items()) for part in _partials(qp))

    def flow(self, hbar: float) -> tuple:
        """Hamilton's flow of the symbol in q = (u + v)/sqrt(2), p = (u - v)/(i sqrt(2)),
        and its Hessian, as the pair ``(flow, hessian)`` of functions of (q, p):

        ``flow(q, p)`` = (H_p, -H_q) / hbar, the right-hand side ``semiclassics._phi`` steps;
        ``hessian(q, p)`` = (H_qp, H_pp, H_qq) / hbar, the entries of the linearised flow
        d(dq, dp)/dt = [[H_qp, H_pp], [-H_qq, -H_qp]] (dq, dp) / hbar.

        Both sum the (q, p) symbol's partials through the one evaluator :meth:`jet` uses, so
        they equal the same expressions built from that symbol's :meth:`jet` exactly.  On
        arrays a constant entry stays a scalar."""
        h_p, h_q, h_pp, h_qq, h_qp = self._flow_terms
        ih = 1.0 / hbar

        def flow(q, p):
            d_p, d_q = _evaluate((h_p, h_q), q, p)
            return ih * d_p, -ih * d_q

        def hessian(q, p):
            d_qp, d_pp, d_qq = _evaluate((h_qp, h_pp, h_qq), q, p)
            return ih * d_qp, ih * d_pp, ih * d_qq

        return flow, hessian

    def jet(self, u, v, order: int = 2) -> tuple:
        """Value and exact partials (H, H_u, H_v, H_uu, H_vv, H_uv) at (u, v).

        ``order`` 0, 1 or 2 returns the first 1, 3 or 6 entries; any other
        order raises :class:`InvalidArgument`.  Scalar
        arguments give scalars and do no array work; array arguments
        broadcast, and every entry has the broadcast shape, constant parts
        included.
        """
        if type(order) is not int:
            require_index(order, "order")  # a boolean or a non-integer
        if order not in (0, 1, 2):
            raise InvalidArgument("order must be 0, 1 or 2")
        out = _evaluate(self._jet_terms[: (1, 3, 6)[order]], v, u)
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            shape = np.broadcast_shapes(np.shape(u), np.shape(v))
            out = tuple(
                x if np.shape(x) == shape else np.full(shape, x, dtype=complex)
                for x in out
            )
        return out

    def eval(self, u, v):
        """Evaluate at (possibly array-valued) independent arguments."""
        return self.jet(u, v, 0)[0]


@dataclass(frozen=True)
class ScaleContext:
    """Physical scales: length width ``b`` and momentum width ``c = hbar/b``.

    The coherent label map is ``z = (q/b + i p/c) / sqrt(2)``.  Without ``b``,
    the width is the ground state's, b = sqrt(hbar) / (sqrt(m) sqrt(omega)).
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    b: float | None = None

    def __post_init__(self):
        require_positive(hbar=self.hbar, mass=self.mass, omega=self.omega)
        if self.b is None:  # root by root, b is found also where m omega is no double
            width = math.sqrt(self.hbar) / (math.sqrt(self.mass) * math.sqrt(self.omega))
            object.__setattr__(self, "b", width)
        require_positive(b=self.b)
        require_positive(c=self.c)

    @classmethod
    def default(cls, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0):
        """Context with the ground-state width."""
        return cls(hbar, mass, omega)

    @property
    def c(self) -> float:
        return self.hbar / self.b

    def z_from_qp(self, q, p):
        return (q / self.b + 1j * p / self.c) / math.sqrt(2.0)


def normalize(word_list, hbar: float = 1.0) -> OperatorPoly:
    """Normal order a linear combination of ladder words.

    Parameters
    ----------
    word_list : sequence of (coefficient, word)
        Each word is a string over the alphabet {"a", "adag"}, whitespace
        separated, read left to right as an operator product.
    hbar : float
        Carried into the resulting :class:`OperatorPoly`.

    Returns
    -------
    OperatorPoly
        The canonical form obtained by repeated use of ``a adag = adag a + 1``.
    """
    letters = {
        "a": OperatorPoly({(0, 1): 1.0}, hbar),
        "adag": OperatorPoly({(1, 0): 1.0}, hbar),
    }
    total = OperatorPoly({}, hbar)
    for coeff, word in word_list:
        acc = OperatorPoly({(0, 0): coeff}, hbar)
        for letter in word.split():
            if letter not in letters:
                raise InvalidArgument(f"unknown ladder letter {letter!r}")
            acc = acc * letters[letter]
        total = total + acc
    return total


def _apply_exp_mixed(terms: dict, s: float) -> dict:
    """Apply exp(s d_u d_v) to a (u, v) polynomial, exactly.

    The k-th order takes c s^k k! C(m, k) C(n, k) from the term (m, n); that
    weight is exact in integers and rounded to a double once.

    Raises
    ------
    DomainError
        If a coefficient is not a finite double; the error names its term.
    """
    if s == 0:  # the identity: a copy, in the terms' order
        return dict(terms)
    num, den = float(s).as_integer_ratio()
    out: dict = {}
    for (m, n), c in terms.items():
        weight = 1  # den^k s^k k! C(m, k) C(n, k)
        for k in range(min(m, n) + 1):
            key = (m - k, n - k)
            if k:
                weight = weight * num * (m - k + 1) * (n - k + 1) // k
            try:
                out[key] = out.get(key, 0.0) + c * (weight / den**k)
            except OverflowError:  # the weight alone is beyond the float range
                out[key] = math.inf
            if not cmath.isfinite(out[key]):
                raise DomainError(
                    f"term ({m}, {n}): the coefficient of v^{m - k} u^{n - k} "
                    "is not a finite double"
                )
    return out


def q_symbol(op: OperatorPoly) -> SymbolPoly:
    """Q symbol: substitute adag^m a^n -> v^m u^n in the normal-ordered form.

    On the real section this is the expectation <z|op|z>.
    """
    return symbol_for_form(op, "q")


def p_symbol(op: OperatorPoly) -> SymbolPoly:
    """P symbol: weight of the diagonal coherent-state expansion.

    Equivalent to reordering to antinormal form ``a^n adag^m`` and then
    substituting ``a -> u``, ``adag -> v``; realised here as
    exp(-d_u d_v) applied to the Q symbol.
    """
    return symbol_for_form(op, "p")


def weyl_symbol(op: OperatorPoly) -> SymbolPoly:
    """Weyl (symmetric-ordering) symbol, via Gaussian de-smoothing of Q."""
    return symbol_for_form(op, "w")


def symbol_for_form(op: OperatorPoly, form: str) -> SymbolPoly:
    """Symbol exp(s d_u d_v) A_Q of the form named q, p or w (s from ``FORM_S``).

    One symbol per content of ``op`` (terms in their stored order and hbar) and s, built on
    first use, so the term tuples its flow and jets sum are built once; the 64 most recently
    used are kept, as Fock oracles are.
    """
    return _symbol(tuple(op.terms.items()), op.hbar, form_s(form))


@lru_cache(maxsize=64)
def _symbol(terms: tuple, hbar: float, s: float) -> SymbolPoly:
    """The symbol of ``terms`` at s; hbar is part of the key alone, so each hbar has its own."""
    return SymbolPoly(_apply_exp_mixed(dict(terms), s))


def _uv_linear_forms(ctx: ScaleContext):
    """(q, p) expressed as linear (u, v) polynomials and vice versa."""
    rt2 = math.sqrt(2.0)
    q_poly = {(1, 0): ctx.b / rt2, (0, 1): ctx.b / rt2}
    p_poly = {(1, 0): 1j * ctx.c / rt2, (0, 1): -1j * ctx.c / rt2}
    u_poly = {(1, 0): 1.0 / (ctx.b * rt2), (0, 1): 1j / (ctx.c * rt2)}
    v_poly = {(1, 0): 1.0 / (ctx.b * rt2), (0, 1): -1j / (ctx.c * rt2)}
    return q_poly, p_poly, u_poly, v_poly


def _substitute(terms: dict, x_poly: dict, y_poly: dict) -> dict:
    """sum c x^j y^k over the terms ``(j, k) -> c``, with x and y polynomials."""
    out: dict = {}
    xs, ys = [{(0, 0): 1.0 + 0.0j}], [{(0, 0): 1.0 + 0.0j}]  # x^j, y^k, each multiplied out once
    for (j, k), c in terms.items():
        for powers, poly, n in ((xs, x_poly, j), (ys, y_poly, k)):
            while len(powers) <= n:
                powers.append(_poly_mul(powers[-1], poly))
        _poly_add(out, _poly_mul(xs[j], ys[k]), c)
    return out


def weyl_quantize(qp_terms: dict, ctx: ScaleContext) -> OperatorPoly:
    """Operator whose Weyl symbol is the given (q, p) polynomial.

    Parameters
    ----------
    qp_terms : dict
        Map ``(j, k) -> coefficient`` of ``q^j p^k``, refused as :class:`OperatorPoly`'s terms.
    ctx : ScaleContext
        Supplies the widths of the label map.

    Returns
    -------
    OperatorPoly
        Normal-ordered operator; ``weyl_symbol`` of the result reproduces the
        input after the z <-> (q, p) substitution, exactly.
    """
    q_poly, p_poly, _, _ = _uv_linear_forms(ctx)
    weyl = _substitute(_term_map(qp_terms), q_poly, p_poly)
    normal = _apply_exp_mixed(weyl, -FORM_S["w"])  # Q symbol of the target operator
    return OperatorPoly(normal, ctx.hbar)


def symbol_to_qp(sym: SymbolPoly, ctx: ScaleContext) -> dict:
    """Rewrite a (u, v) symbol as a polynomial in the real variables (q, p).

    Returns a map ``(j, k) -> coefficient`` of ``q^j p^k``, trimmed as
    :meth:`SymbolPoly.trimmed` is (at ``TRIM_TOLERANCE`` of the largest
    coefficient), so Hermitian inputs give clean tables.  A coefficient that
    is not a finite double raises :class:`DomainError`.
    """
    _, _, u_poly, v_poly = _uv_linear_forms(ctx)
    qp = _substitute(sym.terms, v_poly, u_poly)
    return _trim(_in_range(qp, "a (q, p) coefficient of the symbol"))


def _trim(terms: dict) -> dict:
    """``terms`` without the coefficients of at most ``TRIM_TOLERANCE`` times the largest one."""
    scale = max((abs(c) for c in terms.values()), default=0.0)
    return {k: c for k, c in terms.items() if abs(c) > TRIM_TOLERANCE * scale}


def harmonic_hamiltonian(ctx: ScaleContext) -> OperatorPoly:
    """hbar omega (adag a + 1/2)."""
    hw = ctx.hbar * ctx.omega
    return OperatorPoly({(1, 1): hw, (0, 0): 0.5 * hw}, ctx.hbar)


def quartic_position_hamiltonian(lam: float, ctx: ScaleContext) -> OperatorPoly:
    """p^2/2m + m omega^2 q^2 / 2 + lam q^4, Weyl quantized."""
    qp = {
        (0, 2): 1.0 / (2.0 * ctx.mass),
        (2, 0): 0.5 * ctx.mass * ctx.omega**2,
        (4, 0): lam,
    }
    return weyl_quantize(qp, ctx)


def _require(cond: bool, msg: str):
    if not cond:
        raise HamiltonianFormatError(msg)


def load_hamiltonian(source) -> tuple[OperatorPoly, ScaleContext]:
    """Read a Hamiltonian description from a JSON file path or a dict.

    Schema::

        {"hbar": 1.0, "mass": 1.0, "omega": 1.0, "width_b": 1.0,
         "ordering": "normal" | "weyl_qp",
         "terms": [{"m": 2, "n": 0, "re": 0.5, "im": 0.0}, ...]}

    ``(m, n)`` indexes ``adag^m a^n`` for "normal" ordering and ``q^m p^n``
    for "weyl_qp".  Mixed orderings are not expressible and hence rejected.
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise HamiltonianFormatError(f"cannot read {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise HamiltonianFormatError(
                f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc

    _require(isinstance(data, dict), "top-level JSON value must be an object")
    scales = [data.get(name, 1.0) for name in ("hbar", "mass", "omega")]
    terms: dict = {}
    try:  # each scale, index and part is refused in the errors module's wording
        if "width_b" not in data:
            ctx = ScaleContext.default(*scales)
        else:  # checked under the name the file gives it, so float() sees a real number
            require_positive(width_b=data["width_b"])
            ctx = ScaleContext(*scales, float(data["width_b"]))
        ordering = data.get("ordering", "normal")
        _require(
            ordering in ("normal", "weyl_qp"),
            f"field 'ordering' must be 'normal' or 'weyl_qp', got {ordering!r}",
        )
        raw_terms = data.get("terms", [])
        _require(isinstance(raw_terms, list), "field 'terms' must be a list")
        for i, entry in enumerate(raw_terms):
            _require(isinstance(entry, dict), f"terms[{i}] must be an object")
            key = tuple(require_index(entry.get(k), f"terms[{i}].{k}", 0) for k in "mn")
            parts = {f"terms[{i}].{k}": entry.get(k, 0.0) for k in ("re", "im")}
            require_finite(**parts)
            for name, part in parts.items():  # require_finite passes a list of numbers
                _require(not isinstance(part, list), f"{name} must be a number, got {part!r}")
            terms[key] = finite_double(
                lambda: terms.get(key, 0.0) + complex(*parts.values()),
                f"terms[{i}]: the coefficient of term {key}",
            )
    except InvalidArgument as exc:
        raise HamiltonianFormatError(str(exc)) from None

    if ordering == "normal":
        return OperatorPoly(terms, ctx.hbar), ctx
    return weyl_quantize(terms, ctx), ctx
