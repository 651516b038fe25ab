"""Coherent-state kinematics and the truncated-Fock-space exact oracle.

Everything here is meant to be boringly reliable: dense Hermitian matrices,
eigendecompositions, Gauss-Hermite quadrature.  The rest of the package is
validated against these routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import OperatorPoly, ScaleContext, SymbolPoly
from .errors import NonConverged, QuadratureNotConverged, TailTooLarge

__all__ = [
    "FockVector",
    "PhasePoint",
    "QuadSpec",
    "overlap",
    "fock_coherent",
    "operator_matrix",
    "FockOracle",
    "exact_propagator",
    "harmonic_exact_K",
    "displacement_element",
    "weyl_element",
]

DEFAULT_CUTOFF = 80
DEFAULT_TAIL_THRESHOLD = 1e-12


@dataclass(frozen=True)
class PhasePoint:
    """A real phase-space point (q, p)."""

    q: float
    p: float


@dataclass(frozen=True)
class FockVector:
    """Truncated Fock-basis amplitudes of a state, with its tail mass."""

    cutoff: int
    amplitudes: np.ndarray
    tail: float


def overlap(z1: complex, z2: complex):
    """Coherent-state overlap <z1|z2> = exp(-|z1|^2/2 + conj(z1) z2 - |z2|^2/2)."""
    return np.exp(
        -0.5 * np.abs(z1) ** 2 + np.conj(z1) * z2 - 0.5 * np.abs(z2) ** 2
    )


@lru_cache(maxsize=8)
def _fock_log_tables(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns n and lgamma(n + 1) / 2 for n = 0..cutoff (read-only, shared)."""
    n = np.arange(cutoff + 1.0)[:, None]
    half_log_fact = np.array([0.5 * math.lgamma(k + 1.0) for k in range(cutoff + 1)])[:, None]
    n.flags.writeable = half_log_fact.flags.writeable = False
    return n, half_log_fact


def _coherent_columns(zs: np.ndarray, cutoff: int) -> np.ndarray:
    """Amplitudes e^{-|z|^2/2} z^n / sqrt(n!) for n = 0..cutoff, one column per label.

    The modulus is exp(-|z|^2/2 + n log|z| - lgamma(n+1)/2) and the phase a
    running product of the unit number z/|z|, so no intermediate overflows
    or underflows where the amplitude itself is representable.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    r = np.abs(zs)
    if not np.isfinite(r).all():
        raise ValueError("coherent labels must be finite")
    n, half_log_fact = _fock_log_tables(cutoff)
    r1 = np.maximum(r, np.finfo(float).tiny)  # a zero label keeps n = 0 alone
    cols = np.empty((cutoff + 1, zs.size), dtype=complex)
    cols[0] = 1.0
    np.divide(zs, r1, out=cols[1:])
    np.cumprod(cols, axis=0, out=cols)
    cols *= np.exp(n * np.log(r1) - half_log_fact - 0.5 * r * r)
    return cols


def fock_coherent(
    z: complex,
    cutoff: int,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
) -> FockVector:
    """Truncated Fock expansion of |z>, amplitudes e^{-|z|^2/2} z^n / sqrt(n!).

    Raises
    ------
    TailTooLarge
        If the truncated Poisson tail mass exceeds ``tail_threshold`` (or is
        not a number).
    """
    amplitudes = _coherent_columns(np.array([complex(z)]), cutoff)[:, 0]
    tail = 1.0 - float(np.vdot(amplitudes, amplitudes).real)
    if not tail <= tail_threshold:
        raise TailTooLarge(tail, tail_threshold, cutoff)
    return FockVector(cutoff, amplitudes, max(0.0, tail))


def coherent_matrix(
    zs: np.ndarray,
    cutoff: int,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
) -> np.ndarray:
    """Column-stacked coherent vectors for an array of labels."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex)).ravel()
    cols = _coherent_columns(zs, cutoff)
    tails = 1.0 - np.sum(np.abs(cols) ** 2, axis=0)
    worst = float(np.max(tails))
    if not worst <= tail_threshold:
        raise TailTooLarge(worst, tail_threshold, cutoff)
    return cols


def operator_matrix(op: OperatorPoly, cutoff: int) -> np.ndarray:
    """Dense matrix of a normal-ordered operator in the basis |0> .. |cutoff>.

    Matrix elements of ``adag^m a^n`` are
    ``sqrt(i!/(i-m)!) sqrt(j!/(j-n)!) delta_{i-m, j-n}``; Hermitian input
    yields an exactly Hermitian matrix.
    """
    if cutoff < op.degree:
        raise ValueError(
            f"cutoff {cutoff} smaller than operator degree {op.degree}"
        )
    dim = cutoff + 1
    mat = np.zeros((dim, dim), dtype=complex)
    j = np.arange(dim)
    for (m, n), c in op.terms.items():
        cols = j[j >= n]
        rows = cols - n + m
        keep = rows <= cutoff
        cols, rows = cols[keep], rows[keep]
        # product form of sqrt(j!/(j-n)!) sqrt(i!/(i-m)!), overflow free
        vals = np.ones(cols.size)
        for k in range(n):
            vals = vals * (cols - k)
        for k in range(m):
            vals = vals * (rows - k)
        mat[rows, cols] += c * np.sqrt(vals)
    return mat


class FockOracle:
    """Exact evolution in a truncated Fock space, via eigendecomposition.

    The Hamiltonian must be Hermitian; the propagator built from ``eigh`` is
    then exactly unitary on the truncated space, which keeps every
    norm-conservation check honest.
    """

    def __init__(self, op: OperatorPoly, cutoff: int = DEFAULT_CUTOFF):
        if not op.is_hermitian():
            raise ValueError("FockOracle requires a Hermitian operator")
        self.op = op
        self.cutoff = cutoff
        self.hbar = op.hbar
        self.matrix = operator_matrix(op, cutoff)
        self.evals, self.evecs = np.linalg.eigh(self.matrix)

    def evolution_matrix(self, T: float) -> np.ndarray:
        phases = np.exp(-1j * self.evals * T / self.hbar)
        return (self.evecs * phases[None, :]) @ self.evecs.conj().T

    def propagate_vector(self, vec: np.ndarray, T: float) -> np.ndarray:
        phases = np.exp(-1j * self.evals * T / self.hbar)
        return self.evecs @ (phases * (self.evecs.conj().T @ vec))

    def propagator(
        self,
        z1: complex,
        z2,
        T: float,
        tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
    ):
        """<z2|exp(-i H T / hbar)|z1>, vectorised over an array of z2."""
        v1 = fock_coherent(z1, self.cutoff, tail_threshold).amplitudes
        evolved = self.propagate_vector(v1, T)
        if np.ndim(z2) == 0:
            v2 = fock_coherent(complex(z2), self.cutoff, tail_threshold).amplitudes
            return complex(v2.conj() @ evolved)
        cols = coherent_matrix(np.asarray(z2), self.cutoff, tail_threshold)
        return cols.conj().T @ evolved


def exact_propagator(
    H: OperatorPoly,
    z1: complex,
    z2: complex,
    T: float,
    cutoff: int = DEFAULT_CUTOFF,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
    check_tolerance: float = 1e-10,
) -> complex:
    """Exact coherent-state propagator <z2|exp(-i H T/hbar)|z1>.

    Every call runs a cutoff-doubling convergence check: the value at
    ``cutoff`` and at ``2 cutoff`` must agree within ``check_tolerance``.

    Raises
    ------
    TailTooLarge
        If either label needs more basis states than ``cutoff`` provides.
    NonConverged
        If doubling the cutoff moves the result by more than the tolerance.
    """
    if T < 0:
        raise ValueError("T must be non-negative")
    base = _cached_oracle(H, cutoff).propagator(z1, z2, T, tail_threshold)
    refined = _cached_oracle(H, 2 * cutoff).propagator(z1, z2, T, tail_threshold)
    if abs(base - refined) > check_tolerance:
        raise NonConverged(
            f"propagator changed by {abs(base - refined):.3e} when doubling the "
            f"cutoff {cutoff} -> {2 * cutoff}"
        )
    return refined


def _oracle_key(H: OperatorPoly, cutoff: int):
    return (tuple(sorted(H.terms.items())), H.hbar, cutoff)


_ORACLES: dict = {}


def _cached_oracle(H: OperatorPoly, cutoff: int) -> FockOracle:
    key = _oracle_key(H, cutoff)
    if key not in _ORACLES:
        if len(_ORACLES) > 64:
            _ORACLES.clear()
        _ORACLES[key] = FockOracle(H, cutoff)
    return _ORACLES[key]


def harmonic_exact_K(z1: complex, z2: complex, omega: float, T: float) -> complex:
    """Closed-form <z2|U|z1> for H = hbar omega (adag a + 1/2)."""
    mu = np.exp(-1j * omega * T)
    return np.exp(-0.5j * omega * T) * np.exp(
        mu * z1 * np.conj(z2) - 0.5 * abs(z1) ** 2 - 0.5 * abs(z2) ** 2
    )


def displacement_element(
    xi: PhasePoint, z1: complex, z2: complex, ctx: ScaleContext
) -> complex:
    """Matrix element <z2| T_xi |z1> of the phase-space translation operator.

    With z = z(xi) the label of the displacement, the closed form is
    ``exp(z conj(z2) - conj(z) z1 - |z|^2 / 2) <z2|z1>``.
    """
    z = ctx.z_from_qp(xi.q, xi.p)
    return complex(
        np.exp(z * np.conj(z2) - np.conj(z) * z1 - 0.5 * abs(z) ** 2)
        * overlap(z2, z1)
    )


@dataclass(frozen=True)
class QuadSpec:
    """Gauss-Hermite tensor quadrature: nodes per axis plus a doubling check."""

    nodes: int = 64
    check: bool = True
    tolerance: float = 1e-9


@lru_cache(maxsize=8)
def _gh_nodes(n: int):
    return np.polynomial.hermite.hermgauss(n)


def _weyl_element_fixed(
    A_W: SymbolPoly, z1: complex, z2: complex, nodes: int
) -> complex:
    # Completing the square puts the centres at complex points; the shifted
    # contour is legitimate because the integrand is entire in (x, y).
    x0 = 0.5 * (np.conj(z2) + z1)
    y0 = 0.5j * (np.conj(z2) - z1)
    t, wts = _gh_nodes(nodes)
    xs = x0 + t / math.sqrt(2.0)
    ys = y0 + t / math.sqrt(2.0)
    u = xs[:, None] + 1j * ys[None, :]
    v = xs[:, None] - 1j * ys[None, :]  # analytic continuation of conj(w)
    vals = A_W.eval(u, v)
    acc = wts @ vals @ wts
    return complex(acc / math.pi * overlap(z2, z1))


def weyl_element(
    A_W: SymbolPoly,
    z1: complex,
    z2: complex,
    quad: QuadSpec = QuadSpec(),
) -> complex:
    """Coherent matrix element <z2|A|z1> from the Weyl symbol of A.

    Evaluates ``2 int (dw dw*/2 pi i) A(w, w*) exp(-2|w|^2 + 2 conj(z2) w
    + 2 z1 w* - |z2|^2/2 - |z1|^2/2 - conj(z2) z1)`` with tensor-product
    Gauss-Hermite quadrature aligned to the Gaussian factor; for polynomial
    symbols below the quadrature degree the result is exact to rounding.

    Raises
    ------
    QuadratureNotConverged
        If doubling the node count moves the result by more than the spec
        tolerance (``quad.check`` enabled).
    """
    value = _weyl_element_fixed(A_W, z1, z2, quad.nodes)
    if quad.check:
        refined = _weyl_element_fixed(A_W, z1, z2, 2 * quad.nodes)
        if abs(refined - value) > quad.tolerance:
            raise QuadratureNotConverged(
                f"weyl_element changed by {abs(refined - value):.3e} "
                f"when doubling {quad.nodes} nodes"
            )
        value = refined
    return value
