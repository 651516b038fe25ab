"""Coherent-state kinematics and the truncated-Fock-space exact oracle.

Everything here is meant to be boringly reliable: dense Hermitian matrices,
eigendecompositions, closed forms.  The rest of the package is validated
against these routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _EXPORTS
from .algebra import FORM_S, OperatorPoly, ScaleContext, SymbolPoly, _apply_exp_mixed
from .errors import DomainError, InvalidArgument, finite_double, refine, require_finite
from .errors import require_index, require_nonnegative, require_positive, require_scalar

__all__ = _EXPORTS["coherent"].split()

DEFAULT_CUTOFF = 80
TAIL_THRESHOLD = 1e-12  # largest truncated tail mass allowed for any coherent label
CUTOFF_TOLERANCE = 1e-10  # default cutoff-doubling tolerance of exact_propagator
DENSE_BYTES = 2**31  # largest dense arrays one call builds, each counted by _require_dense first
COHERENT_BYTES = 32  # per Fock state and label, plus one label for the tables, in coherent_matrix:
# complex columns and one float table (traced peak: 24.1-25.5 at 16-4096 labels, 24 at one); the
# Husimi grid's block loop over the columns peaks at 28.1 (cutoff 200, 64 x 64 labels)
ORACLE_MATRICES = 5  # complex (cutoff + 1)^2 arrays alive in the build of a complex H that couples
# parities: H, eigh's copy, its two work arrays and the eigenvectors (measured peak: 5.1 at cutoff 1000
# and 2000); a real H peaks at 2.5-2.6 in one block, and at 1.4-1.5 in parity blocks (H and its real part)


@dataclass(frozen=True)
class FockVector:
    """Truncated Fock-basis amplitudes of a state, with its tail mass."""

    cutoff: int
    amplitudes: np.ndarray
    tail: float


def overlap(z1: complex, z2: complex):
    """Coherent-state overlap <z1|z2> = exp(-|z1|^2/2 + conj(z1) z2 - |z2|^2/2).

    Raises
    ------
    DomainError
        If the exponent is not a finite double (|z|^2 beyond the double range).
    """
    return np.exp(finite_double(
        lambda: -0.5 * np.abs(z1) ** 2 + np.conj(z1) * z2 - 0.5 * np.abs(z2) ** 2,
        "the coherent overlap exponent",
    ))


@lru_cache(maxsize=8)
def _fock_log_tables(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns n and lgamma(n + 1) / 2 for n = 0..cutoff (read-only, shared)."""
    n = np.arange(cutoff + 1.0)[:, None]
    half_log_fact = np.array([0.5 * math.lgamma(k + 1.0) for k in range(cutoff + 1)])[:, None]
    n.flags.writeable = half_log_fact.flags.writeable = False
    return n, half_log_fact


def _labels(zs, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat complex labels, their moduli r and r^2/2; refuses a cutoff below 0 or a non-finite
    label, and raises DomainError where r^2/2 is not a finite double."""
    require_finite(**{"coherent labels": zs})  # a string, before numpy's conversion
    zs = np.atleast_1d(np.asarray(zs, dtype=complex)).ravel()
    require_index(cutoff, "cutoff", 0)
    r = np.abs(zs)
    return zs, r, finite_double(lambda: 0.5 * r * r, "|z|^2/2 of a coherent label")


def coherent_matrix(zs, cutoff: int) -> np.ndarray:
    """Column-stacked coherent vectors e^{-|z|^2/2} z^n / sqrt(n!), n = 0..cutoff.

    The modulus is exp(-|z|^2/2 + n log|z| - lgamma(n+1)/2) and the phase the
    power (z/|z|)^n, built by doubling (rows k+1..2k are rows 1..k times row
    k, ceil(log2 cutoff) products), so no intermediate overflows or
    underflows where the amplitude itself is representable.

    Raises
    ------
    DomainError
        If |z|^2/2 of a label is not a finite double, the truncated Poisson
        tail mass of any label exceeds ``TAIL_THRESHOLD`` (or is not a
        number), or the columns would take more than ``DENSE_BYTES``
        (refused before anything is built).
    InvalidArgument
        If the cutoff is not an integer of at least 0 or a label is not a finite number.
    """
    zs, r, half_r2 = _labels(zs, cutoff)
    need = COHERENT_BYTES * (cutoff + 1) * (zs.size + 1)
    _require_dense(need, f"coherent vectors of {zs.size} labels at cutoff {cutoff}")
    n, half_log_fact = _fock_log_tables(cutoff)
    r1 = np.maximum(r, np.finfo(float).tiny)  # a zero label keeps n = 0 alone
    cols = np.empty((cutoff + 1, zs.size), dtype=complex)
    cols[0] = 1.0
    np.divide(zs, r1, out=cols[1:2])
    k = 1  # rows 0..k hold the powers 0..k
    while k < cutoff:
        step = min(k, cutoff - k)
        np.multiply(cols[1:step + 1], cols[k], out=cols[k + 1:k + step + 1])
        k += step
    moduli = n * np.log(r1)  # the one float table: exponents, then moduli, then their squares
    moduli -= half_log_fact
    moduli -= half_r2
    cols *= np.exp(moduli, out=moduli)
    tail = float(np.max(1.0 - np.sum(np.square(moduli, out=moduli), axis=0)))
    if not tail <= TAIL_THRESHOLD:  # NaN-aware
        raise DomainError(
            f"truncated tail mass {tail:.3e} exceeds threshold {TAIL_THRESHOLD:.3e} "
            f"at cutoff {cutoff}; increase the cutoff"
        )
    return cols


def fock_coherent(z: complex, cutoff: int) -> FockVector:
    """Truncated Fock expansion of |z>: the one column of :func:`coherent_matrix`."""
    amplitudes = coherent_matrix(z, cutoff)[:, 0]
    tail = 1.0 - float(np.vdot(amplitudes, amplitudes).real)
    return FockVector(cutoff, amplitudes, max(0.0, tail))


def operator_matrix(op: OperatorPoly, cutoff: int) -> np.ndarray:
    """Dense matrix of a normal-ordered operator in the basis |0> .. |cutoff>.

    Matrix elements of ``adag^m a^n`` are
    ``sqrt(i!/(i-m)!) sqrt(j!/(j-n)!) delta_{i-m, j-n}``; Hermitian input
    yields an exactly Hermitian matrix; the cutoff must be at least the degree, and a matrix
    beyond ``DENSE_BYTES`` raises :class:`DomainError` before it is built.
    """
    require_index(cutoff, "cutoff", op.degree)
    dim = cutoff + 1
    _require_dense(16 * dim**2, f"a Fock matrix at cutoff {cutoff}")  # traced peak: 16.1-17
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
    norm-conservation check honest.  A cutoff whose build would exceed
    ``DENSE_BYTES`` raises :class:`DomainError` before any matrix is made.

    ``eigh`` runs on the smallest real problems the Fock matrix allows: its
    real part where the imaginary part is exactly zero, and the even and odd
    photon-number blocks apart where no entry couples them (an H even in q
    and p keeps parity).  ``blocks`` holds each block once, as (rows, evals,
    vectors): the Fock rows it spans (a slice), its ascending eigenvalues and
    its eigenvectors, real when the matrix is.  No (cutoff + 1)^2 eigenbasis
    is assembled; every use sums over the blocks through :meth:`eigen_blocks`.
    """

    def __init__(self, op: OperatorPoly, cutoff: int = DEFAULT_CUTOFF):
        if not op.is_hermitian():
            raise InvalidArgument("FockOracle requires a Hermitian operator")
        _require_oracle_fits(cutoff, 1)
        self.cutoff = cutoff
        self.hbar = op.hbar
        mat = operator_matrix(op, cutoff)
        if not mat.imag.any():
            mat = mat.real.copy()  # frees the complex matrix
        coupled = mat[0::2, 1::2].any() or mat[1::2, 0::2].any()
        rows = [slice(None)] if coupled else [slice(0, None, 2), slice(1, None, 2)]
        self.blocks = tuple((b, *np.linalg.eigh(mat[b, b])) for b in rows)

    @property
    def real(self) -> bool:
        """Whether the eigenbasis is real (a real Fock matrix), and with it <k|x> of a real x."""
        return not np.iscomplexobj(self.blocks[0][2])

    def eigen_blocks(self, x: np.ndarray, T: float):
        """Each block's phases e^{-i E_k T/hbar} and amplitudes <k|x> = V^dagger x[rows] of the
        Fock columns x (2-D), one block at a time; the amplitudes are a new array, real for a real
        x where the eigenbasis is real.  A phase whose E_k T/hbar leaves the double range raises
        :class:`DomainError` as its block is reached."""
        require_finite(T=T)
        what = f"the phase e^{{-i E_k T/hbar}} at T = {T}"
        return ((finite_double(lambda: np.exp(-1j * w * T / self.hbar), what),
                 _adjoint_product(v, x[rows]))
                for rows, w, v in self.blocks)

    def propagator(self, z1: complex, z2, T: float):
        """<z2|exp(-i H T / hbar)|z1> = sum_k conj(<k|z2>) e^{-i E_k T/hbar} <k|z1>, vectorised
        over an array of z2; one set of coherent columns holds z1 and every z2."""
        cols = coherent_matrix(np.append(z1, z2), self.cutoff)
        vals = sum(a[:, 1:].conj().T @ (phases * a[:, 0]) for phases, a in self.eigen_blocks(cols, T))
        return complex(vals[0]) if np.ndim(z2) == 0 else vals


def _adjoint_product(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v^dagger x; for a real v a complex x is multiplied through its float view, one real product
    over its real and imaginary parts, with no complex copy of v."""
    if np.iscomplexobj(v) or not np.iscomplexobj(x):
        return v.conj().T @ x
    return (v.T @ x.view(float)).view(complex)


def exact_propagator(
    H: OperatorPoly,
    z1: complex,
    z2: complex,
    T: float,
    cutoff: int = DEFAULT_CUTOFF,
    check_tolerance: float = CUTOFF_TOLERANCE,
) -> complex:
    """Exact coherent-state propagator <z2|exp(-i H T/hbar)|z1>.

    Every call runs a cutoff-doubling convergence check: the value at
    ``cutoff`` and at ``2 cutoff`` must agree within ``check_tolerance``.

    Raises
    ------
    DomainError
        If either label needs more basis states than ``cutoff`` provides, the
        oracle at ``2 cutoff`` would take more than ``DENSE_BYTES``, or a phase
        E_k T/hbar leaves the double range.
    NonConverged
        If doubling the cutoff moves the result by more than the tolerance.
    InvalidArgument
        If T is negative, T or a label is not a finite scalar, ``cutoff`` is not an integer
        of at least 0 and the degree of H, or ``check_tolerance`` is not positive.
    """
    require_nonnegative(T=T)  # before an oracle is built
    require_scalar(z1=z1, z2=z2)
    require_positive(check_tolerance=check_tolerance)
    _require_oracle_fits(cutoff, 2)
    base = _cached_oracle(H, cutoff).propagator(z1, z2, T)
    refined = _cached_oracle(H, 2 * cutoff).propagator(z1, z2, T)
    what = f"doubling the cutoff {cutoff} -> {2 * cutoff}"
    return refine(base, refined, check_tolerance, what)[0]


def _require_oracle_fits(cutoff: int, factor: int) -> None:
    """Refuse ``cutoff`` if its largest oracle, at ``factor * cutoff``, exceeds ``DENSE_BYTES``."""
    largest = factor * require_index(cutoff, "cutoff", 0)
    need = ORACLE_MATRICES * 16 * (largest + 1) ** 2
    _require_dense(need, f"cutoff {cutoff} needs an oracle at cutoff {largest}")


def _require_dense(need: float, what: str) -> None:
    """Refuse ``what`` unless its ``need`` in bytes is at most ``DENSE_BYTES``, read at the call;
    ``need`` may be any count, an int beyond the double range included."""
    if not need <= DENSE_BYTES:  # an inf or NaN count is refused too
        try:
            shown = f"{need:.3g}"
        except OverflowError:  # an int beyond the double range; a rare path, so imported here
            from decimal import Decimal

            shown = f"{Decimal(need):.3g}"
        raise DomainError(f"{what}: {shown} bytes exceed DENSE_BYTES")


def _cached_oracle(H: OperatorPoly, cutoff: int) -> FockOracle:
    """The oracle of (H, cutoff), built on first use; the 64 most recently used are kept."""
    return _oracle(tuple(H.terms.items()), H.hbar, cutoff)


@lru_cache(maxsize=64)
def _oracle(terms: tuple, hbar: float, cutoff: int) -> FockOracle:
    return FockOracle(OperatorPoly(dict(terms), hbar), cutoff)


def harmonic_exact_K(z1: complex, z2: complex, omega: float, T: float) -> complex:
    """Closed-form <z2|U|z1> for H = hbar omega (adag a + 1/2); a negative T evolves backwards.

    Raises
    ------
    DomainError
        If the closed form is not a finite double (|z|^2 beyond the double range).
    InvalidArgument
        If a label, omega or T is not a finite scalar.
    """
    require_scalar(z1=z1, z2=z2, omega=omega, T=T)
    mu = np.exp(-1j * omega * T)
    return complex(finite_double(
        lambda: np.exp(-0.5j * omega * T) * np.exp(
            mu * z1 * np.conj(z2) - 0.5 * abs(z1) ** 2 - 0.5 * abs(z2) ** 2
        ),
        "the harmonic closed form <z2|U|z1>",
    ))


def displacement_element(q: float, p: float, z1, z2, ctx: ScaleContext):
    """<z2| T(q, p) |z1> = exp(i Im(z conj(z1))) <z2|z1 + z>, z = z(q, p): the phase-space
    translation's matrix element, broadcast over z1 and z2 as in :func:`overlap`."""
    require_finite(q=q, p=p, z1=z1, z2=z2)
    z = ctx.z_from_qp(q, p)
    return overlap(z2, z1 + z) * np.exp(1j * np.imag(z * np.conj(z1)))


def weyl_element(A_W: SymbolPoly, z1: complex, z2: complex) -> complex:
    """Coherent matrix element <z2|A|z1> from the Weyl symbol of A.

    The paper's midpoint integral ``2 int (dw dw*/2 pi i) A(w, w*) exp(-2|w|^2 + 2 conj(z2) w
    + 2 z1 w* - |z2|^2/2 - |z1|^2/2 - conj(z2) z1)`` of a polynomial symbol is exactly
    ``A_Q(z1, conj z2) <z2|z1>``, with ``A_Q = exp(d_u d_v / 2) A_W`` the Q symbol: the
    s-ordering map of Cahill and Glauber (Phys. Rev. 177, 1857, 1969) that
    :func:`algebra.weyl_quantize` applies.  A label given as a numpy scalar or a 0-d array
    gives the Python scalar's value, bit for bit.

    Raises
    ------
    DomainError
        If a coefficient of A_Q (the error names its term) or the product is not a finite double.
    InvalidArgument
        If a label is not a finite scalar.
    """
    require_scalar(z1=z1, z2=z2)
    z1, z2 = complex(z1), complex(z2)
    a_q = SymbolPoly(_apply_exp_mixed(A_W.terms, -FORM_S["w"]))
    what = "the matrix element A_Q(z1, conj z2) <z2|z1>"
    return complex(finite_double(lambda: a_q.eval(z1, z2.conjugate()) * overlap(z2, z1), what))
