"""Gaussian-fluctuation determinants for the midpoint discrete exponent.

The second variation of the discrete exponent defines a 2N x 2N symmetric
matrix.  After factoring 2i out of every element and a determinant-preserving
row/column reduction it becomes block tridiagonal, where a two-term Laplace
recursion evaluates it in O(N).  The continuum limit of that recursion is a
linear ODE whose solution ties the determinant to the second derivative of
the action: it is the variational half of the trajectory system in
:mod:`weylpath.semiclassics`, integrated by the same product of RK4 step
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .coherent import _require_dense
from .errors import DomainError, InvalidArgument, finite_double, refine
from .errors import require_finite, require_index, require_nonnegative, require_positive
from .semiclassics import _linear_rk4, _total_product

__all__ = _EXPORTS["fluctuation"].split()

SINGULAR_VALUE_RATIO = 1e-13  # smallest/largest singular value below this: singular to double precision
RECURSION_CHUNK = 4096  # transfer matrices det_recursive multiplies as one tree: bounds its working memory
CONTINUUM_BYTES = 592  # per RK4 step of det_continuum's finest pass: samples, generators and
# step matrices (traced peak at 16,384 and 65,536 steps; a checked call has twice the steps)


@dataclass(frozen=True)
class FluctuationCoeffs:
    """Second derivatives of the symbol along a stationary path.

    ``A_k = d2H/dw_k^2`` (no-star direction), ``B_k = d2H/dw*_k^2`` and
    ``C_k = d2H/dw_k dw*_k``, sampled at the path points, plus the slice
    length ``tau`` and ``hbar``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    tau: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in "ABC":
            object.__setattr__(
                self, name, np.atleast_1d(np.asarray(getattr(self, name), complex))
            )
        if not (len(self.A) == len(self.B) == len(self.C) > 0):
            raise InvalidArgument("A, B, C must be non-empty and of equal length")
        require_finite(A=self.A, B=self.B, C=self.C)
        require_positive(tau=self.tau, hbar=self.hbar)

    @property
    def N(self) -> int:
        return len(self.A)


@dataclass(frozen=True)
class DeterminantPair:
    """Determinant Delta_N of the reduced matrix and its first minor Gamma_N."""

    Delta: complex
    Gamma: complex


def build_matrix(coeffs: FluctuationCoeffs) -> np.ndarray:
    """Assemble the 2N x 2N quadratic-form matrix of the second variation.

    With X = (xi_N, xi*_N, ..., xi_1, xi*_1), the second variation of the
    discrete exponent is -1/2 X^T M X: diagonal 2x2 blocks
    ``[[i tau A_k/hbar, i tau C_k/hbar + 2], [., i tau B_k/hbar]]`` and the
    alternating couplings ``M[xi*_m, xi_n] = 4 (-1)^(m-n)`` for m > n.
    """
    N = coeffs.N
    lam = 1j * coeffs.tau / coeffs.hbar
    no_star = np.arange(0, 2 * N, 2)  # xi_k sits at row 2 (N - k), xi*_k one below
    star = no_star + 1
    M = np.zeros((2 * N, 2 * N), dtype=complex)
    M[no_star, no_star] = lam * coeffs.A[::-1]
    M[star, star] = lam * coeffs.B[::-1]
    M[no_star, star] = M[star, no_star] = lam * coeffs.C[::-1] + 2.0
    a, b = np.triu_indices(N, 1)  # block a holds xi*_m, block b holds xi_n, m > n
    M[star[a], no_star[b]] = M[no_star[b], star[a]] = 4.0 * (-1.0) ** (b - a)
    return M


def block_tridiagonal(matrix: np.ndarray) -> np.ndarray:
    """Reduce the (2i-factored) fluctuation matrix to block-tridiagonal form.

    Applies the congruence B = E^T (M / 2i) E where E adds each xi*_{m-1}
    column to the xi*_m column; determinant-preserving since det E = 1.
    The long-range alternating couplings cancel pairwise.  A matrix that is
    not square of even dimension, or not finite, raises InvalidArgument.
    """
    if matrix.ndim != 2 or matrix.shape[0] % 2 != 0 or matrix.shape[1] != matrix.shape[0]:
        raise InvalidArgument(f"expected a square matrix of even dimension, got shape {matrix.shape}")
    require_finite(matrix=matrix)
    n2 = matrix.shape[0]
    star = np.arange(1, n2 - 2, 2)  # xi*_m for m = N .. 2; xi*_{m-1} is two rows down
    E = np.eye(n2, dtype=complex)
    E[star + 2, star] = 1.0
    return E.T @ (matrix / 2j) @ E


def det_dense(matrix: np.ndarray) -> complex:
    """Determinant by LAPACK's LU with partial pivoting (``np.linalg.det``).

    Raises
    ------
    DomainError
        If the determinant is not a finite double, or the smallest singular
        value falls below ``SINGULAR_VALUE_RATIO`` of the largest one.
    InvalidArgument
        If the matrix is not square, is empty or holds a non-finite entry.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidArgument(f"expected a non-empty square matrix, got shape {m.shape}")
    require_finite(matrix=m)
    det = finite_double(lambda: complex(np.linalg.det(m)), "the determinant")
    sv = np.linalg.svd(m, compute_uv=False)  # numpy does not expose the LU pivots
    ratio = sv[-1] / max(sv[0], 1e-300)
    if ratio < SINGULAR_VALUE_RATIO:
        raise DomainError(f"singular value ratio {ratio:.3e} below threshold")
    return det


def det_recursive(coeffs: FluctuationCoeffs) -> DeterminantPair:
    """Laplace recursion for the block-tridiagonal reduced determinant.

    With a_k = tau A_k / 2 hbar (same for b, c) and cm_k = c_k - i,
    cp_k = c_k + i, g_k = b_k + b_{k-1}:

        Delta_k = a_k Gamma_k - cm_k^2 Delta_{k-1}
        Gamma_k = g_k Delta_{k-1} - cp_{k-1}^2 Gamma_{k-1}
                  + b_{k-1} (2 cp_{k-1} cm_{k-1} - a_{k-1} b_{k-1}) Delta_{k-2}

    starting from Delta_0 = 1, Delta_1 = a_1 b_1 - cm_1^2, Gamma_1 = b_1.
    The full determinant is 2^{2N} i^{2N} Delta_N; agreement with
    :func:`det_dense` of :func:`build_matrix` is enforced by the test suite.

    It is linear in s_k = (Delta_k, Gamma_k, Delta_{k-1}): s_k = M_k s_{k-1} with j = k - 1,
    M_k = [[a_k g_k - cm_k^2, -a_k cp_j^2, a_k e_j], [g_k, -cp_j^2, e_j], [1, 0, 0]] and
    e_j = b_j (2 cp_j cm_j - a_j b_j).  M_N ... M_2 is multiplied ``RECURSION_CHUNK`` factors at
    a time by pairwise halving (``semiclassics._total_product``), and the chunk products are
    applied to s_1 in order.

    Raises
    ------
    DomainError
        If Delta_N or Gamma_N is not a finite double.
    """
    half = coeffs.tau / (2.0 * coeffs.hbar)

    def chunk_product(window: slice) -> np.ndarray:  # product of the M_k of every k in the window but its first
        a, b, c = (half * x[window] for x in (coeffs.A, coeffs.B, coeffs.C))
        a_k, a_j, b_j, cp_j = a[1:], a[:-1], b[:-1], c[:-1] + 1j
        g, cp2 = b[1:] + b_j, cp_j**2
        e = b_j * (2.0 * cp_j * (c[:-1] - 1j) - a_j * b_j)
        one, zero = np.ones_like(g), np.zeros_like(g)
        return _total_product(np.array(
            [[a_k * g - (c[1:] - 1j) ** 2, -a_k * cp2, a_k * e], [g, -cp2, e], [one, zero, zero]]))

    def delta_gamma():
        a_1, b_1, c_1 = half * coeffs.A[0], half * coeffs.B[0], half * coeffs.C[0]
        s = np.array([a_1 * b_1 - (c_1 - 1j) ** 2, b_1, 1.0])  # s_1
        for start in range(1, coeffs.N, RECURSION_CHUNK):
            s = chunk_product(slice(start - 1, start + RECURSION_CHUNK)) @ s
        return s[:2]

    delta, gamma = finite_double(delta_gamma, "Delta_N or Gamma_N of the recursion")
    return DeterminantPair(complex(delta), complex(gamma))


def _variational_delta(g: np.ndarray, T: float, steps: int) -> complex:
    """Delta(T) = dv(T) of the trajectory system's variational pair (du, dv) from (0, 1).

    ``g`` holds its generator (i/hbar) [[-C, -B], [A, C]] at the half steps
    k h / 2, laid out [row, column, k]; Delta(T) is the (1, 1) entry of the
    total product of the RK4 step matrices, the one prefix it reads.
    """
    G = (g[..., :-1:2], g[..., 1::2], g[..., 1::2], g[..., 2::2])
    return finite_double(lambda: complex(_total_product(_linear_rk4(G, T / steps))[1, 1]), "Delta(T)")


def det_continuum(
    A,
    B,
    C,
    T: float,
    steps: int = 512,
    hbar: float = 1.0,
    step_tolerance: float | None = 1e-8,
) -> complex:
    """Continuum fluctuation determinant Delta(T) from coefficient samplers.

    Solves Delta' = (A/2hbar) Gamma + (iC/hbar) Delta,
    Gamma' = (2B/hbar) Delta - (iC/hbar) Gamma from Delta(0) = 1,
    Gamma(0) = 0.  This is the variational half of the trajectory system,
    with Delta = dv and Gamma = 2i du, integrated as the shooting integrates
    it: an ordered product of RK4 step matrices (``semiclassics._linear_rk4``).

    ``A``, ``B``, ``C`` are callables of t (second symbol derivatives along a
    stationary trajectory).  Each is called once, on the array of all RK4
    stage times of the finest pass; a callable that returns a scalar is
    broadcast to a constant.  The step-halving pass reads every other entry.
    T and ``hbar`` may be any real number type and ``steps`` any integer
    type, numpy scalars included, with the same result as Python scalars.

    Raises
    ------
    NonConverged
        If halving the step moves Delta(T) by more than ``step_tolerance``.
    DomainError
        If Delta(T) of either pass is not a finite double, or the finest
        pass (``CONTINUUM_BYTES`` per step) would take more than
        ``coherent.DENSE_BYTES``, refused before A, B or C is called.
    InvalidArgument
        If T is negative or not finite, ``steps`` is a boolean, not an
        integer or below 1, ``hbar`` is not finite and positive, or A, B or C
        returns a non-finite value.
    """
    require_nonnegative(T=T)
    require_positive(hbar=hbar)
    steps = require_index(steps, "steps", 1)
    T, hbar = float(T), float(hbar)  # a numpy scalar T or hbar gives the Python scalars' Delta
    if T == 0:
        return 1.0 + 0.0j
    fine_steps = steps if step_tolerance is None else 2 * steps
    _require_dense(CONTINUUM_BYTES * fine_steps, f"Delta(T) on {fine_steps} RK4 steps")
    ts = np.linspace(0.0, T, 2 * fine_steps + 1)
    samples = {
        name: np.broadcast_to(np.asarray(f(ts), dtype=complex), ts.shape)
        for name, f in zip("ABC", (A, B, C))
    }
    require_finite(**samples)
    g = np.empty((2, 2, len(ts)), dtype=complex)
    g[0, 0], g[0, 1], g[1, 0], g[1, 1] = -samples["C"], -samples["B"], samples["A"], samples["C"]
    g *= 1j / hbar
    fine = _variational_delta(g, T, fine_steps)
    if step_tolerance is None:
        return fine
    coarse = _variational_delta(g[..., ::2], T, steps)
    what = f"halving the step ({steps} -> {fine_steps} steps)"
    return refine(coarse, fine, step_tolerance, what)[0]
