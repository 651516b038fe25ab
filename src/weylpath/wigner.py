"""Weyl symbol of the evolution operator and its Husimi counterpart.

The Weyl grid is built from position matrix elements of the truncated
evolution operator (Hermite functions + trapezoid transform over the chord
length); the Husimi grid is the diagonal coherent-state propagator from the
same oracle.  Their Gaussian-smoothing relation and the discrete
symplectic-area identity are exposed as checks.

A rank-(cutoff+1) truncation leaves a weak oscillation on Weyl symbols with
local wavenumber up to 2 sqrt(2 cutoff)/b.  The smoothing kernel annihilates
it as long as that band stays away from the grid's aliasing image 2 pi/step,
so very large cutoffs on coarse grids are counterproductive: keep
2 sqrt(2 cutoff)/b safely below 2 pi/step (cutoff 60 on the default 64x64
grid, with room up to roughly 250).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import OperatorPoly, ScaleContext
from .coherent import FockOracle, coherent_matrix, fock_coherent
from .discrete import DiscreteWPath, chord_coefficients
from .errors import MarginTooSmall, QuadratureNotConverged

__all__ = [
    "PhaseSpaceGrid",
    "phase_grid_axes",
    "hermite_functions",
    "weyl_U_grid",
    "husimi_U_grid",
    "smoothing_check",
    "area_identity",
]


@dataclass
class PhaseSpaceGrid:
    """Complex field sampled on a uniform rectangular (q, p) grid."""

    qs: np.ndarray
    ps: np.ndarray
    values: np.ndarray  # shape (len(qs), len(ps))

    def __post_init__(self):
        if self.values.shape != (len(self.qs), len(self.ps)):
            raise ValueError("values shape does not match the axes")

    @property
    def dq(self) -> float:
        return float(self.qs[1] - self.qs[0])

    @property
    def dp(self) -> float:
        return float(self.ps[1] - self.ps[0])

    def same_geometry(self, other: "PhaseSpaceGrid") -> bool:
        return (
            len(self.qs) == len(other.qs)
            and len(self.ps) == len(other.ps)
            and np.allclose(self.qs, other.qs)
            and np.allclose(self.ps, other.ps)
        )


def phase_grid_axes(
    ctx: ScaleContext,
    nq: int = 64,
    npts: int = 64,
    q_widths: float = 4.0,
    p_widths: float = 4.0,
):
    """Default axes |q| <= q_widths b, |p| <= p_widths c."""
    qs = np.linspace(-q_widths * ctx.b, q_widths * ctx.b, nq)
    ps = np.linspace(-p_widths * ctx.c, p_widths * ctx.c, npts)
    return qs, ps


def hermite_functions(xs: np.ndarray, nmax: int, b: float) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions <x|n>, n = 0..nmax.

    Stable three-term recurrence on the normalised functions; returns an
    array of shape (nmax + 1, len(xs)).
    """
    xs = np.asarray(xs, dtype=float)
    xi = xs / b
    out = np.zeros((nmax + 1, xs.size))
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * xi**2) / math.sqrt(b)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(2, nmax + 1):
        out[n] = xi * math.sqrt(2.0 / n) * out[n - 1] - math.sqrt(
            (n - 1) / n
        ) * out[n - 2]
    return out


def _chord_kernel(
    oracle: FockOracle,
    ctx: ScaleContext,
    T: float,
    qs: np.ndarray,
    s: np.ndarray,
    chunk: int = 96,
) -> np.ndarray:
    """Position elements <q - s/2| U |q + s/2>, shape (len(qs), len(s))."""
    U = oracle.evolution_matrix(T)
    nq, ns = len(qs), len(s)
    kernel = np.empty((nq, ns), dtype=complex)
    for start in range(0, ns, chunk):
        sl = s[start : start + chunk]
        xm = (qs[:, None] - 0.5 * sl[None, :]).ravel()
        xp = (qs[:, None] + 0.5 * sl[None, :]).ravel()
        phi_m = hermite_functions(xm, oracle.cutoff, ctx.b)
        phi_p = hermite_functions(xp, oracle.cutoff, ctx.b)
        vals = np.sum(phi_m * (U @ phi_p), axis=0)
        kernel[:, start : start + chunk] = vals.reshape(nq, len(sl))
    return kernel


def _chord_transform(
    kernel: np.ndarray, s: np.ndarray, ps: np.ndarray, hbar: float
) -> np.ndarray:
    """Trapezoid rule for int ds kernel(q, s) exp(i p s / hbar) on the nodes s."""
    hs = s[1] - s[0]
    trap = np.full(len(s), hs)
    trap[0] = trap[-1] = 0.5 * hs
    fourier = np.exp(1j * np.outer(s, ps) / hbar)
    return (kernel * trap[None, :]) @ fourier


def weyl_U_grid(
    H: OperatorPoly,
    ctx: ScaleContext,
    T: float,
    qs: np.ndarray,
    ps: np.ndarray,
    cutoff: int = 200,
    s_half: float | None = None,
    s_step: float | None = None,
    tail_threshold: float = 1e-10,
    check: bool = True,
    check_tolerance: float = 1e-7,
) -> PhaseSpaceGrid:
    """Weyl symbol U(q, p, T) of the truncated evolution operator.

    U(q, p, T) = int ds  <q - s/2| U |q + s/2>  exp(i p s / hbar),

    with position elements synthesised from the Fock eigenbasis via Hermite
    functions and the chord integral done by trapezoid over a window wide
    enough for the truncated basis support b sqrt(2 cutoff + 1).

    Raises
    ------
    TailTooLarge
        If the corner coherent state is not resolved by ``cutoff``.
    QuadratureNotConverged
        If halving the chord step moves any grid value beyond the tolerance.
    """
    qs = np.asarray(qs, float)
    ps = np.asarray(ps, float)
    corner = ctx.z_from_qp(np.max(np.abs(qs)), np.max(np.abs(ps)))
    fock_coherent(corner, cutoff, tail_threshold)  # raises TailTooLarge if short

    support = ctx.b * math.sqrt(2.0 * cutoff + 1.0)
    if s_half is None:
        s_half = 2.0 * (np.max(np.abs(qs)) + support)
    if s_step is None:
        k_content = (ctx.c * math.sqrt(2.0 * cutoff + 1.0) + np.max(np.abs(ps)))
        s_step = math.pi * ctx.hbar / (1.25 * k_content)

    oracle = FockOracle(H, cutoff)
    ns = max(8, int(math.ceil(2.0 * s_half / s_step)) + 1)
    # the check evaluates the kernel once at half the step; the coarse
    # trapezoid reads every other node
    every = 2 if check else 1
    s = np.linspace(-s_half, s_half, every * (ns - 1) + 1)
    kernel = _chord_kernel(oracle, ctx, T, qs, s)
    values = _chord_transform(kernel[:, ::every], s[::every], ps, ctx.hbar)
    if check:
        refined = _chord_transform(kernel, s, ps, ctx.hbar)
        delta = float(np.max(np.abs(refined - values)))
        if delta > check_tolerance:
            raise QuadratureNotConverged(
                f"halving the chord step moved the grid by {delta:.3e} "
                f"(tolerance {check_tolerance:.3e})"
            )
        values = refined
    return PhaseSpaceGrid(qs, ps, values)


def husimi_U_grid(
    H: OperatorPoly,
    ctx: ScaleContext,
    T: float,
    qs: np.ndarray,
    ps: np.ndarray,
    cutoff: int = 200,
    tail_threshold: float = 1e-10,
) -> PhaseSpaceGrid:
    """Diagonal coherent-state propagator K(z_x, z_x, T) on the grid."""
    qs = np.asarray(qs, float)
    ps = np.asarray(ps, float)
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    labels = ctx.z_from_qp(Q, P).ravel()
    cols = coherent_matrix(labels, cutoff, tail_threshold)
    oracle = FockOracle(H, cutoff)
    evolved = oracle.evolution_matrix(T) @ cols
    vals = np.sum(np.conj(cols) * evolved, axis=0)
    return PhaseSpaceGrid(qs, ps, vals.reshape(len(qs), len(ps)))


def _gaussian_band(n: int, step: float) -> np.ndarray:
    """Convolution with the normalised kernel exp(-(k step)^2) as a banded matrix.

    The kernel is odd-sized and centred on a grid point, |k| <= half, with
    half = (n - 2) // 2; rows near the edges keep the full-kernel norm, like
    a zero-padded convolution.
    """
    half = (n - 2) // 2
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    weights = np.exp(-((np.arange(-half, half + 1) * step) ** 2))
    band = np.where(np.abs(offsets) <= half, np.exp(-((offsets * step) ** 2)), 0.0)
    return band / weights.sum()


def smoothing_check(
    weyl_grid: PhaseSpaceGrid,
    husimi_grid: PhaseSpaceGrid,
    ctx: ScaleContext,
    margin_sigmas: float = 4.0,
) -> float:
    """Max interior deviation between smoothed Weyl grid and Husimi grid.

    Convolves the Weyl grid with the normalised Gaussian of covariance
    (b^2/2, c^2/2) and compares on the interior region that keeps at least
    ``margin_sigmas`` kernel widths away from the grid edge.

    Raises
    ------
    MarginTooSmall
        If no interior points survive the margin requirement.
    """
    if not weyl_grid.same_geometry(husimi_grid):
        raise ValueError("weyl and husimi grids must share their geometry")
    dq, dp = weyl_grid.dq, weyl_grid.dp
    Gq = _gaussian_band(len(weyl_grid.qs), dq / ctx.b)
    Gp = _gaussian_band(len(weyl_grid.ps), dp / ctx.c)
    smoothed = Gq @ weyl_grid.values @ Gp.T

    sigma_q = ctx.b / math.sqrt(2.0)
    sigma_p = ctx.c / math.sqrt(2.0)
    mq = int(math.ceil(margin_sigmas * sigma_q / dq))
    mp = int(math.ceil(margin_sigmas * sigma_p / dp))
    if 2 * mq >= len(weyl_grid.qs) or 2 * mp >= len(weyl_grid.ps):
        raise MarginTooSmall(
            f"margins ({mq}, {mp}) points leave no interior on a "
            f"{len(weyl_grid.qs)} x {len(weyl_grid.ps)} grid"
        )
    diff = np.abs(
        smoothed[mq : len(weyl_grid.qs) - mq, mp : len(weyl_grid.ps) - mp]
        - husimi_grid.values[mq : len(weyl_grid.qs) - mq, mp : len(weyl_grid.ps) - mp]
    )
    return float(diff.max())


def area_identity(
    path: DiscreteWPath, q: float, p: float, ctx: ScaleContext
) -> tuple[complex, complex]:
    """Both sides of the symplectic-area form of the chord coupling.

    lhs = 2 C conj(z_x) - 2 C* z_x with the chord C of the path and
    z_x = (q/b + i p/c)/sqrt(2); rhs resolves the same number into oriented
    areas sum_k (-1)^(k+1) (2i/hbar)(Q_k p - P_k q) with (Q_k, P_k) the
    phase-space decomposition of w_k.  The rhs involves no widths at all.
    """
    C, Cbar = chord_coefficients(path)
    c_star = -Cbar  # equals conj(C) on real-section paths
    z_x = ctx.z_from_qp(q, p)
    lhs = 2.0 * C * np.conj(z_x) - 2.0 * c_star * z_x

    rt2 = math.sqrt(2.0)
    Qk = ctx.b * (path.w + path.w_star) / rt2
    Pk = ctx.c * (path.w - path.w_star) / (1j * rt2)
    signs = np.ones(path.N)
    signs[1::2] = -1.0
    rhs = np.sum(signs * (2j / ctx.hbar) * (Qk * p - Pk * q))
    return complex(lhs), complex(rhs)
