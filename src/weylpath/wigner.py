"""Weyl symbol of the evolution operator and its Husimi counterpart.

Both grids apply the truncated evolution operator U in the Fock oracle's
eigenbasis (E_k, |k>), summed block by block over its parity blocks: the Weyl
grid is a trapezoid transform over the chord length of
<x|U|y> = sum_k conj(<k|x>) e^{-i E_k T/hbar} <k|y> on one position lattice
through every q of a uniform axis and both ends of every chord, the Husimi
grid <z|U|z> = sum_k e^{-i E_k T/hbar} |<k|z>|^2.  Their Gaussian-smoothing
relation and the discrete symplectic-area identity are checks.

A real H has a real eigenbasis, so <k|x> is real and <x|U|y> = <y|U|x>: the
chord kernel is even in the chord and the Weyl symbol even in p (time
reversal).  The Weyl grid then sums the kernel over half the chord, in real
products, and takes its cosine transform; a complex eigenbasis sums
<x|n> <n|U|y> over the Fock states on the whole chord, also in real products,
and transforms its even and odd parts in the chord with cosines and sines.

Both grids are those of U truncated at ``cutoff``.  The Weyl grid is the
symbol of that truncated operator, and its value at a point depends on the
cutoff, with no limit for an anharmonic H: the oscillator's grid (T 1,
default axes) stays 0.38, 0.28, 0.45 and 0.46 from its closed form
sec(T/2) exp(-i tan(T/2)(q^2 + p^2)/hbar) at cutoffs 60, 120, 200 and 240,
and the max |U| of the quartic (lambda 0.05, T 1) grows from 8.3 to 21.5
between cutoffs 60 and 400.  The Husimi grid converges as the cutoff grows,
but its cutoff is not checked.  The smoothing identity is exact for the
truncated operator at every cutoff; ``smoothing_check`` measures it on the
grid's interior, as long as the truncation's band of local wavenumbers, up
to 2 sqrt(2 cutoff)/b, stays below the grid's aliasing image 2 pi/step
(cutoff 60 on the default 64x64 grid, with room up to roughly 250).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _EXPORTS
from .algebra import OperatorPoly, ScaleContext
from .coherent import _cached_oracle, _labels, _require_dense, coherent_matrix
from .discrete import DiscreteWPath, _alternating, chord_coefficients
from .errors import DomainError, InvalidArgument, refine
from .errors import require_finite, require_index, require_positive, require_scalar

__all__ = _EXPORTS["wigner"].split()

CHORD_OVERSAMPLING = 1.25  # the coarse chord step is at most the Nyquist step over this
CHORD_TOLERANCE = 1e-7  # largest grid change allowed when the chord step is halved
GRID_CUTOFF = 200  # default Fock cutoff of both grids and of the wigner-u command
_HERMITE_RESCALE = 2.0**100  # exact power of two; keeps the recurrence finite


@dataclass
class PhaseSpaceGrid:
    """Complex field sampled on a uniform rectangular (q, p) grid."""

    qs: np.ndarray
    ps: np.ndarray
    values: np.ndarray  # shape (len(qs), len(ps))

    def __post_init__(self):
        if np.shape(self.values) != (len(self.qs), len(self.ps)):
            raise InvalidArgument("values shape does not match the axes")

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
    """Default axes |q| <= q_widths b, |p| <= p_widths c: nq, npts >= 1 points, positive widths;
    axes beyond ``DENSE_BYTES`` raise :class:`DomainError`."""
    require_index(nq, "nq", 1)
    require_index(npts, "npts", 1)
    require_positive(q_widths=q_widths, p_widths=p_widths)
    _require_dense(8 * (nq + npts), f"axes of {nq} and {npts} points")
    qs = np.linspace(-q_widths * ctx.b, q_widths * ctx.b, nq)
    ps = np.linspace(-p_widths * ctx.c, p_widths * ctx.c, npts)
    return qs, ps


def _axes(qs, ps) -> tuple[np.ndarray, np.ndarray]:
    """The grid axes as 1-D float arrays; refuses an empty, non-numeric, complex or non-finite axis."""
    require_finite(qs=qs, ps=ps)  # a string, before numpy's conversion
    for name, axis in (("qs", qs), ("ps", ps)):
        if np.iscomplexobj(axis):
            raise InvalidArgument(f"{name} must be real, got {axis!r}")
    qs, ps = np.asarray(qs, float), np.asarray(ps, float)
    if qs.ndim != 1 or ps.ndim != 1:
        raise InvalidArgument(f"qs and ps must be 1-D axes, got shapes {qs.shape} and {ps.shape}")
    if qs.size == 0 or ps.size == 0:
        raise InvalidArgument(f"qs and ps must not be empty, got {qs.size} and {ps.size} values")
    return qs, ps


def _require_hbar(H: OperatorPoly, ctx: ScaleContext) -> None:
    """Refuse a grid whose axes and labels (``ctx``) take another hbar than the oracle (``H``)."""
    if ctx.hbar != H.hbar:
        raise InvalidArgument(f"ctx.hbar must equal H.hbar ({H.hbar}), got {ctx.hbar}")


def _uniform_step(axis: np.ndarray, name: str) -> float:
    """The signed step of a float axis of two or more values; refuses zero or unequal steps."""
    step = (axis[-1] - axis[0]) / (len(axis) - 1)
    if step == 0 or np.max(np.abs(np.diff(axis) - step)) > 1e-9 * abs(step):  # rounding only
        raise InvalidArgument(f"{name} must be uniformly spaced with a non-zero step, got {axis}")
    return float(step)


def hermite_functions(xs: np.ndarray, nmax: int, b: float) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions <x|n>, n = 0..nmax.

    Stable three-term recurrence, run on phi_n exp(xi^2/2) (xi = x/b) so
    that the Gaussian seed cannot underflow (it is 0.0 beyond |x| ~ 38.6 b);
    a column that grows past ``_HERMITE_RESCALE`` is divided by it and the
    factor carried in its log weight.  Returns an array of shape
    (nmax + 1, len(xs)).  A non-finite x, an nmax that is not an integer of
    at least 0 or a b that is not positive raises :class:`InvalidArgument`,
    a table beyond ``DENSE_BYTES`` :class:`DomainError`.
    """
    require_finite(xs=xs)
    require_index(nmax, "nmax", 0)
    require_positive(b=b)
    xi = np.asarray(xs, dtype=float) / b
    need = 8 * (nmax + 10) * xi.size  # the table and nine work rows (traced: 8 nmax + 65-73 per x)
    _require_dense(need, f"{nmax + 1} Hermite functions on {xi.size} points")
    out = np.empty((nmax + 1, xi.size))
    log_weight = -0.5 * xi**2
    weight = np.exp(log_weight)
    prev, cur = np.zeros_like(xi), np.full_like(xi, math.pi ** (-0.25) / math.sqrt(b))
    for n in range(nmax + 1):
        big = np.abs(cur) > _HERMITE_RESCALE
        if big.any():
            cur[big] /= _HERMITE_RESCALE
            prev[big] /= _HERMITE_RESCALE
            log_weight[big] += math.log(_HERMITE_RESCALE)
            weight[big] = np.exp(log_weight[big])
        out[n] = cur * weight
        prev, cur = cur, xi * math.sqrt(2.0 / (n + 1)) * cur - math.sqrt(n / (n + 1)) * prev
    return out


def _chord_transform(even, odd, s: np.ndarray, ps: np.ndarray, hbar: float, every: int) -> np.ndarray:
    """Trapezoid rule for int ds K(q, s) exp(i p s / hbar) over the whole chord -s_m..s_m, read off
    the kernel's even and odd parts in s on every ``every``-th node s_t >= 0 of the uniform s:
    sum_t w_t (even cos + i odd sin)(p s_t / hbar), w_t = h at both ends and 2 h elsewhere.
    ``odd`` is None for an even kernel, which takes the cosine transform alone."""
    s = s[::every]
    hs = abs(s[1] - s[0])
    trap = np.full(len(s), 2.0 * hs)
    trap[0] = trap[-1] = hs
    phase = np.outer(s, ps) / hbar
    values = (even[:, ::every] * trap) @ np.cos(phase)
    if odd is not None:
        values += 1j * ((odd[:, ::every] * trap) @ np.sin(phase))
    return values


def _chord_kernel(oracle, table: np.ndarray, T: float, m: int, stride: int):
    """The even and odd parts in the chord of <q - s/2| U |q + s/2> on the chord nodes t = 0..m,
    s = 2 t h, of every q = x_{m + i stride}; the odd part is None where it vanishes.

    ``table`` holds the real <n|x> = phi_n(x) on the lattice x_j = x_0 + h j, and the caller
    keeps no reference to it, so it is freed as soon as it has been read.  Where the oracle's
    eigenbasis is real, so is <k|x>, <x|U|y> = <y|U|x> and the kernel is even in the chord: it
    is summed for t = 0..m alone, block by block over the oracle's eigenstates, in two real
    products of <k|x> against cos and sin of E_k T/hbar times <k|y>.  A complex eigenbasis sums
    <x|n> <n|U|y> over the Fock states on the whole chord: the real table against Re U and Im U
    times it, two real tables in turn, so no complex copy of the table is made.
    """

    def windows(a):
        # chord node t of q_i joins the nodes m + i stride -+ t: both lie in
        # the window of 2m + 1 nodes from i stride
        return sliding_window_view(a, 2 * m + 1, axis=1)[:, ::stride]

    if not oracle.real:
        evolution = sum(a.conj().T @ (phases[:, None] * a)  # <n|U|n'>
                        for phases, a in oracle.eigen_blocks(np.eye(len(table)), T))
        left = windows(table)[:, :, ::-1]  # <q - s/2|n>
        re, im = (np.einsum("nit,nit->it", left, windows(np.ascontiguousarray(part) @ table))
                  for part in (evolution.real, evolution.imag))
        del table, left  # with the caller's reference gone, the fold holds the kernel alone
        kernel = re + 1j * im
        return 0.5 * (kernel[:, m:] + kernel[:, m::-1]), 0.5 * (kernel[:, m:] - kernel[:, m::-1])
    blocks = list(oracle.eigen_blocks(table, T))
    del table  # the real path holds <k|x> and one weighted block alone
    re = im = 0.0
    for phases, amp in blocks:
        near = windows(amp)[:, :, m::-1]
        re = re + np.einsum("nit,nit->it", near, windows(phases.real[:, None] * amp)[:, :, m:])
        im = im + np.einsum("nit,nit->it", near, windows(phases.imag[:, None] * amp)[:, :, m:])
    return re + 1j * im, None


def weyl_U_grid(
    H: OperatorPoly,
    ctx: ScaleContext,
    T: float,
    qs: np.ndarray,
    ps: np.ndarray,
    cutoff: int = GRID_CUTOFF,
    check: bool = True,
) -> PhaseSpaceGrid:
    """Weyl symbol U(q, p, T) of the evolution operator truncated at ``cutoff``.

    U(q, p, T) = int ds  <q - s/2| U |q + s/2>  exp(i p s / hbar),

    with position elements from the Fock eigenbasis via Hermite functions on
    one lattice x_j = q_0 + h j, h = dq/k, holding every q and both ends of
    every chord, and a trapezoid over a window wide enough for the truncated
    basis support b sqrt(2 cutoff + 1).  The chord step 2h is at most the
    Nyquist step of c sqrt(2 cutoff + 1) + max|p| over ``CHORD_OVERSAMPLING``;
    the check halves h.  T may be negative: the grid of U(-T) = U(T)^dagger
    is exact from the same eigendecomposition (``wigner-u --T`` takes one).
    The amplitudes <k|x> are the oracle's ``eigen_blocks`` of the real
    Hermite table, one product per parity block.  Where the eigenbasis is
    real (any H with a real Fock matrix, so any real H) they are real,
    <x|U|y> = <y|U|x>, and the kernel K is even in the chord s: it is
    evaluated for s >= 0 alone, in real products against cos and sin of
    E_k T/hbar, and transformed by the trapezoid's cosine form
    U(q, p) = sum_{t >= 0} w_t K(q, s_t) cos(p s_t/hbar), w_t = h_s at both
    ends and 2 h_s elsewhere (time reversal: U(q, -p, T) = U(q, p, T)).  A
    complex eigenbasis sums the real table against the real and imaginary
    parts of U times it over the whole chord; the same sum over s >= 0 takes
    the even part of K against cos and i times its odd part against sin.

    U is sum_k |k> e^{-i E_k T/hbar} <k| over the oracle's eigenstates, so
    the grid's value at a point depends on ``cutoff``, with no limit for an
    anharmonic H (the module docstring gives the figures: the oscillator's
    grid stays 0.28-0.46 from its closed form at cutoffs 60-240);
    ``smoothing_check`` is the checked form of the grid.

    Raises
    ------
    DomainError
        If the corner coherent state is not resolved by ``cutoff``
        (``coherent.TAIL_THRESHOLD``), the lattice's two complex tables
        would take more than ``coherent.DENSE_BYTES``, or a phase
        E_k T/hbar leaves the double range.
    NonConverged
        If halving the chord step moves any grid value beyond
        ``CHORD_TOLERANCE``.
    InvalidArgument
        If T is not a finite scalar, an axis is not finite or is complex, not 1-D or empty, the
        q axis is not uniform, or ``ctx.hbar`` is not ``H.hbar``.
    """
    require_scalar(T=T)  # before the lattice and the oracle are built
    _require_hbar(H, ctx)
    qs, ps = _axes(qs, ps)
    q_max = np.max(np.abs(qs))
    corner = _labels(ctx.z_from_qp(q_max, np.max(np.abs(ps))), cutoff)[0]
    root = math.sqrt(2.0 * cutoff + 1.0)
    # the far chord end passes the turning point b root by |q| + max(q_max, 4b)
    s_half = 2.0 * (max(q_max, 4.0 * ctx.b) + ctx.b * root)
    k_content = ctx.c * root + np.max(np.abs(ps))
    dq = h_max = 0.5 * math.pi * ctx.hbar / (CHORD_OVERSAMPLING * k_content)
    if len(qs) > 1:
        dq = _uniform_step(qs, "qs")
    k = math.ceil(abs(dq) / h_max)
    # the check evaluates the kernel once at half the step; the coarse
    # trapezoid reads every other chord node
    every = 2 if check else 1
    stride = every * k  # lattice nodes per q step
    with np.errstate(over="ignore"):  # a count beyond the double range is inf, and refused
        m = every * np.ceil(s_half * k / (2.0 * abs(dq)))  # chord nodes per side
        nodes = (len(qs) - 1) * stride + 2.0 * m + 1
        _require_dense(32.0 * (cutoff + 1) * nodes, f"{nodes:.3g} lattice nodes at cutoff {cutoff}")
    coherent_matrix(corner, cutoff)  # raises DomainError if short
    m = int(m)
    lattice = qs[0] + dq / stride * np.arange(-m, stride * (len(qs) - 1) + m + 1)
    oracle = _cached_oracle(H, cutoff)
    even, odd = _chord_kernel(oracle, hermite_functions(lattice, cutoff, ctx.b), T, m, stride)
    s = 2.0 * dq / stride * np.arange(m + 1)
    values = _chord_transform(even, odd, s, ps, ctx.hbar, every)
    if check:
        refined = _chord_transform(even, odd, s, ps, ctx.hbar, 1)
        values = refine(values, refined, CHORD_TOLERANCE, "halving the chord step")[0]
    return PhaseSpaceGrid(qs, ps, values)


def husimi_U_grid(
    H: OperatorPoly,
    ctx: ScaleContext,
    T: float,
    qs: np.ndarray,
    ps: np.ndarray,
    cutoff: int = GRID_CUTOFF,
) -> PhaseSpaceGrid:
    """Diagonal coherent-state propagator K(z_x, z_x, T) on the grid, of the evolution
    truncated at ``cutoff``; T may be negative, as in :func:`weyl_U_grid`.  The amplitudes
    <k|z> are the oracle's ``eigen_blocks`` of the coherent columns, one block at a time and
    a real product over their float view where the eigenbasis is real; <z|k> itself is never
    assembled.

    The grid converges as the cutoff grows, but its cutoff is not checked: a quartic
    (lambda 0.05) grid on the default axes moves by 2.1e-4 to 1.1e-2 (T 0.3 to 1) when the
    cutoff doubles from 60, and by up to 6.8e-8 from 200 (T 0.3 to 3).

    Raises
    ------
    DomainError
        If a grid label is not resolved by ``cutoff``, or a phase E_k T/hbar leaves the double
        range.
    InvalidArgument
        If T is not a finite scalar, an axis is not finite or is complex, not 1-D or empty, or
        ``ctx.hbar`` is not ``H.hbar``.
    """
    require_scalar(T=T)  # before the coherent columns and the oracle are built
    _require_hbar(H, ctx)
    qs, ps = _axes(qs, ps)
    cols = coherent_matrix(ctx.z_from_qp(*np.meshgrid(qs, ps, indexing="ij")), cutoff)
    values = 0.0
    for phases, amp in _cached_oracle(H, cutoff).eigen_blocks(cols, T):
        amp = np.abs(amp)  # |<k|z>|^2 in place of <k|z>: one block's float table, which keeps
        amp *= amp  # the peak within what coherent_matrix counts
        values = values + phases.real @ amp + 1j * (phases.imag @ amp)
    return PhaseSpaceGrid(qs, ps, values.reshape(len(qs), len(ps)))


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
    DomainError
        If no interior points survive the margin requirement.
    InvalidArgument
        If ``margin_sigmas`` is not positive, the grids differ in geometry,
        an axis is not uniform (it may decrease) or a value is not finite.
    """
    require_positive(margin_sigmas=margin_sigmas)
    if not weyl_grid.same_geometry(husimi_grid):
        raise InvalidArgument("weyl and husimi grids must share their geometry")
    require_finite(weyl_values=weyl_grid.values, husimi_values=husimi_grid.values)
    qs, ps = _axes(weyl_grid.qs, weyl_grid.ps)
    nq, npts = weyl_grid.values.shape
    if min(nq, npts) < 2:
        raise DomainError(f"one-point axes leave no interior on a {nq} x {npts} grid")
    dq = abs(_uniform_step(qs, "qs"))
    dp = abs(_uniform_step(ps, "ps"))
    Gq = _gaussian_band(nq, dq / ctx.b)
    Gp = _gaussian_band(npts, dp / ctx.c)
    smoothed = Gq @ weyl_grid.values @ Gp.T

    sigma_q = ctx.b / math.sqrt(2.0)
    sigma_p = ctx.c / math.sqrt(2.0)
    mq = int(math.ceil(margin_sigmas * sigma_q / dq))
    mp = int(math.ceil(margin_sigmas * sigma_p / dp))
    if 2 * mq >= nq or 2 * mp >= npts:
        raise DomainError(
            f"margins ({mq}, {mp}) points leave no interior on a {nq} x {npts} grid"
        )
    diff = np.abs(
        smoothed[mq : nq - mq, mp : npts - mp]
        - husimi_grid.values[mq : nq - mq, mp : npts - mp]
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
    A q or p that is not a finite scalar (a boolean included) raises :class:`InvalidArgument`.
    """
    require_scalar(q=q, p=p)
    C, Cbar = chord_coefficients(path)
    c_star = -Cbar  # equals conj(C) on real-section paths
    z_x = ctx.z_from_qp(q, p)
    lhs = 2.0 * C * np.conj(z_x) - 2.0 * c_star * z_x

    rt2 = math.sqrt(2.0)
    Qk = ctx.b * (path.w + path.w_star) / rt2
    Pk = ctx.c * (path.w - path.w_star) / (1j * rt2)
    rhs = np.sum(_alternating(path.N) * (2j / ctx.hbar) * (Qk * p - Pk * q))
    return complex(lhs), complex(rhs)
