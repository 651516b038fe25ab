"""Discrete coherent-state path-integral exponents and propagators.

Three time-sliced forms are implemented: the normal-ordered chain (Q), the
diagonal-representation chain (P), and the midpoint form built on the Weyl
symbol (W).  The module also carries the closed-form harmonic-oscillator
propagators at finite slicing, their convergence coefficients mu, and a
brute-force quadrature evaluator for very small slice numbers.

The harmonic closed forms are one formula in the ordering parameter s of
``algebra.FORM_S``; only the W form's even-N rule is form-specific.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .algebra import FORM_S, OperatorPoly, SymbolPoly, form_s, symbol_for_form
from .coherent import _require_dense, harmonic_exact_K, overlap
from .errors import DomainError, InvalidArgument, finite_double, refine, require_finite
from .errors import require_index, require_nonnegative, require_positive, require_scalar

__all__ = _EXPORTS["discrete"].split()

COHERENT_WIDTH = 1.0 / math.sqrt(2.0)  # |<z|z'>|^2 = exp(-|z-z'|^2)
GRID_REFINE = 1.5  # per-axis point-count factor of the quadrature's check pass
RADIUS_WIDTHS = 6.0  # disc radius of the quadrature, in coherent widths around the z' -> z'' line
QUAD_BYTES = 96  # per node of a quadrature pass's largest grid, refused above DENSE_BYTES: the
# n^3 pair-sum tables where four dimensions are integrated, else the n x n disc (traced peaks:
# 33-39 and 76-81 bytes per node at 36-144 points per axis)


@dataclass(frozen=True)
class DiscreteWPath:
    """Midpoint variables w_1 .. w_N of the Weyl-form discrete exponent.

    ``w_star`` defaults to the literal complex conjugate (integration paths
    over real phase space); stationary paths complexify, with ``w_star`` an
    independent array.
    """

    w: np.ndarray
    tau: float
    zp: complex
    zpp: complex
    w_star: np.ndarray | None = None
    hbar: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        ws = np.conj(w) if self.w_star is None else np.asarray(self.w_star, dtype=complex)
        if ws.shape != w.shape:
            raise InvalidArgument("w and w_star must have the same length")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_star", ws)
        if len(w) % 2 != 0 or len(w) == 0:
            raise InvalidArgument("N must be a positive even integer")
        require_finite(w=w, w_star=ws)
        require_scalar(zp=self.zp, zpp=self.zpp)
        require_positive(tau=self.tau, hbar=self.hbar)

    @property
    def N(self) -> int:
        return len(self.w)


def _alternating(N: int) -> np.ndarray:
    """(-1)^(k+1) for k = 1..N."""
    alt = np.ones(N)
    alt[1::2] = -1.0
    return alt


def _alt_prefix_sums(x: np.ndarray) -> np.ndarray:
    """s_m = sum_{j=1}^{m-1} (-1)^(j+1) x_{m-j}, for m = 1..N (s_1 = 0).

    The recurrence s_{m+1} = x_m - s_m is a cumulative sum once every other
    sign is flipped; a sign flip is exact and ``cumsum`` adds in the same
    order, so the scan equals the recurrence to the last bit.
    """
    alt = _alternating(len(x) - 1)
    s = np.zeros(len(x), dtype=complex)
    s[1:] = alt * np.cumsum(alt * x[:-1])
    return s


def _finite(what: str):
    """Decorator: ``f(path, H_W)`` through ``errors.finite_double``, which names ``what``."""
    def decorate(f):
        return functools.wraps(f)(lambda path, H_W: finite_double(lambda: f(path, H_W), what))
    return decorate


@_finite("phi_N")
def phi_N(path: DiscreteWPath, H_W: SymbolPoly) -> complex:
    """Weyl-form discrete exponent, evaluated exactly as printed.

    phi_N = sum_k [ -i tau H_k / hbar - 2 w_k w*_k
                    + 2 z''* w_{N+1-k} (-1)^(k+1) + 2 z' w*_k (-1)^(k+1) ]
            + 4 sum_{k=1}^{N-1} sum_{j=1}^{k} w*_{k+1} w_{k+1-j} (-1)^(j+1)
            + z' z''*

    with H_k = H_W(w_k, w*_k); DomainError if it is not a finite double.
    """
    w, ws = path.w, path.w_star
    alt = _alternating(path.N)
    H = H_W.eval(w, ws)
    zpp_star = np.conj(path.zpp)
    total = np.sum(
        -1j * path.tau * H / path.hbar
        - 2.0 * w * ws
        + 2.0 * zpp_star * w[::-1] * alt
        + 2.0 * path.zp * ws * alt
    )
    total += 4.0 * np.sum(ws * _alt_prefix_sums(w))
    return complex(total + path.zp * zpp_star)


@_finite("phi_N_alt")
def phi_N_alt(path: DiscreteWPath, H_W: SymbolPoly) -> complex:
    """Rearranged discrete exponent (difference sums in steps of two).

    Identical to :func:`phi_N` for every path, DomainError included; the
    quadratic part is grouped so the continuum limit exhibits the action.
    """
    w, ws = path.w, path.w_star
    H = H_W.eval(w, ws)
    zpp_star = np.conj(path.zpp)
    odd = np.arange(0, path.N - 1, 2)  # k = 1, 3, .., N-1 (0-based k-1)

    dw = w[odd + 1] - w[odd]  # w_{k+1} - w_k
    dws = ws[odd + 1] - ws[odd]  # w*_{k+1} - w*_k
    total = 2.0 * np.sum(w[odd] * dws - ws[odd + 1] * dw)
    total += -1j * path.tau * np.sum(H) / path.hbar

    # - 4 sum_{k odd} (w_{k+1}-w_k) sum_{l=k+1,k+3..}^{N-2} (w*_{l+2}-w*_{l+1}):
    # a reversed cumulative sum over the even-l differences
    tails = np.zeros(len(odd), dtype=complex)
    tails[:-1] = np.cumsum((ws[odd[:-1] + 3] - ws[odd[:-1] + 2])[::-1])[::-1]
    total += -4.0 * np.sum(dw * tails)

    total += -2.0 * path.zp * np.sum(dws) + 2.0 * zpp_star * np.sum(dw)
    return complex(total + path.zp * zpp_star)


@_finite("psi_N or C_N")
def psi_C(path: DiscreteWPath, H_W: SymbolPoly) -> tuple[complex, complex]:
    """Boundary-independent part psi_N and the chord coefficient C_N.

    The full exponent reconstructs as
    ``phi_N = psi_N + 2 C_N z''* + 2 Cbar_N z' + z' z''*`` where ``Cbar_N``
    is the conjugate-pattern coefficient from :func:`chord_coefficients`;
    DomainError if either is not a finite double.
    """
    w, ws = path.w, path.w_star
    psi = np.sum(-1j * path.tau * H_W.eval(w, ws) / path.hbar - 2.0 * w * ws)
    psi += 4.0 * np.sum(ws * _alt_prefix_sums(w))
    return complex(psi), chord_coefficients(path)[0]


def chord_coefficients(path: DiscreteWPath) -> tuple[complex, complex]:
    """(C_N, Cbar_N): the chord and its conjugate-pattern partner.

    ``Cbar_N = sum_k w*_k (-1)^(k+1)``; on real-section paths it equals
    ``-conj(C_N)``... see the reconstruction identity tests.
    """
    alt = _alternating(path.N)
    C = complex(np.sum(path.w[::-1] * alt))
    Cbar = complex(np.sum(path.w_star * alt))
    return C, Cbar


@_finite("the gradient of phi_N")
def phi_N_gradient(path: DiscreteWPath, H_W: SymbolPoly):
    """Exact partials (d phi/d w_l, d phi/d w*_l) treating w, w* independent;
    DomainError if an entry is not a finite double."""
    w, ws = path.w, path.w_star
    alt = _alternating(path.N)
    _, Hu, Hv = H_W.jet(w, ws, order=1)
    s = _alt_prefix_sums(w)
    r = _alt_prefix_sums(ws[::-1])[::-1]  # r_l = sum_{k=l}^{N-1} (-1)^(k-l) w*_{k+1}
    zpp_star = np.conj(path.zpp)
    grad_w = (
        -1j * path.tau * Hu / path.hbar
        - 2.0 * ws
        + 2.0 * zpp_star * (-alt)
        + 4.0 * r
    )
    grad_ws = (
        -1j * path.tau * Hv / path.hbar
        - 2.0 * w
        + 2.0 * path.zp * alt
        + 4.0 * s
    )
    return grad_w, grad_ws


def stationary_path_harmonic(
    zp: complex, zpp: complex, omega: float, T: float, N: int, hbar: float = 1.0
) -> DiscreteWPath:
    """Stationary path of the Weyl-form exponent for H = hbar omega u v.

    ``w_k = (alpha*)^(k-1) / alpha^k z'`` and the conjugate pattern
    ``w*_k = (alpha*)^(N-k) / alpha^(N-k+1) z''*`` with alpha = 1 + i tau omega / 2, N even;
    a path beyond ``DENSE_BYTES`` raises :class:`DomainError` before it is built.
    """
    require_index(N, "N", 2)
    require_scalar(zp=zp, zpp=zpp, omega=omega, T=T)
    _require_dense(48 * N, f"a stationary path of {N} midpoints")  # traced peak: 48.1-49.3
    tau = T / N
    alpha = 1.0 + 0.5j * tau * omega
    k = np.arange(1, N + 1)
    ratio = np.conj(alpha) / alpha
    w = ratio ** (k - 1) / alpha * zp
    w_star = ratio ** (N - k) / alpha * np.conj(zpp)
    return DiscreteWPath(w=w, tau=tau, zp=zp, zpp=zpp, w_star=w_star, hbar=hbar)


def _mu(form: str, omega: float, T: float, N: int) -> complex:
    """mu_s of the form named q, p or w, checked as in :func:`mu_coefficients`."""
    require_index(N, "N", 1)
    require_scalar(omega=omega, T=T)
    x, s = T / N * omega, FORM_S[form]
    return finite_double(
        lambda: (1.0 - 1j * (x * (1.0 + s))) ** N * (1.0 - 1j * (x * s)) ** (-N),
        f"mu of the {form.upper()} form at N = {N}",
    )


def mu_coefficients(omega: float, T: float, N: int):
    """Coefficients (mu_Q, mu_P, mu_W) multiplying z' z''* in the discrete harmonic forms.

    mu_s = (1 - i tau w (1 + s))^N (1 - i tau w s)^-N, tau = T/N, with s from
    ``algebra.FORM_S``; all three tend to exp(-i w T).  A mu_s that is not a
    finite double raises DomainError, an N below 1 or an omega or T that is not a finite scalar
    InvalidArgument.
    """
    return tuple(_mu(form, omega, T, N) for form in FORM_S)


def harmonic_discrete_K(
    form: str, zp: complex, zpp: complex, omega: float, T: float, N: int
) -> complex:
    """Closed-form finite-N propagators for H = hbar omega (adag a + 1/2).

    K_s = (1 - i tau w s)^-N exp(-i w T (s + 1/2) + mu_s z'z''* - |z'|^2/2 - |z''|^2/2)

    with the form's s (0 for Q, -1 for P, -1/2 for W); the W form needs even N.
    A negative T is accepted, as in :func:`coherent.harmonic_exact_K`.  A mu_s
    or K_s that is not a finite double raises DomainError.
    """
    s = form_s(form)
    form = form.lower()
    require_scalar(zp=zp, zpp=zpp)
    mu = _mu(form, omega, T, N)
    if form == "w" and N % 2 != 0:
        raise InvalidArgument("the W form requires even N")

    def K():
        gauss = -0.5 * abs(zp) ** 2 - 0.5 * abs(zpp) ** 2
        exponent = -1j * omega * T * (s + 0.5) + mu * (zp * np.conj(zpp)) + gauss
        return complex((1.0 - 1j * (T / N * omega * s)) ** (-N) * np.exp(exponent))

    return finite_double(K, f"K of the {form.upper()} form at N = {N}")


# ---------------------------------------------------------------------------
# brute-force quadrature of the discrete integrals (N small)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscGridSpec:
    """Uniform grid on a disc in each integrated complex plane.

    The disc radius is ``RADIUS_WIDTHS`` coherent widths (1/sqrt(2) in label
    units) around the straight line between z' and z''; the check pass
    multiplies the per-axis point count by ``GRID_REFINE`` and reports the
    difference, which cannot see the disc truncation; ``points`` must be at
    least 2 and a set ``tolerance`` positive.
    """

    points: int = 48
    tolerance: float | None = None

    def __post_init__(self):
        require_index(self.points, "points", 2)
        if self.tolerance is not None:
            require_positive(tolerance=self.tolerance)


@dataclass
class QuadKResult:
    value: complex
    refinement_delta: float
    dims: int
    points_per_plane: int


def _disc_points(radius: float, n: int):
    """Masked uniform grid over a disc: (offsets, cell_area, axis, mask).

    The offsets are ``X + iY`` at the mask's true entries of the
    (X, Y) = (axis, axis) grid, in row-major order; a plane is its centre
    plus the offsets.
    """
    ax = np.linspace(-radius, radius, n)
    step = ax[1] - ax[0]
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mask = X**2 + Y**2 <= radius**2
    return X[mask] + 1j * Y[mask], step * step, ax, mask


def _gaussian_pair_sum(a: complex, c0: complex, c1: complex, ax, mask, left, right) -> complex:
    """sum_{z0, z1} left(z0) exp(a conj(z1) z0 - a|z0|^2/2 - a|z1|^2/2) right(z1).

    z0 and z1 run over the masked disc grids ``c + ax + i ax`` around the
    centres c0 and c1.  With z = X + iY the pair kernel is the product of four n x n
    factors, exp(-a/2 (X0-X1)^2) exp(-a/2 (Y0-Y1)^2) exp(i a X1 Y0) exp(-i a Y1 X0), all
    bounded by 1 for real a > 0 (P, W); a complex a (Q) lets the last two exceed 1.
    The site values sit on the full n x n grid with zeros off the disc, so
    the double sum is one (n^2, n) x (n, n) product and an n^3 contraction.
    """
    n = len(ax)
    L, R = np.zeros((2, n, n), dtype=complex)
    L[mask], R[mask] = left, right
    x0, y0, x1, y1 = c0.real + ax, c0.imag + ax, c1.real + ax, c1.imag + ax
    gx = np.exp(-0.5 * a * np.subtract.outer(x0, x1) ** 2)  # [i0, i1]
    gy = np.exp(-0.5 * a * np.subtract.outer(y0, y1) ** 2)  # [j0, j1]
    e0 = np.exp(1j * a * np.multiply.outer(x1, y0))  # [i1, j0]
    e1 = np.exp(-1j * a * np.multiply.outer(x0, y1))  # [i0, j1]
    # inner[i0, i1, j0] = sum_j1 e1[i0, j1] R[i1, j1] gy[j0, j1]
    inner = ((e1[:, None, :] * R[None, :, :]).reshape(n * n, n) @ gy.T).reshape(n, n, n)
    # sum_{i0, i1, j0} L[i0, j0] gx[i0, i1] e0[i1, j0] inner[i0, i1, j0]
    outer = np.matmul(gx[:, None, :], e0[None, :, :] * inner)[:, 0, :]
    return complex(np.sum(L * outer))


def _q_factor(sym: SymbolPoly, tau: float, hbar: float, za, zb):
    """The Q-form factor of one slice from z_a to z_b:
    exp(z_b* z_a - |z_a|^2/2 - |z_b|^2/2 - i tau H(z_a, z_b*)/hbar)."""
    return np.exp(
        np.conj(zb) * za
        - 0.5 * np.abs(za) ** 2
        - 0.5 * np.abs(zb) ** 2
        - 1j * tau * sym.eval(za, np.conj(zb)) / hbar
    )


def _quad_once(
    form: str,
    sym: SymbolPoly,
    zp: complex,
    zpp: complex,
    tau: float,
    N: int,
    hbar: float,
    radius: float,
    n: int,
) -> tuple[complex, int]:
    zpp_star = np.conj(zpp)
    offsets, area, ax, mask = _disc_points(radius, n)

    if form == "q":
        e_factor = functools.partial(_q_factor, sym, tau, hbar)  # N slices, N-1 integrated points
        centers = [zp + (j / N) * (zpp - zp) for j in range(1, N)]
        pts = [c + offsets for c in centers]
        left = e_factor(zp, pts[0]) * (area / math.pi)
        if N == 2:
            return complex(np.sum(left * e_factor(pts[0], zpp))), len(offsets)
        # H of degree <= 2 is H(u, 0) + H(0, v) - H(0, 0) + h11 u v.  The u and v parts go
        # to the site factors and h11 to a Gaussian pair kernel with a = 1 - i tau h11/hbar,
        # whose a |z|^2 / 2 terms leave -i tau h11 |z|^2 / (2 hbar) in each plane
        h11, h00 = sym.terms.get((1, 1), 0.0), sym.terms.get((0, 0), 0.0)
        z0, z1 = pts
        left *= np.exp(-1j * tau * (sym.eval(z0, 0 * z0) + 0.5 * h11 * np.abs(z0) ** 2) / hbar)
        h_v = sym.eval(0 * z1, np.conj(z1)) - h00 + 0.5 * h11 * np.abs(z1) ** 2
        right = e_factor(z1, zpp) * np.exp(-1j * tau * h_v / hbar) * (area / math.pi)
        a = 1.0 - 1j * tau * h11 / hbar
        return _gaussian_pair_sum(a, *centers, ax, mask, left, right), len(offsets)

    def site(z):
        return np.exp(-1j * tau * sym.eval(z, np.conj(z)) / hbar)

    if form == "p":
        # N integrated points carrying the diagonal symbol, N+1 overlaps
        centers = [zp + (j / (N + 1)) * (zpp - zp) for j in range(1, N + 1)]
        pts = [c + offsets for c in centers]
        left = overlap(pts[0], zp) * site(pts[0]) * (area / math.pi)
        if N == 1:
            return complex(np.sum(left * overlap(zpp, pts[0]))), len(offsets)
        right = overlap(zpp, pts[1]) * site(pts[1]) * (area / math.pi)
        return _gaussian_pair_sum(1.0, *centers, ax, mask, left, right), len(offsets)

    # W form: N midpoints integrated with measure prod (2/pi) dx dy; the
    # pair kernel exp(4 w*_2 w_1 - 2|w_1|^2 - 2|w_2|^2) is a Gaussian with a = 4
    centers = [zp + ((k - 0.5) / N) * (zpp - zp) for k in range(1, N + 1)]
    w1, w2 = [c + offsets for c in centers]
    weight = 2.0 * area / math.pi
    left = site(w1) * np.exp(-2.0 * zpp_star * w1 + 2.0 * zp * np.conj(w1)) * weight
    right = site(w2) * np.exp(2.0 * zpp_star * w2 - 2.0 * zp * np.conj(w2)) * weight
    pair = _gaussian_pair_sum(4.0, *centers, ax, mask, left, right)
    return complex(overlap(zpp, zp) * pair), len(offsets)


def quadrature_K(
    form: str,
    H: OperatorPoly,
    zp: complex,
    zpp: complex,
    T: float,
    N: int,
    grid: DiscGridSpec = DiscGridSpec(),
) -> QuadKResult:
    """Brute-force evaluation of a discrete path-integral propagator.

    Only very small slice numbers are tractable: the Q form integrates
    2(N-1) real dimensions, the P and W forms 2N, and anything beyond four
    dimensions is refused, so N runs over 1..3 for Q, 1..2 for P and 2 for W.
    The Q form at N = 1 integrates nothing: its value is the one slice factor
    exp(z''* z' - |z'|^2/2 - |z''|^2/2 - i T H(z', z''*)/hbar), built on no grid
    and counted against no byte limit.  At T = 0, after every check, the value
    is the exact overlap <z''|z'>.  Where no grid is integrated,
    ``refinement_delta``, ``dims`` and ``points_per_plane`` are 0.

    Raises
    ------
    DomainError
        If the requested (form, N) needs more than a 4-dimensional grid (every
        N of 4 or more), or for the Q form at N = 3 with H of degree above 2
        (no limit exists), either pass would take more than ``DENSE_BYTES``
        (refused before the first is run), or the value on either grid, or the
        Q form's one factor at N = 1, is not a finite double.
    NonConverged
        If refinement moves the value by more than ``grid.tolerance``, or
        by a non-finite amount when no tolerance is set.
    InvalidArgument
        If the form is not q, p or w, a label or T is not a finite scalar, T is negative, N is
        below 1 or the W form gets odd N.
    """
    form_s(form)  # refuses a name other than q, p or w, and a non-string
    form = form.lower()
    require_scalar(zp=zp, zpp=zpp)
    require_nonnegative(T=T)
    require_index(N, "N", 1)
    dims = 2 * (N - 1) if form == "q" else 2 * N
    if dims > 4:
        raise DomainError(f"form {form!r} with N = {N} needs a {dims}-dimensional grid")
    if form == "w" and N % 2 != 0:
        raise InvalidArgument("the W form requires even N")
    sym = symbol_for_form(H, form)
    if form == "q" and N == 3 and sym.degree > 2:
        why = f"has no limit at degree {sym.degree}: its value grows with the disc radius"
        raise DomainError(f"the Q-form integral at N = 3 {why}")
    if dims == 0:  # the Q form at N = 1 integrates no plane: its value is its one slice factor
        value = overlap(zpp, zp) if T == 0 else finite_double(
            lambda: _q_factor(sym, T, H.hbar, zp, zpp), "the Q-form factor at N = 1")
        return QuadKResult(complex(value), 0.0, 0, 0)
    on = "the quadrature on {} points per axis".format  # names a pass in its refusals
    power = 3 if dims == 4 else 2  # a pass builds the pair sum's n^3 tables, else an n x n disc
    _require_dense(QUAD_BYTES * grid.points**power, on(grid.points))
    n_fine = int(round(grid.points * GRID_REFINE))  # a finite double once the first pass fits
    _require_dense(QUAD_BYTES * n_fine**power, on(n_fine))
    if T == 0:
        return QuadKResult(complex(overlap(zpp, zp)), 0.0, 0, 0)
    args = (form, sym, zp, zpp, T / N, N, H.hbar, RADIUS_WIDTHS * COHERENT_WIDTH)

    def once(n):
        return finite_double(lambda: _quad_once(*args, n), on(n))

    coarse, _ = once(grid.points)
    fine, npts_f = once(n_fine)
    what = f"refining {grid.points} -> {n_fine} points per axis"
    fine, delta = refine(coarse, fine, grid.tolerance, what)
    return QuadKResult(fine, delta, dims, npts_f)


def convergence_table(
    omega: float,
    T: float,
    zp: complex,
    zpp: complex,
    N_list,
) -> list[dict]:
    """Rows comparing the Q, P and W discrete harmonic propagators to the exact one.

    Columns: N, form, re_K, im_K, abs_err_vs_oracle, re_mu, im_mu; the W row
    is left out at odd N.
    """
    oracle = harmonic_exact_K(zp, zpp, omega, T)
    rows = []
    for N in N_list:
        for form in FORM_S:
            if form == "w" and N % 2 != 0:
                continue
            K = harmonic_discrete_K(form, zp, zpp, omega, T, N)
            mu = _mu(form, omega, T, N)
            rows.append(
                {
                    "N": N,
                    "form": form,
                    "re_K": K.real,
                    "im_K": K.imag,
                    "abs_err_vs_oracle": abs(K - oracle),
                    "re_mu": mu.real,
                    "im_mu": mu.imag,
                }
            )
    return rows
