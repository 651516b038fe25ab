"""Discrete coherent-state path-integral exponents and propagators.

Three time-sliced forms are implemented: the normal-ordered chain (Q), the
diagonal-representation chain (P), and the midpoint form built on the Weyl
symbol (W).  The module also carries the closed-form harmonic-oscillator
propagators at finite slicing, their convergence coefficients mu, and a
brute-force quadrature evaluator for very small slice numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import OperatorPoly, SymbolPoly, symbol_for_form
from .coherent import harmonic_exact_K
from .errors import DimensionTooLarge, QuadratureNotConverged

__all__ = [
    "DiscreteWPath",
    "phi_N",
    "phi_N_alt",
    "psi_C",
    "chord_coefficients",
    "phi_N_gradient",
    "stationary_path_harmonic",
    "harmonic_discrete_K",
    "mu_coefficients",
    "DiscGridSpec",
    "QuadKResult",
    "quadrature_K",
    "convergence_table",
]

COHERENT_WIDTH = 1.0 / math.sqrt(2.0)  # |<z|z'>|^2 = exp(-|z-z'|^2)


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
        object.__setattr__(self, "w", w)
        if self.w_star is None:
            object.__setattr__(self, "w_star", np.conj(w))
        else:
            ws = np.asarray(self.w_star, dtype=complex)
            if ws.shape != w.shape:
                raise ValueError("w and w_star must have the same length")
            object.__setattr__(self, "w_star", ws)
        if len(w) % 2 != 0 or len(w) == 0:
            raise ValueError("N must be a positive even integer")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    @property
    def N(self) -> int:
        return len(self.w)

    @property
    def T(self) -> float:
        return self.N * self.tau


def _alternating(N: int) -> np.ndarray:
    """(-1)^(k+1) for k = 1..N."""
    alt = np.ones(N)
    alt[1::2] = -1.0
    return alt


def _alt_prefix_sums(w: np.ndarray) -> np.ndarray:
    """s_m = sum_{j=1}^{m-1} (-1)^(j+1) w_{m-j}, for m = 1..N (s_1 = 0)."""
    N = len(w)
    s = np.zeros(N, dtype=complex)
    for m in range(1, N):
        s[m] = w[m - 1] - s[m - 1]
    return s


def _H_values(path: DiscreteWPath, H_W: SymbolPoly) -> np.ndarray:
    return H_W.eval(path.w, path.w_star)


def phi_N(path: DiscreteWPath, H_W: SymbolPoly) -> complex:
    """Weyl-form discrete exponent, evaluated exactly as printed.

    phi_N = sum_k [ -i tau H_k / hbar - 2 w_k w*_k
                    + 2 z''* w_{N+1-k} (-1)^(k+1) + 2 z' w*_k (-1)^(k+1) ]
            + 4 sum_{k=1}^{N-1} sum_{j=1}^{k} w*_{k+1} w_{k+1-j} (-1)^(j+1)
            + z' z''*

    with H_k = H_W(w_k, w*_k).
    """
    w, ws = path.w, path.w_star
    alt = _alternating(path.N)
    H = _H_values(path, H_W)
    zpp_star = np.conj(path.zpp)
    total = np.sum(
        -1j * path.tau * H / path.hbar
        - 2.0 * w * ws
        + 2.0 * zpp_star * w[::-1] * alt
        + 2.0 * path.zp * ws * alt
    )
    total += 4.0 * np.sum(ws * _alt_prefix_sums(w))
    return complex(total + path.zp * zpp_star)


def phi_N_alt(path: DiscreteWPath, H_W: SymbolPoly) -> complex:
    """Rearranged discrete exponent (difference sums in steps of two).

    Identical to :func:`phi_N` for every path; the quadratic part is grouped
    so the continuum limit exhibits the action.
    """
    w, ws = path.w, path.w_star
    N = path.N
    H = _H_values(path, H_W)
    zpp_star = np.conj(path.zpp)
    odd = np.arange(0, N - 1, 2)  # k = 1, 3, .., N-1 (0-based k-1)

    dw = w[odd + 1] - w[odd]  # w_{k+1} - w_k
    dws = ws[odd + 1] - ws[odd]  # w*_{k+1} - w*_k
    total = 2.0 * np.sum(w[odd] * dws - ws[odd + 1] * dw)
    total += -1j * path.tau * np.sum(H) / path.hbar

    # - 4 sum_{k odd} (w_{k+1}-w_k) sum_{l=k+1,k+3..}^{N-2} (w*_{l+2}-w*_{l+1})
    # built with a reversed cumulative sum over the even-l differences
    tail = 0.0 + 0.0j
    tails = np.zeros(len(odd), dtype=complex)
    for idx in range(len(odd) - 1, -1, -1):
        k = odd[idx] + 1  # 1-based odd k
        l = k + 1
        if l <= N - 2:
            tail += ws[l + 1] - ws[l]  # w*_{l+2} - w*_{l+1}, 0-based indices
        tails[idx] = tail
    total += -4.0 * np.sum(dw * tails)

    total += -2.0 * path.zp * np.sum(dws) + 2.0 * zpp_star * np.sum(dw)
    return complex(total + path.zp * zpp_star)


def psi_C(path: DiscreteWPath, H_W: SymbolPoly) -> tuple[complex, complex]:
    """Boundary-independent part psi_N and the chord coefficient C_N.

    The full exponent reconstructs as
    ``phi_N = psi_N + 2 C_N z''* + 2 Cbar_N z' + z' z''*`` where ``Cbar_N``
    is the conjugate-pattern coefficient from :func:`chord_coefficients`.
    """
    w, ws = path.w, path.w_star
    H = _H_values(path, H_W)
    psi = np.sum(-1j * path.tau * H / path.hbar - 2.0 * w * ws)
    psi += 4.0 * np.sum(ws * _alt_prefix_sums(w))
    C = np.sum(w[::-1] * _alternating(path.N))
    return complex(psi), complex(C)


def chord_coefficients(path: DiscreteWPath) -> tuple[complex, complex]:
    """(C_N, Cbar_N): the chord and its conjugate-pattern partner.

    ``Cbar_N = sum_k w*_k (-1)^(k+1)``; on real-section paths it equals
    ``-conj(C_N)``... see the reconstruction identity tests.
    """
    alt = _alternating(path.N)
    C = complex(np.sum(path.w[::-1] * alt))
    Cbar = complex(np.sum(path.w_star * alt))
    return C, Cbar


def phi_N_gradient(path: DiscreteWPath, H_W: SymbolPoly):
    """Exact partials (d phi/d w_l, d phi/d w*_l) treating w, w* independent."""
    w, ws = path.w, path.w_star
    N = path.N
    alt = _alternating(N)
    _, Hu, Hv = H_W.jet(w, ws, order=1)
    s = _alt_prefix_sums(w)
    r = np.zeros(N, dtype=complex)  # r_l = sum_{k=l}^{N-1} (-1)^(k-l) w*_{k+1}
    for l in range(N - 2, -1, -1):
        r[l] = ws[l + 1] - r[l + 1]
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
    ``w*_k = (alpha*)^(N-k) / alpha^(N-k+1) z''*`` with alpha = 1 + i tau omega / 2.
    """
    if N % 2 != 0 or N <= 0:
        raise ValueError("N must be a positive even integer")
    tau = T / N
    alpha = 1.0 + 0.5j * tau * omega
    k = np.arange(1, N + 1)
    ratio = np.conj(alpha) / alpha
    w = ratio ** (k - 1) / alpha * zp
    w_star = ratio ** (N - k) / alpha * np.conj(zpp)
    return DiscreteWPath(w=w, tau=tau, zp=zp, zpp=zpp, w_star=w_star, hbar=hbar)


def mu_coefficients(omega: float, T: float, N: int):
    """Coefficients multiplying z' z''* in the three discrete harmonic forms.

    mu_Q = (1 - i tau w)^N, mu_P = (1 + i tau w)^-N,
    mu_W = ((1 - i tau w / 2) / (1 + i tau w / 2))^N, tau = T/N; all three
    tend to exp(-i w T).
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    tau = T / N
    mu_q = (1.0 - 1j * tau * omega) ** N
    mu_p = (1.0 + 1j * tau * omega) ** (-N)
    mu_w = ((1.0 - 0.5j * tau * omega) / (1.0 + 0.5j * tau * omega)) ** N
    return mu_q, mu_p, mu_w


def harmonic_discrete_K(
    form: str, zp: complex, zpp: complex, omega: float, T: float, N: int
) -> complex:
    """Closed-form finite-N propagators for H = hbar omega (adag a + 1/2).

    K_W = (1 + i tau w/2)^-N exp(mu_W z'z''* - |z'|^2/2 - |z''|^2/2)
    K_Q = exp(-i w T/2 + mu_Q z'z''* - |z'|^2/2 - |z''|^2/2)
    K_P = (1 + i tau w)^-N exp(+i w T/2 + mu_P z'z''* - |z'|^2/2 - |z''|^2/2)
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    tau = T / N
    mu_q, mu_p, mu_w = mu_coefficients(omega, T, N)
    gauss = -0.5 * abs(zp) ** 2 - 0.5 * abs(zpp) ** 2
    cross = zp * np.conj(zpp)
    form = form.lower()
    if form == "w":
        if N % 2 != 0:
            raise ValueError("the W form requires even N")
        return complex(
            (1.0 + 0.5j * tau * omega) ** (-N) * np.exp(mu_w * cross + gauss)
        )
    if form == "q":
        return complex(np.exp(-0.5j * omega * T + mu_q * cross + gauss))
    if form == "p":
        return complex(
            (1.0 + 1j * tau * omega) ** (-N)
            * np.exp(0.5j * omega * T + mu_p * cross + gauss)
        )
    raise ValueError(f"unknown form {form!r}; expected q, p or w")


# ---------------------------------------------------------------------------
# brute-force quadrature of the discrete integrals (N small)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscGridSpec:
    """Uniform grid on a disc in each integrated complex plane.

    ``radius_widths`` counts coherent widths (1/sqrt(2) in label units)
    around the straight line between z' and z''; refinement multiplies the
    per-axis point count and the difference between passes is reported.
    ``chunk`` bounds the columns of the Q-form pair kernel built at once;
    the P and W pair kernels factorise and are never built whole.
    """

    points: int = 48
    radius_widths: float = 6.0
    refine: float = 1.5
    check: bool = True
    tolerance: float | None = None
    chunk: int = 4096


@dataclass
class QuadKResult:
    value: complex
    refinement_delta: float
    dims: int
    points_per_plane: int

    def __complex__(self):
        return complex(self.value)


def _disc_points(center: complex, radius: float, n: int):
    """Masked uniform grid over a disc: (points, cell_area, axis, mask).

    The points are ``center + X + iY`` at the mask's true entries of the
    (X, Y) = (axis, axis) grid, in row-major order.
    """
    ax = np.linspace(-radius, radius, n)
    step = ax[1] - ax[0]
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mask = X**2 + Y**2 <= radius**2
    pts = center + X[mask] + 1j * Y[mask]
    return pts, step * step, ax, mask


def _chain_sum(left, kernel, right, chunk: int) -> complex:
    """sum_{a,b} left[a] kernel(a_pts, b_chunk) right[b], chunked over b."""
    if kernel is None:
        return complex(np.sum(left * right))
    acc = 0.0 + 0.0j
    for start in range(0, len(right), chunk):
        block = kernel(slice(start, start + chunk))
        acc += np.sum((left @ block) * right[start : start + chunk])
    return complex(acc)


def _gaussian_pair_sum(a: float, c0: complex, c1: complex, ax, mask, left, right) -> complex:
    """sum_{z0, z1} left(z0) exp(a conj(z1) z0 - a|z0|^2/2 - a|z1|^2/2) right(z1).

    z0 and z1 run over the masked disc grids ``c + ax + i ax`` around the
    centres c0 and c1.  With z = X + iY the pair kernel is the product of four n x n
    factors, each bounded by 1:
    exp(-a/2 (X0-X1)^2) exp(-a/2 (Y0-Y1)^2) exp(i a X1 Y0) exp(-i a Y1 X0).
    The site values sit on the full n x n grid with zeros off the disc, so
    the double sum is one (n^2, n) x (n, n) product and an n^3 contraction.
    """
    n = len(ax)
    L = np.zeros((n, n), dtype=complex)
    R = np.zeros((n, n), dtype=complex)
    L[mask] = left
    R[mask] = right
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
    chunk: int,
) -> tuple[complex, int, int]:
    zpp_star = np.conj(zpp)

    if form == "q":
        # N slices, N-1 integrated points; H couples adjacent times:
        # E_j = z*_{j+1} z_j - |z_j|^2/2 - |z_{j+1}|^2/2 - i tau H(z_j, z*_{j+1})/hbar
        def e_factor(za, zb):
            return np.exp(
                np.conj(zb) * za
                - 0.5 * np.abs(za) ** 2
                - 0.5 * np.abs(zb) ** 2
                - 1j * tau * sym.eval(za, np.conj(zb)) / hbar
            )

        m = N - 1
        if m == 0:
            return complex(e_factor(zp, zpp)), 0, 0
        centers = [zp + (j / N) * (zpp - zp) for j in range(1, N)]
        planes = [_disc_points(c, radius, n) for c in centers]
        pts = [p for p, *_ in planes]
        if m == 1:
            left = e_factor(zp, pts[0]) * (planes[0][1] / math.pi)
            right = e_factor(pts[0], zpp)
            return _chain_sum(left, None, right, chunk), 2, len(pts[0])
        left = e_factor(zp, pts[0]) * (planes[0][1] / math.pi)
        right = e_factor(pts[1], zpp) * (planes[1][1] / math.pi)

        def kernel(sl):
            return e_factor(pts[0][:, None], pts[1][None, sl])

        return _chain_sum(left, kernel, right, chunk), 4, len(pts[0])

    def site(z):
        return np.exp(-1j * tau * sym.eval(z, np.conj(z)) / hbar)

    if form == "p":
        # N integrated points carrying the diagonal symbol, N+1 overlaps
        def ovl(za, zb):
            return np.exp(
                np.conj(zb) * za - 0.5 * np.abs(za) ** 2 - 0.5 * np.abs(zb) ** 2
            )

        centers = [zp + (j / (N + 1)) * (zpp - zp) for j in range(1, N + 1)]
        planes = [_disc_points(c, radius, n) for c in centers]
        pts = [p for p, *_ in planes]
        left = ovl(zp, pts[0]) * site(pts[0]) * (planes[0][1] / math.pi)
        if N == 1:
            right = ovl(pts[0], zpp)
            return _chain_sum(left, None, right, chunk), 2, len(pts[0])
        right = ovl(pts[1], zpp) * site(pts[1]) * (planes[1][1] / math.pi)
        ax, mask = planes[0][2:]
        return _gaussian_pair_sum(1.0, *centers, ax, mask, left, right), 4, len(pts[0])

    # W form: N midpoints integrated with measure prod (2/pi) dx dy; the
    # pair kernel exp(4 w*_2 w_1 - 2|w_1|^2 - 2|w_2|^2) is a Gaussian with a = 4
    centers = [zp + ((k - 0.5) / N) * (zpp - zp) for k in range(1, N + 1)]
    planes = [_disc_points(c, radius, n) for c in centers]
    w1, w2 = planes[0][0], planes[1][0]
    area1, area2 = planes[0][1], planes[1][1]
    boundary = np.exp(
        zp * zpp_star - 0.5 * abs(zp) ** 2 - 0.5 * abs(zpp) ** 2
    )
    left = (
        site(w1)
        * np.exp(-2.0 * zpp_star * w1 + 2.0 * zp * np.conj(w1))
        * (2.0 * area1 / math.pi)
    )
    right = (
        site(w2)
        * np.exp(2.0 * zpp_star * w2 - 2.0 * zp * np.conj(w2))
        * (2.0 * area2 / math.pi)
    )
    ax, mask = planes[0][2:]
    return boundary * _gaussian_pair_sum(4.0, *centers, ax, mask, left, right), 4, len(w1)


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
    2(N-1) real dimensions, the P and W forms 2N.  Anything beyond four
    dimensions is refused.

    Raises
    ------
    DimensionTooLarge
        If the requested (form, N) needs more than a 4-dimensional grid.
    QuadratureNotConverged
        If refinement moves the value by more than ``grid.tolerance``.
    """
    form = form.lower()
    if form not in ("q", "p", "w"):
        raise ValueError(f"unknown form {form!r}; expected q, p or w")
    if N < 1 or N > 3:
        raise DimensionTooLarge(f"N = {N} is outside the supported range 1..3")
    dims = 2 * (N - 1) if form == "q" else 2 * N
    if dims > 4:
        raise DimensionTooLarge(
            f"form {form!r} with N = {N} needs a {dims}-dimensional grid"
        )
    if form == "w" and N % 2 != 0:
        raise ValueError("the W form requires even N")
    sym = symbol_for_form(H, form)
    tau = T / N
    radius = grid.radius_widths * COHERENT_WIDTH

    coarse, dims_out, npts = _quad_once(
        form, sym, zp, zpp, tau, N, H.hbar, radius, grid.points, grid.chunk
    )
    if dims_out == 0:
        return QuadKResult(coarse, 0.0, 0, 0)
    n_fine = int(round(grid.points * grid.refine))
    fine, _, npts_f = _quad_once(
        form, sym, zp, zpp, tau, N, H.hbar, radius, n_fine, grid.chunk
    )
    delta = abs(fine - coarse)
    if grid.check and grid.tolerance is not None and delta > grid.tolerance:
        raise QuadratureNotConverged(
            f"refining {grid.points} -> {n_fine} points per axis moved the "
            f"value by {delta:.3e} (tolerance {grid.tolerance:.3e})"
        )
    return QuadKResult(fine, delta, dims_out, npts_f)


def convergence_table(
    omega: float,
    T: float,
    zp: complex,
    zpp: complex,
    N_list,
    forms=("q", "p", "w"),
) -> list[dict]:
    """Rows comparing the discrete harmonic propagators to the exact one.

    Columns: N, form, re_K, im_K, abs_err_vs_oracle, re_mu, im_mu.
    """
    oracle = harmonic_exact_K(zp, zpp, omega, T)
    rows = []
    for N in N_list:
        mu_by_form = dict(zip("qpw", mu_coefficients(omega, T, N)))
        for form in forms:
            if form == "w" and N % 2 != 0:
                continue
            K = harmonic_discrete_K(form, zp, zpp, omega, T, N)
            mu = mu_by_form[form]
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
