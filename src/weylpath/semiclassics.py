"""Complex-trajectory boundary-value solver and semiclassical propagators.

Trajectories solve i hbar du/dt = +dH/dv, i hbar dv/dt = -dH/du with the
mixed data u(0) = z', v(T) = conj(z'').  The variational pair (du, dv) with
(0, 1) initial data supplies both the Newton Jacobian and the fluctuation
prefactor through d2S/du'dv'' = -i hbar / dv(T).

Both are integrated with RK4 in q = (u + v)/sqrt(2), p = (u - v)/(i sqrt(2)),
where the symbol is sparser, on Hamilton's flow ``SymbolPoly.flow``.  The
kernel ``_step`` takes the RK4 step Phi_h at every node of a grid at once
(``_phi``), with its Jacobian, the step matrix of the linear variational
pair built from the symbol's Hessian at the stage points (``_linear_rk4``).
A grid is one discrete boundary-value problem, solved by whole-grid Newton
on all its nodes (``_newton``): each step is one log-depth prefix scan of
2 x 3 affine matrices [M_k | r_k] (``_prefix_products``).  For a symbol of
degree at most 2 one step on the full grid is exact and Phi_h alone checks
it.  For a quartic the same Newton first solves a coarse grid of at least
``MIN_STEPS`` steps, seeded by the RK4 steps of the flow linearised at the
origin (``_step`` at zero nodes, one ``_prefix_products``) applied to
(z', v(0)); that fixes the saddle, and the cubic-Hermite interpolant of its
nodes seeds the full grid (nested iteration).  The default v(0) is the one
whose coarse seed meets v(T) = conj(z'').  Of several guesses, one whose
coarse v(0) repeats one already refined is not refined again.  The nodes
are mapped back to (u, v, du, dv); RK4 commutes with that map.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .algebra import OperatorPoly, SymbolPoly, form_s, symbol_for_form
from .coherent import _require_dense, overlap
from .errors import CausticWarning, DomainError, InvalidArgument, NonConverged
from .errors import finite_double, require_index, require_nonnegative, require_positive
from .errors import require_scalar

__all__ = _EXPORTS["semiclassics"].split()

SINGULAR_THRESHOLD = 1e-12  # |Omega(T)| below this is a caustic: d2S does not exist
CAUSTIC_THRESHOLD = 1e-4  # |dv(t)| below this on the way warns of a near-caustic
DEDUPE_TOL = 1e-6  # shooting results whose v(0) differ by less are one trajectory
MIN_STEPS = 16  # fewest RK4 steps of a shooting grid, coarse or full
COARSE_FACTOR = 8  # the coarse shooting grid has 1/COARSE_FACTOR of the full grid's steps
MAX_ITER = 30  # Newton steps per shooting grid before it counts as stalled
PASS_BYTES = 928  # per RK4 step of _newton's full grid: stage points and generators, Phi_h, step
# matrices, the 2 x 3 affine scan and the last step's arrays (traced peak, quartic, 16,384-65,536 steps)
_DOUBLING_SCAN = 128  # longest stack of step matrices _prefix_products scans by doubling, not halving
_R = 0.5**0.5
_TO_UV = np.kron(np.eye(2), [[_R, 1j * _R], [_R, -1j * _R]])  # (q, p, dq, dp) -> (u, v, du, dv)


@dataclass
class ComplexTrajectory:
    """A converged complexified trajectory with its linearised flow.

    ``du``/``dv`` hold the variational solution with (du, dv)(0) = (0, 1);
    ``v`` is genuinely independent of ``conj(u)`` away from quadratic
    Hamiltonians.  ``residual`` and ``newton_iters`` come from the
    whole-grid Newton, the one solver of every trajectory: its last
    correction (for a symbol of degree at most 2, the check of its one
    step), below the tolerance, and the steps before it (see
    :func:`solve_bvp`).
    """

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    v0: complex
    residual: float
    hbar: float
    newton_iters: int


def _product(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``later @ earlier`` for stacks of matrices laid out [row, column, ...], entry by entry.

    A stack with one more column than rows is affine: [M | r] stands for
    [[M, r], [0, 1]], and the product is [M' M | M' r + r'], the square
    product's numbers without its row of exact zeros and one.
    """
    out = later[:, 0, None] * earlier[None, 0]
    for j in range(1, len(earlier)):
        out += later[:, j, None] * earlier[None, j]
    if later.shape[1] > len(later):
        out[:, -1] += later[:, -1]
    return out


def _total_product(m: np.ndarray) -> np.ndarray:
    """The product m_(n-1) ... m_0 of stacked matrices laid out [row, column, k], by pairwise
    halving: each level multiplies the pairs m_(2i+1) m_(2i) and carries an odd last factor up.

    It is the last prefix of :func:`_prefix_products` at about half the work
    (Blelloch, CMU-CS-90-190, 1990), and the same numbers where n is a power of two.
    """
    while m.shape[-1] > 1:
        product = _product(m[..., 1::2], m[..., :-1:2])
        m = np.concatenate([product, m[..., -1:]], axis=-1) if m.shape[-1] % 2 else product
    return m[..., 0]


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Prefix products m_k ... m_0 of stacked square or affine matrices laid out [row, column, k],
    in place (see :func:`_product`).

    Above ``_DOUBLING_SCAN`` factors the pairs m_(2i+1) m_(2i) are scanned
    first, which gives every odd prefix, and each even one is m_(2i) times
    the odd prefix before it; below it every factor takes the product of the
    one ``shift`` before it, for shift = 1, 2, 4, ... (Hillis & Steele,
    Commun. ACM 29, 1170, 1986), fewer numpy calls on short stacks.
    """
    n = m.shape[-1]
    if n > _DOUBLING_SCAN:
        odd = _prefix_products(_product(m[..., 1::2], m[..., :-1:2]))
        m[..., 2::2] = _product(m[..., 2::2], odd[..., : (n - 1) // 2])
        m[..., 1::2] = odd
        return m
    shift = 1
    while shift < n:  # m[k] becomes m_k ... m_(k - 2 shift + 1)
        m[..., shift:] = _product(m[..., shift:], m[..., :-shift])
        shift *= 2
    return m


def _linear_rk4(G, h: float) -> np.ndarray:
    """RK4 step matrices M_k of y' = G(t) y.

    ``G`` holds the four stage generators G_1 .. G_4 of every step, each a
    stack of 2 x 2 matrices laid out [row, column, step].  Step k's matrix is
    M_k = I + h/6 (G_1 + 2 K_2 + 2 K_3 + K_4) with K_2 = G_2 (I + h/2 G_1),
    K_3 = G_3 (I + h/2 K_2) and K_4 = G_4 (I + h K_3): the RK4 step of the
    linear system, y_(k+1) = M_k y_k.  Returns them laid out [row, column, k].
    """
    g1, g2, g3, g4 = G
    k2 = g2 + (0.5 * h) * _product(g2, g1)
    k3 = g3 + (0.5 * h) * _product(g3, k2)
    k4 = g4 + h * _product(g4, k3)
    m = (h / 6.0) * (g1 + 2.0 * (k2 + k3) + k4)
    m[0, 0] += 1.0
    m[1, 1] += 1.0
    return m


def _phi(flow, y: np.ndarray, h: float) -> tuple:
    """The RK4 step Phi_h at every node at once: (Phi_h(y_k), the stage points).

    ``y`` holds the nodes (q, p)_k laid out [component, k].  Four array
    ``flow`` calls give the stage points, laid out [component, stage, k],
    and the slopes there; this is the one place that holds the RK4 weights
    of (q, p).
    """
    h2, h6 = 0.5 * h, h / 6.0
    stages = np.empty((2, 4) + y.shape[1:], dtype=complex)  # (q, p) at the four stage points
    slopes = np.empty_like(stages)
    stages[:, 0] = y
    for i, c in enumerate((h2, h2, h)):
        slopes[0, i], slopes[1, i] = flow(*stages[:, i])
        stages[:, i + 1] = y + c * slopes[:, i]
    slopes[0, 3], slopes[1, 3] = flow(*stages[:, 3])
    return y + h6 * (slopes[:, 0] + 2.0 * (slopes[:, 1] + slopes[:, 2]) + slopes[:, 3]), stages


def _step(flow, hessian, y: np.ndarray, h: float) -> tuple:
    """The RK4 step Phi_h and its Jacobian at every node at once: (Phi_h(y_k), M_k).

    ``hessian`` at the stage points of :func:`_phi` gives the generators
    [[H_qp, H_pp], [-H_qq, -H_qp]] / hbar of (dq, dp), and M_k, the RK4 step
    of the linearised flow laid out [row, column, k], is the exact Jacobian
    of Phi_h at y_k.
    """
    phi, stages = _phi(flow, y, h)
    G = np.empty((4, 2, 2) + y.shape[1:], dtype=complex)
    G[:, 0, 0], G[:, 0, 1], G[:, 1, 0] = hessian(*stages)
    G[:, 1, 1] = G[:, 0, 0]
    G[:, 1] *= -1.0
    return phi, _linear_rk4(G, h)


def _start(zp: complex, v0: complex) -> tuple:
    """(q, p) at t = 0 from (u, v) = (z', v0)."""
    return (zp + v0) * _R, 1j * _R * (v0 - zp)


def _v(y):
    """v = (q - i p) / sqrt(2) of the (q, p) pair ``y``; dv of a (dq, dp) pair."""
    return _R * y[0] - 1j * _R * y[1]


def _tangent(products: np.ndarray) -> np.ndarray:
    """(dq, dp) at every node from (du, dv)(0) = (0, 1), that is (dq, dp)(0) = (1, i) / sqrt(2),
    carried by the prefix products of the step matrices, as a (2, steps + 1) array."""
    tangent = np.empty((2, products.shape[-1] + 1), dtype=complex)
    tangent[:, 0] = _R, 1j * _R
    tangent[:, 1:] = products[:, 0] * _R + products[:, 1] * (1j * _R)
    return tangent


def _hermite(y: np.ndarray, hdy: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cubic-Hermite interpolant of the nodes ``y`` (laid out [component, k]) with their slopes
    times the step, ``hdy``, at the fractional node positions ``s``."""
    k = np.clip(np.floor(s).astype(int), 0, y.shape[-1] - 2)
    x = s - k
    x1 = x - 1.0
    return (
        (1.0 + 2.0 * x) * x1 * x1 * y[:, k] + x * x1 * x1 * hdy[:, k]
        + x * x * (3.0 - 2.0 * x) * y[:, k + 1] + x * x * x1 * hdy[:, k + 1]
    )


def _newton(flow, hessian, y: np.ndarray, zp: complex, zpp_star, v0: complex, h: float, tol,
            linear=False):
    """Whole-grid Newton on the RK4 nodes ``y`` = (q, p)_k, k = 0 .. N, from u(0) = z', v(0) = v0,
    on the coarse grid and on the full one.

    The residual is y_(k+1) - Phi_h(y_k).  Linearised by the step matrices
    M_k (``_step``), a correction delta with delta_0 = s (dq, dp)(0), along
    (du, dv)(0) = (0, 1) so that u(0) = z' stays, obeys delta_(k+1) =
    M_k delta_k + r_k with r_k = Phi_h(y_k) - y_(k+1).  One prefix scan of
    the affine stack [M_k | r_k] gives delta_k = P_k delta_0 + a_k
    (multiple-shooting condensing; Ascher, Mattheij & Russell, *Numerical
    Solution of BVPs for ODEs*, 1995), and v(T) = conj(z'') fixes s.  P_k
    times (dq, dp)(0) is the tangent.  From the nodes of an RK4 pass every
    r_k is 0 to round-off and the first step is shooting's on v(0): s =
    (conj(z'') - v(T)) / dv(T).  The coarse seed is the RK4 pass of the flow
    linearised at the origin: its r_k come from the non-quadratic terms.

    Stops after the first step whose correction is below ``tol`` in every
    node and component, max |delta| taken absolute, and applies it.  With
    ``linear`` (a symbol of degree at most 2) Phi_h is affine and a step is
    exact: after a step whose correction is not below ``tol``, Phi_h alone
    (``_phi``) checks it, and the step is taken when Phi_h at the corrected
    nodes meets y_(k+1) and v(T) meets conj(z''), each within ``tol``; that
    check is then the residual.  Returns ((q, p, dq, dp) nodes, v0, the
    steps before it, its residual), with the tangent that step was solved
    with.  Raises :class:`NonConverged` on a blow-up, a singular Jacobian
    dv(T)/dv(0) or a stall (``MAX_ITER`` steps), naming the grid by its N
    steps.  Overflow is ignored: it ends as a non-finite correction, the
    blow-up.
    """
    residual, grid = np.inf, f"on the grid of {y.shape[-1] - 1} steps"
    y[:, 0] = _start(zp, v0)
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(MAX_ITER + 1):
            phi, m = _step(flow, hessian, y[:, :-1], h)
            affine = np.empty((2, 3, m.shape[-1]), dtype=complex)
            affine[:, :2] = m
            affine[:, 2] = phi - y[:, 1:]
            scan = _prefix_products(affine)
            tangent = _tangent(scan)
            jac = _v(tangent[:, -1])
            if abs(jac) < 1e-14:
                raise NonConverged(f"singular shooting Jacobian dv(T)/dv(0) {grid}")
            s = (zpp_star - _v(y[:, -1] + scan[:, 2, -1])) / jac
            delta = tangent * s
            delta[:, 1:] += scan[:, 2]
            residual = float(np.abs(delta).max())
            if not np.isfinite(residual):
                raise NonConverged(f"trajectory blew up from v(0) = {v0:.6g} {grid}")
            y += delta
            v0 = complex(v0 + s)
            y[:, 0] = _start(zp, v0)
            if linear and residual >= tol:
                gap = np.abs(_phi(flow, y[:, :-1], h)[0] - y[:, 1:]).max()
                residual = max(float(gap), abs(_v(y[:, -1]) - zpp_star))
            if residual < tol:
                return np.concatenate([y, tangent]), v0, iteration, residual
    raise NonConverged(
        f"whole-grid Newton stalled at residual {residual:.3e} after {MAX_ITER} iterations {grid}"
    )


def _trajectories(H_sym: SymbolPoly, zp, zpp_star, T, steps, guesses: list, hbar, tol) -> tuple:
    """The distinct trajectories of :func:`solve_bvp` from each guess in turn, and the
    :class:`NonConverged` message of each guess that found none; checks the arguments as it does.

    A guess whose coarse v(0) lies within ``DEDUPE_TOL`` of the coarse v(0)
    of an earlier guess refined from its seed, converged or not, is not
    refined again, and a trajectory whose v(0) lies within ``DEDUPE_TOL``
    of a kept one is not kept: one refinement per saddle, and the first
    guess's trajectory is the one kept.
    """
    require_nonnegative(T=T)
    if not T > 0:
        raise InvalidArgument(f"T must be positive, got {T!r}")
    require_positive(hbar=hbar, tol=tol)
    require_scalar(zp=zp, zpp_star=zpp_star)
    for guess in guesses:
        if guess is not None:
            require_scalar(guess=guess)
    # Python numbers: numpy scalars and a 0-d array T give the same trajectory, repr included
    T, hbar, tol, steps = float(T), float(hbar), float(tol), require_index(steps, "steps", MIN_STEPS)
    steps += steps % 2  # Simpson-friendly grids
    _require_dense(PASS_BYTES * steps, f"a shooting pass of {steps} RK4 steps")
    coarse_steps = max(steps // COARSE_FACTOR, MIN_STEPS)
    coarse_steps += coarse_steps % 2
    zp, linear = complex(zp), H_sym.degree <= 2
    flow, hessian = H_sym.flow(hbar)
    start = zpp_star  # the default v(0); a linear flow's constant seed meets both ends
    if not linear:
        # the prefix products of the RK4 steps of the flow linearised at the origin, which carry
        # each guess's (q, p)(0) to its coarse seed; an overflow ends as non-finite nodes, the
        # coarse grid's blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            m = _prefix_products(_step(flow, hessian, np.zeros((2, coarse_steps)), T / coarse_steps)[1])
            # along them v(T) = a z' + b v(0): the default v(0) whose seed meets v(T) = conj(z'')
            a, b = (_v(m[..., -1] @ _start(*uv)) for uv in ((1, 0), (0, 1)))
            if abs(b) >= 1e-12:
                start = complex((zpp_star - a * zp) / b)

    trajectories, failures, tried = [], [], []  # tried: each refined seed's coarse v(0)
    for guess in guesses:
        v0 = start if guess is None else complex(guess)
        try:
            if linear:
                seed = np.empty((2, steps + 1), dtype=complex)
                seed.T[:] = _start(zp, v0)
            else:
                coarse = np.empty((2, coarse_steps + 1), dtype=complex)
                coarse[:, 0] = _start(zp, v0)
                with np.errstate(over="ignore", invalid="ignore"):
                    coarse[:, 1:] = m[:, 0] * coarse[0, :1] + m[:, 1] * coarse[1, :1]
                nodes, v0 = _newton(flow, hessian, coarse, zp, zpp_star, v0, T / coarse_steps, tol)[:2]
                if any(abs(v0 - other) <= DEDUPE_TOL for other in tried):
                    continue  # its saddle is refined already, or failed to refine
                tried.append(v0)
                coarse = nodes[:2]  # (q, p); the coarse tangent is not read
                slopes = np.empty_like(coarse)
                slopes[0], slopes[1] = flow(*coarse)
                at = np.arange(steps + 1) * (coarse_steps / steps)  # full-grid nodes on the coarse grid
                seed = _hermite(coarse, (T / coarse_steps) * slopes, at)
            nodes, v0, iteration, residual = _newton(
                flow, hessian, seed, zp, zpp_star, v0, T / steps, tol, linear)
        except NonConverged as exc:
            failures.append(str(exc))
            continue
        if any(abs(v0 - kept.v0) <= DEDUPE_TOL for kept in trajectories):
            continue
        us, vs, dus, dvs = _TO_UV @ nodes
        trajectories.append(ComplexTrajectory(
            times=np.linspace(0.0, T, steps + 1),
            u=us,
            v=vs,
            du=dus,
            dv=dvs,
            v0=complex(v0),
            residual=float(residual),
            hbar=hbar,
            newton_iters=iteration,
        ))
    return trajectories, failures


def solve_bvp(
    H_sym: SymbolPoly,
    zp: complex,
    zpp_star: complex,
    T: float,
    steps: int = 512,
    guess: complex | None = None,
    hbar: float = 1.0,
    tol: float = 1e-10,
) -> ComplexTrajectory:
    """Whole-grid Newton for the mixed boundary-value trajectory, seeded from a coarse grid.

    The full grid of ``steps`` RK4 steps is solved as one discrete
    boundary-value problem, Newton on all its nodes at once (``_newton``).
    For a symbol of degree above 2 the same Newton first solves ``steps //
    COARSE_FACTOR`` steps, but at least ``MIN_STEPS`` (rounded up to even),
    to ``tol`` from the RK4 steps of the flow linearised at the origin
    applied to (z', v(0)), which fixes the saddle; the cubic-Hermite
    interpolant of those nodes seeds the full grid (nested iteration;
    Deuflhard, *Newton Methods for Nonlinear Problems*, 2004),
    where one or two steps then usually meet ``tol``.  For a symbol of
    degree at most 2 the flow is linear and the seed is the constant
    trajectory at (z', v(0)), which one step makes exact; that step is
    taken after a check by Phi_h alone.
    The returned trajectory, its ``residual`` and ``newton_iters`` (the
    steps before the one taken) all come from the whole-grid Newton.
    ``residual`` is max |delta| of its last step; for a symbol of degree at
    most 2 whose first step is taken, the larger of max |Phi_h(y_k) -
    y_(k+1)| and |v(T) - conj(z'')| at its nodes, with ``newton_iters`` 0.

    Parameters
    ----------
    T, hbar, tol : float
        Any real number type, numpy scalars and 0-d arrays of T included;
        used as Python floats.
    steps : int
        RK4 steps of the full grid, rounded up to even (Simpson's rule);
        any integer type, numpy integers included.
    guess : complex, optional
        Starting v(0), which must be finite; default the v(0) whose coarse
        seed meets v(T) = conj(z''), or conj(z'') where |dv(T)/dv(0)| of that
        seed is below 1e-12 or the symbol's degree is at most 2.

    Raises
    ------
    NonConverged
        If the whole-grid Newton, on the coarse or the full grid, does not
        meet ``tol`` in ``MAX_ITER`` steps, its Jacobian dv(T)/dv(0) is
        singular, or a correction is not finite; the message names the
        grid by its steps.
    DomainError
        If one full-grid Newton step (``PASS_BYTES`` per RK4 step)
        would take more than ``coherent.DENSE_BYTES``, before the first step.
    InvalidArgument
        If T is not finite and positive (the rule of ``require_nonnegative``,
        plus T > 0), ``hbar`` or ``tol`` is not finite and positive, an
        endpoint or the guess is not a finite scalar, or ``steps`` is a
        boolean, not an integer or below ``MIN_STEPS``.
    """
    trajectories, failures = _trajectories(H_sym, zp, zpp_star, T, steps, [guess], hbar, tol)
    if failures:
        raise NonConverged(failures[0])
    return trajectories[0]


def _simpson(values: np.ndarray, h: float) -> complex:
    n = len(values) - 1
    if n % 2 != 0:
        raise InvalidArgument("Simpson quadrature needs an even number of intervals")
    acc = values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(
        values[2:-1:2]
    )
    return complex(acc * h / 3.0)


def action_S(traj: ComplexTrajectory, H_sym: SymbolPoly) -> complex:
    """Complex action along a trajectory, boundary terms included.

    S = int_0^T [ i hbar/2 (du/dt v - dv/dt u) - H ] dt
        - i hbar/2 (u(T) v(T) + u(0) v(0)).

    Along solutions the integrand equals (u H_u + v H_v)/2 - H exactly, so no
    numerical differentiation enters; Simpson on the integrator grid matches
    the RK4 order.
    """
    return _action(traj, H_sym.jet(traj.u, traj.v, order=1))


def correction_I(traj: ComplexTrajectory, H_sym: SymbolPoly) -> complex:
    """Ordering correction I = 1/2 int_0^T d2H/du dv dt along the trajectory."""
    return _correction(traj, H_sym.jet(traj.u, traj.v))


def _action(traj: ComplexTrajectory, jet: tuple) -> complex:
    """:func:`action_S` from the symbol's jet on the trajectory's nodes, of order 1 or 2."""
    u, v = traj.u, traj.v
    H, Hu, Hv = jet[:3]
    integrand = 0.5 * (u * Hu + v * Hv) - H
    h = traj.times[1] - traj.times[0]
    boundary = -0.5j * traj.hbar * (u[-1] * v[-1] + u[0] * v[0])
    return _simpson(integrand, h) + boundary


def _correction(traj: ComplexTrajectory, jet: tuple) -> complex:
    """:func:`correction_I` from the symbol's order-2 jet on the trajectory's nodes."""
    return 0.5 * _simpson(jet[5], traj.times[1] - traj.times[0])


def d2S(traj: ComplexTrajectory) -> tuple[complex, complex]:
    """(d2S/du'dv'', Delta(T)) from the linearised flow.

    The variational pair integrated with (du, dv)(0) = (0, 1) gives
    Omega(T) = 2i dv(T), hence d2S/du'dv'' = 2 hbar / Omega(T) and
    Delta(T) = Omega(T) / 2i = dv(T).

    Raises
    ------
    DomainError
        If |Omega(T)| is below ``SINGULAR_THRESHOLD`` (caustic).
    """
    omega_T = 2j * traj.dv[-1]
    if abs(omega_T) < SINGULAR_THRESHOLD:
        raise DomainError(f"|Omega(T)| = {abs(omega_T):.3e}; caustic")
    return complex(2.0 * traj.hbar / omega_T), complex(traj.dv[-1])


def tracked_prefactor(traj: ComplexTrajectory) -> complex:
    """sqrt((i/hbar) d2S/du'dv''), branch-tracked continuously from T = 0.

    Along the trajectory (i/hbar) d2S(t) = 1/dv(t), which starts at 1;
    following the square root step by step fixes the branch without any
    Maslov bookkeeping.  Emits :class:`CausticWarning` when the tracked
    monodromy component gets small (the prefactor is blowing up).

    Node k's root flips exactly where arg(1/dv) steps by more than pi: the
    result is ``cmath.sqrt`` of the last 1/dv, negated when ``np.unwrap``
    ends an odd number of turns from its principal arg.  An exact step of
    pi, a tie between the two roots, keeps the sign it had before.
    """
    if np.min(np.abs(traj.dv)) < CAUSTIC_THRESHOLD:
        warnings.warn("prefactor tracked through a near-caustic", CausticWarning)
    recip = 1.0 / traj.dv
    phase = np.angle(recip)
    turns = (np.unwrap(phase)[-1] - phase[-1]) / (2.0 * np.pi)
    root = cmath.sqrt(complex(recip[-1]))
    return -root if round(turns) % 2 else root


def trajectory_hessian_samplers(traj: ComplexTrajectory, H_sym: SymbolPoly):
    """Callables A(t), B(t), C(t) of the symbol Hessian along a trajectory.

    A = d2H/du2, B = d2H/dv2, C = d2H/du dv, evaluated on a cubic-Hermite
    dense output of (u, v) built from the stored nodes and the exact vector
    field (matching the integrator's fourth order; Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.6).  Each callable takes an array of times and
    returns the values there; :func:`det_continuum` calls A, B and C once
    each, on all its stage times, and broadcasts callables that return
    scalars.
    """
    _, Hu, Hv = H_sym.jet(traj.u, traj.v, order=1)
    h = traj.times[1] - traj.times[0]
    y = np.stack([traj.u, traj.v])
    hdy = (h * 1j / traj.hbar) * np.stack([-Hv, Hu])

    def sampler(slot):
        return lambda t: H_sym.jet(*_hermite(y, hdy, np.asarray(t, dtype=float) / h))[slot]

    return sampler(3), sampler(4), sampler(5)


@dataclass
class TrajectoryContribution:
    """One stationary trajectory's share of the semiclassical propagator."""

    v0: complex
    S: complex
    I: complex
    d2S: complex
    residual: float
    prefactor: complex
    term: complex


@dataclass
class SemiclassicalResult:
    """K with its trajectories' contributions and the RK4 steps of their grid (0 at T = 0)."""

    K: complex
    form: str
    contributions: list
    steps: int


def semiclassical_K(
    form: str,
    H: OperatorPoly,
    zp: complex,
    zpp: complex,
    T: float,
    steps: int = 512,
    guesses=None,
    tol: float = 1e-10,
) -> SemiclassicalResult:
    """Semiclassical coherent-state propagator in the q, p or w form.

    K = sum_nu sqrt((i/hbar) d2S_nu) exp{(i/hbar)(S_nu + sigma I_nu)
        - (|z'|^2 + |z''|^2)/2}

    with sigma = 1 + 2s from the form's ordering parameter s
    (``algebra.FORM_S``): +1 (q), -1 (p), 0 (w).  K sums the term of every
    distinct saddle its guesses reach, each reported in ``contributions``:
    no rule decides which saddles contribute, so a saddle beyond a Stokes
    line, whose term can be exponentially large, is added as well.  Each
    guess is solved as by :func:`solve_bvp`, in turn, but a
    guess whose v(0) on the coarse grid lies within ``DEDUPE_TOL`` of the
    coarse v(0) of a guess already refined on the full grid, converged or
    not, is not refined again, and a trajectory whose v(0) lies within
    ``DEDUPE_TOL`` of a kept one is dropped; the first guess's trajectory
    is the one kept.  T may be any real number type and ``steps`` any
    integer type, numpy scalars included.

    Raises
    ------
    NonConverged
        If no shooting guess converges; the message lists each failure,
        each naming the grid it happened on by its steps.
    DomainError
        If -(|z'|^2 + |z''|^2)/2 (at any T, T = 0 included), a trajectory's
        term or K is not a finite double, or (for T > 0) a shooting pass of
        ``steps`` would exceed the memory budget.
    InvalidArgument
        If ``form`` is not a string naming q, p or w, T is negative or not
        finite, an endpoint is not a finite scalar, ``steps`` is a boolean or not an
        integer, or (for T > 0) ``guesses`` is empty, ``tol`` is not finite
        and positive, ``steps`` is below ``MIN_STEPS`` or a guess is not a
        finite scalar (every guess is checked before the first is solved).
    """
    s = form_s(form)
    form = form.lower()
    require_scalar(zp=zp, zpp=zpp)
    require_nonnegative(T=T)
    steps = require_index(steps, "steps")
    sigma = 1.0 + 2.0 * s  # exact for s = 0, -1, -1/2
    gauss = finite_double(lambda: -0.5 * (abs(zp) ** 2 + abs(zpp) ** 2), "-(|z'|^2 + |z''|^2)/2")
    if T == 0:
        K = complex(overlap(zpp, zp))
        return SemiclassicalResult(K, form, [], 0)

    guess_list = [None] if guesses is None else list(guesses)
    if not guess_list:
        raise InvalidArgument("guesses must hold at least one guess, got []")
    sym = symbol_for_form(H, form)
    hbar = H.hbar
    zpp_star = complex(np.conj(zpp))
    trajectories, failures = _trajectories(sym, zp, zpp_star, T, steps, guess_list, hbar, tol)
    if not trajectories:
        raise NonConverged("no shooting guess converged: " + "; ".join(failures))

    contributions = []
    for traj in trajectories:
        jet = sym.jet(traj.u, traj.v)  # one order-2 jet serves S and I
        S, I_corr = _action(traj, jet), _correction(traj, jet)
        d2s, _ = d2S(traj)
        pref = tracked_prefactor(traj)
        exponent = (1j / hbar) * (S + sigma * I_corr) + gauss
        term = finite_double(lambda: pref * cmath.exp(exponent), f"term from v(0) = {traj.v0:.6g}")
        contributions.append(
            TrajectoryContribution(
                v0=traj.v0,
                S=S,
                I=I_corr,
                d2S=d2s,
                residual=traj.residual,
                prefactor=pref,
                term=term,
            )
        )
    K = finite_double(lambda: sum((c.term for c in contributions), 0.0j), f"{form.upper()}-form K")
    return SemiclassicalResult(K, form, contributions, len(trajectories[0].times) - 1)
