import cmath
import pickle
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpath import (
    OperatorPoly,
    ScaleContext,
    SymbolPoly,
    action_S,
    correction_I,
    d2S,
    exact_propagator,
    harmonic_exact_K,
    harmonic_hamiltonian,
    overlap,
    p_symbol,
    q_symbol,
    quartic_position_hamiltonian,
    semiclassical_K,
    solve_bvp,
    symbol_for_form,
    symbol_to_qp,
    weyl_symbol,
)
from weylpath.errors import (
    CausticWarning,
    DomainError,
    InvalidArgument,
    NonConverged,
)
from weylpath import det_continuum, fluctuation, semiclassics
from weylpath.semiclassics import tracked_prefactor, trajectory_hessian_samplers

CTX = ScaleContext.default()
H_HARM = harmonic_hamiltonian(CTX)
SYM_W = weyl_symbol(H_HARM)  # hbar omega u v


def rk4_reference(rhs, y0: tuple, T: float, steps: int):
    """The four-component RK4 the shooting and det_continuum ran before the (q, p) pass, as the
    reference: ``rhs(k, a, b, c, d)`` at the half-step index k, node values as four arrays."""
    h = T / steps
    h2, h6 = 0.5 * h, h / 6.0
    u, v, du, dv = y0
    nodes = [y0]
    for k in range(0, 2 * steps, 2):
        a1, b1, c1, d1 = rhs(k, u, v, du, dv)
        a2, b2, c2, d2 = rhs(k + 1, u + h2 * a1, v + h2 * b1, du + h2 * c1, dv + h2 * d1)
        a3, b3, c3, d3 = rhs(k + 1, u + h2 * a2, v + h2 * b2, du + h2 * c2, dv + h2 * d2)
        a4, b4, c4, d4 = rhs(k + 2, u + h * a3, v + h * b3, du + h * c3, dv + h * d3)
        u += h6 * (a1 + 2.0 * (a2 + a3) + a4)
        v += h6 * (b1 + 2.0 * (b2 + b3) + b4)
        du += h6 * (c1 + 2.0 * (c2 + c3) + c4)
        dv += h6 * (d1 + 2.0 * (d2 + d3) + d4)
        nodes.append((u, v, du, dv))
    return tuple(np.array(nodes, dtype=complex).T.copy())


def jet_rhs(sym: SymbolPoly, hbar: float):
    """The (u, v) trajectory right-hand side assembled from the jet, as the reference."""
    ih = 1j / hbar

    def rhs(k, u, v, du, dv):
        _, hu, hv, huu, hvv, huv = sym.jet(u, v)
        return -ih * hv, ih * hu, -ih * (huv * du + hvv * dv), ih * (huu * du + huv * dv)

    return rhs


def qp_symbol(sym: SymbolPoly) -> SymbolPoly:
    """The symbol in (q, p) at b = c = 1, q^j p^k as the term (j, k): q in the v slot."""
    return SymbolPoly(symbol_to_qp(sym, ScaleContext()))


def qp_jet_flow(sym: SymbolPoly, hbar: float):
    """Hamilton's flow in (q, p) and its Hessian, assembled from the (q, p) symbol's jet, as the
    reference for ``sym.flow(hbar)``."""
    ih = 1 / hbar
    qp = qp_symbol(sym)

    def flow(q, p):
        _, hp, hq = qp.jet(p, q, order=1)
        return ih * hp, -ih * hq

    def hessian(q, p):
        _, _, _, hpp, hqq, hqp = qp.jet(p, q)
        return ih * hqp, ih * hpp, ih * hqq

    return flow, hessian


def qp_jet_rhs(sym: SymbolPoly, hbar: float):
    """Hamilton's flow in (q, p) with its variational pair, from the (q, p) symbol's jet, as the
    four-component reference."""
    ih = 1 / hbar
    qp = qp_symbol(sym)

    def rhs(k, q, p, dq, dp):
        _, hp, hq, hpp, hqq, hqp = qp.jet(p, q)
        return ih * hp, -ih * hq, ih * (hqp * dq + hpp * dp), -ih * (hqq * dq + hqp * dp)

    return rhs


def flow_rhs(flow):
    """A (q, p) flow as the four-component reference's right-hand side, the variational pair
    held at 0."""
    return lambda k, q, p, dq, dp: (*flow(q, p), 0j, 0j)


def qp_nodes(sym: SymbolPoly, hbar: float, y0: tuple, T: float, steps: int) -> np.ndarray:
    """The (q, p) nodes of an RK4 pass from y0 = (q, p)(0), as a (2, steps + 1) array: the
    four-component reference's first two, bit for bit the pass of ``sym.flow(hbar)``."""
    return np.array(rk4_reference(qp_jet_rhs(sym, hbar), (*y0, 0j, 0j), T, steps)[:2])


def uv_pass(rhs, zp, v0, T, steps):
    """An RK4 pass in (u, v) from (z', v0, 0, 1), as the shooting ran before the (q, p) flow."""
    return np.array(rk4_reference(rhs, (zp, v0, 0j, 1 + 0j), T, steps))


def refuse(*args):
    """A whole-grid Newton that always fails."""
    raise NonConverged("the whole-grid stage is switched off")


def uv_shoot(rhs, zp, zpp_star, v0, T, steps, tol):
    """Newton on v(0) over RK4 passes of the (u, v) ``rhs`` with its variational pair on the full
    grid, the single-level shooting as it ran before the (q, p) flow and the whole-grid Newton:
    the (u, v, du, dv) nodes of the first pass with |v(T) - conj(z'')| < ``tol``, v0, the Newton
    steps before it and that residual."""
    for iteration in range(semiclassics.MAX_ITER + 1):
        nodes = uv_pass(rhs, zp, v0, T, steps)
        mismatch = nodes[1, -1] - zpp_star
        if abs(mismatch) < tol:
            return nodes, v0, iteration, abs(mismatch)
        v0 = complex(v0 - mismatch / nodes[3, -1])
    raise NonConverged("the (u, v) shooting stalled")


def quadratic_closed_form(H_sym, zp, zpp_star, T, hbar) -> complex:
    """v(0) solving the boundary problem of the quadratic part of H in closed form, as the
    reference for the default start: the Hessian at the origin has the traceless generator
    J = (-i/hbar) [[H_uv, H_vv], [-H_uu, -H_uv]], so J^2 = k^2 with k^2 = (H_uu H_vv - H_uv^2) /
    hbar^2 and exp(J T) = cosh(kT) + J sinh(kT)/k; conj(z'') where its v(0) coefficient is
    below 1e-12 in modulus."""
    _, _, _, huu, hvv, huv = H_sym.jet(0j, 0j)
    k = cmath.sqrt(huu * hvv - huv * huv) / hbar
    cosh, sinh_k = cmath.cosh(k * T), (cmath.sinh(k * T) / k if k else T)
    m11 = cosh + (1j / hbar) * huv * sinh_k
    if abs(m11) < 1e-12:
        return zpp_star
    return complex((zpp_star - (1j / hbar) * huu * sinh_k * zp) / m11)


def uv_trajectories(H_sym, zp, zpp_star, T, steps, guesses, hbar, tol):
    """``semiclassics._trajectories`` by ``uv_shoot`` from each guess, as the reference: every
    guess's trajectory but one whose v(0) lies within ``DEDUPE_TOL`` of one kept, and no failures
    (a stall raises)."""
    steps += steps % 2
    trajectories = []
    for guess in guesses:
        start = quadratic_closed_form(H_sym, zp, zpp_star, T, hbar) if guess is None else complex(guess)
        nodes, v0, iteration, residual = uv_shoot(jet_rhs(H_sym, hbar), zp, zpp_star, start, T, steps, tol)
        if any(abs(v0 - kept.v0) <= semiclassics.DEDUPE_TOL for kept in trajectories):
            continue
        times = np.linspace(0.0, T, steps + 1)
        trajectories.append(semiclassics.ComplexTrajectory(times, *nodes, v0, residual, hbar, iteration))
    return trajectories, []


def uv_shooting(monkeypatch):
    """Make semiclassical_K take its trajectories from ``uv_trajectories``, single-level Newton on
    v(0) over RK4 passes of the (u, v) ``jet_rhs``."""
    monkeypatch.setattr(semiclassics, "_trajectories", uv_trajectories)


def qp_pass(sym, hbar, zp, v0, T, steps):
    """An RK4 pass from (u, v, du, dv)(0) = (z', v0, 0, 1) as (q, p, dq, dp) nodes: (q, p) by
    ``qp_nodes``, the tangent from the prefix products of the kernel's step matrices at its
    nodes."""
    flow, hessian = sym.flow(hbar)
    nodes = qp_nodes(sym, hbar, semiclassics._start(zp, v0), T, steps)
    m = semiclassics._step(flow, hessian, nodes[:, :-1], T / steps)[1]
    return np.concatenate([nodes, semiclassics._tangent(semiclassics._prefix_products(m))])


HIGH = SymbolPoly({(6, 0): 0.3 - 0.1j, (0, 5): 0.2 + 0.4j, (3, 2): 0.1, (1, 1): 1.0})
COMPLEX = SymbolPoly({(2, 1): 0.3j, (1, 2): -0.2 + 0.1j, (1, 1): 1.0, (0, 1): 0.5 - 0.5j})
FLOW_CASES = pytest.mark.parametrize(
    "sym, hbar",
    [
        *(
            (fn(quartic_position_hamiltonian(0.1, ScaleContext.default(hbar=hbar))), hbar)
            for fn in (q_symbol, p_symbol, weyl_symbol)
            for hbar in (1.0, 0.5)
        ),
        (HIGH, 1.0),
        (SYM_W, 1.0),
        (SymbolPoly({(0, 0): 2.5}), 1.0),
        (COMPLEX, 0.5),
    ],
    ids=["q-1", "q-0.5", "p-1", "p-0.5", "w-1", "w-0.5", "u5-v6", "quadratic",
         "constant", "complex"],
)


class TestCompiledFlow:
    @FLOW_CASES
    def test_rk4_pass_equals_jet_closure(self, sym, hbar):
        y0 = (0.4 + 0.1j, 0.3 - 0.2j, 0.7 + 0j, 0.7j)
        new = np.array(rk4_reference(flow_rhs(sym.flow(hbar)[0]), y0, 0.3, 256)[:2])
        assert np.array_equal(new, rk4_reference(flow_rhs(qp_jet_flow(sym, hbar)[0]), y0, 0.3, 256)[:2])
        # (q, p) does not depend on the variational pair: the four-component pass, bit for bit
        assert np.array_equal(new, rk4_reference(qp_jet_rhs(sym, hbar), y0, 0.3, 256)[:2])
        assert np.array_equal(new, qp_nodes(sym, hbar, y0[:2], 0.3, 256))
        assert np.all(np.isfinite(new))

    @FLOW_CASES
    def test_mapped_pass_matches_the_uv_pass(self, sym, hbar):
        # RK4 commutes with the constant map (q, p) <-> (u, v), and the variational pair's RK4
        # steps are the transfer matrices multiplied in a tree: round-off only
        zp, v0, T = 0.4 + 0.1j, 0.3 - 0.2j, 0.3
        for steps in (256, 2048):
            new = semiclassics._TO_UV @ qp_pass(sym, hbar, zp, v0, T, steps)
            old = uv_pass(jet_rhs(sym, hbar), zp, v0, T, steps)
            for a, b in zip(new, old):
                assert np.abs(a - b).max() <= 1e-13 * max(np.abs(b).max(), 1.0), steps

    @FLOW_CASES
    def test_kernel_steps_every_node_as_the_loop_does(self, sym, hbar):
        # the whole-grid kernel's Phi_h at the nodes of a scalar RK4 pass gives the next nodes,
        # to round-off, and its step matrices are the Jacobian of Phi_h (central differences)
        flow, hessian = sym.flow(hbar)
        nodes = qp_nodes(sym, hbar, (0.4 + 0.1j, 0.3 - 0.2j), 0.3, 256)
        phi, m = semiclassics._step(flow, hessian, nodes[:, :-1], 0.3 / 256)
        assert np.abs(phi - nodes[:, 1:]).max() <= 1e-14 * max(np.abs(nodes).max(), 1.0)
        eps = 1e-6
        for j in range(2):
            shift = np.zeros((2, 1))
            shift[j] = eps
            ahead, behind = (semiclassics._step(flow, hessian, nodes[:, :-1] + d, 0.3 / 256)[0]
                             for d in (shift, -shift))
            difference = (ahead - behind) / (2 * eps)
            assert np.abs(difference - m[:, j]).max() <= 1e-8 * max(np.abs(m).max(), 1.0)

    def test_pickles_after_use(self):
        point = (0.4 + 0.1j, 0.3 - 0.2j)
        before = [f(*point) for f in HIGH.flow(0.5)]
        again = pickle.loads(pickle.dumps(HIGH))
        assert [f(*point) for f in again.flow(0.5)] == before == [
            f(*point) for f in qp_jet_flow(HIGH, 0.5)]

    def test_shooting_integrates_the_sparse_qp_flow(self, monkeypatch):
        # the quartic W symbol has 7 (u, v) terms; in (q, p) it is p^2/2 + q^2/2 + lam q^4
        assert len(QUARTIC_W.terms) == 7
        assert {key for key in qp_symbol(QUARTIC_W).terms if key != (0, 0)} == {(0, 2), (2, 0), (4, 0)}
        seen = []
        real_newton = semiclassics._newton

        def recorded(flow, hessian, *args):
            seen.append((flow, hessian))
            return real_newton(flow, hessian, *args)

        monkeypatch.setattr(semiclassics, "_newton", recorded)
        solve_bvp(QUARTIC_W, 0.7, 0.7, 0.5)
        point = (0.4 + 0.1j, 0.3 - 0.2j)
        want = [f(*point) for f in qp_jet_flow(QUARTIC_W, 1.0)]
        assert seen and all([f(*point) for f in pair] == want for pair in seen)

    def test_non_finite_symbol_refused(self):
        # a NaN symbol is refused when it is built; a finite one can still overflow in (q, p)
        with pytest.raises(InvalidArgument, match=r"^coefficients must be finite, got \[nan\]$"):
            SymbolPoly({(1, 1): float("nan")})
        with pytest.raises(DomainError, match=r"\(q, p\) coefficient .* not a finite double"):
            symbol_to_qp(SymbolPoly({(2, 0): 1.0}), ScaleContext(b=1e-200))


UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
POINT = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def symbols(draw):
    """Complex-coefficient symbols of degree <= 6."""
    pairs = [(m, n) for m in range(7) for n in range(7 - m)]
    keys = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
    return SymbolPoly({key: complex(draw(UNIT), draw(UNIT)) for key in keys})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sym=symbols(), hbar=st.floats(0.1, 4.0), q=POINT, p=POINT)
def test_flow_equals_jet_closure_property(sym, hbar, q, p):
    assert [f(q, p) for f in sym.flow(hbar)] == [f(q, p) for f in qp_jet_flow(sym, hbar)]


POINTS = st.lists(POINT, min_size=5, max_size=5).map(lambda xs: np.array(xs, dtype=complex))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sym=symbols(), hbar=st.floats(0.1, 4.0), q=POINTS, p=POINTS)
def test_array_jets_share_the_flow_power_chains_property(sym, hbar, q, p):
    # on arrays the jets and the flow are one evaluator: the same products
    # in the same order, so the same numbers, and each element is what the
    # jet gives on that element alone
    for got, want in zip(sym.flow(hbar), qp_jet_flow(sym, hbar)):
        for a, b in zip(got(q, p), want(q, p)):
            assert np.array_equal(np.broadcast_to(a, b.shape), b)  # a constant stays scalar
    batch = sym.jet(q, p)
    for i in range(len(q)):
        for part, alone in zip(batch, sym.jet(q[i : i + 1], p[i : i + 1])):
            assert np.array_equal(part[i : i + 1], alone)


class TestSolveBvp:
    def test_non_finite_endpoint_is_a_blow_up(self):
        # z'' = 0 keeps v exactly 0, so the residual is 0 while u, du and dv overflow to NaN
        with pytest.raises(NonConverged, match="trajectory blew up"):
            solve_bvp(SYM_W, 0.1, 0.0, 1e300)

    def test_harmonic_analytic_solution(self):
        zp, zpp_star, om, T = 0.3 + 0.2j, 0.5 - 0.1j, 1.0, 1.3
        traj = solve_bvp(SYM_W, zp, zpp_star, T, steps=256)
        assert traj.residual < 1e-10
        assert abs(traj.v0 - zpp_star * np.exp(-1j * om * T)) < 1e-10
        assert np.max(np.abs(traj.u - zp * np.exp(-1j * om * traj.times))) < 1e-10

    def test_quartic_at_zero_coupling_is_harmonic(self):
        H0 = quartic_position_hamiltonian(0.0, CTX)
        traj_q = solve_bvp(weyl_symbol(H0), 0.4, 0.3 + 0.2j, 0.8, steps=128)
        traj_h = solve_bvp(SYM_W, 0.4, 0.3 + 0.2j, 0.8, steps=128)
        assert np.max(np.abs(traj_q.u - traj_h.u)) < 1e-12
        assert np.max(np.abs(traj_q.v - traj_h.v)) < 1e-12

    def test_quartic_converges_from_auto_guess(self):
        sym = weyl_symbol(quartic_position_hamiltonian(0.1, CTX))
        traj = solve_bvp(sym, 0.7, 0.7, 0.5, steps=256)
        assert traj.residual < 1e-10
        # step halving barely moves the endpoints
        traj2 = solve_bvp(sym, 0.7, 0.7, 0.5, steps=512)
        assert abs(traj2.u[-1] - traj.u[-1]) < 1e-9

    def test_energy_conservation(self):
        sym = weyl_symbol(quartic_position_hamiltonian(0.1, CTX))
        traj = solve_bvp(sym, 0.7, 0.7, 0.9, steps=512)
        E = sym.eval(traj.u, traj.v)
        assert np.max(np.abs(E - E[0])) < 1e-12

    def test_trajectory_is_genuinely_complex(self):
        sym = weyl_symbol(quartic_position_hamiltonian(0.1, CTX))
        traj = solve_bvp(sym, 0.7, 0.4 - 0.3j, 0.5, steps=128)
        # v(t) differs from conj(u(t)) away from the real section
        assert np.max(np.abs(traj.v - np.conj(traj.u))) > 1e-3

    def test_no_convergence_raises(self, monkeypatch):
        sym = weyl_symbol(quartic_position_hamiltonian(0.4, CTX))
        monkeypatch.setattr(semiclassics, "MAX_ITER", 2)
        with pytest.raises(NonConverged, match="trajectory blew up"):
            solve_bvp(sym, 2.5, 2.5, 2.0, steps=64, guess=40.0 + 40.0j)

    @pytest.mark.parametrize("k, T", [(5, 20), (5, 200), (50, 30)])
    def test_overflowing_seed_is_a_blow_up(self, k, T):
        # k (u^2 + v^2) grows like e^(2kT) and the coarse grid's Newton ends in a blow-up, with no
        # RuntimeWarning also where the seed's step-matrix products leave the double range (k 50)
        sym = SymbolPoly({(2, 0): k, (0, 2): k, (2, 2): 0.01})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConverged, match=r"^trajectory blew up from v\(0\) = .* on the grid of 64 steps$"):
                solve_bvp(sym, 0.3, 0.2, T, steps=512)

    @pytest.mark.parametrize(
        "sym, T",
        [(SYM_W, 1.3), *((SymbolPoly({(0, 2): -0.5, (2, 0): -0.5}), T) for T in (0.4, 2.5))],
        ids=["harmonic", "inverted-0.4", "inverted-2.5"],
    )
    def test_quadratic_symbol_converges_to_the_closed_form(self, sym, T):
        # the constant seed at (z', conj(z'')) and one exact step: v(0) solves the quadratic
        # boundary problem, exp(J T) in closed form (cosh and sinh; the oscillator's e^(-iT))
        zp, zpp_star = 0.3 + 0.1j, 0.2 - 0.1j
        v0 = solve_bvp(sym, zp, zpp_star, T).v0
        assert abs(v0 - quadratic_closed_form(sym, zp, zpp_star, T, 1.0)) < 1e-12
        if sym is SYM_W:
            assert abs(v0 - zpp_star * np.exp(-1j * T)) < 1e-12

    @pytest.mark.parametrize("symbol_fn", [q_symbol, p_symbol, weyl_symbol], ids=["q", "p", "w"])
    @pytest.mark.parametrize(
        "zp, zpp_star, T", [(0.7, 0.5 - 0.2j, 0.8), (0.3 + 0.2j, -0.4 + 0.1j, 2.5)], ids=["T0.8", "T2.5"])
    def test_default_start_is_the_closed_form_of_the_quadratic_part(
        self, monkeypatch, symbol_fn, zp, zpp_star, T
    ):
        # the coarse seed's step-matrix product is the RK4 image of exp(J T): the default v(0)
        # it gives meets the closed form's to the RK4 error of the coarse grid
        starts = []
        real_newton = semiclassics._newton
        monkeypatch.setattr(
            semiclassics, "_newton", lambda *a: starts.append(a[5]) or real_newton(*a))
        sym = symbol_fn(quartic_position_hamiltonian(0.1, CTX))
        solve_bvp(sym, zp, zpp_star, T)
        assert abs(starts[0] - quadratic_closed_form(sym, zp, zpp_star, T, 1.0)) < 1e-6

    def test_default_start_falls_back_where_the_product_is_singular(self, monkeypatch):
        # |b| = |dv(T)/dv(0)| of the seed's product below 1e-12: start at conj(z''), with no
        # division by zero (warnings are errors), and the coarse Newton meets the same singular b
        starts = []
        real_newton = semiclassics._newton
        monkeypatch.setattr(
            semiclassics, "_newton", lambda *a: starts.append(a[5]) or real_newton(*a))
        faulty_kernel(monkeypatch, lambda nodes, m: 0 * m if nodes == 64 else m)
        with pytest.raises(NonConverged, match="singular shooting Jacobian"):
            solve_bvp(QUARTIC_W, 0.7, 0.5 - 0.2j, 0.8)
        assert starts == [0.5 - 0.2j]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_bvp(SYM_W, 0.1, 0.1, -1.0)
        with pytest.raises(ValueError):
            solve_bvp(SYM_W, 0.1, 0.1, 1.0, steps=4)

    @pytest.mark.parametrize(
        "options",
        [{"tol": 0.0}, {"tol": -1e-10}, {"hbar": 0.0}, {"hbar": -1.0}],
        ids=["tol-0", "tol-negative", "hbar-0", "hbar-negative"],
    )
    def test_rejects_non_positive_tol_and_hbar(self, options):
        # tol <= 0 used to run every Newton iteration and then stall;
        # hbar = 0 divided by zero
        with pytest.raises(ValueError, match="must be positive"):
            solve_bvp(SYM_W, 0.1, 0.1, 1.0, **options)
        if "tol" in options:
            with pytest.raises(ValueError, match="must be positive"):
                semiclassical_K("w", H_HARM, 0.1, 0.1, 1.0, tol=options["tol"])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: solve_bvp(SYM_W, 0.1, 0.1, 1.0, steps=512.0),
            lambda: solve_bvp(SYM_W, 0.1, 0.1, 1.0, steps=True),
            lambda: semiclassical_K("w", H_HARM, 0.1, 0.1, 1.0, steps=512.5),
            lambda: semiclassical_K("w", H_HARM, 0.1, 0.1, 1.0, steps=True),
            lambda: semiclassical_K("w", H_HARM, 0.1, 0.1, 0.0, steps=np.float64(512)),
            lambda: solve_bvp(SYM_W, 0.1, 0.1, 1.0, steps=8),
        ],
        ids=["solve_bvp-float", "solve_bvp-bool", "semiclassical_K-float",
             "semiclassical_K-bool", "semiclassical_K-float-at-T0", "solve_bvp-below-min"],
    )
    def test_steps_must_be_an_integer(self, call):
        # a float ended in a TypeError from range; True was a step count of 1;
        # too few steps were refused without the argument's name
        with pytest.raises(InvalidArgument, match="steps must be"):
            call()


QUARTIC_W = weyl_symbol(quartic_position_hamiltonian(0.1, CTX))
COMPARISON_ENDPOINTS = [(0.7, 0.7, 0.5), (0.6 + 0.1j, 0.4 - 0.2j, 0.8), (0.5, 0.3 + 0.4j, 0.3)]
COMPARISON_SET = [  # (H, z', z'', T, steps), harmonic included
    (H, zp, zpp, T, steps)
    for H in [harmonic_hamiltonian(ScaleContext.default(hbar=hbar)) for hbar in (1.0, 0.5)]
    + [
        quartic_position_hamiltonian(lam, ScaleContext.default(hbar=hbar))
        for lam in (0.05, 0.1)
        for hbar in (1.0, 0.5)
    ]
    for zp, zpp, T in COMPARISON_ENDPOINTS
    for steps in (512, 2048)
]
MULTI_GUESS_ROWS = [  # (lambda, hbar, z', z'', T), drawn as the benchmark's three-guess quartic class
    (0.05, 1.0, -0.383 - 0.252j, 0.043 - 0.208j, 0.341),
    (0.1, 0.5, -0.322 + 0.238j, -0.194 - 0.126j, 0.721),
    (0.05, 0.25, -0.435 + 0.355j, -0.659 + 0.087j, 0.35),
    (0.1, 1.0, -0.547 - 0.024j, 0.448 - 0.405j, 0.66),
    (0.05, 0.5, 0.528 - 0.117j, -0.197 + 0.086j, 0.293),
    (0.1, 0.25, 0.063 + 0.662j, -0.286 + 0.611j, 0.273),
]


def multi_guess_calls(form):
    """semiclassical_K's arguments for MULTI_GUESS_ROWS at 512 steps, with the benchmark's three
    guesses [None, conj(z''), 0.9 conj(z'')]."""
    return [
        ((form, quartic_position_hamiltonian(lam, ScaleContext.default(hbar=hbar)), zp, zpp, T),
         [None, np.conj(zpp), 0.9 * np.conj(zpp)])
        for lam, hbar, zp, zpp, T in MULTI_GUESS_ROWS
    ]


def counted_grids(monkeypatch, fault=None):
    """Count the grids the whole-grid Newton (``_newton``) solves, coarse and full, by their
    steps; ``fault(steps, nodes)`` may alter the (q, p) nodes it starts from."""
    calls = []
    real_newton = semiclassics._newton

    def newton(flow, hessian, y, *args):
        calls.append(y.shape[-1] - 1)
        return real_newton(flow, hessian, y if fault is None else fault(calls[-1], y), *args)

    monkeypatch.setattr(semiclassics, "_newton", newton)
    return calls


def counted_kernel(monkeypatch):
    """Count the node counts step matrices (``_step``) are built at."""
    calls = []
    real_step = semiclassics._step

    def step(flow, hessian, y, h):
        calls.append(y.shape[-1])
        return real_step(flow, hessian, y, h)

    monkeypatch.setattr(semiclassics, "_step", step)
    return calls


def faulty_kernel(monkeypatch, fault):
    """Let ``fault(nodes, m)`` alter the step matrices ``_step`` builds at ``nodes`` nodes."""
    real_step = semiclassics._step

    def step(flow, hessian, y, h):
        phi, m = real_step(flow, hessian, y, h)
        return phi, fault(y.shape[-1], m)

    monkeypatch.setattr(semiclassics, "_step", step)


def whole_grid_case(steps=512):
    """The quartic's whole-grid Newton from the constant seed at (z', v(0) = 0.5 - 0.2j)."""
    flow, hessian = QUARTIC_W.flow(1.0)
    seed = np.empty((2, steps + 1), dtype=complex)
    seed.T[:] = semiclassics._start(0.7 + 0j, 0.5 - 0.2j)
    return flow, hessian, seed, 0.7 + 0j, 0.5 - 0.2j, 0.5 - 0.2j, 0.8 / steps, 1e-10


class TestTwoLevelShooting:
    @pytest.mark.parametrize(
        "symbol_fn, zp, zpp_star, T",
        [
            (fn, zp, zpp_star, T)
            for fn in (q_symbol, p_symbol, weyl_symbol)
            for zp, zpp_star, T in [(0.7, 0.7, 0.5), (0.6 + 0.1j, 0.4 + 0.2j, 0.8)]
        ],
    )
    def test_quartic_makes_at_most_two_full_grid_passes(
        self, monkeypatch, symbol_fn, zp, zpp_star, T
    ):
        sym = symbol_fn(quartic_position_hamiltonian(0.1, CTX))
        calls = counted_grids(monkeypatch)
        traj = solve_bvp(sym, zp, zpp_star, T)
        assert traj.newton_iters <= 1 and traj.residual < 1e-10
        assert calls == [64, 512]  # one coarse grid, then the full one

    @pytest.mark.parametrize(
        "sym, coarse",
        [(fn(quartic_position_hamiltonian(0.1, CTX)), [256]) for fn in (q_symbol, p_symbol, weyl_symbol)]
        + [(fn(H_HARM), []) for fn in (q_symbol, p_symbol, weyl_symbol)],
        ids=["quartic-q", "quartic-p", "quartic-w", "oscillator-q", "oscillator-p", "oscillator-w"],
    )
    def test_rk4_runs_on_the_coarse_grid_only(self, monkeypatch, sym, coarse):
        # a quartic's coarse stage solves 256 of the 2,048 steps before the full grid; an
        # oscillator has no coarse stage
        calls = counted_grids(monkeypatch)
        traj = solve_bvp(sym, 0.6 + 0.1j, 0.4 - 0.2j, 0.8, steps=2048)
        assert calls == coarse + [2048] and traj.residual < 1e-10

    def test_quadratic_symbol_takes_one_whole_grid_step(self, monkeypatch):
        # the first step from the constant seed is exact, and Phi_h alone checks it: no second
        # set of step matrices, no coarse grid
        calls, kernel = counted_grids(monkeypatch), counted_kernel(monkeypatch)
        checks = []
        real_phi = semiclassics._phi
        monkeypatch.setattr(semiclassics, "_phi", lambda *args: checks.append(1) or real_phi(*args))
        traj = solve_bvp(SYM_W, 0.3 + 0.2j, 0.5 - 0.1j, 1.3)
        assert calls == [512] and kernel == [512] and len(checks) == 2  # the step's Phi_h, the check
        assert traj.newton_iters == 0 and traj.residual < 1e-13
        assert abs(traj.v[-1] - (0.5 - 0.1j)) < 1e-13 and abs(traj.u[0] - (0.3 + 0.2j)) < 1e-15

    @pytest.mark.parametrize(
        "failure, message",
        [
            ("blow-up", r"^trajectory blew up from v\(0\) = .* on the grid of 64 steps$"),
            ("singular", r"^singular shooting Jacobian dv\(T\)/dv\(0\) on the grid of 64 steps$"),
            ("coarse-stall", r"^whole-grid Newton stalled at residual .* after 0 iterations on the grid of 64 steps$"),
            ("fine-after-coarse", r"^trajectory blew up from v\(0\) = .* on the grid of 512 steps$"),
        ],
        ids=["blow-up", "singular", "coarse-stall", "fine-after-coarse"],
    )
    def test_failure_is_its_stage_error(self, monkeypatch, failure, message):
        # one solver on both grids: a fault in the coarse or the full grid's Newton ends the guess
        # in a NonConverged that names the grid, and the full grid is solved only after the coarse
        def fault(steps, nodes):  # on the coarse grid's seed
            return nodes * [[1], [np.nan]] if failure == "blow-up" and steps == 64 else nodes

        def grid_fault(nodes, m):  # on the coarse step matrices, or the first whole-grid step's
            kernel.append(nodes)
            if failure == "singular" and nodes == 64:
                return 0 * m
            if failure == "fine-after-coarse" and nodes == 512:
                return m * np.nan
            return m

        if failure == "coarse-stall":
            monkeypatch.setattr(semiclassics, "MAX_ITER", 0)  # the first coarse step is not below tol
        kernel = []
        calls = counted_grids(monkeypatch, fault)
        faulty_kernel(monkeypatch, grid_fault)
        with pytest.raises(NonConverged, match=message):
            solve_bvp(QUARTIC_W, 0.7, 0.5 - 0.2j, 0.8)
        fine = failure == "fine-after-coarse"
        assert calls == [64] + [512] * fine and kernel.count(512) == fine

    @pytest.mark.parametrize("steps", [16, 64, 512])
    def test_first_whole_grid_step_is_the_shooting_step(self, steps):
        # from the nodes of an RK4 pass every residual r_k is 0 to round-off, so the first step
        # (tol = 1 stops after it) moves v(0) as Newton shooting on v(0) does, by -mismatch / dv(T)
        # with dv(T) from the total product of the pass's step matrices: the coarse grid's
        # Newton picks the saddle the coarse shooting picked
        flow, hessian = QUARTIC_W.flow(1.0)
        zp, zpp_star, v0, T = 0.7 + 0j, 0.5 - 0.2j, 0.4 - 0.1j, 0.8
        nodes = qp_nodes(QUARTIC_W, 1.0, semiclassics._start(zp, v0), T, steps)
        transfer = semiclassics._total_product(semiclassics._step(flow, hessian, nodes[:, :-1], T / steps)[1])
        dv_T = semiclassics._v(transfer @ (np.array([1, 1j]) * 0.5**0.5))  # (dq, dp)(0) of (du, dv)(0) = (0, 1)
        want = v0 - (semiclassics._v(nodes[:, -1]) - zpp_star) / dv_T
        _, got, iteration, _ = semiclassics._newton(flow, hessian, nodes, zp, zpp_star, v0, T / steps, 1.0)
        assert iteration == 0 and abs(got - want) <= 1e-13 * abs(want)

    def test_whole_grid_blow_up(self):
        case = whole_grid_case()
        case[2][1, 100] = np.nan
        message = r"^trajectory blew up from v\(0\) = 0.5-0.2j on the grid of 512 steps$"
        with pytest.raises(NonConverged, match=message):
            semiclassics._newton(*case)

    def test_whole_grid_singular_jacobian(self, monkeypatch):
        faulty_kernel(monkeypatch, lambda nodes, m: 0 * m)
        message = r"^singular shooting Jacobian dv\(T\)/dv\(0\) on the grid of 512 steps$"
        with pytest.raises(NonConverged, match=message):
            semiclassics._newton(*whole_grid_case())

    def test_whole_grid_stall(self, monkeypatch):
        # from the constant seed the quartic needs several steps; one is allowed
        _, _, steps, residual = semiclassics._newton(*whole_grid_case())
        assert steps >= 2 and residual < 1e-10
        monkeypatch.setattr(semiclassics, "MAX_ITER", 0)
        message = "^whole-grid Newton stalled at residual .* after 0 iterations on the grid of 512 steps$"
        with pytest.raises(NonConverged, match=message):
            semiclassics._newton(*whole_grid_case())

    def test_large_nodes_case_wild_guess_is_the_tame_saddle(self, monkeypatch):
        # from the wild saddle's v(0) an RK4 pass reaches |q, p| near 850 and |dv| 2e4, where the
        # whole-grid correction stalled near 1e-6, its round-off floor, on the 256-step coarse
        # grid; the coarse grid seeded by the flow linearised at the origin converges in 8 steps
        # to the tame saddle of the default guess, with the same K
        H = quartic_position_hamiltonian(0.1, CTX)
        args = ("w", H, -0.7830 - 0.1912j, 0.6092 - 0.9351j, 2.8636, 2048)
        want = semiclassical_K(*args)
        solved = []
        real_newton = semiclassics._newton
        monkeypatch.setattr(semiclassics, "_newton", lambda *a: solved.append(real_newton(*a)) or solved[-1])
        got = semiclassical_K(*args, guesses=[-0.373 - 3.351j])
        assert [len(nodes[0]) - 1 for nodes, *_ in solved] == [256, 2048] and solved[0][2] == 8
        (c,), (d,) = got.contributions, want.contributions
        assert abs(c.v0 - d.v0) <= 1e-12 and abs(got.K - want.K) <= 1e-12 * abs(want.K)

    def test_large_nodes_case_default_guess_is_the_tame_saddle(self):
        # the default guess's coarse-grid Newton reaches the tame saddle, where |u| stays below 1,
        # and K agrees at 512 and 2,048 steps; it is 0.75 from the exact 0.3693 - 0.7603i, the
        # error of a one-saddle semiclassical K at hbar = 1
        H = quartic_position_hamiltonian(0.1, CTX)
        zp, zpp, T = -0.7830 - 0.1912j, 0.6092 - 0.9351j, 2.8636
        got = [semiclassical_K("w", H, zp, zpp, T, steps) for steps in (512, 2048)]
        for res in got:
            (c,) = res.contributions
            assert abs(c.v0 - (-0.2220 - 2.0135j)) < 1e-4
        traj = solve_bvp(weyl_symbol(H), zp, np.conj(zpp), T, steps=2048)
        assert traj.v0 == got[1].contributions[0].v0 and np.abs(traj.u).max() < 1.0
        assert abs(got[0].K - got[1].K) <= 1e-9
        assert abs(got[1].K - (0.34294 - 0.01198j)) < 1e-5

    @pytest.mark.parametrize("form", ["q", "p", "w"])
    def test_deviation_from_full_grid_newton(self, monkeypatch, form):
        # the comparison set at 512 steps, where the two-level start moves K most, against
        # single-level Newton on v(0) over the full grid (the (u, v) reference) at the default tol
        cases = [
            (quartic_position_hamiltonian(lam, ScaleContext.default(hbar=hbar)), zp, zpp, T)
            for lam in (0.05, 0.1)
            for hbar in (1.0, 0.5)
            for zp, zpp, T in COMPARISON_ENDPOINTS
        ]
        got = [semiclassical_K(form, *case) for case in cases]
        uv_shooting(monkeypatch)
        for res, case in zip(got, cases):
            want = semiclassical_K(form, *case)
            assert abs(res.K - want.K) < 1e-10
            (a,), (b,) = res.contributions, want.contributions
            for part in ("S", "I", "d2S", "prefactor"):
                assert abs(getattr(a, part) - getattr(b, part)) < 1e-10, part

    @pytest.mark.parametrize("form", ["q", "p", "w"])
    def test_deviation_from_uv_shooting(self, monkeypatch, form):
        # the comparison set against single-level shooting in (u, v), both converged to 1e-13: at
        # the default tol the shooting's own K is up to 3e-10 from its converged value
        got = [semiclassical_K(form, *case, tol=1e-13) for case in COMPARISON_SET]
        for res, (H, zp, zpp, T, steps) in zip(got, COMPARISON_SET):
            # numpy scalars, as np.linspace and seeded draws return them: the same K and parts
            again = semiclassical_K(form, H, zp, zpp, np.float64(T), np.int64(steps), tol=1e-13)
            assert repr(again) == repr(res)
        multi = [semiclassical_K(*args, guesses=guesses, tol=1e-13) for args, guesses in multi_guess_calls(form)]
        uv_shooting(monkeypatch)
        for res, case in zip(got, COMPARISON_SET):
            want = semiclassical_K(form, *case, tol=1e-13)
            assert abs(res.K - want.K) <= 1e-12 * abs(want.K)
            (a,), (b,) = res.contributions, want.contributions
            for part in ("S", "I", "d2S", "prefactor"):
                assert abs(getattr(a, part) - getattr(b, part)) <= 1e-12 * abs(getattr(b, part)), part
        # three guesses: the same set of saddles and the same K
        for res, (args, guesses) in zip(multi, multi_guess_calls(form)):
            want = semiclassical_K(*args, guesses=guesses, tol=1e-13)
            assert len(res.contributions) == len(want.contributions)
            for a in res.contributions:
                assert any(abs(a.v0 - b.v0) <= semiclassics.DEDUPE_TOL for b in want.contributions)
            assert abs(res.K - want.K) <= 1e-9 * abs(want.K)

    @pytest.mark.parametrize("c", [0.4, -0.25, 0.2 + 0.3j])
    @pytest.mark.parametrize("form", ["q", "p", "w"])
    def test_linear_terms_need_no_affine_seed(self, monkeypatch, form, c):
        # with c a + conj(c) adag the flow at the origin is not 0, and the coarse seed, the RK4
        # steps of the flow linearised there, drops that constant: the coarse Newton still meets
        # the saddle of single-level (u, v) shooting, with the same K
        H = quartic_position_hamiltonian(0.1, CTX) + OperatorPoly({(0, 1): c, (1, 0): np.conj(c)})
        cases = [(zp, zpp, T, 512) for zp, zpp, T in COMPARISON_ENDPOINTS]
        got = [semiclassical_K(form, H, *case, tol=1e-13) for case in cases]
        uv_shooting(monkeypatch)
        for res, case in zip(got, cases):
            want = semiclassical_K(form, H, *case, tol=1e-13)
            (a,), (b,) = res.contributions, want.contributions
            assert abs(a.v0 - b.v0) <= semiclassics.DEDUPE_TOL
            assert abs(res.K - want.K) <= 1e-9 * abs(want.K)

    def test_one_saddle_of_three_guesses_is_refined_once(self, monkeypatch):
        # the three coarse grids' Newton finds one saddle, and only the first guess's seed is
        # refined: the result is the one-guess call's, and K is the one found when every guess was
        # refined
        args = ("w", quartic_position_hamiltonian(0.1, CTX), 0.5 + 0.1j, 0.3 - 0.4j, 0.6)
        single = semiclassical_K(*args)
        newtons = counted_grids(monkeypatch)
        res = semiclassical_K(*args, guesses=[None, 0.3 + 0.4j, 0.27 + 0.36j])
        assert newtons == [64, 512, 64, 64]
        assert repr(res) == repr(single)
        assert abs(res.K - (0.9690436148233127 - 0.25185473681835363j)) <= 1e-15

    def test_coarse_seed_is_built_once_per_call(self, monkeypatch):
        # the step matrices of the flow linearised at the origin depend on T, the coarse steps
        # and the symbol alone: one set at zero nodes per call, however many guesses it takes
        zero_nodes = []
        real_step = semiclassics._step

        def step(flow, hessian, y, h):
            zero_nodes.append(not y.any())
            return real_step(flow, hessian, y, h)

        monkeypatch.setattr(semiclassics, "_step", step)
        for args, guesses in multi_guess_calls("w"):
            zero_nodes.clear()
            semiclassical_K(*args, guesses=guesses)
            assert zero_nodes.count(True) == 1

    def test_a_saddle_whose_refinement_failed_is_not_retried(self, monkeypatch):
        # the coarse v(0) is recorded when its refinement is tried: here the whole-grid stage
        # fails, and the second guess, on the same coarse saddle, is not refined again
        newtons = []
        real_newton = semiclassics._newton

        def newton(*a):  # the coarse grid's Newton runs, the full grid's is switched off
            newtons.append(len(a[2][0]) - 1)
            return real_newton(*a) if newtons[-1] == 64 else refuse(*a)

        monkeypatch.setattr(semiclassics, "_newton", newton)
        message = "^no shooting guess converged: the whole-grid stage is switched off$"
        with pytest.raises(NonConverged, match=message):
            semiclassical_K("w", quartic_position_hamiltonian(0.1, CTX), 0.5 + 0.1j, 0.3 - 0.4j, 0.6,
                            guesses=[None, 0.3 + 0.4j])
        assert newtons == [64, 512, 64]

    @pytest.mark.parametrize("steps", [16, 32, 64, 100])
    @pytest.mark.parametrize("form", ["q", "p", "w"])
    def test_small_grids_take_the_two_level_route(self, monkeypatch, form, steps):
        # below 128 steps the coarse grid is MIN_STEPS = 16 steps: the whole-grid Newton solves
        # it and then returns the full grid's trajectory (every second call), and K and its
        # parts are the single-level (u, v) reference's to round-off, both converged to 1e-13
        H = quartic_position_hamiltonian(0.1, CTX)
        solved = []
        real_newton = semiclassics._newton
        monkeypatch.setattr(semiclassics, "_newton", lambda *a: solved.append(real_newton(*a)) or solved[-1])
        got = [semiclassical_K(form, H, zp, zpp, T, steps, tol=1e-13) for zp, zpp, T in COMPARISON_ENDPOINTS]
        grids = [len(nodes[0]) - 1 for nodes, *_ in solved]
        assert grids == [semiclassics.MIN_STEPS, steps] * 3
        assert [v0 for _, v0, _, _ in solved[1::2]] == [res.contributions[0].v0 for res in got]
        monkeypatch.undo()
        uv_shooting(monkeypatch)
        for res, (zp, zpp, T) in zip(got, COMPARISON_ENDPOINTS):
            want = semiclassical_K(form, H, zp, zpp, T, steps, tol=1e-13)
            assert abs(res.K - want.K) <= 1e-12 * abs(want.K)
            (a,), (b,) = res.contributions, want.contributions
            for part in ("S", "I", "d2S", "prefactor"):
                assert abs(getattr(a, part) - getattr(b, part)) <= 1e-12 * abs(getattr(b, part)), part

    @pytest.mark.parametrize("form", ["q", "p", "w"])
    def test_harmonic_default_guess_is_bit_identical(self, monkeypatch, form):
        # the benchmark's accuracy anchor: T = 6 at the corner of its draw box; a linear flow has
        # no coarse stage, so the full grid's Newton alone gives the result
        got = semiclassical_K(form, H_HARM, 0.8, 0.8j, 6.0)
        grids = counted_grids(monkeypatch)
        assert got == semiclassical_K(form, H_HARM, 0.8, 0.8j, 6.0) and grids == [512]


def varying_samplers():
    """Time-dependent A, B, C for det_continuum."""
    return (lambda t: 0.3 * np.cos(t), lambda t: 0.2 * np.sin(t) + 0.1, lambda t: 1.1 + 0.15 * t)


class TestNumpyScalars:
    def test_zero_d_array_T_is_taken(self):
        # solve_bvp alone refused a 0-d array T ("T must be positive, got array(0.5)"), which
        # det_continuum and exact_propagator take; T = 0 stays refused by solve_bvp
        H = quartic_position_hamiltonian(0.1, CTX)
        want = semiclassical_K("w", H, 0.3, 0.2, 0.5)
        assert repr(semiclassical_K("w", H, 0.3, 0.2, np.array(0.5))) == repr(want)
        for T in (0.0, np.array(0.0)):
            with pytest.raises(InvalidArgument, match=r"^T must be positive, got (0\.0|array\(0\.\))$"):
                solve_bvp(QUARTIC_W, 0.3, 0.2, T)

    @pytest.mark.parametrize(
        "options",
        [{"T": np.float64(1.2)}, {"hbar": np.float64(0.5)}, {"steps": np.int64(256)}],
        ids=["T", "hbar", "steps"],
    )
    def test_det_continuum_gives_the_python_value(self, options):
        # det_continuum runs no scalar RK4 any more; a numpy T, hbar or steps gives the same Delta
        python = {"T": 1.2, "hbar": 0.5, "steps": 256}
        want = det_continuum(*varying_samplers(), **python)
        got = det_continuum(*varying_samplers(), **{**python, **options})
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("form", ["q", "p", "w"])
    def test_trajectories_are_repr_identical(self, form):
        for H, zp, zpp, T, steps in COMPARISON_SET:
            args = (symbol_for_form(H, form), zp, complex(np.conj(zpp)))
            want = solve_bvp(*args, T, steps, hbar=H.hbar)
            got = solve_bvp(*args, np.float64(T), np.int64(steps), hbar=np.float64(H.hbar))
            for name in ("times", "u", "v", "du", "dv"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert repr((got.v0, got.residual, got.hbar, got.newton_iters)) == repr(
                (want.v0, want.residual, want.hbar, want.newton_iters)
            )


def prefactor_loop(traj) -> complex:
    """tracked_prefactor as a loop over the nodes, the branch followed on Python complex numbers,
    as the reference."""
    if np.min(np.abs(traj.dv)) < semiclassics.CAUSTIC_THRESHOLD:
        warnings.warn("prefactor tracked through a near-caustic", CausticWarning)
    prev = 1.0 + 0.0j
    for recip in (1.0 / traj.dv).tolist():
        root = cmath.sqrt(recip)
        if abs(-root - prev) < abs(root - prev):
            root = -root
        prev = root
    return prev


def delta_reference(A, B, C, T, steps, hbar):
    """det_continuum's unchecked pass as it ran before the transfer products: the variational
    pair on Python scalars, with the coefficients at the half steps."""
    ts = np.linspace(0.0, T, 2 * steps + 1)
    a, b, c = (np.broadcast_to(np.asarray(f(ts), dtype=complex), ts.shape).tolist() for f in (A, B, C))
    ih = 1j / hbar

    def rhs(k, u, v, du, dv):
        return 0j, 0j, -ih * (c[k] * du + b[k] * dv), ih * (a[k] * du + c[k] * dv)

    return complex(rk4_reference(rhs, (0j, 0j, 0j, 1 + 0j), T, steps)[3][-1])


class TestTransferProducts:
    @pytest.mark.parametrize("steps", [1, 16, 255, 1024])
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_det_continuum_matches_the_python_loop(self, steps, hbar):
        T = 1.2
        for samplers in (varying_samplers(), (lambda t: 0.0, lambda t: 0.3, lambda t: 1.4)):
            want = delta_reference(*samplers, T, steps, hbar)
            assert abs(det_continuum(*samplers, T, steps, hbar, None) - want) <= 1e-12 * abs(want)

    def test_det_continuum_on_a_trajectory_matches_the_python_loop(self):
        traj = solve_bvp(QUARTIC_W, 0.7, 0.5 - 0.2j, 0.8, steps=2048, tol=1e-12)
        samplers = trajectory_hessian_samplers(traj, QUARTIC_W)
        want = delta_reference(*samplers, 0.8, 2048, 1.0)
        assert abs(det_continuum(*samplers, 0.8, steps=1024) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("steps", [16, 100, 333, 1000, 1024])
    def test_det_continuum_reads_the_total_product(self, monkeypatch, steps):
        # Delta(T) reads the last prefix of the step matrices alone: their total product by
        # pairwise halving is the prefix scan's last entry, the same numbers where the step count
        # is a power of two and within round-off elsewhere
        traj = solve_bvp(QUARTIC_W, 0.7, 0.5 - 0.2j, 0.8, steps=2048, tol=1e-12)
        samplers = trajectory_hessian_samplers(traj, QUARTIC_W)
        got = [det_continuum(*samplers, 0.8, steps, 1.0, check) for check in (None, 1e-6)]
        monkeypatch.setattr(fluctuation, "_total_product",
                            lambda m: semiclassics._prefix_products(m)[..., -1])
        want = [det_continuum(*samplers, 0.8, steps, 1.0, check) for check in (None, 1e-6)]
        for a, b in zip(got, want):
            assert a == b if steps in (16, 1024) else abs(a - b) <= 2e-15 * abs(b)

    def test_tangent_overflow_under_finite_qp_is_a_blow_up(self, monkeypatch):
        # an inverted oscillator from the fixed point: its flow is linear, so the whole-grid Newton
        # alone solves it, on nodes q = p = 0 exactly, while the step matrices' products grow like
        # e^t and leave the double range; numpy's overflow is no RuntimeWarning
        inverted = SymbolPoly({(0, 2): -0.5, (2, 0): -0.5})
        nodes = []
        real_step = semiclassics._step

        def step(flow, hessian, y, h):
            nodes.append(y.copy())
            return real_step(flow, hessian, y, h)

        monkeypatch.setattr(semiclassics, "_step", step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConverged, match=r"^trajectory blew up from v\(0\) = .* on the grid of 64 steps$"):
                solve_bvp(inverted, 0.0, 0.0, 4000.0, steps=64)
        assert nodes and all(y.shape == (2, 64) and not y.any() for y in nodes)  # no coarse grid


class TestActionAndCorrection:
    def test_harmonic_action_identification(self):
        zp, zpp = 0.3 + 0.2j, -0.4 + 0.1j
        T = 1.1
        traj = solve_bvp(SYM_W, zp, np.conj(zpp), T, steps=512)
        S = action_S(traj, SYM_W)
        want = zp * np.conj(zpp) * np.exp(-1j * T)  # (i/hbar) S_W
        assert abs(1j * S - want) < 1e-10

    def test_short_time_action_is_boundary_term(self):
        zp, zpp = 0.5, 0.2 + 0.3j
        T = 1e-4
        traj = solve_bvp(SYM_W, zp, np.conj(zpp), T, steps=32)
        assert abs(action_S(traj, SYM_W) - (-1j * zp * np.conj(zpp))) < 1e-3

    def test_action_gradient_relation(self):
        # dS/dv'' = -i hbar u(T), checked by central differences of the solver
        sym = weyl_symbol(quartic_position_hamiltonian(0.1, CTX))
        zp, zpps, T = 0.6, 0.5 - 0.2j, 0.7
        traj = solve_bvp(sym, zp, zpps, T, steps=1024, tol=1e-12)
        h = 1e-4
        Sp = action_S(solve_bvp(sym, zp, zpps + h, T, steps=1024, tol=1e-12), sym)
        Sm = action_S(solve_bvp(sym, zp, zpps - h, T, steps=1024, tol=1e-12), sym)
        assert abs((Sp - Sm) / (2 * h) - (-1j * traj.u[-1])) < 1e-6

    @pytest.mark.parametrize("symbol_fn", [q_symbol, p_symbol])
    def test_harmonic_corrections(self, symbol_fn):
        sym = symbol_fn(H_HARM)
        T = 1.7
        traj = solve_bvp(sym, 0.3, 0.1 + 0.2j, T, steps=128)
        assert abs(correction_I(traj, sym) - 0.5 * T) < 1e-12  # hbar omega T / 2

    def test_quartic_correction_step_refinement(self):
        sym = q_symbol(quartic_position_hamiltonian(0.1, CTX))
        traj1 = solve_bvp(sym, 0.7, 0.7, 0.5, steps=256)
        traj2 = solve_bvp(sym, 0.7, 0.7, 0.5, steps=512)
        assert abs(correction_I(traj1, sym) - correction_I(traj2, sym)) < 1e-8


class TestSecondDerivative:
    def test_harmonic_value(self):
        T = 0.9
        traj = solve_bvp(SYM_W, 0.3, 0.2 - 0.1j, T, steps=256)
        d2s, delta = d2S(traj)
        assert abs(d2s - (-1j * np.exp(-1j * T))) < 1e-10
        assert abs(delta - np.exp(1j * T)) < 1e-10

    def test_short_time_limits(self):
        traj = solve_bvp(SYM_W, 0.3, 0.2, 1e-5, steps=32)
        d2s, delta = d2S(traj)
        assert abs(d2s - (-1j)) < 1e-4
        assert abs(delta - 1.0) < 1e-4

    def test_quartic_against_finite_differences(self):
        sym = weyl_symbol(quartic_position_hamiltonian(0.1, CTX))
        zp, zpps, T = 0.7, 0.7 + 0.0j, 0.8
        traj = solve_bvp(sym, zp, zpps, T, steps=2048, tol=1e-12)
        d2s, _ = d2S(traj)
        h = 1e-3

        def S_of(a, b):
            return action_S(solve_bvp(sym, a, b, T, steps=2048, tol=1e-12), sym)

        fd = (
            S_of(zp + h, zpps + h)
            - S_of(zp + h, zpps - h)
            - S_of(zp - h, zpps + h)
            + S_of(zp - h, zpps - h)
        ) / (4 * h * h)
        assert abs(d2s - fd) < 1e-5

    def test_samplers_match_scipy_hermite_spline(self):
        # the reference is the dense output the samplers used to build
        from scipy.interpolate import CubicHermiteSpline

        sym = weyl_symbol(quartic_position_hamiltonian(0.1, CTX))
        for zp, zpps, T in [(0.7, 0.7 + 0.0j, 0.5), (0.6, 0.4 - 0.2j, 0.8), (0.5, 0.5, 1.0)]:
            traj = solve_bvp(sym, zp, zpps, T, steps=2048, tol=1e-12)
            _, Hu, Hv = sym.jet(traj.u, traj.v, order=1)
            u_of = CubicHermiteSpline(traj.times, traj.u, -1j * Hv / traj.hbar)
            v_of = CubicHermiteSpline(traj.times, traj.v, 1j * Hu / traj.hbar)
            ts = np.linspace(0.0, T, 2 * 2048 + 1)  # det_continuum's stage times
            want = sym.jet(u_of(ts), v_of(ts))[3:6]
            got = [f(ts) for f in trajectory_hessian_samplers(traj, sym)]
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max(), (zp, T)

    def test_singular_monodromy_guard(self):
        traj = solve_bvp(SYM_W, 0.3, 0.2, 0.5, steps=64)
        traj.dv[-1] = 0.0
        with pytest.raises(DomainError, match="caustic"):
            d2S(traj)

    def test_caustic_warning_near_monodromy_zero(self):
        # squeeze-type symbol: dv(T) = cos T vanishes at T = pi/2
        sym = SymbolPoly({(2, 0): -0.5, (0, 2): 0.5})
        T = np.pi / 2 - 1e-5
        traj = solve_bvp(sym, 0.3, 0.2, T, steps=256, tol=1e-9)
        assert abs(traj.dv[-1]) < 1e-4
        with pytest.warns(CausticWarning):
            tracked_prefactor(traj)

    def test_prefactor_tracks_through_pi(self):
        # principal square roots would jump at omega T = pi
        traj = solve_bvp(SYM_W, 0.3, 0.2, 2 * np.pi - 0.1, steps=1024)
        pref = tracked_prefactor(traj)
        assert abs(pref - np.exp(-0.5j * (2 * np.pi - 0.1))) < 1e-9

    @pytest.mark.parametrize("form", ["q", "p", "w"])
    def test_prefactor_is_the_loop_on_the_comparison_set(self, form):
        for H, zp, zpp, T, steps in COMPARISON_SET:
            traj = solve_bvp(symbol_for_form(H, form), zp, complex(np.conj(zpp)), T, steps, hbar=H.hbar)
            assert tracked_prefactor(traj) == prefactor_loop(traj)

    def test_prefactor_resets_on_a_tie_and_flips_after_it(self):
        # 1/dv = 1, -1 - 0j: the principal roots 1 and -i are an exact tie with no flip before it,
        # so the sign is + after it; 1/dv then crosses the cut at -1, which flips the root
        traj = SimpleNamespace(dv=1.0 / np.array([1.0, -1.0, -1.0 + 0.01j, -1.0 + 0.02j]))
        last = cmath.sqrt(complex(1.0 / traj.dv[-1]))
        assert tracked_prefactor(traj) == prefactor_loop(traj) == -last

    def test_prefactor_keeps_a_flip_across_a_tie(self):
        # arg(1/dv) = 0, 0.9 pi, -0.9 pi (across the cut: a flip), -pi/2, then pi/2, an exact step
        # of pi; np.unwrap keeps that step, so the flip stands (the loop reset the sign to + there)
        recip = np.array([1.0, np.exp(0.9j * np.pi), np.exp(-0.9j * np.pi), -1j, 1j])
        traj = SimpleNamespace(dv=1.0 / recip)
        assert tracked_prefactor(traj) == -cmath.sqrt(1j)

    @pytest.mark.parametrize(
        "dv",
        [1.0 - 2.0 * np.arange(1001) / 1000 + 1e-5j, 1e-5 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 65))],
        ids=["past-zero", "around-zero"],
    )
    def test_prefactor_is_the_loop_through_a_near_caustic_turn(self, dv):
        traj = SimpleNamespace(dv=dv)
        with pytest.warns(CausticWarning):
            got = tracked_prefactor(traj)
        with pytest.warns(CausticWarning):
            assert got == prefactor_loop(traj)


class TestSemiclassicalK:
    @pytest.mark.parametrize("form", ["w", "q", "p"])
    @pytest.mark.parametrize("T", [0.5, 1.0, 2 * np.pi - 0.1])
    def test_harmonic_exactness(self, form, T):
        zp, zpp = 0.3, 0.5j
        K = semiclassical_K(form, H_HARM, zp, zpp, T, steps=512).K
        assert abs(K - harmonic_exact_K(zp, zpp, 1.0, T)) < 1e-9

    def test_overflowing_gaussian_refused(self):
        # |z'|^2 = 1e400 is beyond the double range (a bare OverflowError before)
        with pytest.raises(DomainError, match="is not a finite double") as info:
            semiclassical_K("w", H_HARM, 1e200, 0.0, 1.0)
        assert "|z'|^2" in str(info.value)

    def test_overflowing_gaussian_refused_at_zero_time(self):
        # T = 0 returned the overlap, 0, for the labels that T = 1 refuses
        with pytest.raises(DomainError, match=r"\|z'\|\^2 .* is not a finite double"):
            semiclassical_K("w", H_HARM, 1e200, 0.0, 0.0)

    def test_non_finite_term_refused(self, monkeypatch):
        monkeypatch.setattr("weylpath.semiclassics.tracked_prefactor", lambda traj: complex("inf"))
        with pytest.raises(DomainError, match=r"term from v\(0\) = .* is not a finite double"):
            semiclassical_K("w", H_HARM, 0.3, 0.5j, 1.0)

    def test_omitting_correction_breaks_harmonic(self):
        # the Q-form K without its ordering correction, built from the trajectories' S and prefactor
        zp, zpp, T = 0.3, 0.5j, 1.0
        gauss = -0.5 * (abs(zp) ** 2 + abs(zpp) ** 2)
        K = sum(
            (c.prefactor * cmath.exp((1j / H_HARM.hbar) * c.S + gauss)
             for c in semiclassical_K("q", H_HARM, zp, zpp, T).contributions),
            0j,
        )
        assert abs(K - harmonic_exact_K(zp, zpp, 1.0, T)) > 1e-3

    def test_zero_time_is_overlap(self):
        for form in "qpw":
            K = semiclassical_K(form, H_HARM, 0.4, 0.2 - 0.3j, 0.0).K
            assert abs(K - overlap(0.2 - 0.3j, 0.4)) < 1e-14

    def test_reports_the_steps_of_its_grid(self):
        # solve_bvp rounds odd steps up to even; T = 0 integrates nothing
        assert semiclassical_K("w", H_HARM, 0.3, 0.5j, 1.0, steps=17).steps == 18
        assert semiclassical_K("w", H_HARM, 0.3, 0.5j, 0.0).steps == 0

    def test_contribution_breakdown(self):
        res = semiclassical_K("w", H_HARM, 0.3, 0.5j, 1.0)
        assert len(res.contributions) == 1
        tr = res.contributions[0]
        assert tr.residual < 1e-10
        assert abs(tr.term - res.K) < 1e-15
        # the correction is still reported for the W form, just not applied
        assert abs(tr.I - 0.5) < 1e-12

    @pytest.mark.parametrize("guesses", [[], (), iter([])], ids=["list", "tuple", "iterator"])
    def test_empty_guesses_refused(self, monkeypatch, guesses):
        # was NonConverged "no shooting guess converged: (none tried)", exit 2, with nothing run
        monkeypatch.setattr(semiclassics, "_step", None)  # would fail if reached
        with pytest.raises(InvalidArgument, match=r"^guesses must hold at least one guess, got \[\]$"):
            semiclassical_K("w", H_HARM, 0.3, 0.5j, 1.0, guesses=guesses)

    def test_guess_deduplication(self):
        res = semiclassical_K(
            "w", H_HARM, 0.3, 0.5j, 1.0, guesses=[None, 0.5j, 1.0 + 1.0j]
        )
        assert len(res.contributions) == 1  # one distinct saddle

    def test_quartic_error_shrinks_with_hbar(self):
        errs = []
        for hbar in (1.0, 0.5, 0.25):
            ctx = ScaleContext.default(hbar=hbar)
            H = quartic_position_hamiltonian(0.1, ctx)
            K = semiclassical_K("w", H, 0.7, 0.7, 0.5, steps=512).K
            want = exact_propagator(H, 0.7, 0.7, 0.5, cutoff=120)
            errs.append(abs(K - want))
        assert errs[0] > errs[1] > errs[2]


class TestWidthIndependence:
    def test_weyl_flow_maps_to_width_free_classical_flow(self):
        # solve the boundary problem at b = 1; translate the endpoint labels
        # to b = 2 via the complexified (q, p) section and re-solve: the
        # physical curves must coincide
        lam = 0.1
        ctx1 = ScaleContext(hbar=1.0, mass=1.0, omega=1.0, b=1.0)
        ctx2 = ScaleContext(hbar=1.0, mass=1.0, omega=1.0, b=2.0)
        sym1 = weyl_symbol(quartic_position_hamiltonian(lam, ctx1))
        sym2 = weyl_symbol(quartic_position_hamiltonian(lam, ctx2))
        rt2 = np.sqrt(2.0)

        def to_qp(u, v, ctx):
            return ctx.b * (u + v) / rt2, -1j * ctx.c * (u - v) / rt2

        zp, zpps, T = 0.6 + 0.1j, 0.4 - 0.2j, 0.7
        traj1 = solve_bvp(sym1, zp, zpps, T, steps=512, tol=1e-12)
        q1, p1 = to_qp(traj1.u, traj1.v, ctx1)

        # same complex phase-space endpoints, written in the b = 2 labels
        zp2 = (q1[0] / ctx2.b + 1j * p1[0] / ctx2.c) / rt2
        zpps2 = (q1[-1] / ctx2.b - 1j * p1[-1] / ctx2.c) / rt2
        traj2 = solve_bvp(sym2, zp2, zpps2, T, steps=512, tol=1e-12, guess=zpps2)
        q2, p2 = to_qp(traj2.u, traj2.v, ctx2)
        assert np.max(np.abs(q2 - q1)) < 1e-9
        assert np.max(np.abs(p2 - p1)) < 1e-9


class TestDiscreteStationarityLimit:
    def test_continuum_trajectory_satisfies_paired_equations(self):
        # sampled at slice midpoints, the averaged discrete equations hold to
        # O(tau^2): halving tau shrinks the residual about fourfold
        sym = weyl_symbol(quartic_position_hamiltonian(0.1, CTX))
        zp, zpps, T = 0.7, 0.5 - 0.2j, 0.8

        def residual(N):
            tau = T / N
            steps = 8 * N
            traj = solve_bvp(sym, zp, zpps, T, steps=steps, tol=1e-12)
            w = traj.u[4::8]  # midpoint samples (k - 1/2) tau
            ws = traj.v[4::8]
            _, Hu, Hv = sym.jet(w, ws, order=1)
            r1 = np.abs(-0.5j * (Hv[:-1] + Hv[1:]) - (w[1:] - w[:-1]) / tau)
            r2 = np.abs(-0.5j * (Hu[:-1] + Hu[1:]) + (ws[1:] - ws[:-1]) / tau)
            return max(r1.max(), r2.max())

        r_coarse, r_fine = residual(16), residual(32)
        assert r_fine < 0.35 * r_coarse  # consistent with O(tau^2)
