import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weylpath import (
    DiscreteWPath,
    OperatorPoly,
    ScaleContext,
    SymbolPoly,
    convergence_table,
    harmonic_discrete_K,
    harmonic_exact_K,
    harmonic_hamiltonian,
    mu_coefficients,
    overlap,
    phi_N,
    phi_N_alt,
    psi_C,
    quadrature_K,
    quartic_position_hamiltonian,
    stationary_path_harmonic,
    weyl_symbol,
)
from weylpath.algebra import symbol_for_form
from weylpath.discrete import (
    COHERENT_WIDTH,
    GRID_REFINE,
    RADIUS_WIDTHS,
    DiscGridSpec,
    _alt_prefix_sums,
    _disc_points,
    chord_coefficients,
    phi_N_gradient,
)
from weylpath.errors import DomainError, NonConverged

CTX = ScaleContext.default()
HW_HARMONIC = SymbolPoly({(1, 1): 1.0})  # hbar = omega = 1
# quadratic H with adag a, a^2, adag^2, a and adag terms (squeezed and displaced)
H_SQUEEZED = OperatorPoly(
    {(1, 1): 1.0, (2, 0): 0.3 + 0.1j, (0, 2): 0.3 - 0.1j, (1, 0): 0.2 - 0.4j, (0, 1): 0.2 + 0.4j}
)


def random_path(rng, N, tau=0.05, zp=0.3 + 0.2j, zpp=-0.1 + 0.4j, complexified=False):
    w = rng.normal(size=N) + 1j * rng.normal(size=N)
    w_star = (
        rng.normal(size=N) + 1j * rng.normal(size=N) if complexified else None
    )
    return DiscreteWPath(w=w, tau=tau, zp=zp, zpp=zpp, w_star=w_star)


class TestPhiN:
    def test_zero_everything(self):
        path = DiscreteWPath(w=np.zeros(2), tau=0.1, zp=0.0, zpp=0.0)
        assert phi_N(path, SymbolPoly({})) == 0.0

    def test_stationary_value_matches_closed_form(self):
        # at the stationary path the exponent collapses to mu_W z' z''*;
        # the closed-form propagator carries the Gaussian normalisation
        # exp(-|z'|^2/2 - |z''|^2/2) separately
        zp, zpp, om, T, N = 0.4 + 0.1j, 0.3 - 0.2j, 1.3, 1.7, 10
        path = stationary_path_harmonic(zp, zpp, om, T, N)
        mu_w = mu_coefficients(om, T, N)[2]
        val = phi_N(path, SymbolPoly({(1, 1): om}))
        assert abs(val - mu_w * zp * np.conj(zpp)) < 1e-12
        tau = T / N
        prefactor = (1.0 + 0.5j * tau * om) ** (-N)
        rebuilt = prefactor * np.exp(
            val - 0.5 * abs(zp) ** 2 - 0.5 * abs(zpp) ** 2
        )
        assert abs(rebuilt - harmonic_discrete_K("w", zp, zpp, om, T, N)) < 1e-12

    def test_matches_alternative_form_on_random_paths(self):
        rng = np.random.default_rng(41)
        for N in range(2, 21, 2):
            for _ in range(25):
                p = random_path(rng, N, complexified=True)
                a, b = phi_N(p, HW_HARMONIC), phi_N_alt(p, HW_HARMONIC)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_alt_form_zero_case(self):
        path = DiscreteWPath(w=np.zeros(2), tau=0.1, zp=0.0, zpp=0.0)
        assert phi_N_alt(path, SymbolPoly({})) == 0.0

    def test_alt_at_stationary_path(self):
        zp, zpp, om, T, N = 0.2 - 0.3j, -0.4 + 0.5j, 0.9, 2.3, 8
        path = stationary_path_harmonic(zp, zpp, om, T, N)
        mu_w = mu_coefficients(om, T, N)[2]
        val = phi_N_alt(path, SymbolPoly({(1, 1): om}))
        assert abs(val - mu_w * zp * np.conj(zpp)) < 1e-12

    def test_quartic_symbol_consistency(self):
        Hs = weyl_symbol(quartic_position_hamiltonian(0.3, CTX))
        rng = np.random.default_rng(43)
        p = random_path(rng, 8, tau=0.03)
        assert abs(phi_N(p, Hs) - phi_N_alt(p, Hs)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        p = random_path(rng, 6, complexified=True)
        gw, gws = phi_N_gradient(p, HW_HARMONIC)
        h = 1e-6
        for l in range(6):
            for arr_name, grad in (("w", gw), ("w_star", gws)):
                plus = {n: getattr(p, n).copy() for n in ("w", "w_star")}
                minus = {n: getattr(p, n).copy() for n in ("w", "w_star")}
                plus[arr_name][l] += h
                minus[arr_name][l] -= h
                fd = (
                    phi_N(DiscreteWPath(plus["w"], p.tau, p.zp, p.zpp, plus["w_star"]), HW_HARMONIC)
                    - phi_N(DiscreteWPath(minus["w"], p.tau, p.zp, p.zpp, minus["w_star"]), HW_HARMONIC)
                ) / (2 * h)
                assert abs(grad[l] - fd) < 1e-7

    @pytest.mark.parametrize(
        "compute, what",
        [
            (phi_N, "phi_N"),
            (phi_N_alt, "phi_N_alt"),
            (psi_C, "psi_N or C_N"),
            (lambda path, _: phi_N_gradient(path, HW_QUARTIC), "the gradient of phi_N"),
        ],
        ids=["phi_N", "phi_N_alt", "psi_C", "phi_N_gradient-quartic"],
    )
    def test_overflowing_exponent_is_a_domain_error(self, compute, what):
        # each returned nan+nanj, or NaN arrays, with only RuntimeWarnings to show for it
        path = DiscreteWPath(w=[1e200, 1e200], tau=0.1, zp=0.1, zpp=0.2)
        with pytest.raises(DomainError, match=f"^{what} is not a finite double$"):
            compute(path, weyl_symbol(harmonic_hamiltonian(CTX)))

    def test_gradient_finite_where_only_the_value_overflows(self):
        # H = u v - 1/2 overflows at w = 1e200 and warned; its partials v and u do not
        path = DiscreteWPath(w=[1e200, 1e200], tau=0.1, zp=0.1, zpp=0.2)
        gw, gws = phi_N_gradient(path, weyl_symbol(harmonic_hamiltonian(CTX)))
        assert np.array_equal(gw, [2e200 - 1e199j, -2e200 - 1e199j])
        assert np.array_equal(gws, [-2e200 - 1e199j, 2e200 - 1e199j])


COORD = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
HW_QUARTIC = weyl_symbol(quartic_position_hamiltonian(0.3, CTX))


@st.composite
def complexified_paths(draw):
    """Even-N Weyl-form paths with w* independent of w, N up to 40."""
    N = 2 * draw(st.integers(1, 20))
    re_w, im_w, re_ws, im_ws = draw(arrays(np.float64, (4, N), elements=COORD))
    labels = st.builds(complex, COORD, COORD)
    return DiscreteWPath(
        w=re_w + 1j * im_w, tau=draw(st.floats(1e-3, 1.0)), zp=draw(labels), zpp=draw(labels),
        w_star=re_ws + 1j * im_ws,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(path=complexified_paths())
def test_phi_N_equals_alt_form_property(path):
    a, b = phi_N(path, HW_QUARTIC), phi_N_alt(path, HW_QUARTIC)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestAltPrefixSums:
    @staticmethod
    def recurrence(x):
        s = np.zeros(len(x), dtype=complex)
        for m in range(1, len(x)):
            s[m] = x[m - 1] - s[m - 1]
        return s

    @pytest.mark.parametrize("n", [2, 3, 64, 1001])
    def test_scan_is_the_recurrence(self, n):
        """Bit for bit, forward and reversed (as the gradient uses it)."""
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.array_equal(_alt_prefix_sums(x), self.recurrence(x))
        assert np.array_equal(_alt_prefix_sums(x[::-1]), self.recurrence(x[::-1]))


class TestPsiC:
    def test_constant_pair_has_zero_chord(self):
        path = DiscreteWPath(w=np.array([1.0, 1.0]), tau=0.1, zp=0.0, zpp=0.0)
        _, C = psi_C(path, HW_HARMONIC)
        assert C == 0.0

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(53)
        for N in (2, 6, 12):
            for _ in range(30):
                p = random_path(rng, N, complexified=True)
                psi, C = psi_C(p, HW_HARMONIC)
                _, Cbar = chord_coefficients(p)
                rebuilt = (
                    psi
                    + 2.0 * C * np.conj(p.zpp)
                    + 2.0 * Cbar * p.zp
                    + p.zp * np.conj(p.zpp)
                )
                full = phi_N(p, HW_HARMONIC)
                assert abs(rebuilt - full) <= 1e-12 * max(1.0, abs(full))

    def test_real_section_conjugation(self):
        rng = np.random.default_rng(59)
        p = random_path(rng, 8)
        C, Cbar = chord_coefficients(p)
        assert abs(Cbar + np.conj(C)) < 1e-14

    def test_reconstruction_on_stationary_path(self):
        path = stationary_path_harmonic(0.4, 0.2 + 0.1j, 1.0, 1.0, 6)
        psi, C = psi_C(path, HW_HARMONIC)
        _, Cbar = chord_coefficients(path)
        rebuilt = psi + 2 * C * np.conj(path.zpp) + 2 * Cbar * path.zp + path.zp * np.conj(path.zpp)
        assert abs(rebuilt - phi_N(path, HW_HARMONIC)) < 1e-12


class TestStationaryPath:
    def test_zero_frequency_is_constant(self):
        path = stationary_path_harmonic(0.3 + 0.4j, 0.1, 0.0, 1.0, 6)
        assert np.allclose(path.w, 0.3 + 0.4j)

    def test_discrete_stationarity_residual(self):
        # the full gradient of the exponent vanishes at the stationary path
        path = stationary_path_harmonic(0.4 + 0.1j, -0.2 + 0.3j, 1.0, 1.0, 10)
        gw, gws = phi_N_gradient(path, HW_HARMONIC)
        assert max(np.max(np.abs(gw)), np.max(np.abs(gws))) < 1e-12

    def test_boundary_relations(self):
        om, T, N = 1.2, 0.9, 8
        zp, zpp = 0.5, -0.3 + 0.2j
        path = stationary_path_harmonic(zp, zpp, om, T, N)
        alpha = 1.0 + 0.5j * (T / N) * om
        assert abs(path.w[0] - zp / alpha) < 1e-14
        assert abs(path.w_star[-1] - np.conj(zpp) / alpha) < 1e-14

    def test_requires_even_N(self):
        with pytest.raises(ValueError):
            stationary_path_harmonic(0.1, 0.2, 1.0, 1.0, 5)


class TestHarmonicDiscreteK:
    def test_zero_time_reduces_to_overlap(self):
        zp, zpp = 0.4 - 0.2j, 0.3 + 0.1j
        for form in "qpw":
            K = harmonic_discrete_K(form, zp, zpp, 1.0, 0.0, 2)
            assert abs(K - overlap(zpp, zp)) < 1e-14

    def test_large_N_approaches_exact(self):
        zp, zpp, om, T = 0.5, 0.5, 1.0, 2 * np.pi
        want = harmonic_exact_K(zp, zpp, om, T)
        tol = {"q": 3e-2, "p": 3e-2, "w": 1e-2}
        for form in "qpw":
            K = harmonic_discrete_K(form, zp, zpp, om, T, 1000)
            assert abs(K - want) < tol[form]

    def test_q_phase_factor_exact_at_finite_N(self):
        # the e^{-i w T / 2} prefactor of the Q form carries no N dependence
        zp, zpp, om, T = 0.3, 0.2 + 0.4j, 1.1, 1.9
        for N in (1, 3, 10, 77):
            mu_q = mu_coefficients(om, T, N)[0]
            K = harmonic_discrete_K("q", zp, zpp, om, T, N)
            core = np.exp(
                mu_q * zp * np.conj(zpp) - 0.5 * abs(zp) ** 2 - 0.5 * abs(zpp) ** 2
            )
            phase = K / core
            assert abs(phase - np.exp(-0.5j * om * T)) < 1e-12

    def test_w_requires_even_N(self):
        with pytest.raises(ValueError):
            harmonic_discrete_K("w", 0.1, 0.2, 1.0, 1.0, 3)

    @pytest.mark.parametrize(
        "args, what",
        [
            (("q", 1.0, 1.0, 1.0, 40.0, 4), "K of the Q form at N = 4"),
            (("q", 0.5, 0.5, 1.0, 1e5, 200), "mu of the Q form at N = 200"),
            (("w", 0.5, 0.5, 1.0, 1e5, 200), "mu of the W form at N = 200"),
            (("q", 1e200, 0.5, 1.0, 1.0, 2), "K of the Q form at N = 2"),
        ],
        ids=["exp-overflow", "q-power-overflow", "w-power-overflow", "label-square-overflow"],
    )
    def test_refuses_what_it_cannot_represent(self, args, what):
        # used to return nan+nanj with a RuntimeWarning, or to raise a bare OverflowError
        with pytest.raises(DomainError, match=what):
            harmonic_discrete_K(*args)

    def test_each_form_checks_only_its_own_mu(self):
        # mu_Q is beyond the double range here, but the P form's K underflows to a finite 0
        with pytest.raises(DomainError, match="mu of the Q form at N = 200"):
            mu_coefficients(1.0, 1e5, 200)
        assert harmonic_discrete_K("p", 0.5, 0.5, 1.0, 1e5, 200) == 0


class TestMuCoefficients:
    def test_reference_values_at_two_pi(self):
        mu_q, mu_p, mu_w = mu_coefficients(1.0, 2 * np.pi, 100)
        assert mu_q == pytest.approx(1.22 + 0.01j, abs=5e-3)
        assert mu_p == pytest.approx(0.82 + 0.007j, abs=5e-3)
        assert mu_w.real == pytest.approx(0.999998, abs=1e-4)
        assert mu_w.imag == pytest.approx(0.002, abs=1e-4)

    def test_zero_frequency(self):
        assert mu_coefficients(0.0, 1.0, 10) == (1.0, 1.0, 1.0)

    def test_modulus_ordering(self):
        for N in (1, 2, 5, 20, 100):
            for wT in (0.5, 2.0, 2 * np.pi):
                mu_q, mu_p, mu_w = mu_coefficients(1.0, wT, N)
                assert abs(mu_q) > 1.0
                assert abs(mu_p) < 1.0
                assert abs(abs(mu_w) - 1.0) < 1e-12

    def test_w_converges_fastest(self):
        # at N = 2 the slicing tau omega = pi puts mu_W near the antipode and
        # mu_P (tiny modulus) is actually closer; the ordering holds from N = 4
        target = np.exp(-2j * np.pi)
        for N in range(4, 60, 2):
            mu_q, mu_p, mu_w = mu_coefficients(1.0, 2 * np.pi, N)
            assert abs(mu_w - target) < abs(mu_q - target)
            assert abs(mu_w - target) < abs(mu_p - target)

    def test_all_converge(self):
        target = np.exp(-1.5j)
        mus = mu_coefficients(1.0, 1.5, 20000)
        for mu in mus:
            assert abs(mu - target) < 1e-3


class TestQuadratureK:
    def test_single_slice_q_is_closed_form(self):
        H = harmonic_hamiltonian(CTX)
        r = quadrature_K("q", H, 0.4 + 0.1j, 0.2 - 0.3j, 0.2, 1)
        assert abs(r.value - harmonic_discrete_K("q", 0.4 + 0.1j, 0.2 - 0.3j, 1.0, 0.2, 1)) < 1e-14

    @pytest.mark.parametrize("form,N,tol", [("q", 2, 1e-6), ("p", 1, 1e-6), ("p", 2, 1e-6)])
    def test_harmonic_gaussian_chains(self, form, N, tol):
        H = harmonic_hamiltonian(CTX)
        zp, zpp, T = 0.4 + 0.1j, 0.2 - 0.3j, 0.2
        r = quadrature_K(form, H, zp, zpp, T, N, DiscGridSpec(points=56))
        want = harmonic_discrete_K(form, zp, zpp, 1.0, T, N)
        assert abs(r.value - want) < tol

    def test_harmonic_weyl_midpoint_form(self):
        # the W-form quadratic form is marginal (unit-modulus directions), so
        # disc truncation limits the accuracy; the refinement delta reports it
        H = harmonic_hamiltonian(CTX)
        zp, zpp, T = 0.4 + 0.1j, 0.2 - 0.3j, 0.2
        r = quadrature_K("w", H, zp, zpp, T, 2, DiscGridSpec(points=56))
        want = harmonic_discrete_K("w", zp, zpp, 1.0, T, 2)
        assert abs(r.value - want) < 5e-3
        assert abs(r.value - want) < 10 * max(r.refinement_delta, 1e-4)

    def test_zero_hamiltonian_gives_overlap(self):
        H = OperatorPoly({})
        zp, zpp = 0.3, 0.1 + 0.2j
        for form, N in (("q", 2), ("p", 1), ("w", 2)):
            r = quadrature_K(form, H, zp, zpp, 0.3, N, DiscGridSpec(points=48))
            assert abs(r.value - overlap(zpp, zp)) < 2e-4, form

    def test_quartic_cross_form_spread_shrinks_with_tau(self):
        H = quartic_position_hamiltonian(0.1, CTX)
        zp, zpp = 0.3, 0.25 + 0.1j
        spec = DiscGridSpec(points=48)

        def spread(T):
            vals = [quadrature_K(f, H, zp, zpp, T, 2, spec).value for f in "qpw"]
            return max(abs(a - b) for a in vals for b in vals)

        s1, s2 = spread(0.08), spread(0.04)
        assert s1 < 10 * 2 * (0.08 / 2) ** 2  # O(N tau^2) envelope
        assert s2 < 0.4 * s1  # shrinks at least linearly in tau

    def test_dimension_guard(self):
        H = harmonic_hamiltonian(CTX)
        with pytest.raises(DomainError, match="^form 'q' with N = 4 needs a 6-dimensional grid$"):
            quadrature_K("q", H, 0.1, 0.2, 0.1, 4)
        with pytest.raises(DomainError, match="6-dimensional grid"):
            quadrature_K("p", H, 0.1, 0.2, 0.1, 3)
        with pytest.raises(DomainError, match="6-dimensional grid"):
            quadrature_K("w", H, 0.1, 0.2, 0.1, 3)

    def test_single_slice_q_builds_no_grid(self):
        # built an n x n disc and two passes for one closed-form factor, so 4000 points were refused
        H = harmonic_hamiltonian(CTX)
        tracemalloc.start()
        try:
            r = quadrature_K("q", H, 0.3, 0.5j, 0.2, 1, DiscGridSpec(points=4000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repr(r.value) == "(0.7932783966937673-0.20255722987492988j)"
        assert (r.refinement_delta, r.dims, r.points_per_plane) == (0.0, 0, 0)
        assert peak < 1e5

    def test_single_slice_q_overflow_is_a_domain_error(self):
        H = quartic_position_hamiltonian(1e300, CTX)
        with pytest.raises(DomainError, match="^the Q-form factor at N = 1 is not a finite double$"):
            quadrature_K("q", H, 0.3, -0.5j, 0.2, 1)

    @pytest.mark.parametrize("T", [0.0, 0.2])
    @pytest.mark.parametrize("form, N", [("q", 1), ("q", 2), ("q", 3), ("p", 1), ("p", 2), ("w", 2)])
    def test_value_is_a_python_complex(self, form, N, T):
        # the W form at T > 0 returned np.complex128
        r = quadrature_K(form, harmonic_hamiltonian(CTX), 0.3, 0.5j, T, N, DiscGridSpec(points=16))
        assert type(r.value) is complex

    @pytest.mark.parametrize("zp,zpp", [(0.3, 0.5), (0.4 + 0.1j, -0.2 + 0.5j)])
    @pytest.mark.parametrize("T", [0.2, 0.6])
    def test_harmonic_q3_within_its_delta(self, zp, zpp, T):
        r = quadrature_K("q", harmonic_hamiltonian(CTX), zp, zpp, T, 3)
        assert (r.dims, r.points_per_plane) == (4, 3940)
        assert abs(r.value - harmonic_discrete_K("q", zp, zpp, 1.0, T, 3)) < r.refinement_delta + 1e-7

    def test_quartic_q3_has_no_limit(self):
        H = quartic_position_hamiltonian(0.1, CTX)
        with pytest.raises(DomainError, match="N = 3 has no limit at degree 4"):
            quadrature_K("q", H, 0.4 + 0.1j, 0.2 - 0.3j, 0.3, 3)

    def test_quartic_q2_unchanged(self):
        # the direct N = 2 sum, pinned: the N = 3 contraction must leave it alone
        r = quadrature_K("q", quartic_position_hamiltonian(0.1, CTX), 0.4 + 0.1j, 0.2 - 0.3j, 0.3, 2)
        assert abs(r.value - (0.9588269510792411 - 0.062126275246921214j)) < 1e-13
        assert r.refinement_delta == pytest.approx(3.509940732130346e-10, rel=1e-6)
        assert (r.dims, r.points_per_plane) == (2, 3940)

    @pytest.mark.parametrize("form, N", [("q", 2), ("p", 1), ("w", 2)])
    def test_overflowing_pass_is_a_domain_error(self, form, N):
        # ended in an overflow RuntimeWarning, or NonConverged "moved the result by nan"
        H = quartic_position_hamiltonian(1e300, CTX)
        with pytest.raises(DomainError, match="^the quadrature on 48 points per axis is not a finite double$"):
            quadrature_K(form, H, 0.3, 0.5j, 0.2, N)

    def test_unconverged_grid_raises(self):
        H = harmonic_hamiltonian(CTX)
        with pytest.raises(NonConverged, match="refining 10 -> 15 points"):
            quadrature_K(
                "q", H, 0.4, 0.2, 0.2, 2,
                DiscGridSpec(points=10, tolerance=1e-12),
            )


def pairwise_quadrature(form, H, zp, zpp, T, grid):
    """Value and refinement delta with the pair kernel as one exp per pair.

    N = 3 for the Q form, N = 2 for the P and W forms: the reference the
    separable contraction in ``quadrature_K`` must reproduce.
    """
    sym = symbol_for_form(H, form)
    tau = T / (3 if form == "q" else 2)
    radius = RADIUS_WIDTHS * COHERENT_WIDTH

    def site(z):
        return np.exp(-1j * tau * sym.eval(z, np.conj(z)) / H.hbar)

    def q_factor(za, zb):
        return overlap(zb, za) * np.exp(-1j * tau * sym.eval(za, np.conj(zb)) / H.hbar)

    def once(n):
        offsets, area, *_ = _disc_points(radius, n)
        if form == "q":
            z1, z2 = [zp + (j / 3) * (zpp - zp) + offsets for j in (1, 2)]
            left = q_factor(zp, z1) * area / np.pi
            right = q_factor(z2, zpp) * area / np.pi
            return left @ q_factor(z1[:, None], z2[None, :]) @ right
        if form == "p":
            z0, z1 = [zp + (j / 3) * (zpp - zp) + offsets for j in (1, 2)]
            left = overlap(z0, zp) * site(z0) * area / np.pi
            right = overlap(zpp, z1) * site(z1) * area / np.pi
            return left @ overlap(z1[None, :], z0[:, None]) @ right
        w1, w2 = [zp + (k / 4) * (zpp - zp) + offsets for k in (1, 3)]
        zpp_star = np.conj(zpp)
        left = (
            site(w1)
            * np.exp(-2 * np.abs(w1) ** 2 - 2 * zpp_star * w1 + 2 * zp * np.conj(w1))
            * (2 * area / np.pi)
        )
        right = (
            site(w2)
            * np.exp(-2 * np.abs(w2) ** 2 + 2 * zpp_star * w2 - 2 * zp * np.conj(w2))
            * (2 * area / np.pi)
        )
        kernel = np.exp(4 * np.conj(w2[None, :]) * w1[:, None])
        return overlap(zpp, zp) * (left @ kernel @ right)

    coarse = once(grid.points)
    fine = once(int(round(grid.points * GRID_REFINE)))
    return fine, abs(fine - coarse)


class TestSeparableContraction:
    @pytest.mark.parametrize("form", ["p", "w"])
    @pytest.mark.parametrize("quartic", [False, True], ids=["harmonic", "quartic"])
    @pytest.mark.parametrize(
        "zp,zpp", [(0.3, 0.5), (0.4 + 0.1j, -0.2 + 0.5j)], ids=["on-axis", "off-axis"]
    )
    @pytest.mark.parametrize("points", [16, 24])
    def test_matches_pairwise_kernel(self, form, quartic, zp, zpp, points):
        H = quartic_position_hamiltonian(0.1, CTX) if quartic else harmonic_hamiltonian(CTX)
        grid = DiscGridSpec(points=points)
        r = quadrature_K(form, H, zp, zpp, 0.2, 2, grid)
        value, delta = pairwise_quadrature(form, H, zp, zpp, 0.2, grid)
        assert abs(r.value - value) < 1e-13
        assert abs(r.refinement_delta - delta) < 1e-13

    @pytest.mark.parametrize("H", [harmonic_hamiltonian(CTX), H_SQUEEZED], ids=["oscillator", "squeezed"])
    @pytest.mark.parametrize(
        "zp,zpp", [(0.3, 0.5), (0.4 + 0.1j, -0.2 + 0.5j)], ids=["on-axis", "off-axis"]
    )
    @pytest.mark.parametrize("points", [16, 24])
    def test_q3_matches_pairwise_kernel(self, H, zp, zpp, points):
        grid = DiscGridSpec(points=points)
        r = quadrature_K("q", H, zp, zpp, 0.3, 3, grid)
        value, delta = pairwise_quadrature("q", H, zp, zpp, 0.3, grid)
        assert abs(r.value - value) < 1e-13
        assert abs(r.refinement_delta - delta) < 1e-13


class TestConvergenceTable:
    def test_columns_and_values(self):
        rows = convergence_table(1.0, 2 * np.pi, 0.5, 0.3 + 0.4j, [10, 100])
        assert len(rows) == 6
        row = next(r for r in rows if r["N"] == 100 and r["form"] == "q")
        assert row["re_mu"] == pytest.approx(1.2177068, abs=1e-6)
        want = harmonic_discrete_K("q", 0.5, 0.3 + 0.4j, 1.0, 2 * np.pi, 100)
        assert row["re_K"] == pytest.approx(want.real, abs=1e-12)
        assert set(row) == {
            "N", "form", "re_K", "im_K", "abs_err_vs_oracle", "re_mu", "im_mu"
        }

    def test_odd_N_skips_w(self):
        rows = convergence_table(1.0, 1.0, 0.1, 0.2, [3])
        assert {r["form"] for r in rows} == {"q", "p"}

