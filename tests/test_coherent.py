import inspect
import math
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from weylpath import (
    DiscGridSpec,
    DiscreteWPath,
    FluctuationCoeffs,
    FockOracle,
    OperatorPoly,
    PhaseSpaceGrid,
    ScaleContext,
    SymbolPoly,
    convergence_table,
    det_continuum,
    displacement_element,
    exact_propagator,
    fock_coherent,
    harmonic_discrete_K,
    harmonic_exact_K,
    harmonic_hamiltonian,
    husimi_U_grid,
    mu_coefficients,
    normalize,
    operator_matrix,
    overlap,
    phase_grid_axes,
    quadrature_K,
    quartic_position_hamiltonian,
    semiclassical_K,
    smoothing_check,
    solve_bvp,
    stationary_path_harmonic,
    weyl_element,
    weyl_symbol,
    weyl_U_grid,
)
from weylpath import algebra, coherent, discrete, fluctuation, semiclassics, wigner
from weylpath.coherent import coherent_matrix
from weylpath.wigner import hermite_functions
from weylpath.errors import DomainError, InvalidArgument, NonConverged, WeylPathError, refine

CTX = ScaleContext.default()


def unity_grid(center: complex, radius: float, step: float):
    """Uniform grid over a disc with weights d2z / pi."""
    ax = np.arange(-radius, radius + step / 2, step)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    pts = center + (X + 1j * Y).ravel()
    return pts, step * step / np.pi


class TestOverlap:
    def test_normalisation(self):
        z = 0.7 - 0.4j
        assert overlap(z, z) == pytest.approx(1.0)

    def test_vacuum_against_unit_label(self):
        assert overlap(0.0, 1.0) == pytest.approx(np.exp(-0.5))

    @pytest.mark.parametrize(
        "z1, z2",
        [(1e200, 0.0), (0.0, 1e200j), (np.array([0.1, 1e200]), 0.2)],
        ids=["z1", "z2", "array"],
    )
    def test_huge_label_refused(self, z1, z2):
        # |z|^2 overflowed with RuntimeWarnings, and callers saw 0 or nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="coherent overlap exponent is not a finite double"):
                overlap(z1, z2)

    def test_finite_values_unchanged(self):
        rng = np.random.default_rng(11)
        z1 = rng.normal(size=50) + 1j * rng.normal(size=50)
        z2 = rng.normal(size=50) * 3 + 1j * rng.normal(size=50)
        want = np.exp(-0.5 * np.abs(z1) ** 2 + np.conj(z1) * z2 - 0.5 * np.abs(z2) ** 2)
        assert np.array_equal(overlap(z1, z2), want)
        assert overlap(complex(z1[0]), complex(z2[0])) == want[0]

    def test_matches_fock_inner_product(self):
        z1, z2 = 0.3 + 0.2j, -0.5j
        v1 = fock_coherent(z1, 60).amplitudes
        v2 = fock_coherent(z2, 60).amplitudes
        assert abs(np.vdot(v1, v2) - overlap(z1, z2)) < 1e-12

    def test_modulus_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z1 = rng.normal() + 1j * rng.normal()
            z2 = rng.normal() + 1j * rng.normal()
            want = np.exp(-abs(z1 - z2) ** 2)
            assert abs(abs(overlap(z1, z2)) ** 2 - want) < 1e-12


class TestFockCoherent:
    def test_vacuum(self):
        v = fock_coherent(0.0, 5)
        assert np.allclose(v.amplitudes, np.eye(6)[0])
        assert v.tail == 0.0

    def test_unit_label_amplitudes(self):
        amps = fock_coherent(1.0, 40).amplitudes[:3]
        want = np.exp(-0.5) * np.array([1.0, 1.0, 1.0 / np.sqrt(2.0)])
        assert np.allclose(amps, want)

    def test_inner_products_reproduce_overlap(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z1 = (rng.normal() + 1j * rng.normal()) * 0.9
            z2 = (rng.normal() + 1j * rng.normal()) * 0.9
            v1 = fock_coherent(z1, 60).amplitudes
            v2 = fock_coherent(z2, 60).amplitudes
            assert abs(np.vdot(v1, v2) - overlap(z1, z2)) < 1e-12

    def test_tail_too_large(self):
        with pytest.raises(DomainError, match="truncated tail mass"):
            fock_coherent(3.0, 8)

    def test_coherent_matrix_matches_columns(self):
        zs = np.array([0.2 + 0.1j, -0.4j, 0.8])
        cols = coherent_matrix(zs, 40)
        for i, z in enumerate(zs):
            assert np.allclose(cols[:, i], fock_coherent(z, 40).amplitudes)

    def test_large_labels_stay_finite(self):
        # |z| = 38 at cutoff 2000: exp(-|z|^2/2) is subnormal and the running
        # product z^n / sqrt(n!) would pass the largest double
        v = fock_coherent(38.0, 2000)
        cols = coherent_matrix([38.0, 38j * np.exp(0.3j), 0.0], 2000)
        assert np.all(np.isfinite(v.amplitudes)) and np.all(np.isfinite(cols))
        assert 0.0 <= v.tail < 1e-12
        assert np.allclose(np.sum(np.abs(cols) ** 2, axis=0), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(cols[:, 0], v.amplitudes, rtol=0, atol=1e-15)

    def test_amplitudes_against_mpmath(self):
        z = 38.0 * np.exp(0.7j)
        amps = fock_coherent(z, 2000).amplitudes
        with mpmath.workdps(40):
            mz = mpmath.mpc(z.real, z.imag)
            for n in (100, 1000, 1444, 1500, 2000):
                want = complex(
                    mpmath.exp(-abs(mz) ** 2 / 2) * mz**n / mpmath.sqrt(mpmath.factorial(n))
                )
                assert abs(amps[n] - want) <= 1e-11 * abs(want), n

    @pytest.mark.parametrize("cutoff", range(18))
    def test_phase_doubling_against_mpmath(self, cutoff):
        # the phase (z/|z|)^n is built by doubling (rows k+1..2k are rows 1..k times row k), not
        # by a running product: cutoffs 0-17 meet every power of two up to 16 and both its
        # neighbours.  Labels at the tail limit (tail mass 5e-13) on and off the axes, a smaller
        # one and the zero label match e^{-|z|^2/2} z^n / sqrt(n!) within 1e-14 relative, and a
        # label past the limit (tail mass 2e-12) is refused as before
        with mpmath.workdps(40):
            def radius(tail):  # |z| whose truncated Poisson tail mass is ``tail``, by bisection
                lo, hi = mpmath.mpf(0), mpmath.mpf(60)
                for _ in range(200):
                    x = (lo + hi) / 2
                    mass = 1 - mpmath.exp(-x) * sum(x**n / mpmath.factorial(n) for n in range(cutoff + 1))
                    lo, hi = (x, hi) if mass < tail else (lo, x)
                return float(mpmath.sqrt(lo))

            r = radius(mpmath.mpf("5e-13"))
            zs = r * np.exp(1j * np.array([0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi, 0.7, 2.3, -2.9]))
            zs = np.append(zs, [0.3 * r * np.exp(1.1j), 0.0])
            cols = coherent_matrix(zs, cutoff)
            for z, col in zip(zs, cols.T):
                mz = mpmath.mpc(z.real, z.imag)
                want = np.array([complex(mpmath.exp(-abs(mz) ** 2 / 2) * mz**n
                                         / mpmath.sqrt(mpmath.factorial(n))) for n in range(cutoff + 1)])
                assert np.all(np.abs(col - want) <= 1e-14 * np.abs(want)), z
            past = radius(mpmath.mpf("2e-12"))
        with pytest.raises(DomainError, match="truncated tail mass"):
            coherent_matrix(past * np.exp(0.7j), cutoff)

    def test_default_axes_still_need_cutoff_51(self):
        # the tail-refusal boundary: the corner label of the default +-4-width axes has
        # |z|^2 = 16, so both grids refuse cutoff 50 and take 51
        qs, ps = phase_grid_axes(CTX, nq=2, npts=2)
        H = harmonic_hamiltonian(CTX)
        for grid in (husimi_U_grid, weyl_U_grid):
            with pytest.raises(DomainError, match="truncated tail mass .* at cutoff 50;"):
                grid(H, CTX, 0.5, qs, ps, cutoff=50)
            assert np.all(np.isfinite(grid(H, CTX, 0.5, qs, ps, cutoff=51).values))

    def test_non_finite_label_rejected(self):
        with pytest.raises(ValueError):
            fock_coherent(complex("nan"), 10)
        with pytest.raises(ValueError):
            coherent_matrix([0.1, np.inf], 10)

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: coherent_matrix(1e200, 10),
            lambda: coherent_matrix([0.1, 1.5e308 + 1.5e308j], 10),
            lambda: exact_propagator(harmonic_hamiltonian(CTX), 1e200, 0.1, 0.5),
            lambda: husimi_U_grid(harmonic_hamiltonian(CTX), CTX, 0.5, [0.0, 1e200], [0.0]),
            lambda: weyl_U_grid(harmonic_hamiltonian(CTX), CTX, 0.5, [1e200], [0.0], cutoff=60),
        ],
        ids=["coherent_matrix", "modulus-overflow", "exact_propagator", "husimi_U_grid",
             "weyl_U_grid"],
    )
    def test_label_beyond_double_range_is_a_domain_error(self, compute):
        # |z|^2/2 overflowed with a RuntimeWarning and was refused as a short cutoff; a label
        # whose modulus overflowed was refused as not finite
        with pytest.raises(DomainError, match=r"^\|z\|\^2/2 of a coherent label is not a finite double$"):
            compute()


class TestOperatorMatrix:
    def test_number_operator(self):
        M = operator_matrix(OperatorPoly({(1, 1): 1.0}), 6)
        assert np.allclose(M, np.diag(np.arange(7.0)))

    def test_harmonic_diagonal(self):
        M = operator_matrix(harmonic_hamiltonian(CTX), 6)
        assert np.allclose(M, np.diag(np.arange(7.0) + 0.5))

    def test_quartic_ground_state(self):
        # lowest eigenvalue of p^2/2 + x^2/2 + x^4; oracle is the same
        # diagonalisation at a much larger cutoff
        H = quartic_position_hamiltonian(1.0, CTX)
        e80 = np.linalg.eigvalsh(operator_matrix(H, 80))[0]
        e200 = np.linalg.eigvalsh(operator_matrix(H, 200))[0]
        assert abs(e80 - e200) < 1e-8
        assert e200 == pytest.approx(0.8038, abs=2e-4)

    def test_hermitian_input_hermitian_matrix(self):
        rng = np.random.default_rng(21)
        terms = {(2, 1): 0.3 + 0.4j, (1, 2): 0.3 - 0.4j, (3, 3): 1.1}
        M = operator_matrix(OperatorPoly(terms), 25)
        assert np.max(np.abs(M - M.conj().T)) < 1e-13

    def test_cutoff_below_degree_rejected(self):
        with pytest.raises(ValueError):
            operator_matrix(OperatorPoly({(3, 1): 1.0}), 2)


class TestExactPropagator:
    def test_zero_time_is_overlap(self):
        z1, z2 = 0.4 + 0.3j, -0.2 + 0.1j
        K = exact_propagator(harmonic_hamiltonian(CTX), z1, z2, 0.0, cutoff=40)
        assert abs(K - overlap(z2, z1)) < 1e-13

    @pytest.mark.parametrize("T", [0.3, 1.7, 5.9])
    def test_harmonic_closed_form(self, T):
        z1, z2 = 0.4 + 0.3j, -0.2 + 0.1j
        K = exact_propagator(harmonic_hamiltonian(CTX), z1, z2, T, cutoff=60)
        assert abs(K - harmonic_exact_K(z1, z2, 1.0, T)) < 1e-12

    def test_requires_hermitian(self):
        with pytest.raises(ValueError):
            FockOracle(OperatorPoly({(2, 0): 1.0}), 10)

    def test_cutoff_doubling_guard(self):
        # a visibly unconverged configuration must be reported, not returned
        H = quartic_position_hamiltonian(1.0, CTX)
        with pytest.raises(NonConverged, match="doubling the cutoff 14 -> 28"):
            exact_propagator(H, 0.9, 0.9, 2.0, cutoff=14, check_tolerance=1e-12)

    def test_cache_keeps_the_most_recently_used(self):
        # one oracle read between 70 other builds is never rebuilt; the oldest unread one is
        H = OperatorPoly({(1, 1): 1.0})
        first = coherent._cached_oracle(H, 4)
        oldest = coherent._cached_oracle(OperatorPoly({(1, 1): 2.0}), 4)
        for k in range(70):
            coherent._cached_oracle(OperatorPoly({(1, 1): 3.0 + k}), 4)
            assert coherent._oracle.cache_info().currsize <= 64
            assert coherent._cached_oracle(H, 4) is first
        assert coherent._cached_oracle(OperatorPoly({(1, 1): 2.0}), 4) is not oldest

    def test_cache_under_concurrent_callers(self):
        # more threads than cores, each building distinct oracles past the
        # 64-entry limit, with a short switch interval to interleave them
        def worker(offset, got):
            for k in range(20):
                H = OperatorPoly({(1, 1): 1.0 + 1e-3 * (offset + 8 * k)})
                blocks = coherent._cached_oracle(H, 4).blocks
                got.append(np.sort(np.concatenate([w for _, w, _ in blocks]))[1])  # the level spacing

        results = [[] for _ in range(8)]
        threads = [threading.Thread(target=worker, args=(i, results[i])) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, got in enumerate(results):
            want = [1.0 + 1e-3 * (i + 8 * k) for k in range(20)]
            assert got == pytest.approx(want, abs=1e-12)

    def test_unitarity_by_resolution_of_unity(self):
        H = quartic_position_hamiltonian(0.2, CTX)
        oracle = FockOracle(H, 130)
        z1 = 0.5 + 0.2j
        # anharmonic evolution spreads the state; the disc radius sets the
        # quadrature tolerance here
        pts, wt = unity_grid(0.0, 5.5, 0.08)
        K = oracle.propagator(z1, pts, 0.8)
        mass = np.sum(np.abs(K) ** 2) * wt
        assert mass == pytest.approx(1.0, abs=2e-4)

    def test_semigroup_under_unity_insertion(self):
        H = harmonic_hamiltonian(CTX)
        oracle = FockOracle(H, 110)
        z1, z2 = 0.4, 0.3 - 0.2j
        T1, T2 = 0.6, 0.9
        pts, wt = unity_grid(0.0, 4.5, 0.09)
        left = oracle.propagator(z1, pts, T1)
        # second leg via unitarity: <z2|U(T2)|z> = conj(<z|U(-T2)|z2>)
        right = np.conj(oracle.propagator(z2, pts, -T2))
        composed = np.sum(right * left) * wt
        want = oracle.propagator(z1, z2, T1 + T2)
        assert abs(composed - want) < 1e-6


class TestDisplacementElement:
    def test_zero_displacement_is_overlap(self):
        z1, z2 = 0.3 - 0.7j, 0.1 + 0.2j
        got = displacement_element(0.0, 0.0, z1, z2, CTX)
        assert abs(got - overlap(z2, z1)) < 1e-14

    def test_against_fock_exponential(self):
        cut = 60
        a = np.diag(np.sqrt(np.arange(1.0, cut + 1)), k=1)
        rng = np.random.default_rng(31)
        for _ in range(6):
            q, p = 1.5 * rng.normal(size=2) / np.sqrt(2)
            z1 = (rng.normal() + 1j * rng.normal()) * 0.7
            z2 = (rng.normal() + 1j * rng.normal()) * 0.7
            zl = CTX.z_from_qp(q, p)
            D = expm(zl * a.conj().T - np.conj(zl) * a)
            v1 = fock_coherent(z1, cut).amplitudes
            v2 = fock_coherent(z2, cut).amplitudes
            want = np.vdot(v2, D @ v1)
            got = displacement_element(q, p, z1, z2, CTX)
            assert abs(got - want) < 1e-10

    def test_composition_with_inverse_via_unity(self):
        # T(-xi) T(xi) = 1: insert the coherent resolution of unity between them
        q, p = 0.35, -0.2
        z1, z2 = 0.2 + 0.1j, -0.3j
        pts, wt = unity_grid(0.0, 4.5, 0.09)
        first = displacement_element(q, p, z1, pts, CTX)
        second = displacement_element(-q, -p, pts, z2, CTX)
        assert first.shape == second.shape == pts.shape
        composed = np.sum(second * first) * wt
        assert abs(composed - overlap(z2, z1)) < 1e-8


def midpoint_integral(A_W: SymbolPoly, z1: complex, z2: complex, nodes: int = 256) -> complex:
    """The paper's <z2|A|z1> = 2 int (dw dw*/2 pi i) A_W(w, w*) exp(-2|w|^2 + 2 conj(z2) w
    + 2 z1 w* - |z2|^2/2 - |z1|^2/2 - conj(z2) z1) as a tensor Gauss-Hermite sum.

    Completing the square centres the Gaussian at complex points; the shifted contour is
    legitimate because the integrand is entire in w = x + iy, with w* continued as x - iy."""
    t, wts = np.polynomial.hermite.hermgauss(nodes)
    x = 0.5 * (np.conj(z2) + z1) + t / math.sqrt(2.0)
    y = 0.5j * (np.conj(z2) - z1) + t / math.sqrt(2.0)
    u, v = x[:, None] + 1j * y[None, :], x[:, None] - 1j * y[None, :]
    return complex(wts @ A_W.eval(u, v) @ wts / math.pi * overlap(z2, z1))


class TestWeylElement:
    def test_overflowing_pass_is_a_domain_error(self):
        # ended in an overflow RuntimeWarning, or NonConverged "moved the result by nan"; the
        # ordering map names the first coefficient of A_Q beyond the double range
        message = r"^term \(40, 40\): the coefficient of v\^36 u\^36 is not a finite double$"
        with pytest.raises(DomainError, match=message):
            weyl_element(SymbolPoly({(40, 40): 1e300}), 0.3, 0.2)

    @pytest.mark.parametrize("z1, z2", [(0.3, 0.2j), (0.5 - 0.2j, -0.1 + 0.4j), (-0.7 + 0.1j, 0.2 - 0.6j)])
    def test_the_midpoint_integral(self, z1, z2):
        # A_Q(z1, conj z2) <z2|z1> is the paper's integral, at degrees the 64- and 128-node sums
        # could not agree on within their absolute tolerance: v^40 u^40 at (0.3, 0.2j), of size
        # 3e36, raised NonConverged ("moved the result by 1.158e+22"), and so did each monomial
        # here at each label.  A monomial far from balanced is left out: its integrand cancels
        # beyond the 256-node sum's own precision.
        quartic = weyl_symbol(quartic_position_hamiltonian(1.0, CTX))
        for A_W in (SymbolPoly({(40, 40): 1.0}), SymbolPoly({(25, 20): 1.0}),
                    SymbolPoly({(30, 33): 1.0}), quartic):
            want = midpoint_integral(A_W, z1, z2)
            assert abs(weyl_element(A_W, z1, z2) - want) <= 1e-12 * abs(want), A_W

    def test_identity_symbol_gives_overlap(self):
        z1, z2 = 0.3 + 0.1j, -0.2 + 0.4j
        got = weyl_element(SymbolPoly({(0, 0): 1.0}), z1, z2)
        assert abs(got - overlap(z2, z1)) < 1e-13

    def test_number_operator_element(self):
        z1, z2 = 0.3 + 0.1j, -0.2 + 0.4j
        num = OperatorPoly({(1, 1): 1.0})
        M = operator_matrix(num, 60)
        v1 = fock_coherent(z1, 60).amplitudes
        v2 = fock_coherent(z2, 60).amplitudes
        got = weyl_element(weyl_symbol(num), z1, z2)
        assert abs(got - np.vdot(v2, M @ v1)) < 1e-8

    def test_quartic_element(self):
        z1, z2 = 0.6 - 0.3j, 0.2 + 0.5j
        H = quartic_position_hamiltonian(1.0, CTX)
        M = operator_matrix(H, 80)
        v1 = fock_coherent(z1, 80).amplitudes
        v2 = fock_coherent(z2, 80).amplitudes
        got = weyl_element(weyl_symbol(H), z1, z2)
        assert abs(got - np.vdot(v2, M @ v1)) < 1e-6

    def test_all_monomials_to_degree_four(self):
        # numerically embodies the reflection-basis expansion of operators
        z1, z2 = 0.4 + 0.2j, -0.1 + 0.3j
        for m in range(5):
            for n in range(5 - m):
                op = OperatorPoly({(m, n): 1.0})
                M = operator_matrix(op, 60)
                v1 = fock_coherent(z1, 60).amplitudes
                v2 = fock_coherent(z2, 60).amplitudes
                got = weyl_element(weyl_symbol(op), z1, z2)
                assert abs(got - np.vdot(v2, M @ v1)) < 1e-9, (m, n)


NAN = float("nan")
AXES = phase_grid_axes(CTX, nq=8, npts=8)
H_QUARTIC = quartic_position_hamiltonian(0.1, CTX)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, NAN, cutoff=40),
         ValueError, "T must be finite"),
        (lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, math.inf, cutoff=40),
         ValueError, "T must be finite"),
        (lambda: weyl_element(weyl_symbol(H_QUARTIC), NAN, 0.2),
         ValueError, "z1 must be finite"),
        (lambda: quadrature_K("p", H_QUARTIC, 0.3, 0.2, NAN, 2),
         ValueError, "T must be finite"),
        (lambda: quadrature_K("q", H_QUARTIC, 0.3, 0.2, NAN, 1),
         ValueError, "T must be finite"),
        (lambda: harmonic_exact_K(0.3, 0.2, 1.0, NAN), ValueError, "T must be finite"),
        (lambda: harmonic_discrete_K("w", 0.3, 0.2, 1.0, NAN, 2),
         ValueError, "T must be finite"),
        (lambda: harmonic_exact_K(NAN, 0.2, 1.0, 0.2), ValueError, "z1 must be finite"),
        (lambda: harmonic_discrete_K("w", NAN, 0.2, 1.0, 0.2, 2),
         ValueError, "zp must be finite"),
        (lambda: DiscreteWPath(w=np.zeros(2), tau=NAN, zp=0.3, zpp=0.2),
         ValueError, "^tau must be positive, got nan$"),
        (lambda: stationary_path_harmonic(0.3, 0.2, 1.0, NAN, 4),
         ValueError, "T must be finite"),
        (lambda: mu_coefficients(1.0, math.inf, 4), ValueError, "T must be finite"),
        (lambda: solve_bvp(weyl_symbol(H_QUARTIC), 0.3, 0.2, NAN),
         ValueError, "^T must be finite, got nan$"),
        (lambda: semiclassical_K("w", H_QUARTIC, 0.3, 0.2, NAN),
         ValueError, "T must be finite"),
        (lambda: det_continuum(lambda t: 0.0, lambda t: 0.0, lambda t: 1.0, NAN),
         ValueError, "T must be finite"),
        (lambda: weyl_U_grid(H_QUARTIC, CTX, NAN, *AXES, cutoff=60),
         ValueError, "T must be finite"),
        (lambda: husimi_U_grid(H_QUARTIC, CTX, NAN, *AXES, cutoff=60),
         ValueError, "T must be finite"),
        (lambda: weyl_U_grid(H_QUARTIC, CTX, 1.0, [0.0, math.inf], [0.0, 1.0], cutoff=60),
         ValueError, "qs must be finite"),
        (lambda: husimi_U_grid(H_QUARTIC, CTX, 1.0, [0.0, math.inf], [0.0, 1.0], cutoff=60),
         ValueError, "qs must be finite"),
        (lambda: semiclassical_K("w", H_QUARTIC, NAN, 0.2, 0.5),
         ValueError, "zp must be finite"),
        (lambda: semiclassical_K("w", H_QUARTIC, 0.3, complex(0.2, math.inf), 0.0),
         ValueError, "zpp must be finite"),
        (lambda: solve_bvp(weyl_symbol(H_QUARTIC), 0.3, 0.2, 0.5, tol=NAN),
         ValueError, "^tol must be positive, got nan$"),
        (lambda: FluctuationCoeffs(A=[0.1], B=[0.2], C=[0.3], tau=NAN),
         ValueError, "^tau must be positive, got nan$"),
        (lambda: FluctuationCoeffs(A=[0.1, NAN], B=[0.2, 0.2], C=[0.3, 0.3], tau=0.1),
         ValueError, "A must be finite"),
        (lambda: OperatorPoly({(1, 1): 1.0}, hbar=math.inf),
         ValueError, "^hbar must be positive, got inf$"),
        (lambda: OperatorPoly({(1, 1): 1.0}, hbar=NAN),
         ValueError, "^hbar must be positive, got nan$"),
        (lambda: ScaleContext(hbar=NAN), ValueError, "^hbar must be positive, got nan$"),
        (lambda: ScaleContext(b=math.inf), ValueError, "^b must be positive, got inf$"),
        (lambda: ScaleContext(hbar=1e-300, b=1e100), ValueError,
         "^c must be positive, got 0.0$"),  # c = hbar / b underflows
        (lambda: ScaleContext.default(mass=1e-320, omega=1e-320), ValueError,
         "^b must be positive, got inf$"),  # m omega underflows, and b = 1e320 is beyond range
        (lambda: det_continuum(lambda t: 0.0, lambda t: 0.0, lambda t: 1.0, 1.0, hbar=math.inf),
         InvalidArgument, "^hbar must be positive, got inf$"),  # returned exactly 1+0j
        (lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, "0.5", cutoff=40),
         InvalidArgument, "^T must be a number, got '0.5'$"),
        (lambda: harmonic_exact_K(0.3, 0.2, 1.0, None),
         InvalidArgument, "^T must be a number, got None$"),
        (lambda: semiclassical_K("w", H_QUARTIC, 0.3, 0.2, 10**400),
         InvalidArgument, "^T must be a number, got 1000"),
        (lambda: ScaleContext(hbar="1.0"), InvalidArgument, "^hbar must be positive, got '1.0'$"),
        (lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, 0.5, cutoff=40, check_tolerance=NAN),
         InvalidArgument, "^check_tolerance must be positive, got nan$"),
        (lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, 0.5, cutoff=40, check_tolerance=-1.0),
         InvalidArgument, "^check_tolerance must be positive, got -1.0$"),
        (lambda: DiscGridSpec(tolerance=NAN), InvalidArgument, "^tolerance must be positive, got nan$"),
        (lambda: DiscGridSpec(tolerance=-1.0),
         InvalidArgument, "^tolerance must be positive, got -1.0$"),
        (lambda: phase_grid_axes(CTX, q_widths=-1.0),
         InvalidArgument, "^q_widths must be positive, got -1.0$"),
        (lambda: phase_grid_axes(CTX, p_widths=math.inf),
         InvalidArgument, "^p_widths must be positive, got inf$"),
        (lambda: weyl_U_grid(H_QUARTIC, CTX, 1.0, [], [0.0, 1.0], cutoff=60),
         InvalidArgument, "^qs and ps must not be empty, got 0 and 2 values$"),
        (lambda: husimi_U_grid(H_QUARTIC, CTX, 1.0, [0.0, 1.0], [], cutoff=60),
         InvalidArgument, "^qs and ps must not be empty, got 2 and 0 values$"),
        (lambda: solve_bvp(weyl_symbol(H_QUARTIC), 0.3, 0.2, 0.5, guess=NAN),
         InvalidArgument, "^guess must be finite, got nan$"),  # counted as a failed shooting
        (lambda: semiclassical_K("w", H_QUARTIC, 0.3, 0.2, 0.5, guesses=[None, math.inf]),
         InvalidArgument, "^guess must be finite, got inf$"),  # a RuntimeWarning in the matmul
        (lambda: DiscreteWPath(w=np.zeros(2), tau=0.1, zp=0.3, zpp=0.2, hbar=0.0),
         InvalidArgument, "^hbar must be positive, got 0.0$"),  # phi_N divided by it
        (lambda: fock_coherent("x", 10),
         InvalidArgument, "^coherent labels must be a number, got 'x'$"),  # numpy's ValueError
        (lambda: weyl_U_grid(H_QUARTIC, CTX, 1.0, ["a"], [0.0], cutoff=60),
         InvalidArgument, r"^qs must be a number, got \['a'\]$"),
        (lambda: husimi_U_grid(H_QUARTIC, CTX, 1.0, [0.0, 1.0], [[0.0, 1.0], [0.5, 0.2]]),
         InvalidArgument, r"^qs and ps must be 1-D axes, got shapes \(2,\) and \(2, 2\)$"),
        (lambda: husimi_U_grid(H_QUARTIC, CTX, 1.0, [[0.0, 1.0], [0.5]], [0.0, 1.0]),
         InvalidArgument, r"^qs must be a number, got \[\[0.0, 1.0\], \[0.5\]\]$"),  # ragged
        (lambda: husimi_U_grid(H_QUARTIC, CTX, 1.0, [1j], [0.0]),
         InvalidArgument, r"^qs must be real, got \[1j\]$"),  # a TypeError from numpy's float()
        (lambda: weyl_U_grid(H_QUARTIC, CTX, 1.0, [0.0], [0.5, 1 + 1j], cutoff=60),
         InvalidArgument, r"^ps must be real, got \[0.5, \(1\+1j\)\]$"),
        (lambda: mu_coefficients(NAN, 0.5, 4),
         InvalidArgument, "^omega must be finite, got nan$"),  # a DomainError from mu
        (lambda: harmonic_discrete_K("w", 0.1, 0.2, "x", 1.0, 2),
         InvalidArgument, "^omega must be a number, got 'x'$"),  # a bare TypeError
        (lambda: quadrature_K("w", H_QUARTIC, NAN, 0.2, 1.0, 2),
         InvalidArgument, "^zp must be finite, got nan$"),  # a DomainError from overlap
        (lambda: quadrature_K("p", H_QUARTIC, 0.3, complex(0.2, math.inf), 1.0, 1),
         InvalidArgument, r"^zpp must be finite, got \(0.2\+infj\)$"),
        (lambda: hermite_functions([0.0, NAN], 3, 1.0),
         InvalidArgument, r"^xs must be finite, got \[0.0, nan\]$"),  # a NaN table
        (lambda: hermite_functions([0.0, 0.5], 3, 0),
         InvalidArgument, "^b must be positive, got 0$"),  # a bare ZeroDivisionError
        (lambda: hermite_functions([0.0, 0.5], 3, NAN),
         InvalidArgument, "^b must be positive, got nan$"),  # a NaN table
        (lambda: smoothing_check(None, None, CTX, margin_sigmas=NAN),
         InvalidArgument, "^margin_sigmas must be positive, got nan$"),  # numpy's ValueError
        (lambda: smoothing_check(None, None, CTX, margin_sigmas=-1.0),
         InvalidArgument, "^margin_sigmas must be positive, got -1.0$"),  # returned a number
        (lambda: displacement_element(NAN, 0.0, 0.3, 0.2, CTX),
         InvalidArgument, "^q must be finite, got nan$"),  # returned nan+nanj
        (lambda: displacement_element(0.1, 0.0, 0.3, [0.2, math.inf], CTX),
         InvalidArgument, r"^z2 must be finite, got \[0.2, inf\]$"),
        (lambda: DiscreteWPath(w=np.zeros(2), tau=0.1, zp=NAN, zpp=0.2),
         InvalidArgument, "^zp must be finite, got nan$"),  # "phi_N is not a finite double" later
        (lambda: DiscreteWPath(w=np.zeros(2), tau=0.1, zp=0.3, zpp=complex(0.2, math.inf)),
         InvalidArgument, r"^zpp must be finite, got \(0.2\+infj\)$"),
    ],
    ids=["exact-nan", "exact-inf", "weyl_element", "quadrature_K", "quadrature_K-q1",
         "harmonic_exact_K", "harmonic_discrete_K", "harmonic_exact_K-label",
         "harmonic_discrete_K-label", "DiscreteWPath-tau", "stationary_path_harmonic",
         "mu_coefficients", "solve_bvp",
         "semiclassical_K", "det_continuum", "weyl_U_grid", "husimi_U_grid",
         "weyl_U_grid-axis", "husimi_U_grid-axis",
         "semiclassical_K-zp", "semiclassical_K-zpp-at-T0", "solve_bvp-tol",
         "FluctuationCoeffs-tau", "FluctuationCoeffs-coefficient", "OperatorPoly-hbar-inf",
         "OperatorPoly-hbar-nan", "ScaleContext-hbar-nan", "ScaleContext-b-inf",
         "ScaleContext-c-underflow", "ScaleContext-default-underflow", "det_continuum-hbar-inf",
         "exact_propagator-T-string", "harmonic_exact_K-T-None", "semiclassical_K-T-huge-int",
         "ScaleContext-hbar-string", "exact_propagator-check_tolerance-nan",
         "exact_propagator-check_tolerance-negative", "DiscGridSpec-tolerance-nan",
         "DiscGridSpec-tolerance-negative", "phase_grid_axes-q_widths", "phase_grid_axes-p_widths",
         "weyl_U_grid-empty-axis", "husimi_U_grid-empty-axis", "solve_bvp-guess",
         "semiclassical_K-guess", "DiscreteWPath-hbar", "fock_coherent-label-string",
         "weyl_U_grid-axis-string", "husimi_U_grid-axis-2d", "husimi_U_grid-axis-ragged",
         "husimi_U_grid-axis-complex", "weyl_U_grid-axis-complex", "mu_coefficients-omega-nan",
         "harmonic_discrete_K-omega-string", "quadrature_K-zp-nan", "quadrature_K-zpp-inf",
         "hermite_functions-xs-nan", "hermite_functions-b-zero", "hermite_functions-b-nan",
         "smoothing_check-margin-nan", "smoothing_check-margin-negative",
         "displacement_element-q-nan", "displacement_element-z2-inf", "DiscreteWPath-zp-nan",
         "DiscreteWPath-zpp-inf"],
)
def test_non_finite_input_raises(call, error, message):
    """A non-finite or non-numeric T, label, axis, scale, width or tolerance (and a width or
    tolerance below zero) raises InvalidArgument naming it, instead of returning NaN or
    failing later."""
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "value", [8.0, True, np.True_, None], ids=["float", "bool", "numpy-bool", "below-least"]
)
@pytest.mark.parametrize(
    "call, name, least",
    [
        (lambda x: fock_coherent(0.3, x), "cutoff", 0),
        (lambda x: coherent_matrix([0.3, 0.1j], x), "cutoff", 0),
        (lambda x: operator_matrix(H_QUARTIC, x), "cutoff", 4),
        (lambda x: FockOracle(H_QUARTIC, x), "cutoff", 0),
        (lambda x: exact_propagator(H_QUARTIC, 0.3, 0.2, 0.5, cutoff=x), "cutoff", 0),
        (lambda x: weyl_U_grid(H_QUARTIC, CTX, 0.5, *AXES, cutoff=x), "cutoff", 0),
        (lambda x: husimi_U_grid(H_QUARTIC, CTX, 0.5, *AXES, cutoff=x), "cutoff", 0),
        (lambda x: mu_coefficients(1.0, 0.5, x), "N", 1),
        (lambda x: harmonic_discrete_K("q", 0.3, 0.2, 1.0, 0.5, x), "N", 1),
        (lambda x: convergence_table(1.0, 0.5, 0.3, 0.2, [x]), "N", 1),
        (lambda x: stationary_path_harmonic(0.3, 0.2, 1.0, 0.5, x), "N", 2),
        (lambda x: quadrature_K("p", H_QUARTIC, 0.3, 0.2, 0.5, x), "N", 1),
        (lambda x: DiscGridSpec(points=x), "points", 2),
        (lambda x: phase_grid_axes(CTX, nq=x), "nq", 1),
        (lambda x: phase_grid_axes(CTX, npts=x), "npts", 1),
        (lambda x: hermite_functions([0.0, 0.5], x, 1.0), "nmax", 0),
    ],
    ids=["fock_coherent", "coherent_matrix", "operator_matrix", "FockOracle", "exact_propagator",
         "weyl_U_grid", "husimi_U_grid", "mu_coefficients", "harmonic_discrete_K",
         "convergence_table", "stationary_path_harmonic", "quadrature_K", "DiscGridSpec",
         "phase_grid_axes-nq", "phase_grid_axes-npts", "hermite_functions"],
)
def test_counts_must_be_integers(call, name, least, value):
    """A float, a boolean or a count below its least value is refused with one message that
    names the count: a float ended in a TypeError, a boolean mostly ran as 1, and each lower
    bound had its own wording (quadrature_K's N = 0 was a DomainError)."""
    if value is None:
        value, wording = least - 1, f"at least {least}, got {least - 1}"
    else:
        wording = "an integer, got 8.0" if value == 8.0 else "a number, not the boolean True"
    with pytest.raises(InvalidArgument, match=f"^{name} must be {wording}$"):
        call(value)


SIZE_PARAMETERS = ("cutoff", "steps", "N", "N_list", "nq", "npts", "nmax", "points")
# Every public entry point with an integer size, as (module, name, parameter), called with that
# size alone.  The records hold the size a call used and check nothing; the closed forms build
# nothing of size N and return their N -> infinity limit at any N a double holds.
SIZED_CALLS = {
    ("coherent", "fock_coherent", "cutoff"): lambda x: fock_coherent(0.3, x),
    ("coherent", "operator_matrix", "cutoff"): lambda x: operator_matrix(H_QUARTIC, x),
    ("coherent", "FockOracle", "cutoff"): lambda x: FockOracle(H_QUARTIC, x),
    ("coherent", "exact_propagator", "cutoff"):
        lambda x: exact_propagator(H_QUARTIC, 0.3, 0.2, 0.5, cutoff=x),
    ("discrete", "stationary_path_harmonic", "N"):
        lambda x: stationary_path_harmonic(0.3, 0.2, 1.0, 0.5, x),
    ("discrete", "harmonic_discrete_K", "N"): lambda x: harmonic_discrete_K("p", 0.3, 0.2, 1.0, 0.5, x),
    ("discrete", "mu_coefficients", "N"): lambda x: mu_coefficients(1.0, 0.5, x),
    ("discrete", "DiscGridSpec", "points"):
        lambda x: quadrature_K("p", H_QUARTIC, 0.3, 0.2, 0.5, 1, DiscGridSpec(points=x)),
    ("discrete", "quadrature_K", "N"): lambda x: quadrature_K("p", H_QUARTIC, 0.3, 0.2, 0.5, x),
    ("discrete", "convergence_table", "N_list"):
        lambda x: [row["re_K"] + 1j * row["im_K"] for row in convergence_table(1.0, 0.5, 0.3, 0.2, [x])],
    ("fluctuation", "det_continuum", "steps"):
        lambda x: det_continuum(lambda t: 0.0, lambda t: 0.0, lambda t: 1.0, 0.5, steps=x),
    ("semiclassics", "solve_bvp", "steps"):
        lambda x: solve_bvp(weyl_symbol(H_QUARTIC), 0.3, 0.2, 0.5, steps=x),
    ("semiclassics", "semiclassical_K", "steps"):
        lambda x: semiclassical_K("w", H_QUARTIC, 0.3, 0.2, 0.5, steps=x),
    ("wigner", "phase_grid_axes", "nq"): lambda x: phase_grid_axes(CTX, nq=x),
    ("wigner", "phase_grid_axes", "npts"): lambda x: phase_grid_axes(CTX, npts=x),
    ("wigner", "hermite_functions", "nmax"): lambda x: hermite_functions([0.0, 0.5], x, 1.0),
    ("wigner", "weyl_U_grid", "cutoff"): lambda x: weyl_U_grid(H_QUARTIC, CTX, 0.5, *AXES, cutoff=x),
    ("wigner", "husimi_U_grid", "cutoff"):
        lambda x: husimi_U_grid(H_QUARTIC, CTX, 0.5, *AXES, cutoff=x),
}
SIZED_RECORDS = {("coherent", "FockVector", "cutoff"), ("semiclassics", "SemiclassicalResult", "steps")}
CLOSED_FORMS = {"mu_coefficients", "harmonic_discrete_K", "convergence_table"}


def test_sized_calls_cover_every_public_size():
    """A new integer size in any module's __all__ must join SIZED_CALLS or SIZED_RECORDS."""
    found = set()
    for module in (algebra, coherent, discrete, fluctuation, semiclassics, wigner):
        for name in module.__all__:
            params = inspect.signature(getattr(module, name)).parameters
            found |= {(module.__name__.split(".")[-1], name, p) for p in params if p in SIZE_PARAMETERS}
    assert found == set(SIZED_CALLS) | SIZED_RECORDS


@pytest.mark.parametrize("size", [10**400, 10**200, 10**20], ids=["beyond-double", "1e200", "1e20"])
@pytest.mark.parametrize("key", list(SIZED_CALLS), ids=["-".join(key[1:]) for key in SIZED_CALLS])
def test_huge_sizes_refused(key, size):
    """A size beyond the double range is refused as not a number (an OverflowError or numpy's
    ValueError before), and a size a double holds but no array can is refused by DENSE_BYTES
    before anything is built (numpy's ValueError in five places, an OverflowError in the
    refusal's own message in two); a closed form returns its finite limit."""
    call = SIZED_CALLS[key]
    if size > 1e308:
        name = "N" if key[2] == "N_list" else key[2]
        with pytest.raises(InvalidArgument, match=f"^{name} must be a number, got 1000"):
            call(size)
    elif key[1] in CLOSED_FORMS:
        assert np.isfinite(call(size)).all()
    else:
        with pytest.raises(WeylPathError):
            call(size)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, NAN, cutoff=600), "T must be finite"),
        (lambda: harmonic_exact_K(0.1, 0.2, NAN, 1.0), "omega must be finite"),
        (lambda: harmonic_exact_K(0.1, 0.2, True, 1.0), "omega must be a number"),
        (lambda: stationary_path_harmonic(0.1, 0.2, NAN, 1.0, 2), "omega must be finite"),
        (lambda: DiscreteWPath(np.ones(2), True, 0.1, 0.2), "tau must be a number"),
        (lambda: DiscreteWPath(np.array([1.0, NAN]), 0.1, 0.1, 0.2), "w must be finite"),
        (lambda: weyl_element(weyl_symbol(H_QUARTIC), NAN, 0.2), "z1 must be finite"),
        (lambda: exact_propagator(H_QUARTIC, "x", 0.2, 1.0, cutoff=600),
         "^z1 must be a number, got 'x'$"),
        (lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, -1.0, cutoff=600),
         "^T must be non-negative, got -1.0$"),
        (lambda: det_continuum(lambda t: 0.0, lambda t: 0.0, lambda t: 1.0, -0.2),
         r"^T must be non-negative, got -0\.2$"),
        # one T rule: quadrature_K returned a number and semiclassical_K said "must be positive"
        (lambda: quadrature_K("w", harmonic_hamiltonian(CTX), 0.3, 0.5j, -0.2, 2),
         r"^T must be non-negative, got -0\.2$"),
        (lambda: semiclassical_K("w", H_QUARTIC, 0.3, 0.5j, -0.2),
         r"^T must be non-negative, got -0\.2$"),
        # both grids used to read T only for the phases, after the oracle was built
        (lambda: weyl_U_grid(H_QUARTIC, CTX, NAN, *AXES, cutoff=73), "^T must be finite, got nan$"),
        (lambda: husimi_U_grid(H_QUARTIC, CTX, NAN, *AXES, cutoff=73), "^T must be finite, got nan$"),
        # one W slice is two integrated dimensions, within the grid limit: the parity refuses it
        (lambda: quadrature_K("w", H_QUARTIC, 0.3, 0.2, 0.5, 1), "^the W form requires even N$"),
        (lambda: DiscreteWPath(np.ones(4), 0.1, 0.3, 0.2, w_star=np.ones(2)),
         "^w and w_star must have the same length$"),
        (lambda: PhaseSpaceGrid(np.zeros(3), np.zeros(2), np.zeros((2, 3))),
         "^values shape does not match the axes$"),
        (lambda: PhaseSpaceGrid(np.zeros(3), np.zeros(2), [[1.0]]),
         "^values shape does not match the axes$"),  # an AttributeError: a list has no shape
        (lambda: normalize([(1.0, "adag b")]), "^unknown ladder letter 'b'$"),
    ],
    ids=["exact_propagator-T", "harmonic_exact_K-omega", "harmonic_exact_K-omega-bool",
         "stationary_path_harmonic-omega", "DiscreteWPath-tau-bool", "DiscreteWPath-w",
         "weyl_element-label", "exact_propagator-label-string", "exact_propagator-T-negative",
         "det_continuum-T-negative", "quadrature_K-T-negative", "semiclassical_K-T-negative",
         "weyl_U_grid-T", "husimi_U_grid-T", "quadrature_K-W-odd-N", "DiscreteWPath-w_star-length",
         "PhaseSpaceGrid-values-shape", "PhaseSpaceGrid-values-list", "normalize-letter"],
)
def test_bad_argument_refused_before_work(call, message):
    """A NaN, boolean, mismatched or unknown argument is an InvalidArgument, raised before any
    oracle is built."""
    cached = coherent._oracle.cache_info()
    with pytest.raises(InvalidArgument, match=message):
        call()
    assert coherent._oracle.cache_info() == cached


PAIR = np.array([0.3, 0.4])
PATH = stationary_path_harmonic(0.5, 0.3 + 0.4j, 1.0, 1.0, 4)
# (entry point, argument, case) -> the call with that scalar argument a 1-D array
ARRAY_ARGUMENTS = {
    ("exact_propagator", "z1", ""): lambda: exact_propagator(H_QUARTIC, PAIR, 0.3, 0.5),
    ("exact_propagator", "z2", ""): lambda: exact_propagator(H_QUARTIC, 0.3, PAIR, 0.5),
    ("exact_propagator", "T", ""): lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, PAIR),
    ("semiclassical_K", "zp", ""): lambda: semiclassical_K("w", H_QUARTIC, PAIR, 0.2, 0.5),
    ("semiclassical_K", "zpp", "T0"): lambda: semiclassical_K("w", H_QUARTIC, 0.3, PAIR, 0.0),
    ("semiclassical_K", "guess", ""):
        lambda: semiclassical_K("w", H_QUARTIC, 0.3, 0.2, 0.5, guesses=[None, PAIR]),
    ("solve_bvp", "zp", ""): lambda: solve_bvp(weyl_symbol(H_QUARTIC), PAIR, 0.2, 0.5),
    ("solve_bvp", "zpp_star", ""): lambda: solve_bvp(weyl_symbol(H_QUARTIC), 0.3, PAIR, 0.5),
    ("solve_bvp", "guess", ""): lambda: solve_bvp(weyl_symbol(H_QUARTIC), 0.3, 0.2, 0.5, guess=PAIR),
    ("harmonic_discrete_K", "zp", ""): lambda: harmonic_discrete_K("w", PAIR, 0.2, 1.0, 0.5, 4),
    ("harmonic_discrete_K", "zpp", ""): lambda: harmonic_discrete_K("q", 0.3, PAIR, 1.0, 0.5, 4),
    ("harmonic_discrete_K", "omega", ""): lambda: harmonic_discrete_K("w", 0.1, 0.2, PAIR, 1.0, 2),
    ("harmonic_discrete_K", "T", ""): lambda: harmonic_discrete_K("p", 0.1, 0.2, 1.0, PAIR, 2),
    ("harmonic_exact_K", "z1", ""): lambda: harmonic_exact_K(PAIR, 0.2, 1.0, 0.5),
    ("harmonic_exact_K", "z2", ""): lambda: harmonic_exact_K(0.3, [0.3, 0.4], 1.0, 0.5),
    ("harmonic_exact_K", "omega", ""): lambda: harmonic_exact_K(0.3, 0.2, PAIR, 0.5),
    ("harmonic_exact_K", "T", ""): lambda: harmonic_exact_K(0.3, 0.2, 1.0, PAIR),
    ("mu_coefficients", "omega", ""): lambda: mu_coefficients(PAIR, 0.5, 4),
    ("mu_coefficients", "T", ""): lambda: mu_coefficients(1.0, [0.3, 0.4], 4),
    ("DiscreteWPath", "zp", ""): lambda: DiscreteWPath(w=np.zeros(2), tau=0.1, zp=[0.3, 0.4], zpp=0.2),
    ("DiscreteWPath", "zpp", ""): lambda: DiscreteWPath(w=np.zeros(2), tau=0.1, zp=0.3, zpp=PAIR),
    ("quadrature_K", "zp", ""): lambda: quadrature_K("q", H_QUARTIC, PAIR, 0.2, 0.5, 1),
    ("quadrature_K", "zpp", ""): lambda: quadrature_K("w", H_QUARTIC, 0.3, PAIR, 0.5, 2),
    ("weyl_element", "z1", ""): lambda: weyl_element(weyl_symbol(H_QUARTIC), PAIR, 0.2),
    ("weyl_element", "z2", ""): lambda: weyl_element(weyl_symbol(H_QUARTIC), 0.3, PAIR),
    ("stationary_path_harmonic", "zp", ""): lambda: stationary_path_harmonic(PAIR, 0.2, 1.0, 0.5, 4),
    ("stationary_path_harmonic", "zpp", ""): lambda: stationary_path_harmonic(0.3, PAIR, 1.0, 0.5, 4),
    ("weyl_U_grid", "T", ""): lambda: weyl_U_grid(H_QUARTIC, CTX, PAIR, *AXES, cutoff=73),
    ("husimi_U_grid", "T", ""): lambda: husimi_U_grid(H_QUARTIC, CTX, PAIR, *AXES, cutoff=73),
    ("area_identity", "q", ""): lambda: wigner.area_identity(PATH, PAIR, 0.2, CTX),
    ("area_identity", "p", ""): lambda: wigner.area_identity(PATH, 0.3, [0.3, 0.4], CTX),
}


@pytest.mark.parametrize("key", list(ARRAY_ARGUMENTS),
                         ids=["-".join(filter(None, key)) for key in ARRAY_ARGUMENTS])
def test_array_refused_where_a_scalar_is_required(key):
    """A 1-D array (or list) for a scalar argument is an InvalidArgument naming it, raised before
    any oracle is built: exact_propagator returned <0.4|U|0.3> for z1 = [0.3, 0.4],
    harmonic_exact_K and mu_coefficients returned arrays, DiscreteWPath stored the array, and
    every other case ended in a TypeError or ValueError from Python or numpy."""
    cached = coherent._oracle.cache_info()
    message = rf"^{key[1]} must be a scalar, got an array of shape \(2,\)$"
    with pytest.raises(InvalidArgument, match=message):
        ARRAY_ARGUMENTS[key]()
    assert coherent._oracle.cache_info() == cached


def test_numpy_scalars_and_0d_arrays_are_scalars():
    """A numpy scalar or a 0-d array passes where a scalar is required, with the same value."""
    z1, z2, T = np.complex128(0.3 + 0.1j), np.array(0.2j), np.array(0.5)
    assert exact_propagator(H_QUARTIC, z1, z2, T, cutoff=60) == exact_propagator(
        H_QUARTIC, 0.3 + 0.1j, 0.2j, 0.5, cutoff=60)
    sym = weyl_symbol(H_QUARTIC)
    assert weyl_element(sym, z1, z2) == weyl_element(sym, 0.3 + 0.1j, 0.2j)
    assert wigner.area_identity(PATH, np.float64(0.3), np.array(0.2), CTX) == wigner.area_identity(
        PATH, 0.3, 0.2, CTX)
    assert np.array_equal(husimi_U_grid(H_QUARTIC, CTX, T, *AXES, cutoff=80).values,
                          husimi_U_grid(H_QUARTIC, CTX, 0.5, *AXES, cutoff=80).values)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_propagator(H_QUARTIC, 0.3, 0.2, 1e306),
        lambda: husimi_U_grid(H_QUARTIC, CTX, 1e306, *AXES, cutoff=60),
        lambda: weyl_U_grid(H_QUARTIC, CTX, 1e306, *AXES, cutoff=60),
        lambda: weyl_U_grid(H_QUARTIC, CTX, 1e306, *AXES, cutoff=60, check=False),
    ],
    ids=["exact_propagator", "husimi_U_grid", "weyl_U_grid", "weyl_U_grid-unchecked"],
)
def test_phases_beyond_the_double_range_refused(call):
    """E_k T/hbar beyond the double range is a DomainError; it was an all-NaN grid behind a
    RuntimeWarning, or a NonConverged 'moved the result by nan'."""
    message = r"^the phase e\^\{-i E_k T/hbar\} at T = 1e\+306 is not a finite double$"
    with pytest.raises(DomainError, match=message):
        call()


def test_closed_form_and_grids_take_a_negative_T():
    """U(-T) = U(T)^dagger: the harmonic closed form and the grids accept a negative T."""
    back = harmonic_exact_K(0.3, 0.5j, 1.0, -0.2)
    assert back == pytest.approx(np.conj(harmonic_exact_K(0.5j, 0.3, 1.0, 0.2)), abs=1e-15)
    grid = husimi_U_grid(H_QUARTIC, CTX, -0.2, *AXES, cutoff=73).values
    assert np.allclose(grid, np.conj(husimi_U_grid(H_QUARTIC, CTX, 0.2, *AXES, cutoff=73).values),
                       rtol=0.0, atol=1e-14)


ORACLE_BUILDS = pytest.mark.parametrize(
    "H, dtype, shapes",
    [
        (quartic_position_hamiltonian(0.1, CTX), float, [(31, 31), (30, 30)]),  # parity blocks
        (OperatorPoly({(1, 1): 1, (1, 0): 0.3, (0, 1): 0.3}), float, [(61, 61)]),
        (OperatorPoly({(1, 1): 1, (2, 0): 0.2j, (0, 2): -0.2j, (1, 0): 0.1, (0, 1): 0.1}), complex,
         [(61, 61)]),
    ],
    ids=["quartic", "real-linear", "complex-coupled"],
)


class TestOracleBlocks:
    @ORACLE_BUILDS
    def test_smallest_real_eigenproblems(self, monkeypatch, H, dtype, shapes):
        # a real H even in q and p splits into its even and odd photon-number blocks; a linear
        # term couples them, and a complex coefficient keeps the complex problem
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: seen.append(m.shape) or eigh(m))
        oracle = FockOracle(H, 60)
        # each block is held once, as (rows, ascending evals, its own eigenvectors)
        assert seen == shapes and [v.shape for _, _, v in oracle.blocks] == shapes
        assert all(v.dtype == dtype and np.all(np.diff(w) >= 0) for _, w, v in oracle.blocks)
        evals = np.sort(np.concatenate([w for _, w, _ in oracle.blocks]))
        want = np.linalg.eigvalsh(operator_matrix(H, 60))  # the quartic's reach 1.2e3: a few ulp
        assert np.abs(evals - want).max() <= 1e-14 * np.abs(want).max()

    @ORACLE_BUILDS
    def test_evolution_matches_the_complex_eigenbasis(self, H, dtype, shapes):
        # U = sum over blocks of <k|n>^dagger e^{-i E_k T} <k|n'>, from the oracle's block
        # products, against the complex eigh of the whole Fock matrix; a real and a complex
        # operand give one basis
        oracle, T = FockOracle(H, 60), 0.7
        evals, evecs = np.linalg.eigh(operator_matrix(H, 60))
        want = (evecs * np.exp(-1j * evals * T)) @ evecs.conj().T
        eye = np.eye(61, dtype=complex)
        got = sum(a.conj().T @ (phases[:, None] * a) for phases, a in oracle.eigen_blocks(eye, T))
        assert np.abs(got - want).max() < 1e-12
        for (_, real), (_, cplx) in zip(oracle.eigen_blocks(eye.real, T), oracle.eigen_blocks(eye, T)):
            assert np.abs(real - cplx).max() == 0
        z2 = np.array([0.3 - 0.2j, -0.5 + 0.1j])
        K = coherent_matrix(z2, 60).conj().T @ want @ coherent_matrix(0.4 + 0.3j, 60)[:, 0]
        assert np.abs(oracle.propagator(0.4 + 0.3j, z2, T) - K).max() < 1e-12

    def test_parity_blocks_are_stored_once(self):
        # the eigenbasis was a (cutoff + 1)^2 matrix, half of it exact zeros, with the blocks
        # scattered into it: a real parity-split oracle at cutoff 240 now holds 8 (121^2 + 120^2)
        # bytes of eigenvectors, not 8 * 241^2, and no other matrix
        oracle = FockOracle(quartic_position_hamiltonian(0.1, CTX), 240)
        held = [a for a in vars(oracle).values() if isinstance(a, np.ndarray)]
        held += [a for block in oracle.blocks for a in block if isinstance(a, np.ndarray)]
        vectors = sum(v.nbytes for _, _, v in oracle.blocks)
        assert vectors == 8 * (121**2 + 120**2) < 8 * 241**2
        assert sum(a.nbytes for a in held) == vectors + 8 * 241  # and the eigenvalues


class TestOracleBudget:
    def test_refused_before_matrices(self, monkeypatch):
        # cutoff 1e8 ended in a MemoryError; nothing may be built on the way to the refusal
        monkeypatch.setattr(coherent, "operator_matrix", None)
        cached = coherent._oracle.cache_info()
        message = "cutoff 100000000 needs an oracle at cutoff 200000000: .* exceed DENSE_BYTES"
        with pytest.raises(DomainError, match=message):
            exact_propagator(H_QUARTIC, 0.3, 0.2, 1.0, cutoff=10**8)
        with pytest.raises(DomainError, match="cutoff 100000000 needs an oracle at cutoff 100000000"):
            FockOracle(H_QUARTIC, 10**8)
        assert coherent._oracle.cache_info() == cached

    def test_counts_the_doubled_cutoff(self, monkeypatch):
        # cutoff 20 builds oracles up to cutoff 40: five complex 41 x 41 matrices
        H = harmonic_hamiltonian(CTX)
        coherent._oracle.cache_clear()
        monkeypatch.setattr(coherent, "DENSE_BYTES", 5 * 16 * 41**2 - 1)
        with pytest.raises(DomainError, match="cutoff 20 needs an oracle at cutoff 40"):
            exact_propagator(H, 0.3, 0.2, 1.0, cutoff=20)
        assert coherent._oracle.cache_info().currsize == 0
        monkeypatch.setattr(coherent, "DENSE_BYTES", 5 * 16 * 41**2)
        assert exact_propagator(H, 0.3, 0.2, 1.0, cutoff=20) == pytest.approx(
            harmonic_exact_K(0.3, 0.2, 1.0, 1.0), abs=1e-12
        )

    def test_lattice_reads_the_budget_at_the_call(self, monkeypatch):
        # the 933-node lattice at cutoff 60 needs 32 * 61 * 933 = 1,821,216 bytes; a copy of the
        # budget taken at import let it through
        monkeypatch.setattr(coherent, "DENSE_BYTES", 1_000_000)
        with pytest.raises(DomainError, match="933 lattice nodes at cutoff 60: 1.82e"):
            weyl_U_grid(H_QUARTIC, CTX, 0.5, *AXES, cutoff=60)


class TestCoherentBudget:
    def test_refused_before_tables(self, monkeypatch):
        # husimi_U_grid at cutoff 3e6 on 64 x 64 labels ended in numpy's MemoryError (183 GiB)
        monkeypatch.setattr(coherent, "_fock_log_tables", None)  # would fail if reached
        qs, ps = phase_grid_axes(CTX)
        message = "coherent vectors of 4096 labels at cutoff 3000000: .* exceed DENSE_BYTES"
        with pytest.raises(DomainError, match=message):
            husimi_U_grid(H_QUARTIC, CTX, 1.0, qs, ps, cutoff=3_000_000)
        with pytest.raises(DomainError, match="of 1 labels at cutoff 100000000"):
            fock_coherent(0.3, 10**8)

    def test_counts_columns_and_tables(self, monkeypatch):
        # 8 labels at cutoff 40: COHERENT_BYTES per Fock state for each label and the tables
        zs = 0.1 * np.arange(8)
        monkeypatch.setattr(coherent, "DENSE_BYTES", 32 * 41 * 9)
        assert coherent_matrix(zs, 40).shape == (41, 8)
        monkeypatch.setattr(coherent, "DENSE_BYTES", 32 * 41 * 9 - 1)
        with pytest.raises(DomainError, match="of 8 labels at cutoff 40"):
            coherent_matrix(zs, 40)

    @pytest.mark.parametrize("labels, cutoff", [(1, 200_000), (64, 5_000), (4096, 600)])
    def test_count_matches_the_traced_peak(self, labels, cutoff):
        # one label: the tables take 48 bytes per Fock state while they are built, not 32
        zs = 0.5 * np.exp(1j * np.arange(labels))
        coherent._fock_log_tables.cache_clear()
        tracemalloc.start()
        try:
            coherent_matrix(zs, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = coherent.COHERENT_BYTES * (cutoff + 1) * (labels + 1)
        assert 0.7 * need < peak < 1.05 * need

    @pytest.mark.parametrize("labels, cutoff", [(64, 5_000), (4096, 200)])
    def test_one_float_table_beside_the_columns(self, labels, cutoff):
        # the exponents, moduli and tail squares share one table, about 24 bytes per Fock state
        # and label with the columns; a separate exponent table and |cols|^2 took about 32
        zs = 0.5 * np.exp(1j * np.arange(labels))
        coherent._fock_log_tables.cache_clear()
        tracemalloc.start()
        try:
            coherent_matrix(zs, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 * (cutoff + 1) * labels

    def test_husimi_grid_within_the_count(self):
        # U @ cols and the conjugate product took about 48 bytes per Fock state and label
        qs, ps = phase_grid_axes(CTX)
        husimi_U_grid(H_QUARTIC, CTX, 1.0, qs, ps, cutoff=200)  # the cached oracle is not counted
        coherent._fock_log_tables.cache_clear()
        tracemalloc.start()
        try:
            husimi_U_grid(H_QUARTIC, CTX, 1.0, qs, ps, cutoff=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * coherent.COHERENT_BYTES * 201 * (64 * 64 + 1)


class TestTrajectoryBudget:
    def test_shooting_refused_before_any_pass(self, monkeypatch):
        # steps = 1e8 ran a 1e8-step Python RK4 loop, then built about 86 GB of arrays
        monkeypatch.setattr(semiclassics, "_step", None)  # would fail if reached
        message = "a shooting pass of 100000000 RK4 steps: .* exceed DENSE_BYTES"
        with pytest.raises(DomainError, match=message):
            semiclassical_K("w", H_QUARTIC, 0.3, 0.5j, 1.0, steps=10**8)
        with pytest.raises(DomainError, match=message):
            solve_bvp(weyl_symbol(H_QUARTIC), 0.3, 0.2, 1.0, steps=10**8)

    def test_det_continuum_refused_before_any_sample(self):
        never = lambda t: pytest.fail("a sampler was called")
        with pytest.raises(DomainError, match=r"Delta\(T\) on 200000000 RK4 steps: .* exceed"):
            det_continuum(never, never, never, 1.0, steps=10**8)
        with pytest.raises(DomainError, match=r"Delta\(T\) on 100000000 RK4 steps: .* exceed"):
            det_continuum(never, never, never, 1.0, steps=10**8, step_tolerance=None)

    def test_counts_the_steps_at_the_call(self, monkeypatch):
        # 64 shooting steps, and det_continuum's finest pass: twice the steps when checked
        sym = weyl_symbol(H_QUARTIC)
        monkeypatch.setattr(coherent, "DENSE_BYTES", semiclassics.PASS_BYTES * 64)
        solve_bvp(sym, 0.3, 0.2, 0.5, steps=64)
        monkeypatch.setattr(coherent, "DENSE_BYTES", semiclassics.PASS_BYTES * 64 - 1)
        with pytest.raises(DomainError, match="a shooting pass of 64 RK4 steps"):
            solve_bvp(sym, 0.3, 0.2, 0.5, steps=64)
        one = lambda t: 1.0
        monkeypatch.setattr(coherent, "DENSE_BYTES", fluctuation.CONTINUUM_BYTES * 32)
        det_continuum(one, one, one, 0.5, steps=16)
        monkeypatch.setattr(coherent, "DENSE_BYTES", fluctuation.CONTINUUM_BYTES * 32 - 1)
        with pytest.raises(DomainError, match=r"Delta\(T\) on 32 RK4 steps"):
            det_continuum(one, one, one, 0.5, steps=16)

    def test_counts_match_the_traced_peaks(self):
        steps, sym = 16384, weyl_symbol(H_QUARTIC)
        traj = solve_bvp(sym, 0.7, 0.5 - 0.2j, 0.8, steps=2048)
        flow, hessian = sym.flow(1.0)
        samplers = semiclassics.trajectory_hessian_samplers(traj, sym)
        seed = np.empty((2, steps + 1), dtype=complex)  # constant: the Newton takes several steps
        seed.T[:] = semiclassics._start(0.7 + 0j, traj.v0)
        tracemalloc.start()
        try:
            semiclassics._newton(flow, hessian, seed, 0.7 + 0j, 0.5 - 0.2j, traj.v0, 0.8 / steps, 1e-10)
            shooting = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            det_continuum(*samplers, 0.8, steps=steps, step_tolerance=None)
            continuum = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for peak, per_step in ((shooting, semiclassics.PASS_BYTES), (continuum, fluctuation.CONTINUUM_BYTES)):
            assert 0.7 * per_step * steps < peak < 1.05 * per_step * steps


class TestRefine:
    def test_returns_fine_and_max_delta(self):
        fine, delta = refine(np.array([1.0, 2.0]), np.array([1.5, 1.0j]), None, "x")
        assert fine[1] == 1.0j and delta == pytest.approx(abs(1.0j - 2.0))

    def test_tolerance_bounds_delta(self):
        assert refine(1.0, 1.0 + 1e-9, 1e-8, "x") == (1.0 + 1e-9, pytest.approx(1e-9))
        with pytest.raises(NonConverged, match="x moved the result by 1.000e-07"):
            refine(1.0, 1.0 + 1e-7, 1e-8, "x")

    @pytest.mark.parametrize("tol", [None, 1e-8])
    def test_non_finite_delta_always_raises(self, tol):
        with pytest.raises(NonConverged, match="nan"):
            refine(1.0, complex("nan"), tol, "x")
        with pytest.raises(NonConverged, match="inf"):
            refine(np.array([1.0, 2.0]), np.array([1.0, np.inf]), tol, "x")
