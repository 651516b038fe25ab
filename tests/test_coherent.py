import numpy as np
import pytest
from scipy.linalg import expm

from weylpath import (
    FockOracle,
    OperatorPoly,
    PhasePoint,
    QuadSpec,
    ScaleContext,
    SymbolPoly,
    displacement_element,
    exact_propagator,
    fock_coherent,
    harmonic_exact_K,
    harmonic_hamiltonian,
    operator_matrix,
    overlap,
    quartic_position_hamiltonian,
    weyl_element,
    weyl_symbol,
)
from weylpath.coherent import coherent_matrix
from weylpath.errors import NonConverged, QuadratureNotConverged, TailTooLarge

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
        v = fock_coherent(1.0, 2, tail_threshold=1.0)
        want = np.exp(-0.5) * np.array([1.0, 1.0, 1.0 / np.sqrt(2.0)])
        assert np.allclose(v.amplitudes, want)

    def test_inner_products_reproduce_overlap(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z1 = (rng.normal() + 1j * rng.normal()) * 0.9
            z2 = (rng.normal() + 1j * rng.normal()) * 0.9
            v1 = fock_coherent(z1, 60).amplitudes
            v2 = fock_coherent(z2, 60).amplitudes
            assert abs(np.vdot(v1, v2) - overlap(z1, z2)) < 1e-12

    def test_tail_too_large(self):
        with pytest.raises(TailTooLarge):
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
        mpmath = pytest.importorskip("mpmath")
        z = 38.0 * np.exp(0.7j)
        amps = fock_coherent(z, 2000).amplitudes
        with mpmath.workdps(40):
            mz = mpmath.mpc(z.real, z.imag)
            for n in (100, 1000, 1444, 1500, 2000):
                want = complex(
                    mpmath.exp(-abs(mz) ** 2 / 2) * mz**n / mpmath.sqrt(mpmath.factorial(n))
                )
                assert abs(amps[n] - want) <= 1e-11 * abs(want), n

    def test_non_finite_label_rejected(self):
        with pytest.raises(ValueError):
            fock_coherent(complex("nan"), 10)
        with pytest.raises(ValueError):
            coherent_matrix([0.1, np.inf], 10)


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
        with pytest.raises(NonConverged):
            exact_propagator(H, 1.4, 1.4, 2.0, cutoff=14, tail_threshold=1e-2,
                             check_tolerance=1e-12)

    def test_unitarity_by_resolution_of_unity(self):
        H = quartic_position_hamiltonian(0.2, CTX)
        oracle = FockOracle(H, 130)
        z1 = 0.5 + 0.2j
        # anharmonic evolution spreads the state; the disc radius sets the
        # quadrature tolerance here
        pts, wt = unity_grid(0.0, 5.5, 0.08)
        K = oracle.propagator(z1, pts, 0.8, tail_threshold=1e-6)
        mass = np.sum(np.abs(K) ** 2) * wt
        assert mass == pytest.approx(1.0, abs=2e-4)

    def test_semigroup_under_unity_insertion(self):
        H = harmonic_hamiltonian(CTX)
        oracle = FockOracle(H, 110)
        z1, z2 = 0.4, 0.3 - 0.2j
        T1, T2 = 0.6, 0.9
        pts, wt = unity_grid(0.0, 4.5, 0.09)
        left = oracle.propagator(z1, pts, T1, tail_threshold=1e-8)
        # second leg via unitarity: <z2|U(T2)|z> = conj(<z|U(-T2)|z2>)
        right = np.conj(oracle.propagator(z2, pts, -T2, tail_threshold=1e-8))
        composed = np.sum(right * left) * wt
        want = oracle.propagator(z1, z2, T1 + T2)
        assert abs(composed - want) < 1e-6


class TestDisplacementElement:
    def test_zero_displacement_is_overlap(self):
        z1, z2 = 0.3 - 0.7j, 0.1 + 0.2j
        got = displacement_element(PhasePoint(0.0, 0.0), z1, z2, CTX)
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
            got = displacement_element(PhasePoint(q, p), z1, z2, CTX)
            assert abs(got - want) < 1e-10

    def test_composition_with_inverse_via_unity(self):
        # T(-xi) T(xi) = 1: insert the coherent resolution of unity between them
        xi = PhasePoint(0.35, -0.2)
        z1, z2 = 0.2 + 0.1j, -0.3j
        pts, wt = unity_grid(0.0, 4.5, 0.09)
        first = np.array(displacement_element_vec(xi, z1, pts, CTX))
        second = np.array(
            displacement_element_vec(PhasePoint(-xi.q, -xi.p), pts, z2, CTX)
        )
        composed = np.sum(second * first) * wt
        assert abs(composed - overlap(z2, z1)) < 1e-8


def displacement_element_vec(xi, z1, z2, ctx):
    z = ctx.z_from_qp(xi.q, xi.p)
    return np.exp(
        z * np.conj(z2) - np.conj(z) * z1 - 0.5 * abs(z) ** 2
    ) * overlap(z2, z1)


class TestWeylElement:
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

    def test_not_converged_raises(self):
        # two nodes cannot integrate a quartic symbol exactly
        H = quartic_position_hamiltonian(1.0, CTX)
        with pytest.raises(QuadratureNotConverged):
            weyl_element(
                weyl_symbol(H), 0.9, 0.8, QuadSpec(nodes=2, tolerance=1e-12)
            )
