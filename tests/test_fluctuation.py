import tracemalloc

import mpmath
import numpy as np
import pytest

from weylpath import (
    DeterminantPair,
    FluctuationCoeffs,
    block_tridiagonal,
    build_matrix,
    det_continuum,
    det_dense,
    det_recursive,
)
from weylpath.errors import DomainError, InvalidArgument, NonConverged
from weylpath.fluctuation import RECURSION_CHUNK


def random_coeffs(rng, N, tau=0.13, hbar=1.0):
    draw = lambda: rng.normal(size=N) + 1j * rng.normal(size=N)
    return FluctuationCoeffs(A=draw(), B=draw(), C=draw(), tau=tau, hbar=hbar)


def cofactor_det(M):
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0.0j
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * M[0, j] * cofactor_det(minor)
    return total


def quad_form_direct(coeffs, xi, xi_star):
    """Second variation evaluated straight from its defining double sum."""
    N = coeffs.N
    lam = -0.5j * coeffs.tau / coeffs.hbar
    total = sum(
        lam * (coeffs.A[k] * xi[k] ** 2 + 2 * coeffs.C[k] * xi[k] * xi_star[k]
               + coeffs.B[k] * xi_star[k] ** 2)
        - 2.0 * xi[k] * xi_star[k]
        for k in range(N)
    )
    for k in range(1, N):
        for j in range(1, k + 1):
            total += 4.0 * xi_star[k] * xi[k - j] * (-1.0) ** (j + 1)
    return total


class TestBuildMatrix:
    def test_single_block(self):
        co = FluctuationCoeffs(A=[2.0], B=[3.0], C=[5.0], tau=0.4, hbar=2.0)
        lam = 1j * 0.4 / 2.0
        want = np.array([[lam * 2.0, lam * 5.0 + 2.0], [lam * 5.0 + 2.0, lam * 3.0]])
        assert np.allclose(build_matrix(co), want)

    def test_reproduces_quadratic_form(self):
        rng = np.random.default_rng(61)
        for N in (1, 2, 4, 7):
            co = random_coeffs(rng, N)
            M = build_matrix(co)
            for _ in range(5):
                xi = rng.normal(size=N) + 1j * rng.normal(size=N)
                xi_star = rng.normal(size=N) + 1j * rng.normal(size=N)
                # X ordering: (xi_N, xi*_N, ..., xi_1, xi*_1)
                X = np.empty(2 * N, dtype=complex)
                X[0::2] = xi[::-1]
                X[1::2] = xi_star[::-1]
                got = -0.5 * X @ M @ X
                want = quad_form_direct(co, xi, xi_star)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_harmonic_determinant_product_form(self):
        om, tau, hbar = 0.9, 0.21, 1.0
        for N in (1, 3, 6):
            co = FluctuationCoeffs(
                A=np.zeros(N), B=np.zeros(N), C=om * hbar * np.ones(N),
                tau=tau, hbar=hbar,
            )
            got = det_dense(build_matrix(co))
            want = 2.0 ** (2 * N) * 1j ** (2 * N) * (1 + 0.5j * om * tau) ** (2 * N)
            assert abs(got - want) <= 1e-12 * abs(want)


class TestDetDense:
    def test_identity(self):
        assert det_dense(np.eye(4)) == pytest.approx(1.0)

    def test_scalar_diagonal_factoring(self):
        for N in (1, 2, 4):
            got = det_dense(2j * np.eye(2 * N))
            assert abs(got - (2j) ** (2 * N)) < 1e-12

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(67)
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(det_dense(M) - cofactor_det(M)) < 1e-10 * abs(cofactor_det(M))

    def test_singular_matrix_raises(self):
        M = np.ones((3, 3), dtype=complex)
        with pytest.raises(DomainError, match="singular value ratio"):
            det_dense(M)

    def test_matches_mpmath_det(self):
        # an oracle that shares no code with LAPACK: mpmath's elimination at 30 digits
        rng = np.random.default_rng(79)
        for n in range(1, 25):
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            with mpmath.workdps(30):
                want = complex(mpmath.det(mpmath.matrix(M.tolist())))
            assert abs(det_dense(M) - want) <= 1e-12 * abs(want), n

    @pytest.mark.parametrize(
        "matrix, error, match",
        [
            (np.ones((2, 3)), ValueError, "non-empty square"),  # used to report a pivot ratio of 0
            (np.zeros((0, 0)), ValueError, "non-empty square"),  # used to fail in numpy's reduction
            (np.full((3, 3), np.nan), ValueError, "must be finite"),  # used to return nan+nanj
            (np.array([[1.0, np.inf], [0.0, 1.0]]), ValueError, "must be finite"),
            (build_matrix(FluctuationCoeffs(np.zeros(200), np.zeros(200), np.full(200, 10j), 1.0)),
             DomainError, "^the determinant is not a finite double$"),  # 64^200: was nan+nanj
        ],
        ids=["2x3", "0x0", "nan", "inf-off-diagonal", "overflow"],
    )
    def test_bad_matrix_rejected(self, matrix, error, match):
        with pytest.raises(error, match=match):
            det_dense(matrix)


class TestBlockTridiagonal:
    def test_preserves_determinant(self):
        rng = np.random.default_rng(71)
        for N in (1, 2, 5):
            co = random_coeffs(rng, N)
            M = build_matrix(co)
            B = block_tridiagonal(M)
            assert abs(det_dense(B) - det_dense(M) / (2j) ** (2 * N)) < 1e-10

    @pytest.mark.parametrize(
        "matrix, match",
        [
            (np.ones(4), "square matrix of even dimension"),  # used to raise IndexError
            (np.ones((3, 3)), "square matrix of even dimension"),
            (np.full((2, 2), np.nan), "must be finite"),  # used to pass through
            (np.array([[1.0, np.inf], [0.0, 1.0]]), "must be finite"),
        ],
        ids=["1-d", "odd", "nan", "inf-off-diagonal"],
    )
    def test_bad_matrix_rejected(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            block_tridiagonal(matrix)

    def test_banded_structure(self):
        rng = np.random.default_rng(73)
        co = random_coeffs(rng, 6)
        B = block_tridiagonal(build_matrix(co))
        n = B.shape[0]
        beyond = [abs(B[i, j]) for i in range(n) for j in range(n) if abs(i - j) > 3]
        assert max(beyond) == 0.0


class TestCoefficients:
    def test_empty_coefficients_rejected(self):
        # det_recursive used to raise IndexError on them
        with pytest.raises(ValueError, match="non-empty"):
            FluctuationCoeffs(A=[], B=[], C=[], tau=0.1)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            FluctuationCoeffs(A=[0.1], B=[0.2, 0.3], C=[0.4], tau=0.1)


class TestDetRecursive:
    def test_zero_coefficients(self):
        for N in (1, 4, 9):
            co = FluctuationCoeffs(
                A=np.zeros(N), B=np.zeros(N), C=np.zeros(N), tau=0.1
            )
            pair = det_recursive(co)
            assert isinstance(pair, DeterminantPair)
            assert abs(pair.Delta - 1.0) < 1e-14

    def test_harmonic_closed_form(self):
        om, tau = 1.3, 0.07
        for N in (1, 2, 5, 12):
            co = FluctuationCoeffs(
                A=np.zeros(N), B=np.zeros(N), C=om * np.ones(N), tau=tau
            )
            want = (1.0 + 0.5j * om * tau) ** (2 * N)
            assert abs(det_recursive(co).Delta - want) < 1e-12 * abs(want)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            N = int(rng.integers(1, 9))
            co = random_coeffs(rng, N, tau=float(rng.uniform(0.02, 0.4)))
            dense = det_dense(build_matrix(co)) / (2j) ** (2 * N)
            rec = det_recursive(co).Delta
            assert abs(rec - dense) <= 1e-10 * max(1.0, abs(dense))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_the_numpy_scalar_recursion(self, seed):
        # the same recursion on numpy complex scalars indexed out of arrays, one slice at a
        # time, as det_recursive ran it before it became a product of transfer matrices
        def numpy_scalar_recursion(co):
            half = co.tau / (2.0 * co.hbar)
            a, b, c = half * co.A, half * co.B, half * co.C
            cm, cp = c - 1j, c + 1j
            delta_prev2, delta_prev, gamma_prev = 1.0 + 0.0j, a[0] * b[0] - cm[0] ** 2, b[0]
            for i in range(1, co.N):
                gamma = (
                    (b[i] + b[i - 1]) * delta_prev
                    - cp[i - 1] ** 2 * gamma_prev
                    + b[i - 1] * (2.0 * cp[i - 1] * cm[i - 1] - a[i - 1] * b[i - 1]) * delta_prev2
                )
                delta = a[i] * gamma - cm[i] ** 2 * delta_prev
                delta_prev2, delta_prev, gamma_prev = delta_prev, delta, gamma
            return complex(delta_prev), complex(gamma_prev)

        rng = np.random.default_rng(seed)
        # odd tree levels, both sides of the chunk edge, and the bench size
        for N in (1, 2, 3, 5, RECURSION_CHUNK, RECURSION_CHUNK + 1, 100_000):
            co = random_coeffs(rng, N, tau=float(rng.uniform(1e-6, 1e-4)))
            pair = det_recursive(co)
            want_delta, want_gamma = numpy_scalar_recursion(co)
            assert abs(pair.Delta - want_delta) <= 1e-12 * abs(want_delta), N
            assert abs(pair.Gamma - want_gamma) <= 1e-12 * abs(want_gamma), N

    def test_overflow_refused(self):
        # Delta_N = 16^N: used to return nan+nanj
        co = FluctuationCoeffs(A=np.zeros(1000), B=np.zeros(1000), C=np.full(1000, 10j), tau=1.0)
        with pytest.raises(DomainError, match="^Delta_N or Gamma_N of the recursion is not a finite double$"):
            det_recursive(co)

    def test_peak_memory_is_bounded_by_the_chunk(self):
        # the transfer matrices are built and multiplied RECURSION_CHUNK at a time, never over all N
        co = random_coeffs(np.random.default_rng(5), 100_000, tau=1e-5)
        tracemalloc.start()
        try:
            det_recursive(co)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_large_N_against_mpmath(self):
        # the same recursion at 30 digits, on a smooth complex instance at N = 10^4
        N, T = 10_000, 2.0
        t = (np.arange(N) + 0.5) * (T / N)
        co = FluctuationCoeffs(
            A=0.3 * np.cos(t) + 0.2j,
            B=0.2 * np.sin(t) + 0.1 - 0.1j * t,
            C=1.1 + 0.15 * t + 0.05j * np.cos(2 * t),
            tau=T / N,
        )
        got = det_recursive(co)
        with mpmath.workdps(30):
            half = mpmath.mpf(co.tau) / (2 * mpmath.mpf(co.hbar))
            a, b, c = ([half * mpmath.mpc(x) for x in arr] for arr in (co.A, co.B, co.C))
            cm, cp = [x - 1j for x in c], [x + 1j for x in c]
            d2, d1, g1 = mpmath.mpc(1), a[0] * b[0] - cm[0] ** 2, b[0]
            for i in range(1, N):
                g = ((b[i] + b[i - 1]) * d1 - cp[i - 1] ** 2 * g1
                     + b[i - 1] * (2 * cp[i - 1] * cm[i - 1] - a[i - 1] * b[i - 1]) * d2)
                d2, d1, g1 = d1, a[i] * g - cm[i] ** 2 * d1, g
            want = DeterminantPair(complex(d1), complex(g1))
        assert abs(got.Delta - want.Delta) <= 1e-12 * abs(want.Delta)
        assert abs(got.Gamma - want.Gamma) <= 1e-12 * abs(want.Gamma)

    def test_shared_halving_gives_the_inline_loops_numbers(self):
        # the pairwise halving is semiclassics._total_product, shared with det_continuum; the
        # values of the loop det_recursive held inline, on one tree level, a tree with an odd
        # level and three chunks
        rng = np.random.default_rng(5)
        want = {
            7: ((0.9646971676779302-0.04458361814333637j), (0.0006557588573427265+0.00025245159436046856j)),
            1000: ((0.12639364488400168-0.0026435196633785105j), (10.796584019137416-1.4762134874395494j)),
            9000: ((-1.1276673553448962e+16+798558244473252.4j), (1.0391649870048321e+18-4.0925220931850536e+16j)),
        }
        for N, (delta, gamma) in want.items():
            co = FluctuationCoeffs(A=0.3 * rng.normal(size=N), B=0.3 * rng.normal(size=N),
                                   C=rng.normal(size=N) + 0.5j, tau=0.01, hbar=1.0)
            pair = det_recursive(co)
            assert abs(pair.Delta - delta) <= 1e-15 * abs(delta) and abs(pair.Gamma - gamma) <= 1e-15 * abs(gamma)

    def test_prefactor_cancellation_identity(self):
        # [2^N / sqrt((-1)^N det M)]^2 == 1 / Delta_N, branch free
        rng = np.random.default_rng(83)
        for N in (1, 3, 6):
            co = random_coeffs(rng, N)
            M = build_matrix(co)
            lhs = 2.0 ** (2 * N) / ((-1.0) ** N * det_dense(M))
            rhs = 1.0 / det_recursive(co).Delta
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestDetContinuum:
    def test_zero_coefficients(self):
        one = lambda t: 0.0
        assert abs(det_continuum(one, one, one, 2.0) - 1.0) < 1e-12

    def test_harmonic_exponential(self):
        om = 1.4
        zero = lambda t: 0.0
        C = lambda t: om  # hbar = 1
        got = det_continuum(zero, zero, C, 1.7, steps=256)
        assert abs(got - np.exp(1j * om * 1.7)) < 1e-10

    def test_zero_time(self):
        zero = lambda t: 0.0
        assert det_continuum(zero, zero, zero, 0.0) == 1.0

    def test_recursion_reaches_continuum_limit(self):
        # time-dependent coefficients sampled ever finer: first-order in tau
        om = 1.1
        A = lambda t: 0.3 * np.cos(t)
        B = lambda t: 0.2 * np.sin(t) + 0.1
        C = lambda t: om + 0.15 * t
        T = 1.2
        target = det_continuum(A, B, C, T, steps=1024)
        errs = []
        for N in (40, 80, 160, 320):
            tau = T / N
            ts = (np.arange(N) + 0.5) * tau
            co = FluctuationCoeffs(
                A=np.array([A(t) for t in ts]),
                B=np.array([B(t) for t in ts]),
                C=np.array([C(t) for t in ts]),
                tau=tau,
            )
            errs.append(abs(det_recursive(co).Delta - target))
        # observed order >= 1: halving tau at least halves the error
        for a, b in zip(errs, errs[1:]):
            assert b < 0.6 * a
        assert errs[-1] < 5e-3

    @pytest.mark.parametrize(
        "options, message",
        [({"steps": 0}, "^steps must be at least 1, got 0$"),
         ({"hbar": 0.0}, "^hbar must be positive, got 0.0$")],
        ids=["steps-0", "hbar-0"],
    )
    def test_rejects_no_steps_and_zero_hbar(self, options, message):
        # both used to raise ZeroDivisionError
        zero = lambda t: 0.0
        with pytest.raises(ValueError, match=message):
            det_continuum(zero, zero, zero, 1.0, **options)

    @pytest.mark.parametrize("steps", [64.0, True], ids=["float", "bool"])
    def test_steps_must_be_an_integer(self, steps):
        # a float ended in a TypeError from np.linspace; True ran a one-step pass
        zero = lambda t: 0.0
        with pytest.raises(InvalidArgument, match="steps must be"):
            det_continuum(zero, zero, zero, 1.0, steps=steps)

    def test_numpy_scalars_give_the_same_delta(self):
        A = lambda t: 0.3 * np.cos(t)
        B = lambda t: 0.2 * np.sin(t) + 0.1
        C = lambda t: 1.1 + 0.15 * t
        want = det_continuum(A, B, C, 1.2, steps=256, hbar=0.5)
        got = det_continuum(A, B, C, np.float64(1.2), steps=np.int64(256), hbar=np.float64(0.5))
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("n", [64, 256])
    def test_unchecked_call_is_the_checked_fine_pass(self, n):
        # step_tolerance=None runs only the pass that the checked call runs at twice its steps
        A = lambda t: 0.3 * np.cos(t)
        B = lambda t: 0.2 * np.sin(t) + 0.1
        C = lambda t: 1.1 + 0.15 * t
        unchecked = det_continuum(A, B, C, 1.2, steps=2 * n, step_tolerance=None)
        assert repr(unchecked) == repr(det_continuum(A, B, C, 1.2, steps=n))

    @pytest.mark.parametrize("step_tolerance", [None, 1e-8])
    def test_non_finite_sample_names_its_table(self, step_tolerance):
        # used to return nan+nanj, or to raise NonConverged with a tolerance
        zero = lambda t: 0.0
        B = lambda t: np.where(t > 0.5, np.nan, 0.1)
        with pytest.raises(ValueError, match="B must be finite"):
            det_continuum(zero, B, zero, 1.0, steps=16, step_tolerance=step_tolerance)

    @pytest.mark.parametrize("step_tolerance", [None, 1e-8])
    def test_overflowing_delta_is_a_domain_error(self, step_tolerance):
        # C = -100i grows Delta like e^(100 t): unchecked it returned inf+0j, checked it ended in
        # a RuntimeWarning from the refinement or NonConverged "moved the result by nan"
        zero = lambda t: 0.0
        with pytest.raises(DomainError, match=r"^Delta\(T\) is not a finite double$"):
            det_continuum(zero, zero, lambda t: -100j, 10.0, steps=4096, step_tolerance=step_tolerance)

    def test_step_halving_guard(self):
        om = 2.0
        zero = lambda t: 0.0
        C = lambda t: om
        with pytest.raises(NonConverged, match="halving the step"):
            det_continuum(zero, zero, C, 20.0, steps=16, step_tolerance=1e-12)
