import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

import weylpath
from weylpath import (
    DiscreteWPath,
    OperatorPoly,
    PhaseSpaceGrid,
    ScaleContext,
    area_identity,
    harmonic_exact_K,
    harmonic_hamiltonian,
    husimi_U_grid,
    operator_matrix,
    phase_grid_axes,
    quartic_position_hamiltonian,
    smoothing_check,
    weyl_U_grid,
)
from weylpath import coherent, wigner
from weylpath.errors import DomainError, InvalidArgument, NonConverged
from weylpath.wigner import hermite_functions

CTX = ScaleContext.default()
H_HARM = harmonic_hamiltonian(CTX)
H_QUARTIC = quartic_position_hamiltonian(0.05, CTX)
# the real and the complex Hamiltonians of test_coherent.ORACLE_BUILDS whose terms couple parities
H_REAL_LINEAR = OperatorPoly({(1, 1): 1, (1, 0): 0.3, (0, 1): 0.3})
H_COMPLEX = OperatorPoly({(1, 1): 1, (2, 0): 0.2j, (0, 2): -0.2j, (1, 0): 0.1, (0, 1): 0.1})
REAL_HAMILTONIANS = pytest.mark.parametrize(
    "H", [H_HARM, H_QUARTIC, H_REAL_LINEAR], ids=["harmonic", "quartic", "real-linear"]
)


def displacement_block(alpha: complex, dim: int, work_dim: int = 450) -> np.ndarray:
    """<n|D(alpha)|m> on the leading block, from an enlarged Hermitian
    eigendecomposition of i (alpha adag - conj(alpha) a)."""
    n = np.arange(1, work_dim)
    a = np.diag(np.sqrt(n), k=1)
    G = 1j * (alpha * a.conj().T - np.conj(alpha) * a)
    evals, evecs = np.linalg.eigh(G)
    D = (evecs * np.exp(-1j * evals)[None, :]) @ evecs.conj().T
    return D[:dim, :dim]


def dyadic_weyl_symbol(U: np.ndarray, z: complex) -> complex:
    """Wigner transform of a truncated matrix via displaced-parity elements."""
    dim = U.shape[0]
    parity = (-1.0) ** np.arange(dim)
    D2 = displacement_block(2.0 * z, dim)
    return 2.0 * np.sum(parity * np.einsum("ij,ji->i", U, D2))


class TestHermiteFunctions:
    def test_orthonormality_by_quadrature(self):
        xs = np.linspace(-12, 12, 3001)
        phi = hermite_functions(xs, 12, b=1.0)
        gram = phi @ phi.T * (xs[1] - xs[0])
        assert np.max(np.abs(gram - np.eye(13))) < 1e-10

    def test_width_scaling(self):
        xs = np.linspace(-3, 3, 7)
        b = 1.7
        narrow = hermite_functions(xs / b, 5, b=1.0)
        scaled = hermite_functions(xs, 5, b=b)
        assert np.allclose(scaled, narrow / np.sqrt(b))

    @pytest.mark.parametrize("n, x", [(800, 40.0), (1200, 45.0)])
    def test_far_tail_against_mpmath(self, n, x):
        # beyond |x| ~ 38.6 b the Gaussian seed e^{-x^2/2b^2} alone is 0.0
        phi = hermite_functions(np.array([x, -x]), n, b=1.0)[n]
        with mpmath.workdps(40):
            want = float(
                mpmath.hermite(n, x) * mpmath.exp(-x * x / 2)
                / mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
            )
        assert abs(want) > 0.05
        assert np.allclose(phi, [want, (-1) ** n * want], rtol=1e-10, atol=0.0)


class TestWeylUGrid:
    def test_matches_dyadic_oracle_at_quarter_period(self):
        qs, ps = phase_grid_axes(CTX)
        cutoff = 60
        grid = weyl_U_grid(H_HARM, CTX, np.pi / 2, qs, ps, cutoff=cutoff)
        U = expm(-0.5j * np.pi / H_HARM.hbar * operator_matrix(H_HARM, cutoff))
        for i in range(4, 64, 13):
            for j in range(4, 64, 13):
                z = CTX.z_from_qp(qs[i], ps[j])
                assert abs(grid.values[i, j] - dyadic_weyl_symbol(U, z)) < 1e-6
        # a one-row axis, and a decreasing axis, which needs |step| in the
        # trapezoid weights
        row = weyl_U_grid(H_HARM, CTX, np.pi / 2, qs[:1], ps, cutoff=cutoff)
        for j in range(4, 64, 13):
            z = CTX.z_from_qp(qs[0], ps[j])
            assert abs(row.values[0, j] - dyadic_weyl_symbol(U, z)) < 1e-6
        # rows near q = 0 still need a chord window past the basis' turning
        # point: -0.063 b once failed its step check, 1 b was 9e-7 off
        for q in (-0.063 * CTX.b, 1.0 * CTX.b):
            row = weyl_U_grid(H_HARM, CTX, np.pi / 2, np.array([q]), ps, cutoff=cutoff)
            for j in range(4, 64, 13):
                z = CTX.z_from_qp(q, ps[j])
                assert abs(row.values[0, j] - dyadic_weyl_symbol(U, z)) < 1e-10
        flipped = weyl_U_grid(H_HARM, CTX, np.pi / 2, qs[::-1], ps, cutoff=cutoff)
        assert np.max(np.abs(flipped.values - grid.values[::-1])) < 1e-10

    def test_quartic_at_cutoff_200_matches_dyadic_oracle(self):
        H = quartic_position_hamiltonian(0.05, CTX)
        qs, ps = phase_grid_axes(CTX)
        grid = weyl_U_grid(H, CTX, 0.3, qs, ps, cutoff=200)
        U = expm(-0.3j / H.hbar * operator_matrix(H, 200))
        for i, j in ((9, 50), (31, 31), (56, 7)):
            z = CTX.z_from_qp(qs[i], ps[j])
            assert abs(grid.values[i, j] - dyadic_weyl_symbol(U, z)) < 1e-10

    def test_non_uniform_q_axis_rejected(self):
        qs, ps = phase_grid_axes(CTX, nq=8, npts=8)
        qs[3] += 0.1
        with pytest.raises(ValueError, match="uniformly spaced"):
            weyl_U_grid(H_HARM, CTX, 0.5, qs, ps, cutoff=60)

    def test_zero_time_is_truncated_identity_symbol(self):
        # the exact identity has symbol 1, but a rank-(cutoff+1) truncation
        # oscillates around it; the grid must match the truncated symbol
        qs, ps = phase_grid_axes(CTX, nq=16, npts=16)
        cutoff = 60
        grid = weyl_U_grid(H_HARM, CTX, 0.0, qs, ps, cutoff=cutoff)
        eye = np.eye(cutoff + 1)
        for i in (2, 7, 13):
            for j in (3, 8, 12):
                z = CTX.z_from_qp(qs[i], ps[j])
                assert abs(grid.values[i, j] - dyadic_weyl_symbol(eye, z)) < 1e-6

    def test_magnitude_consistent_with_unitarity(self):
        # the diagonal coherent propagator of a unitary is bounded by one;
        # the Weyl grid must smooth down to it (checked elsewhere) and stay
        # within the truncated-basis envelope here
        qs, ps = phase_grid_axes(CTX, nq=24, npts=24)
        grid = weyl_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=60)
        husimi = husimi_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=60)
        assert np.max(np.abs(husimi.values)) <= 1.0 + 1e-12
        assert np.max(np.abs(grid.values)) < 4.0

    @pytest.mark.parametrize("grid", [weyl_U_grid, husimi_U_grid], ids=["weyl", "husimi"])
    def test_hbar_mismatch_refused_before_work(self, monkeypatch, grid):
        # a ScaleContext at hbar 0.8 moved these grids by 0.42 (Weyl) and 0.28 (Husimi), unrefused
        qs, ps = phase_grid_axes(CTX, nq=8, npts=8, q_widths=2.0, p_widths=2.0)
        for name in ("_cached_oracle", "_labels", "coherent_matrix", "hermite_functions"):
            monkeypatch.setattr(wigner, name, None)  # would fail if reached
        with pytest.raises(InvalidArgument, match=r"^ctx.hbar must equal H.hbar \(1.0\), got 0.8$"):
            grid(H_HARM, ScaleContext(hbar=0.8), 0.5, qs, ps, cutoff=120)

    def test_oscillator_grid_is_the_truncated_symbol(self):
        """The oscillator's grid (T 1, default axes) against its closed form
        sec(T/2) exp(-i tan(T/2)(q^2 + p^2)/hbar): the symbol of U truncated at the cutoff does
        not converge to it, while the smoothing identity holds at every cutoff."""
        qs, ps = phase_grid_axes(CTX)
        q, p = np.meshgrid(qs, ps, indexing="ij")
        closed = np.exp(-1j * np.tan(0.5) * (q**2 + p**2) / CTX.hbar) / np.cos(0.5)
        distances = []
        for cutoff in (60, 120, 200, 240):
            gw = weyl_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=cutoff)
            gh = husimi_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=cutoff)
            assert smoothing_check(gw, gh, CTX) < 1e-4
            distances.append(np.abs(gw.values - closed).max())
        assert distances == pytest.approx([0.3818, 0.2832, 0.4465, 0.4562], abs=1e-3)

    def test_insufficient_cutoff_raises(self):
        qs, ps = phase_grid_axes(CTX)
        with pytest.raises(DomainError, match="truncated tail mass"):
            weyl_U_grid(H_HARM, CTX, 0.5, qs, ps, cutoff=24)

    @pytest.mark.parametrize("q_widths", [1e-6, 1e-300, 1e-320])
    def test_lattice_budget_refused_before_tables(self, monkeypatch, q_widths):
        # 6e7 nodes, 6e301 nodes and a count beyond the double range, against 2 GiB
        monkeypatch.setattr(wigner, "hermite_functions", None)  # would fail if reached
        monkeypatch.setattr(wigner, "_cached_oracle", None)
        qs, ps = phase_grid_axes(CTX, nq=3, npts=3, q_widths=q_widths)
        with pytest.raises(DomainError, match="lattice nodes at cutoff 60: .* exceed DENSE_BYTES"):
            weyl_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=60)

    def test_lattice_budget_refused_before_the_corner_vector(self, monkeypatch):
        # cutoff 2e6 built the corner's coherent vector (0.8 s, 137 MB peak RSS) before refusing
        monkeypatch.setattr(wigner, "coherent_matrix", None)  # would fail if reached
        qs, ps = phase_grid_axes(CTX)
        message = "lattice nodes at cutoff 2000000: .* exceed DENSE_BYTES"
        with pytest.raises(DomainError, match=message):
            weyl_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=2_000_000)

    def test_lattice_budget_counts_both_tables(self, monkeypatch):
        # n lattice nodes at cutoff 60 take 32 * 61 * n bytes for phi and U phi (complex)
        qs, ps = phase_grid_axes(CTX, nq=8, npts=8)
        nodes = []
        real = wigner.hermite_functions

        def counted(xs, *args):
            nodes.append(xs.size)
            return real(xs, *args)

        monkeypatch.setattr(wigner, "hermite_functions", counted)
        monkeypatch.setattr(coherent, "DENSE_BYTES", 32 * 61 * 933)
        weyl_U_grid(H_HARM, CTX, 0.5, qs, ps, cutoff=60)
        assert nodes == [933]
        monkeypatch.setattr(coherent, "DENSE_BYTES", 32 * 61 * 933 - 1)
        with pytest.raises(DomainError, match="933 lattice nodes at cutoff 60"):
            weyl_U_grid(H_HARM, CTX, 0.5, qs, ps, cutoff=60)

    def test_chord_step_guard(self, monkeypatch):
        # a coarse chord step of 2 dq / 2 = 8b/7 undersamples the kernel
        monkeypatch.setattr(wigner, "CHORD_OVERSAMPLING", 0.15)
        qs, ps = phase_grid_axes(CTX, nq=8, npts=8)
        with pytest.raises(NonConverged, match="halving the chord step"):
            weyl_U_grid(H_HARM, CTX, 0.5, qs, ps, cutoff=60)

    def test_traced_peak_holds_two_real_tables(self, monkeypatch):
        # a real eigenbasis holds the table and <k|x> of both parity blocks, then <k|x> and one
        # weighted block, 16 bytes per Fock state and lattice node: 16.1 in all, against 18.3
        # with the full-basis product and the mirrored kernel, and 45.6 with complex <k|x> and
        # U<k|x> tables.  A complex eigenbasis holds the real table and Re U or Im U times it,
        # within the 32 bytes the lattice budget counts; a complex copy of the table peaked at 41.3
        qs, ps = phase_grid_axes(CTX)
        nodes = []
        real = wigner.hermite_functions
        counted = lambda xs, *args: nodes.append(xs.size) or real(xs, *args)
        for H, bound in ((H_QUARTIC, 17), (H_COMPLEX, 32)):
            weyl_U_grid(H, CTX, 1.0, qs, ps, cutoff=200)  # the cached oracle is not counted
            monkeypatch.setattr(wigner, "hermite_functions", counted)
            coherent._fock_log_tables.cache_clear()
            tracemalloc.start()
            try:
                weyl_U_grid(H, CTX, 1.0, qs, ps, cutoff=200)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            monkeypatch.undo()
            assert nodes.pop() == 2651 and not nodes
            assert peak < bound * 201 * 2651, H


def dense_eigenbasis(H, cutoff):
    """The cached oracle's eigenpairs as one dense eigenbasis (E, V), V[:, k] = |k>, checked against
    the complex Fock matrix: eigh's eigenvalues, H V = V E and V^dagger V = 1, all to round-off.
    An eigh of its own would move the quartic's eigenvalues by up to 5e-11 at cutoff 240, and
    with them the Weyl values by 1e-11, so the references below share the oracle's eigenpairs."""
    blocks = coherent._cached_oracle(H, cutoff).blocks
    E = np.concatenate([w for _, w, _ in blocks])
    V = np.zeros((cutoff + 1, cutoff + 1), dtype=blocks[0][2].dtype)
    start = 0
    for rows, w, v in blocks:
        V[rows, start:start + w.size] = v
        start += w.size
    M = operator_matrix(H, cutoff)
    scale = np.abs(E).max()
    assert np.abs(np.sort(E) - np.linalg.eigvalsh(M)).max() <= 1e-14 * scale
    assert np.abs(M @ V - V * E).max() <= 1e-13 * scale
    assert np.abs(V.conj().T @ V - np.eye(cutoff + 1)).max() <= 1e-13
    return E, V


def dense_weyl(H, T, qs, ps, cutoff):
    """U(q, p, T) from the dense eigenbasis by the trapezoid over the whole chord with
    exp(i p s / hbar), on each row's own chord nodes s, step 0.05 b (finer than the grid's chord
    step at every cutoff used here), over the grid's window; T may be a list, one grid each."""
    E, V = dense_eigenbasis(H, cutoff)
    h = 0.05 * CTX.b
    s_half = 2.0 * (max(np.max(np.abs(qs)), 4.0 * CTX.b) + CTX.b * np.sqrt(2.0 * cutoff + 1.0))
    s = h * np.arange(-np.ceil(s_half / h), np.ceil(s_half / h) + 1)
    trap = np.full(len(s), h)
    trap[0] = trap[-1] = 0.5 * h
    fourier = np.exp(1j * np.outer(s, ps) / H.hbar)
    Ts = np.atleast_1d(T)
    out = np.empty((len(Ts), len(qs), len(ps)), dtype=complex)
    for i, q in enumerate(qs):
        near = V.conj().T @ hermite_functions(q - s / 2, cutoff, CTX.b)  # <k|q - s/2>
        far = near[:, ::-1]  # <k|q + s/2> on the symmetric nodes
        for j, t in enumerate(Ts):
            kernel = np.einsum("kt,k,kt->t", near.conj(), np.exp(-1j * E * t / H.hbar), far)
            out[j, i] = (kernel * trap) @ fourier
    return out if np.ndim(T) else out[0]


def symmetric_p_axis(n=16):
    """A p axis of 2n + 1 points whose negation is its reverse, bit for bit."""
    half = np.linspace(0.0, 4.0 * CTX.c, n + 1)
    return np.concatenate([-half[:0:-1], half])


class TestChordSymmetry:
    @REAL_HAMILTONIANS
    @pytest.mark.parametrize("cutoff", [60, 200])
    @pytest.mark.parametrize("rows", ["increasing", "decreasing", "one-row"])
    def test_half_chord_matches_full_chord(self, H, cutoff, rows):
        # a real eigenbasis makes the kernel even in the chord: only s >= 0 is summed, and its
        # cosine transform is the full chord's exponential one
        qs, ps = phase_grid_axes(CTX, nq=24, npts=24)
        qs = {"increasing": qs, "decreasing": qs[::-1], "one-row": qs[7:8]}[rows]
        half = weyl_U_grid(H, CTX, 0.7, qs, ps, cutoff=cutoff).values
        full = dense_weyl(H, 0.7, qs, ps, cutoff)
        assert np.max(np.abs(half - full)) < 1e-12
        assert np.max(np.abs(half)) > 0.1

    @REAL_HAMILTONIANS
    @pytest.mark.parametrize("path", ["half-chord", "full-chord"])
    def test_time_reversal_makes_the_symbol_even_in_p(self, H, path):
        # U_W(q, -p, T) = U_W(q, p, T) for a real H; the full chord does not impose it
        qs, ps = phase_grid_axes(CTX, nq=16)[0], symmetric_p_axis()
        if path == "half-chord":
            values = weyl_U_grid(H, CTX, 0.9, qs, ps, cutoff=60).values
        else:
            values = dense_weyl(H, 0.9, qs, ps, 60)
        assert np.max(np.abs(values - values[:, ::-1])) < 1e-12
        assert np.max(np.abs(values.imag)) > 0.1

    def test_complex_eigenbasis_matches_dyadic_oracle(self):
        # a squeezing term i(adag^2 - a^2) and a linear one: the complex Fock matrix keeps a
        # complex eigenbasis, so the whole chord is summed
        T, cutoff = 0.8, 60
        oracle = coherent._cached_oracle(H_COMPLEX, cutoff)
        assert not oracle.real and [v.dtype for _, _, v in oracle.blocks] == [complex]
        qs, ps = phase_grid_axes(CTX)
        grid = weyl_U_grid(H_COMPLEX, CTX, T, qs, ps, cutoff=cutoff)
        U = expm(-1j * T / H_COMPLEX.hbar * operator_matrix(H_COMPLEX, cutoff))
        for i in range(4, 64, 13):
            for j in range(4, 64, 13):
                z = CTX.z_from_qp(qs[i], ps[j])
                assert abs(grid.values[i, j] - dyadic_weyl_symbol(U, z)) < 1e-6
        # and its symbol is not even in p
        values = weyl_U_grid(H_COMPLEX, CTX, T, qs[::4], symmetric_p_axis(), cutoff=cutoff).values
        assert np.max(np.abs(values - values[:, ::-1])) > 0.1


class TestDenseReference:
    @pytest.mark.parametrize("cutoff", [60, 120, 240])
    @pytest.mark.parametrize(
        "H",
        [H_HARM, H_QUARTIC, quartic_position_hamiltonian(0.1, CTX), H_REAL_LINEAR, H_COMPLEX],
        ids=["harmonic", "quartic-0.05", "quartic-0.1", "real-linear", "complex"],
    )
    def test_block_sums_match_the_dense_eigenbasis(self, H, cutoff):
        # the oracle sums over its parity blocks and the Weyl grid takes a cosine transform
        # where the basis is real; the references apply the dense eigenbasis in full products
        # and the Weyl one takes the exponential transform over the whole chord
        Ts = [0.3, 1.0, -0.7]
        E, V = dense_eigenbasis(H, cutoff)
        oracle = coherent._cached_oracle(H, cutoff)
        qs, ps = phase_grid_axes(CTX, nq=6, npts=9)
        cols = coherent.coherent_matrix(CTX.z_from_qp(*np.meshgrid(qs, ps, indexing="ij")), cutoff)
        z1, z2 = 0.4 + 0.3j, np.array([0.3 - 0.2j, -0.5 + 0.1j, 0.0, 1.1j, -0.9])
        c1, c2 = (coherent.coherent_matrix(z, cutoff) for z in (z1, z2))
        weyl = dense_weyl(H, Ts, qs, ps, cutoff)
        for T, want_weyl in zip(Ts, weyl):
            U = (V * np.exp(-1j * E * T / H.hbar)) @ V.conj().T
            K = (c2.conj().T @ U @ c1)[:, 0]
            got = oracle.propagator(z1, z2, T)
            assert np.abs(got - K).max() <= 1e-14 * np.abs(K).max(), T
            assert abs(oracle.propagator(z1, z2[1], T) - K[1]) <= 1e-14 * abs(K[1]), T
            husimi = np.einsum("nz,nz->z", cols.conj(), U @ cols).reshape(len(qs), len(ps))
            assert np.abs(husimi_U_grid(H, CTX, T, qs, ps, cutoff=cutoff).values - husimi).max() <= 1e-14
            assert np.abs(weyl_U_grid(H, CTX, T, qs, ps, cutoff=cutoff).values - want_weyl).max() <= 1e-12


class TestHusimiUGrid:
    def test_zero_time_is_one(self):
        qs, ps = phase_grid_axes(CTX)
        grid = husimi_U_grid(H_HARM, CTX, 0.0, qs, ps, cutoff=80)
        assert np.max(np.abs(grid.values - 1.0)) < 1e-10

    def test_harmonic_closed_form(self):
        qs, ps = phase_grid_axes(CTX)
        T = 1.0
        grid = husimi_U_grid(H_HARM, CTX, T, qs, ps, cutoff=80)
        Q, P = np.meshgrid(qs, ps, indexing="ij")
        Z = CTX.z_from_qp(Q, P)
        want = np.array([[harmonic_exact_K(z, z, 1.0, T) for z in row] for row in Z])
        assert np.max(np.abs(grid.values - want)) < 1e-9

    def test_values_are_complex(self):
        qs, ps = phase_grid_axes(CTX, nq=8, npts=8)
        grid = husimi_U_grid(H_HARM, CTX, 0.7, qs, ps, cutoff=60)
        assert np.max(np.abs(np.imag(grid.values))) > 1e-3


def smoothing_pair(qs, ps):
    """The harmonic oscillator's Weyl and Husimi grids at T = 0.7, cutoff 60."""
    return (weyl_U_grid(H_HARM, CTX, 0.7, qs, ps, cutoff=60),
            husimi_U_grid(H_HARM, CTX, 0.7, qs, ps, cutoff=60))


class TestSmoothing:
    def test_zero_time(self):
        qs, ps = phase_grid_axes(CTX)
        gw = weyl_U_grid(H_HARM, CTX, 0.0, qs, ps, cutoff=60)
        gh = husimi_U_grid(H_HARM, CTX, 0.0, qs, ps, cutoff=60)
        assert smoothing_check(gw, gh, CTX) < 1e-4

    def test_harmonic(self):
        qs, ps = phase_grid_axes(CTX)
        gw = weyl_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=60)
        gh = husimi_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=60)
        dev = smoothing_check(gw, gh, CTX)
        assert dev < 1e-4

        def flip(g):  # decreasing axes keep the same interior
            return PhaseSpaceGrid(g.qs[::-1], g.ps[::-1], g.values[::-1, ::-1])

        assert abs(smoothing_check(flip(gw), flip(gh), CTX) - dev) < 1e-12

    def test_quartic(self):
        H = quartic_position_hamiltonian(0.05, CTX)
        qs, ps = phase_grid_axes(CTX)
        gw = weyl_U_grid(H, CTX, 0.3, qs, ps, cutoff=60)
        gh = husimi_U_grid(H, CTX, 0.3, qs, ps, cutoff=60)
        assert smoothing_check(gw, gh, CTX) < 1e-3

    def test_grids_share_one_oracle(self, monkeypatch):
        # both grids of one (H, cutoff) read the cached oracle: one build, not two
        builds = []
        build = coherent.FockOracle
        monkeypatch.setattr(
            coherent, "FockOracle", lambda H, cutoff: builds.append(cutoff) or build(H, cutoff))
        coherent._oracle.cache_clear()
        qs, ps = phase_grid_axes(CTX, nq=16, npts=16)
        weyl_U_grid(H_HARM, CTX, 0.5, qs, ps, cutoff=60)
        husimi_U_grid(H_HARM, CTX, 0.5, qs, ps, cutoff=60)
        assert builds == [60]

    def test_deviation_drops_under_refinement(self):
        # n = 32 aliases the truncation artifact of the symbol; refining the
        # grid resolves it and the kernel then annihilates it
        devs = []
        for n in (32, 64):
            qs, ps = phase_grid_axes(CTX, nq=n, npts=n)
            gw = weyl_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=60)
            gh = husimi_U_grid(H_HARM, CTX, 1.0, qs, ps, cutoff=60)
            devs.append(smoothing_check(gw, gh, CTX, margin_sigmas=5.0))
        assert devs[1] < devs[0] * 0.25  # at least second order across the range

    def test_matches_two_dimensional_convolution(self):
        # the separable banded smoothing equals the 'same'-mode convolution
        # with the odd-sized 2-D kernel centred on a grid point
        from scipy.signal import fftconvolve

        qs, ps = phase_grid_axes(CTX, nq=40, npts=33)
        rng = np.random.default_rng(5)
        W = rng.normal(size=(40, 33)) + 1j * rng.normal(size=(40, 33))
        dq, dp = qs[1] - qs[0], ps[1] - ps[0]
        oq = (np.arange(39) - 19) * dq
        op = (np.arange(31) - 15) * dp
        K = np.exp(-np.add.outer(oq**2 / CTX.b**2, op**2 / CTX.c**2))
        ref = fftconvolve(W, K / K.sum(), mode="same")
        dev = smoothing_check(
            PhaseSpaceGrid(qs, ps, W), PhaseSpaceGrid(qs, ps, ref), CTX
        )
        assert dev < 1e-14

    @pytest.mark.parametrize("module", ["scipy.signal", "scipy.linalg"])
    def test_import_leaves_scipy_module_out(self, module):
        src = os.path.dirname(os.path.dirname(os.path.abspath(weylpath.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            f"import sys, weylpath; print({module!r} in sys.modules)\n"
            "from weylpath import *\n"
            "co = FluctuationCoeffs(A=[0.1, 0.2], B=[0.3, 0.1], C=[1.0, 1.1], tau=0.1)\n"
            "det_dense(build_matrix(co))\n"
            "sym = weyl_symbol(quartic_position_hamiltonian(0.1, ScaleContext.default()))\n"
            "traj = solve_bvp(sym, 0.7, 0.7, 0.5, steps=128)\n"
            "det_continuum(*trajectory_hessian_samplers(traj, sym), 0.5, steps=128)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False", "[]"]

    def test_geometry_mismatch_rejected(self):
        qs, ps = phase_grid_axes(CTX, nq=16, npts=16)
        qs2, ps2 = phase_grid_axes(CTX, nq=24, npts=24)
        gw = weyl_U_grid(H_HARM, CTX, 0.0, qs, ps, cutoff=60, check=False)
        gh = husimi_U_grid(H_HARM, CTX, 0.0, qs2, ps2, cutoff=60)
        with pytest.raises(ValueError):
            smoothing_check(gw, gh, CTX)

    def test_non_uniform_p_axis_refused(self):
        # the p step was read off the first two values alone: a non-uniform p axis, which both
        # grids take, gave a deviation of 0.131 against 0.0103 on the uniform axis
        qs, ps = phase_grid_axes(CTX, nq=33, npts=33)
        assert smoothing_check(*smoothing_pair(qs, ps), CTX) < 0.02
        ps[1] += 0.1
        with pytest.raises(InvalidArgument, match="^ps must be uniformly spaced"):
            smoothing_check(*smoothing_pair(qs, ps), CTX)

    def test_non_uniform_q_axis_refused(self):
        # weyl_U_grid refuses such a q axis, but a PhaseSpaceGrid of any axes reached the check
        qs, ps = phase_grid_axes(CTX, nq=24, npts=24)
        qs[5] -= 0.05
        grid = PhaseSpaceGrid(qs, ps, np.zeros((24, 24), dtype=complex))
        with pytest.raises(InvalidArgument, match="^qs must be uniformly spaced"):
            smoothing_check(grid, grid, CTX)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_values_refused(self, value):
        # a NaN or infinite grid value made the deviation NaN, returned unchecked
        qs, ps = phase_grid_axes(CTX, nq=24, npts=24)
        good = PhaseSpaceGrid(qs, ps, np.zeros((24, 24), dtype=complex))
        bad = PhaseSpaceGrid(qs, ps, good.values.copy())
        bad.values[12, 12] = value
        with pytest.raises(InvalidArgument, match="^weyl_values must be finite"):
            smoothing_check(bad, good, CTX)
        with pytest.raises(InvalidArgument, match="^husimi_values must be finite"):
            smoothing_check(good, bad, CTX)

    def test_margin_too_small(self):
        qs, ps = phase_grid_axes(CTX, nq=12, npts=12, q_widths=2.0, p_widths=2.0)
        gw = weyl_U_grid(H_HARM, CTX, 0.0, qs, ps, cutoff=40, check=False)
        gh = husimi_U_grid(H_HARM, CTX, 0.0, qs, ps, cutoff=40)
        with pytest.raises(DomainError, match="leave no interior"):
            smoothing_check(gw, gh, CTX, margin_sigmas=6.0)
        # a one-point axis has no step and no interior at any margin
        line = PhaseSpaceGrid(qs[:1], ps, gh.values[:1])
        with pytest.raises(DomainError, match="leave no interior"):
            smoothing_check(line, line, CTX)


class TestAreaIdentity:
    @pytest.mark.parametrize(
        "q, p, name", [(np.nan, 0.3, "q"), (0.4, np.inf, "p"), (True, 0.3, "q"), (0.4, "0.3", "p")],
        ids=["nan-q", "inf-p", "bool-q", "string-p"],
    )
    def test_non_finite_or_boolean_point_refused(self, q, p, name):
        # a NaN q returned a NaN pair, and True ran as 1
        path = DiscreteWPath(w=np.array([0.3 + 0.1j, -0.2j]), tau=0.1, zp=0.0, zpp=0.0)
        with pytest.raises(InvalidArgument, match=f"^{name} must be"):
            area_identity(path, q, p, CTX)

    def test_degenerate_pair_has_zero_area(self):
        path = DiscreteWPath(w=np.array([1.0, 1.0]), tau=0.1, zp=0.0, zpp=0.0)
        lhs, rhs = area_identity(path, 0.4, -0.3, CTX)
        assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14

    def test_identity_on_random_paths(self):
        rng = np.random.default_rng(97)
        for N in (2, 6, 10):
            for _ in range(40):
                w = rng.normal(size=N) + 1j * rng.normal(size=N)
                path = DiscreteWPath(w=w, tau=0.05, zp=0.1, zpp=0.2j)
                q, p = rng.normal(size=2)
                lhs, rhs = area_identity(path, q, p, CTX)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_rhs_is_width_independent(self):
        # fix the physical polygon (Q_k, P_k) and the point (q, p): the area
        # sum must not depend on which width encoded the labels
        rng = np.random.default_rng(101)
        Qs = rng.normal(size=6)
        Ps = rng.normal(size=6)
        q, p = 0.7, -0.4
        values = []
        for b in (0.5, 1.0, 2.0):
            ctx = ScaleContext(hbar=1.0, mass=1.0, omega=1.0, b=b)
            w = (Qs / ctx.b + 1j * Ps / ctx.c) / np.sqrt(2.0)
            path = DiscreteWPath(w=w, tau=0.1, zp=0.0, zpp=0.0)
            lhs, rhs = area_identity(path, q, p, ctx)
            assert abs(lhs - rhs) < 1e-12
            values.append(rhs)
        assert abs(values[0] - values[1]) < 1e-12
        assert abs(values[1] - values[2]) < 1e-12
