import cmath
import itertools
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylpath import (
    DiscGridSpec,
    OperatorPoly,
    ScaleContext,
    SymbolPoly,
    fock_coherent,
    harmonic_discrete_K,
    harmonic_hamiltonian,
    load_hamiltonian,
    mu_coefficients,
    normalize,
    operator_matrix,
    p_symbol,
    q_symbol,
    quadrature_K,
    quartic_position_hamiltonian,
    semiclassical_K,
    symbol_for_form,
    symbol_to_qp,
    weyl_quantize,
    weyl_symbol,
)
import weylpath
from weylpath import algebra, coherent, discrete, fluctuation, semiclassics, wigner
from weylpath.algebra import FORM_S, _apply_exp_mixed
from weylpath.errors import DomainError, HamiltonianFormatError, InvalidArgument, WeylPathError


def assert_terms(actual: dict, expected: dict, tol: float = 1e-12):
    keys = set(actual) | set(expected)
    for k in keys:
        assert abs(actual.get(k, 0.0) - expected.get(k, 0.0)) <= tol, (
            k,
            actual.get(k),
            expected.get(k),
        )


def random_hermitian(rng, max_degree: int) -> OperatorPoly:
    terms = {}
    for m in range(max_degree + 1):
        for n in range(max_degree + 1 - m):
            if (n, m) in terms:
                terms[(m, n)] = np.conj(terms[(n, m)])
            else:
                c = rng.normal() + 1j * rng.normal()
                terms[(m, n)] = c.real if m == n else c
    return OperatorPoly(terms)


class TestNormalize:
    def test_single_commutator(self):
        assert_terms(normalize([(1, "a adag")]).terms, {(1, 1): 1, (0, 0): 1})

    def test_already_normal(self):
        assert_terms(normalize([(1, "adag a")]).terms, {(1, 1): 1})

    def test_double_word_against_fock_matrices(self):
        # verify a a adag adag by multiplying truncated ladder matrices
        op = normalize([(1, "a a adag adag")])
        assert_terms(op.terms, {(2, 2): 1, (1, 1): 4, (0, 0): 2})
        dim = 6
        a = np.diag(np.sqrt(np.arange(1, dim + 3)), k=1)
        word = a @ a @ a.conj().T @ a.conj().T
        built = operator_matrix(op, dim + 2)
        assert np.max(np.abs(word[:dim, :dim] - built[:dim, :dim])) < 1e-12

    def test_empty_input(self):
        assert normalize([]).terms == {}

    def test_linear_in_coefficients(self):
        mixed = normalize([(2.0, "a adag"), (-1j, "adag a")])
        assert_terms(mixed.terms, {(1, 1): 2 - 1j, (0, 0): 2})

    def test_product_is_homomorphism(self):
        # canonical product must agree with truncated matrix multiplication
        rng = np.random.default_rng(7)
        for _ in range(5):
            p1 = random_hermitian(rng, 2)
            p2 = random_hermitian(rng, 2)
            prod = p1 * p2
            cutoff = 12
            m1 = operator_matrix(p1, cutoff)
            m2 = operator_matrix(p2, cutoff)
            mp = operator_matrix(prod, cutoff)
            inner = slice(0, cutoff - 3)  # rows unaffected by truncation
            assert np.max(np.abs((m1 @ m2 - mp)[inner, inner])) < 1e-10

    def test_product_beyond_double_range_is_refused(self):
        # a adag = adag a + 1 at the coefficient 1e400 came back with inf coefficients
        with pytest.raises(DomainError, match=r"^term \(1, 1\): .* is not a finite double$"):
            OperatorPoly({(0, 1): 1e200}) * OperatorPoly({(1, 0): 1e200})

    @pytest.mark.parametrize(
        "terms, message",
        [
            ({(1.5, 0): 1.0}, r"each exponent of term \(1.5, 0\) must be an integer, got 1.5"),
            ({(1, -1): 1.0}, r"each exponent of term \(1, -1\) must be at least 0, got -1"),
            ({(0, 0): 1.0, (1, 1): math.nan}, r"coefficients must be finite, got \[1.0, nan\]"),
            ({(1, 1): "2"}, r"coefficients must be a number, got \['2'\]"),
        ],
        ids=["fractional-exponent", "negative-exponent", "nan-coefficient", "string-coefficient"],
    )
    def test_bad_term_refused_at_construction(self, terms, message):
        # a NaN coefficient gave NaN oracle eigenvalues and a NonConverged by nan
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            OperatorPoly(terms)

    @pytest.mark.parametrize(
        "compute, what",
        [
            (lambda: OperatorPoly({(0, 0): 1e308}) + OperatorPoly({(0, 0): 1e308}), "sum"),
            (lambda: normalize([(1e154, "a"), (1e154, "adag")])
             * normalize([(1e154, "adag"), (1e154, "a")]), "product"),
            (lambda: SymbolPoly({(1, 1): 1e308}) + SymbolPoly({(1, 1): 1e308}), "sum"),
            (lambda: SymbolPoly({(1, 1): 1e308}) - SymbolPoly({(1, 1): -1e308}), "difference"),
            (lambda: SymbolPoly({(1, 1): 1e308}).scaled(10), "scaled symbol"),
        ],
        ids=["operator-sum", "operator-square", "symbol-sum", "symbol-difference", "scaled"],
    )
    def test_arithmetic_beyond_double_range_is_a_domain_error(self, compute, what):
        # the sums were refused as InvalidArgument, the scaling returned an inf coefficient
        with pytest.raises(DomainError, match=f"^a coefficient of the {what} is not a finite double$"):
            compute()


class TestSymbols:
    @pytest.mark.parametrize(
        "terms, message",
        [
            ({(-1, 0): 2.0}, r"each exponent of term \(-1, 0\) must be at least 0, got -1"),
            ({(1.5, 0): 2.0}, r"each exponent of term \(1.5, 0\) must be an integer, got 1.5"),
            ({(1, 1): math.nan}, r"coefficients must be finite, got \[nan\]"),
        ],
        ids=["negative-exponent", "fractional-exponent", "nan-coefficient"],
    )
    def test_symbol_terms_follow_the_operator_rule(self, terms, message):
        # v^-1 ran as "c0 * v-1" (9 at (3, 5)), a 1.5 exponent as 1, NaN as NaN
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            SymbolPoly(terms)

    @pytest.mark.parametrize(
        "terms, message",
        [
            ({(1, 2, 3): 1.0}, r"each term must be an exponent pair \(m, n\), got \(1, 2, 3\)"),
            ({1: 1.0}, r"each term must be an exponent pair \(m, n\), got 1"),
            ({(0, 0): True}, r"the coefficient of term \(0, 0\) must be a number, not the boolean True"),
            ({(1, 0): np.bool_(False)},
             r"the coefficient of term \(1, 0\) must be a number, not the boolean False"),
            ({(0, 0): [1.0]}, r"the coefficient of term \(0, 0\) must be a number, got \[1.0\]"),
        ],
        ids=["triple-key", "int-key", "boolean", "numpy-boolean", "list"],
    )
    @pytest.mark.parametrize("cls", [OperatorPoly, SymbolPoly])
    def test_keys_and_coefficients_refused_in_the_errors_wording(self, cls, terms, message):
        # a triple ended in a bare ValueError, an int key in a TypeError, True ran as 1 (False
        # as a dropped zero) and [1.0] ended in a TypeError from complex()
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            cls(terms)

    def test_numpy_scalar_coefficients_are_numbers(self):
        terms = {(1, 1): np.float64(2.0), (0, 1): np.complex128(1j), (0, 0): np.int64(3)}
        assert OperatorPoly(terms).terms == {(1, 1): 2.0, (0, 1): 1j, (0, 0): 3.0}

    def test_exponents_are_stored_as_python_ints(self):
        sym = SymbolPoly({(np.int64(2), np.int32(1)): 1.0})
        assert [type(k) for key in sym.terms for k in key] == [int, int]
        assert sym.eval(2.0, 3.0) == 18.0

    def test_harmonic_q(self):
        ctx = ScaleContext.default()
        sym = q_symbol(harmonic_hamiltonian(ctx))
        assert_terms(sym.terms, {(1, 1): 1.0, (0, 0): 0.5})

    def test_harmonic_p(self):
        ctx = ScaleContext.default()
        sym = p_symbol(harmonic_hamiltonian(ctx))
        assert_terms(sym.terms, {(1, 1): 1.0, (0, 0): -0.5})

    def test_harmonic_w(self):
        ctx = ScaleContext.default()
        sym = weyl_symbol(harmonic_hamiltonian(ctx))
        assert_terms(sym.terms, {(1, 1): 1.0})

    def test_number_operator_commutators(self):
        num = OperatorPoly({(1, 1): 1.0})
        assert_terms(p_symbol(num).terms, {(1, 1): 1.0, (0, 0): -1.0})
        assert_terms(weyl_symbol(num).terms, {(1, 1): 1.0, (0, 0): -0.5})
        a_adag = normalize([(1, "a adag")])
        assert_terms(q_symbol(a_adag).terms, {(1, 1): 1.0, (0, 0): 1.0})

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_quartic_symbol_table(self, b):
        # H = p^2/2 + x^2/2 + x^4 at hbar = m = 1 with free width b
        ctx = ScaleContext(hbar=1.0, mass=1.0, omega=1.0, b=b)
        H = quartic_position_hamiltonian(1.0, ctx)
        hq = symbol_to_qp(q_symbol(H), ctx)
        hp = symbol_to_qp(p_symbol(H), ctx)
        hw = symbol_to_qp(weyl_symbol(H), ctx)
        shift = 0.25 * (b**2 + 1.0 / b**2)
        assert_terms(
            hq,
            {(0, 2): 0.5, (2, 0): 0.5 + 3 * b**2, (4, 0): 1.0,
             (0, 0): shift + 0.75 * b**4},
        )
        assert_terms(
            hp,
            {(0, 2): 0.5, (2, 0): 0.5 - 3 * b**2, (4, 0): 1.0,
             (0, 0): -shift + 0.75 * b**4},
        )
        assert_terms(hw, {(0, 2): 0.5, (2, 0): 0.5, (4, 0): 1.0})

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_average_minus_weyl_is_constant(self, b):
        ctx = ScaleContext(hbar=1.0, mass=1.0, omega=1.0, b=b)
        H = quartic_position_hamiltonian(1.0, ctx)
        avg = (q_symbol(H) + p_symbol(H)).scaled(0.5)
        diff = avg - weyl_symbol(H)
        assert_terms(diff.trimmed().terms, {(0, 0): 0.75 * b**4})

    def test_degree_three_average_identity(self):
        # exact average W = (Q + P)/2 holds for total degree <= 3
        rng = np.random.default_rng(11)
        for _ in range(20):
            op = random_hermitian(rng, 3)
            avg = (q_symbol(op) + p_symbol(op)).scaled(0.5)
            assert_terms(avg.terms, weyl_symbol(op).terms, tol=1e-13)

    def test_q_symbol_is_coherent_expectation(self):
        rng = np.random.default_rng(13)
        cutoff = 60
        for _ in range(8):
            op = random_hermitian(rng, 4)
            mat = operator_matrix(op, cutoff)
            z = (rng.normal() + 1j * rng.normal()) * 0.9
            vec = fock_coherent(z, cutoff).amplitudes
            expect = np.vdot(vec, mat @ vec)
            val = q_symbol(op).eval(z, np.conj(z))
            assert abs(val - expect) < 1e-10

    def test_hermitian_source_gives_real_section_values(self):
        rng = np.random.default_rng(17)
        op = random_hermitian(rng, 4)
        for sym in (q_symbol(op), p_symbol(op), weyl_symbol(op)):
            for _ in range(10):
                z = rng.normal() + 1j * rng.normal()
                assert abs(np.imag(sym.eval(z, np.conj(z)))) < 1e-12


FORM_ENTRY_POINTS = {
    "symbol_for_form": lambda H, form: symbol_for_form(H, form),
    "semiclassical_K-T0": lambda H, form: semiclassical_K(form, H, 0.3, 0.2j, 0.0),
    "semiclassical_K": lambda H, form: semiclassical_K(form, H, 0.3, 0.2j, 0.5),
    "quadrature_K": lambda H, form: quadrature_K(form, H, 0.3, 0.2j, 0.2, 2, DiscGridSpec(16)),
    "harmonic_discrete_K": lambda H, form: harmonic_discrete_K(form, 0.3, 0.2j, 1.0, 0.5, 2),
}


@pytest.mark.parametrize("entry", FORM_ENTRY_POINTS.values(), ids=list(FORM_ENTRY_POINTS))
def test_every_entry_point_checks_the_form(entry):
    H = harmonic_hamiltonian(ScaleContext.default())
    with pytest.raises(ValueError, match=r"^unknown form 'x'; expected q, p or w$"):
        entry(H, "x")
    entry(H, "W")  # the name is read in either case


@pytest.mark.parametrize("entry", FORM_ENTRY_POINTS.values(), ids=list(FORM_ENTRY_POINTS))
@pytest.mark.parametrize("form", [1, None, b"w"], ids=["int", "None", "bytes"])
def test_non_string_form_refused(entry, form):
    # each ended in AttributeError: ... has no attribute 'lower'
    H = harmonic_hamiltonian(ScaleContext.default())
    with pytest.raises(InvalidArgument, match=rf"^form must be a string, got {form!r}$"):
        entry(H, form)


class TestSymbolCache:
    def test_equal_content_gives_the_same_symbol(self):
        first = symbol_for_form(quartic_position_hamiltonian(0.1, ScaleContext.default()), "w")
        again = symbol_for_form(quartic_position_hamiltonian(0.1, ScaleContext.default()), "W")
        assert again is first and weyl_symbol(quartic_position_hamiltonian(0.1, ScaleContext.default())) is first
        assert symbol_for_form(quartic_position_hamiltonian(0.1, ScaleContext.default()), "q") is not first

    def test_a_different_hbar_gives_a_new_symbol(self):
        H = harmonic_hamiltonian(ScaleContext.default())
        sym = symbol_for_form(H, "w")
        for other in (harmonic_hamiltonian(ScaleContext.default(hbar=0.5)), OperatorPoly(H.terms, hbar=2.0)):
            new = symbol_for_form(other, "w")
            assert new is not sym and new.terms == weyl_symbol(other).terms
        assert symbol_for_form(H, "w") is sym

    def test_the_cache_is_bounded(self):
        # the 64 most recently used symbols are kept: one read between 70 other inserts stays
        first = symbol_for_form(OperatorPoly({(1, 1): 1.0}), "p")
        oldest = symbol_for_form(OperatorPoly({(1, 1): 2.0}), "p")
        for k in range(70):
            symbol_for_form(OperatorPoly({(1, 1): 3.0 + k}), "p")
            assert algebra._symbol.cache_info().currsize <= 64
            assert symbol_for_form(OperatorPoly({(1, 1): 1.0}), "p") is first
        again = symbol_for_form(OperatorPoly({(1, 1): 2.0}), "p")
        assert again is not oldest and again.terms == oldest.terms


class TestWeylQuantize:
    def test_harmonic_square_sum(self):
        ctx = ScaleContext(hbar=1.0, mass=1.0, omega=1.0, b=1.0)
        op = weyl_quantize({(2, 0): 1.0, (0, 2): 1.0}, ctx)
        assert_terms(op.terms, {(1, 1): 2.0, (0, 0): 1.0})

    def test_qp_cross_term_round_trip(self):
        ctx = ScaleContext(hbar=1.0, mass=1.0, omega=1.0, b=1.3)
        op = weyl_quantize({(1, 1): 1.0}, ctx)
        bc = ctx.b * ctx.c
        assert_terms(op.terms, {(2, 0): 0.5j * bc, (0, 2): -0.5j * bc})
        back = symbol_to_qp(weyl_symbol(op), ctx)
        assert_terms(back, {(1, 1): 1.0})

    def test_quartic_position_power(self):
        ctx = ScaleContext(hbar=1.0, mass=1.0, omega=1.0, b=1.0)
        op = weyl_quantize({(4, 0): 1.0}, ctx)
        assert_terms(
            op.terms,
            {(4, 0): 0.25, (3, 1): 1.0, (2, 2): 1.5, (1, 3): 1.0, (0, 4): 0.25,
             (2, 0): 1.5, (1, 1): 3.0, (0, 2): 1.5, (0, 0): 0.75},
        )
        back = symbol_to_qp(weyl_symbol(op), ctx)
        assert_terms(back, {(4, 0): 1.0})

    def test_round_trip_random_polynomials(self):
        rng = np.random.default_rng(19)
        ctx = ScaleContext(hbar=0.7, mass=1.2, omega=0.9, b=0.8)
        for _ in range(10):
            qp = {
                (int(rng.integers(0, 4)), int(rng.integers(0, 4))): complex(
                    rng.normal()
                )
                for _ in range(4)
            }
            op = weyl_quantize(qp, ctx)
            back = symbol_to_qp(weyl_symbol(op), ctx)
            assert_terms(back, qp, tol=1e-11)


UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_ops(draw):
    """Hermitian ladder polynomials of degree <= 6 with unit-sized coefficients."""
    hbar = draw(st.floats(0.25, 4.0))
    pairs = [(m, n) for m in range(7) for n in range(m, 7 - m)]
    terms: dict = {}
    for m, n in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True)):
        c = complex(draw(UNIT), 0.0 if m == n else draw(UNIT))
        terms[(m, n)] = c
        terms[(n, m)] = c.conjugate()
    return OperatorPoly(terms, hbar)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(op=hermitian_ops(), b=st.floats(0.5, 2.0))
def test_weyl_symbol_quantize_round_trip_property(op, b):
    ctx = ScaleContext(hbar=op.hbar, b=b)
    back = weyl_quantize(symbol_to_qp(weyl_symbol(op), ctx), ctx)
    assert back.hbar == op.hbar
    assert_terms(back.terms, op.terms, tol=1e-12)


@st.composite
def ladder_ops(draw):
    """Ladder polynomials of degree <= 6 with complex unit-sized coefficients."""
    pairs = [(m, n) for m in range(7) for n in range(7 - m)]
    keys = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10, unique=True))
    return OperatorPoly({key: complex(draw(UNIT), draw(UNIT)) for key in keys})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(op=ladder_ops())
@example(op=OperatorPoly({(0, 0): 5e-324j}))  # 1e-12 * scale underflows to a zero tolerance
def test_form_to_form_round_trip_property(op):
    # exp((s_b - s_a) d_u d_v) takes the form-a symbol to the form-b symbol
    symbols = {form: symbol_for_form(op, form).terms for form in FORM_S}
    scale = max((abs(c) for terms in symbols.values() for c in terms.values()), default=1.0)
    for a, b in itertools.permutations(FORM_S, 2):
        mapped = _apply_exp_mixed(symbols[a], FORM_S[b] - FORM_S[a])
        assert_terms(mapped, symbols[b], tol=1e-12 * scale)


@pytest.mark.parametrize(
    "term, symbols",
    [((171, 171), (p_symbol,)), ((171, 200), (p_symbol,)), ((200, 200), (p_symbol, weyl_symbol))],
)
def test_coefficient_beyond_double_range_names_its_term(term, symbols):
    # k! C(m, k) C(n, k) s^k leaves the float range: a DomainError names the term
    for symbol in symbols:
        with pytest.raises(DomainError, match=rf"term \({term[0]}, {term[1]}\)"):
            symbol(OperatorPoly({term: 1.0}))


def test_large_weight_rounded_once():
    # 171! / 2^171 = 4.1e257 is a double although 171! is not
    W = weyl_symbol(OperatorPoly({(171, 171): 1.0}))
    assert W.terms[(0, 0)] == -(math.factorial(171) / 2**171)
    assert all(cmath.isfinite(c) for c in W.terms.values())


NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-1000, 1000)
)
SCALE = st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False), st.integers(1, 1000))
LOADER_INPUT = st.fixed_dictionaries(
    {
        "ordering": st.sampled_from(["normal", "weyl_qp"]),
        "terms": st.lists(
            st.fixed_dictionaries(
                {"m": st.integers(0, 200), "n": st.integers(0, 200)},
                optional={"re": NUMBER, "im": NUMBER},
            ),
            max_size=3,
        ),
    },
    optional={"hbar": SCALE, "mass": SCALE, "omega": SCALE, "width_b": SCALE},
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=LOADER_INPUT)
def test_loader_gives_finite_symbols_or_a_package_error(data):
    try:
        op, _ = load_hamiltonian(data)
        symbols = [q_symbol(op), p_symbol(op), weyl_symbol(op)]
    except WeylPathError:
        return
    for sym in symbols:
        assert all(cmath.isfinite(c) for c in sym.terms.values())


@pytest.mark.parametrize(
    "module", [algebra, coherent, discrete, fluctuation, semiclassics, wigner]
)
def test_package_exports_every_public_name(module):
    missing = [name for name in module.__all__ if not hasattr(weylpath, name)]
    assert not missing


def fresh_python(code: str) -> list:
    """The lines ``code`` prints in a fresh interpreter that finds this weylpath first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylpath.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


MODULES = ("algebra", "coherent", "discrete", "fluctuation", "semiclassics", "wigner")


class TestLazyNamespace:
    """``import weylpath`` loads nothing; a name loads its module on first read (PEP 562)."""

    def test_import_loads_no_numpy_and_no_submodule(self):
        code = "import sys, weylpath\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'"
        code += " or m.startswith('weylpath.')))"
        assert fresh_python(code) == ["[]"]

    def test_a_name_loads_its_module_alone(self):
        code = "import sys, weylpath\nweylpath.ScaleContext\nprint('ScaleContext' in vars(weylpath))\n"
        code += "print(sorted(m for m in sys.modules if m.startswith('weylpath.')))"
        assert fresh_python(code) == ["True", "['weylpath.algebra', 'weylpath.errors']"]

    def test_every_name_is_its_modules_own_object(self):
        code = (
            "import importlib, weylpath\n"
            f"for module in {MODULES!r}:\n"
            "    mod = importlib.import_module('weylpath.' + module)\n"
            "    print(module, all(getattr(weylpath, name) is getattr(mod, name) for name in mod.__all__))\n"
        )
        assert fresh_python(code) == [f"{module} True" for module in MODULES]

    def test_submodules_resolve_without_an_import(self):
        code = "import weylpath\nprint(weylpath.errors.__name__, weylpath.semiclassics.__name__, weylpath.cli.__name__)"
        assert fresh_python(code) == ["weylpath.errors weylpath.semiclassics weylpath.cli"]

    def test_unknown_name_is_an_attribute_error(self):
        code = "import weylpath\nprint(hasattr(weylpath, 'no_such_name'), getattr(weylpath, 'no_such_name', 0))"
        assert fresh_python(code) == ["False 0"]

    def test_all_and_dir_are_the_union_of_the_module_lists(self):
        code = (
            "import importlib, weylpath\n"
            "listed, shown = list(weylpath.__all__), dir(weylpath)\n"  # before any module loads
            f"modules = [importlib.import_module('weylpath.' + m) for m in {MODULES!r}]\n"
            "names = [name for mod in modules for name in mod.__all__]\n"
            "print(len(names) == len(set(names)))\n"  # no name in two lists: lookup order is moot
            "print(sorted(listed) == sorted(names))\n"
            "print(set(names) <= set(shown))\n"
        )
        assert fresh_python(code) == ["True", "True", "True"]


H_BOOL = OperatorPoly({(1, 1): 1.0, (0, 0): 0.5})
ZERO = lambda t: 0.0


@pytest.mark.parametrize("true", [True, np.True_], ids=["python", "numpy"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda x: coherent.exact_propagator(H_BOOL, 0.3, 0.2, x, cutoff=40), "T"),
        (lambda x: semiclassical_K("w", H_BOOL, 0.3, 0.2, x), "T"),
        (lambda x: quadrature_K("w", H_BOOL, 0.3, 0.2, x, 2), "T"),
        (lambda x: coherent.harmonic_exact_K(0.3, 0.2, 1.0, x), "T"),
        (lambda x: semiclassics.solve_bvp(q_symbol(H_BOOL), 0.3, 0.2, 0.5, hbar=x), "hbar"),
        (lambda x: fluctuation.det_continuum(ZERO, ZERO, ZERO, x), "T"),
        (lambda x: fluctuation.det_continuum(ZERO, ZERO, ZERO, 1.0, hbar=x), "hbar"),
        (lambda x: OperatorPoly({(1, 1): 1.0}, hbar=x), "hbar"),
        (lambda x: ScaleContext(omega=x), "omega"),
        (lambda x: ScaleContext.default(hbar=x), "hbar"),
        (lambda x: mu_coefficients(x, 1.0, 2), "omega"),
        (lambda x: harmonic_discrete_K("w", 0.1, 0.2, x, 1.0, 2), "omega"),
        (lambda x: quadrature_K("w", H_BOOL, x, 0.2, 1.0, 2), "zp"),
        (lambda x: wigner.smoothing_check(None, None, ScaleContext(), margin_sigmas=x),
         "margin_sigmas"),
        (lambda x: coherent.displacement_element(x, 0.0, 0.3, 0.2, ScaleContext()), "q"),
    ],
    ids=["exact_propagator", "semiclassical_K", "quadrature_K", "harmonic_exact_K",
         "solve_bvp", "det_continuum-T", "det_continuum-hbar", "OperatorPoly", "ScaleContext",
         "ScaleContext.default", "mu_coefficients", "harmonic_discrete_K", "quadrature_K-zp",
         "smoothing_check", "displacement_element"],
)
def test_booleans_are_not_numbers(call, name, true):
    # each of these used to run as if given 1
    with pytest.raises(ValueError, match=f"^{name} must be a number, not the boolean True$"):
        call(true)


class TestJet:
    def test_powers_are_multiplied_out_without_the_power_operator(self):
        # the evaluator forms each power as a product of two lower ones along one chain
        # (x7 = x3 x4, x6 = x2 x4) for the jets, the flow and the Hessian, and never calls **
        products = []

        class Power:
            def __init__(self, name, k):
                self.name, self.k = name, k

            def __mul__(self, other):  # a coefficient or the other variable keeps the power
                if isinstance(other, Power) and other.name == self.name:
                    products.append((self.name, self.k + other.k, self.k, other.k))
                    return Power(self.name, self.k + other.k)
                return self

            __rmul__ = __mul__

            def __add__(self, other):
                return self

            def __pow__(self, k):
                raise AssertionError(f"{self.name} ** {k}")

        sym = SymbolPoly({(6, 0): 0.3 - 0.1j, (0, 5): 0.2j, (3, 2): 0.1, (7, 7): 1.0})
        sym.jet(Power("u", 1), Power("v", 1))
        assert ("u", 7, 3, 4) in products and ("v", 6, 2, 4) in products
        for f in sym.flow(0.5):
            f(Power("q", 1), Power("p", 1))
        assert {name for name, *_ in products} == {"u", "v", "q", "p"}
        for _, k, low, high in products:
            top = 1 << (k.bit_length() - 1)
            assert (low, high) == ((k - top or top // 2), k - (k - top or top // 2))

    def test_plain_product(self):
        H, Hu, Hv, Huu, Hvv, Huv = SymbolPoly({(1, 1): 1.0}).jet(2.0, 3.0)
        assert H == 6.0
        assert Hu == 3.0 and Hv == 2.0
        assert Huv == 1.0 and Huu == 0.0 and Hvv == 0.0

    def test_hermitian_real_section(self):
        ctx = ScaleContext.default()
        sym = q_symbol(harmonic_hamiltonian(ctx))
        z = 0.3 - 1.1j
        (H,) = sym.jet(z, np.conj(z), order=0)
        assert abs(np.imag(H)) < 1e-14

    def test_second_derivatives_match_finite_differences(self):
        ctx = ScaleContext.default()
        sym = weyl_symbol(quartic_position_hamiltonian(1.0, ctx))
        u0, v0 = 0.4 + 0.2j, -0.3 + 0.5j
        _, _, _, Huu, Hvv, Huv = sym.jet(u0, v0)

        def stencils(h):
            uu = (sym.eval(u0 + h, v0) - 2 * sym.eval(u0, v0) + sym.eval(u0 - h, v0)) / h**2
            vv = (sym.eval(u0, v0 + h) - 2 * sym.eval(u0, v0) + sym.eval(u0, v0 - h)) / h**2
            uv = (
                sym.eval(u0 + h, v0 + h)
                - sym.eval(u0 + h, v0 - h)
                - sym.eval(u0 - h, v0 + h)
                + sym.eval(u0 - h, v0 - h)
            ) / (4 * h**2)
            return np.array([uu, vv, uv])

        # one Richardson pass removes the O(h^2) truncation bias
        coarse, fine = stencils(2e-4), stencils(1e-4)
        fd = (4 * fine - coarse) / 3
        exact = np.array([Huu, Hvv, Huv])
        assert np.max(np.abs(fd - exact)) < 1e-8

    def test_order_validation(self):
        for order in (-1, 3):  # -1 would index a tuple of the three orders from its end
            with pytest.raises(InvalidArgument, match="^order must be 0, 1 or 2$"):
                SymbolPoly({}).jet(0, 0, order=order)

    @pytest.mark.parametrize(
        "order, message",
        [(True, "order must be a number, not the boolean True"),
         (1.0, "order must be an integer, got 1.0")],
        ids=["boolean", "float"],
    )
    def test_order_must_be_an_integer(self, order, message):
        # each ran as order 1
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            SymbolPoly({(1, 1): 1.0}).jet(2.0, 3.0, order)

    def test_pickles_after_use(self):
        sym = weyl_symbol(harmonic_hamiltonian(ScaleContext.default()))
        before = sym.jet(0.3 + 0.1j, 0.2)
        again = pickle.loads(pickle.dumps(sym))
        assert again.terms == sym.terms
        assert again.jet(0.3 + 0.1j, 0.2) == before

    def test_arrays_match_pointwise(self):
        # arrays go through numpy and the broadcast of constant parts,
        # scalars through plain complex arithmetic; the numbers must agree
        ctx = ScaleContext.default()
        rng = np.random.default_rng(41)
        u = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
        v = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        for sym in (
            p_symbol(quartic_position_hamiltonian(0.3, ctx)),
            weyl_symbol(harmonic_hamiltonian(ctx)),
            SymbolPoly({(0, 0): 2.5}),
        ):
            batch = sym.jet(u, v)
            for i in range(3):
                for j in range(4):
                    single = sym.jet(complex(u[i, 0]), complex(v[0, j]))
                    for part, value in zip(batch, single):
                        assert part.shape == (3, 4)
                        assert abs(part[i, j] - value) <= 1e-13 * max(1.0, abs(value))


class TestScaleContext:
    def test_width_product_is_hbar(self):
        ctx = ScaleContext(hbar=0.7, mass=2.0, omega=3.0, b=0.4)
        assert ctx.b * ctx.c == pytest.approx(0.7, abs=1e-15)

    def test_default_width(self):
        ctx = ScaleContext.default(hbar=2.0, mass=0.5, omega=4.0)
        assert ctx.b == pytest.approx(math.sqrt(2.0 / 2.0))
        assert ScaleContext(hbar=0.5) == ScaleContext.default(hbar=0.5)  # b left out

    def test_default_width_beyond_the_product_range(self):
        # m omega = 1e-400 is no double, but b = 1e200 is
        ctx = ScaleContext.default(mass=1e-200, omega=1e-200)
        assert ctx.b == pytest.approx(1e200, rel=1e-15)
        _, loaded = load_hamiltonian({"mass": 1e-200, "omega": 1e-200, "terms": []})
        assert loaded == ctx

    @pytest.mark.parametrize(
        "scales", [{"mass": -1.0}, {"omega": 0.0}, {"hbar": math.nan}, {"mass": math.inf}]
    )
    def test_default_refuses_bad_scales(self, scales):
        (name,) = scales
        with pytest.raises(ValueError, match=f"^{name} must be positive, got "):
            ScaleContext.default(**scales)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            ScaleContext(hbar=-1.0)


class TestHamiltonianLoader:
    def test_normal_ordering(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(
            '{"hbar": 1.0, "omega": 2.0, "ordering": "normal",'
            ' "terms": [{"m": 1, "n": 1, "re": 2.0}, {"m": 0, "n": 0, "re": 1.0}]}'
        )
        op, ctx = load_hamiltonian(str(path))
        assert_terms(op.terms, {(1, 1): 2.0, (0, 0): 1.0})
        assert ctx.omega == 2.0
        assert ctx.b == pytest.approx(math.sqrt(0.5))

    def test_weyl_qp_ordering(self):
        data = {
            "hbar": 1.0,
            "width_b": 1.0,
            "ordering": "weyl_qp",
            "terms": [{"m": 2, "n": 0, "re": 1.0}, {"m": 0, "n": 2, "re": 1.0}],
        }
        op, _ = load_hamiltonian(data)
        assert_terms(op.terms, {(1, 1): 2.0, (0, 0): 1.0})

    def test_rejects_unknown_ordering(self):
        with pytest.raises(HamiltonianFormatError, match="ordering"):
            load_hamiltonian({"ordering": "antinormal", "terms": []})

    def test_rejects_bad_term_fields(self):
        with pytest.raises(HamiltonianFormatError, match=r"terms\[0\].n"):
            load_hamiltonian(
                {"ordering": "normal", "terms": [{"m": 1, "n": -2, "re": 1.0}]}
            )

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"m": 1, "n": -2}, r"terms\[0\].n must be at least 0, got -2"),
            ({"m": 1.0, "n": 1}, r"terms\[0\].m must be an integer, got 1.0"),
            ({"n": 1}, r"terms\[0\].m must be an integer, got None"),
            ({"m": 1, "n": 1, "re": True}, r"terms\[0\].re must be a number, not the boolean True"),
            ({"m": 1, "n": 1, "im": "1"}, r"terms\[0\].im must be a number, got '1'"),
            ({"m": 1, "n": 1, "re": [1.0]}, r"terms\[0\].re must be a number, got \[1.0\]"),
            ({"m": 1, "n": 1, "im": math.inf}, r"terms\[0\].im must be finite, got inf"),
        ],
        ids=["negative-n", "float-m", "missing-m", "bool-re", "string-im", "list-re", "inf-im"],
    )
    def test_term_fields_refused_in_the_errors_wording(self, entry, message):
        with pytest.raises(HamiltonianFormatError, match=f"^{message}$"):
            load_hamiltonian({"terms": [entry]})

    def test_unreadable_path_refused(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(HamiltonianFormatError, match=f"^cannot read {re.escape(str(path))}: "):
            load_hamiltonian(str(path))

    def test_json_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"hbar": 1.0,\n  "terms": [}')
        with pytest.raises(HamiltonianFormatError, match="line 2"):
            load_hamiltonian(str(path))

    @pytest.mark.parametrize(
        "data",
        [
            {"hbar": True},
            {"hbar": float("inf")},
            {"terms": [{"m": 1, "n": 1, "re": float("nan")}]},
            {"terms": [{"m": True, "n": 1, "re": 1.0}]},
            {"hbar": 10**400},
        ],
        ids=["bool-hbar", "infinite-hbar", "nan-re", "bool-m", "huge-int-hbar"],
    )
    def test_rejects_non_finite_and_boolean_numbers(self, data):
        with pytest.raises(HamiltonianFormatError):
            load_hamiltonian({"ordering": "normal", "terms": [], **data})

    def test_duplicate_terms_beyond_double_range(self):
        terms = [{"m": 1, "n": 1, "re": 1e308}, {"m": 1, "n": 1, "re": 1e308}]
        with pytest.raises(DomainError, match=r"terms\[1\]: the coefficient of term \(1, 1\)"):
            load_hamiltonian({"ordering": "normal", "terms": terms})

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(HamiltonianFormatError, match="hbar"):
            load_hamiltonian({"hbar": 0.0, "ordering": "normal", "terms": []})

    def test_width_b_is_named_as_in_the_file_and_read_as_a_float(self):
        with pytest.raises(HamiltonianFormatError, match="^width_b must be positive, got -1$"):
            load_hamiltonian({"width_b": -1, "ordering": "normal", "terms": []})
        assert repr(load_hamiltonian({"width_b": 2, "terms": []})[1].b) == "2.0"
