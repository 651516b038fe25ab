"""Coherent-state propagators in the Q, P and Weyl representations.

Numerical toolkit covering ladder-operator symbol calculus, a truncated
Fock-space exact oracle, the three discrete path-integral forms with their
harmonic closed forms, complex-trajectory semiclassical propagators with
fluctuation determinants, and the Wigner-Husimi connection on phase-space
grids.  ``_EXPORTS`` below is the one list of public names: each module
reads its ``__all__`` from its entry, and every name is exported here and
loads on its first read (PEP 562): ``import weylpath`` alone loads neither
numpy nor any submodule, and reading ``weylpath.semiclassical_K`` loads
semiclassics and the modules it imports, no other.  A submodule name, such
as ``weylpath.errors`` or ``weylpath.cli``, loads that submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module's public names: its __all__, read from here, and the names whose first read loads it
_EXPORTS = {
    "algebra": """OperatorPoly SymbolPoly ScaleContext normalize q_symbol p_symbol weyl_symbol
        weyl_quantize symbol_to_qp symbol_for_form load_hamiltonian harmonic_hamiltonian
        quartic_position_hamiltonian""",
    "coherent": """FockVector overlap fock_coherent operator_matrix FockOracle exact_propagator
        harmonic_exact_K displacement_element weyl_element""",
    "discrete": """DiscreteWPath phi_N phi_N_alt psi_C chord_coefficients phi_N_gradient
        stationary_path_harmonic harmonic_discrete_K mu_coefficients DiscGridSpec QuadKResult
        quadrature_K convergence_table""",
    "fluctuation": """FluctuationCoeffs DeterminantPair build_matrix block_tridiagonal det_dense
        det_recursive det_continuum""",
    "semiclassics": """ComplexTrajectory TrajectoryContribution SemiclassicalResult solve_bvp
        action_S correction_I d2S tracked_prefactor trajectory_hessian_samplers semiclassical_K""",
    "wigner": """PhaseSpaceGrid phase_grid_axes hermite_functions weyl_U_grid husimi_U_grid
        smoothing_check area_identity""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}
__all__: list = list(_HOME)


def __getattr__(name: str):
    """The submodule ``name``, or the exported ``name`` from its module, loaded on first read."""
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
