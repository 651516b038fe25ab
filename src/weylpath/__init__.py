"""Coherent-state propagators in the Q, P and Weyl representations.

Numerical toolkit covering ladder-operator symbol calculus, a truncated
Fock-space exact oracle, the three discrete path-integral forms with their
harmonic closed forms, complex-trajectory semiclassical propagators with
fluctuation determinants, and the Wigner-Husimi connection on phase-space
grids.
"""

from .algebra import (
    OperatorPoly,
    ScaleContext,
    SymbolPoly,
    harmonic_hamiltonian,
    load_hamiltonian,
    normalize,
    p_symbol,
    q_symbol,
    quartic_position_hamiltonian,
    symbol_for_form,
    symbol_to_qp,
    weyl_quantize,
    weyl_symbol,
)
from .coherent import (
    FockOracle,
    FockVector,
    PhasePoint,
    displacement_element,
    exact_propagator,
    fock_coherent,
    harmonic_exact_K,
    operator_matrix,
    overlap,
    weyl_element,
)
from .discrete import (
    DiscGridSpec,
    DiscreteWPath,
    convergence_table,
    harmonic_discrete_K,
    mu_coefficients,
    phi_N,
    phi_N_alt,
    psi_C,
    quadrature_K,
    stationary_path_harmonic,
)
from .fluctuation import (
    DeterminantPair,
    FluctuationCoeffs,
    block_tridiagonal,
    build_matrix,
    det_continuum,
    det_dense,
    det_recursive,
)
from .semiclassics import (
    ComplexTrajectory,
    SemiclassicalResult,
    action_S,
    correction_I,
    d2S,
    semiclassical_K,
    solve_bvp,
)
from .wigner import (
    PhaseSpaceGrid,
    area_identity,
    husimi_U_grid,
    phase_grid_axes,
    smoothing_check,
    weyl_U_grid,
)

from . import errors

__version__ = "0.1.0"
