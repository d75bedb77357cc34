"""DG time stepping for linearly constrained parabolic systems.

Discontinuous Galerkin discretization in time (piecewise polynomials of
degree q - 1 per slab) for systems M u' + A u + B1^T p = f subject to
linear constraints B1 u = g1 (weak, via a Lagrange multiplier) and
B2 u = g2 (explicit, eliminated with pinv([B1; B2])).  Constraint data is
projected slab-wise onto polynomials that interpolate at the slab
endpoints; this single modification preserves nodal superconvergence of
order 2q - 1 and the optimal multiplier rate q, both of which degrade with
plain data treatment.
"""

from .analysis import (
    EOC_FLOOR,
    EOCTable,
    StudyRow,
    eoc,
    error_l2_energy,
    error_l2_multiplier,
    error_nodal_max,
    l2_project_broken,
    run_study,
)
from .dgsolver import (
    DataError,
    MixedSolution,
    SlabSolveError,
    SolverOptions,
    constraint_residual,
    dg_residual,
    solve_constrained,
    solve_mixed,
    solve_monolithic,
)
from .projection import ProjectionSpec, project_broken, project_slab
from .systems import (
    DEFAULT_HEAT_SOLUTION,
    PRESET_FUNCTIONS,
    Check,
    ConstrainedSystem,
    ManufacturedSolution1D,
    ValidationReport,
    build_heat_1d,
    build_saddle_dae,
    load_system,
    validate_system,
)
from .timecore import (
    BrokenFunction,
    Quadrature,
    SlabPoly,
    TimeMesh,
    assemble_temporal_matrices,
    build_uniform_mesh,
    dh_form,
    dh_star_form,
    gauss_legendre,
)

__version__ = "0.1.0"

__all__ = [
    "BrokenFunction",
    "Check",
    "ConstrainedSystem",
    "DataError",
    "DEFAULT_HEAT_SOLUTION",
    "EOC_FLOOR",
    "EOCTable",
    "ManufacturedSolution1D",
    "MixedSolution",
    "PRESET_FUNCTIONS",
    "ProjectionSpec",
    "Quadrature",
    "SlabPoly",
    "SlabSolveError",
    "SolverOptions",
    "StudyRow",
    "TimeMesh",
    "ValidationReport",
    "assemble_temporal_matrices",
    "build_heat_1d",
    "build_saddle_dae",
    "build_uniform_mesh",
    "constraint_residual",
    "dg_residual",
    "dh_form",
    "dh_star_form",
    "eoc",
    "error_l2_energy",
    "error_l2_multiplier",
    "error_nodal_max",
    "gauss_legendre",
    "l2_project_broken",
    "load_system",
    "project_broken",
    "project_slab",
    "run_study",
    "solve_constrained",
    "solve_mixed",
    "solve_monolithic",
    "validate_system",
]
