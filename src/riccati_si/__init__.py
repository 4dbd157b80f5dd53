"""Low-rank solvers for continuous algebraic Riccati equations.

Two iterations over the same rational Krylov spaces: an incremental
subspace iteration advancing a factored iterate one shifted solve per step
(ilrsi_solve), and a Galerkin projection solving a small dense equation per
pole (rksm_solve). Dense references, shift machinery, and convergence
analysis tools back them up at oracle scale.
"""

from .problems import (
    CareProblem,
    load_problem,
    make_laplacian_problem,
    make_toeplitz_problem,
    random_stable_problem,
    save_problem,
)
from .shifts import (
    ShiftSequence,
    adaptive_pole,
    penzl_shifts,
    projected_ritz,
    rational_objective,
)
from .dense import (
    HamiltonianAnalysis,
    analyze_hamiltonian,
    care_residual,
    care_solve_dense,
    cayley,
    convergence_bound,
    dense_care_solve,
    dense_subspace_iteration,
    dense_threshold,
    hamiltonian_matrix,
    spectral_radius_identity_check,
    subspace_distance,
)
from .ilrsi import (
    CSV_HEADER,
    ConvergenceHistory,
    LowRankSolution,
    ResidualTracker,
    SolverBreakdown,
    ilrsi_init,
    ilrsi_solve,
    ilrsi_step,
    residual_norm,
)
from .rksm import (
    DistinctShiftBasisData,
    RksmState,
    build_distinct_basis,
    check_entrywise_T,
    check_sylvester_identity,
    galerkin_defect,
    mirrored_ritz_fixed_point,
    projected_residual_norm,
    residual_rank_diagnostic,
    rksm_solve,
)

__all__ = [
    "CareProblem",
    "ShiftSequence",
    "LowRankSolution",
    "ConvergenceHistory",
    "ResidualTracker",
    "SolverBreakdown",
    "HamiltonianAnalysis",
    "DistinctShiftBasisData",
    "RksmState",
    "CSV_HEADER",
    "load_problem",
    "save_problem",
    "make_laplacian_problem",
    "make_toeplitz_problem",
    "random_stable_problem",
    "penzl_shifts",
    "adaptive_pole",
    "projected_ritz",
    "rational_objective",
    "care_solve_dense",
    "dense_care_solve",
    "care_residual",
    "cayley",
    "hamiltonian_matrix",
    "dense_subspace_iteration",
    "dense_threshold",
    "subspace_distance",
    "analyze_hamiltonian",
    "convergence_bound",
    "spectral_radius_identity_check",
    "ilrsi_init",
    "ilrsi_step",
    "ilrsi_solve",
    "residual_norm",
    "build_distinct_basis",
    "check_sylvester_identity",
    "check_entrywise_T",
    "galerkin_defect",
    "projected_residual_norm",
    "residual_rank_diagnostic",
    "rksm_solve",
    "mirrored_ritz_fixed_point",
]

__version__ = "0.1.0"
