"""Structured-sparse convex clustering with adaptive sieving.

Solves min_x f(x) + lambda * p(Bx) for the weighted convex clustering model
along a whole lambda path, shrinking each solve to the blocks that matter via
adaptive sieving with certified KKT residuals.
"""

from .model import (
    InfeasibleDualError,
    KktTriple,
    ProblemInstance,
    SolveConfig,
    dual_objective,
    duality_gap,
    kkt_residual,
    primal_objective,
    prox_block,
    project_subdiff_block,
)
from .graph import (
    GraphError,
    IncidenceMap,
    IndexPartition,
    build_knn_graph,
    build_partition,
    recover_primal,
    reduce_problem,
)
from .admm import (
    AdmmConfig,
    SingularSystemError,
    SubSolution,
    reduced_kkt_residual,
    solve_full,
    solve_reduced_admm,
)
from .sieve import (
    ApgConfig,
    DualRecovery,
    SieveLimitError,
    SieveState,
    apg_minimize,
    as_solve,
    eas_certify,
    eas_solve,
    recover_dual,
    violation_set,
)
from .path import PathConfig, PathResult, default_lambda_grid, parse_lambda_spec, solve_path
from .data_io import DataError, RunManifest, gen_two_half_moons, load_matrix, moon_labels, save_matrix
from .labels import ClusterLabels, extract_labels
from .report import emit_report, load_path_state, save_path_state

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "ApgConfig",
    "ClusterLabels",
    "DataError",
    "DualRecovery",
    "GraphError",
    "IncidenceMap",
    "IndexPartition",
    "InfeasibleDualError",
    "KktTriple",
    "PathConfig",
    "PathResult",
    "ProblemInstance",
    "RunManifest",
    "SieveLimitError",
    "SingularSystemError",
    "SieveState",
    "SolveConfig",
    "SubSolution",
    "apg_minimize",
    "as_solve",
    "build_knn_graph",
    "build_partition",
    "default_lambda_grid",
    "dual_objective",
    "duality_gap",
    "eas_certify",
    "eas_solve",
    "emit_report",
    "extract_labels",
    "gen_two_half_moons",
    "kkt_residual",
    "load_matrix",
    "load_path_state",
    "moon_labels",
    "parse_lambda_spec",
    "primal_objective",
    "project_subdiff_block",
    "prox_block",
    "recover_dual",
    "recover_primal",
    "reduce_problem",
    "reduced_kkt_residual",
    "save_matrix",
    "save_path_state",
    "solve_full",
    "solve_path",
    "solve_reduced_admm",
    "violation_set",
    "__version__",
]
