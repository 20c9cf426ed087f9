"""Optimal averaging weights and convergence analysis for star-of-paths networks."""

from .topology import (
    BranchSpec,
    BranchNode,
    CoreNode,
    EdgeStratum,
    StarNetwork,
    build_network,
    edge_strata,
    merge_duplicate_lengths,
    node_at,
    node_index,
)
from .weights import (
    EvaluationError,
    SolverError,
    StratifiedWeights,
    ThetaSolution,
    best_constant_alpha,
    best_constant_weights,
    characteristic_det,
    characteristic_det_reduced,
    core_replica_eigenvalue,
    max_cores,
    max_degree_weights,
    metropolis_weights,
    optimal_weights,
    solve_theta,
)
from .spectral import (
    BlockDecomposition,
    EdgeForm,
    IncidenceFactors,
    InterlacingReport,
    SpectralReport,
    UnionCount,
    assemble_weight_matrix,
    block_decomposition,
    block_slem,
    block_spectrum,
    blocks_from_factors,
    count_below,
    edge_form,
    incidence_factors,
    interlacing_check,
    slem,
    spectral_report,
    spectrum_union,
    stationary_vector,
    symmetric_eigenvalues,
    union_count_check,
)
from .numopt import OptimizationResult, optimize_weights
from .sim import ConvergenceTrace, SimulationConfig, run_trials

__version__ = "0.1.0"
