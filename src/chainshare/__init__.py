"""Profit allocation for value-chain coalitions.

Exact Shapley payoffs over transferable-utility games, influence-factor
adjustment with audited efficiency gaps, pairwise-comparison weighting
with a consistency gate, and a deterministic seeded Monte Carlo
estimator for games too large to enumerate.
"""

from .adjust import (
    AdjustedAllocation,
    AdjustmentFactors,
    adjusted_shapley,
    compute_deltas,
    weighted_value_sums,
)
from .ahp import (
    ComparisonMatrix,
    ConsistencyReport,
    CriteriaHierarchy,
    WeightVector,
    consistency_report,
    dominant_eigen,
    geometric_mean_weights,
    principal_weights,
    synthesize_factors,
)
from .errors import (
    AlignmentError,
    ChainshareError,
    ConsistencyGateError,
    EnumerationBoundError,
    FactorSumError,
    FloatRangeError,
    IncompleteGameError,
    IterationLimitError,
    MatrixValidationError,
    OracleError,
    SamplingPlanError,
    ScenarioError,
)
from .game import (
    Allocation,
    CharacteristicFunction,
    Coalition,
    PlayerSet,
    ShapleyTerm,
    SuperadditivityViolation,
    ValidationReport,
    coalition_weight,
    shapley_exact,
    shapley_terms,
    validate_game,
)
from .sampling import EstimateReport, SamplingPlan, sample_shapley
from .scenario import (
    ScenarioFile,
    bundled_scenario,
    load_scenario,
    parse_scenario,
    resolve_factors,
    scenario_game,
    scenario_hierarchy,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedAllocation",
    "AdjustmentFactors",
    "AlignmentError",
    "Allocation",
    "ChainshareError",
    "CharacteristicFunction",
    "Coalition",
    "ComparisonMatrix",
    "ConsistencyGateError",
    "ConsistencyReport",
    "CriteriaHierarchy",
    "EnumerationBoundError",
    "EstimateReport",
    "FactorSumError",
    "FloatRangeError",
    "IncompleteGameError",
    "IterationLimitError",
    "MatrixValidationError",
    "OracleError",
    "PlayerSet",
    "SamplingPlan",
    "SamplingPlanError",
    "ScenarioError",
    "ScenarioFile",
    "ShapleyTerm",
    "SuperadditivityViolation",
    "ValidationReport",
    "WeightVector",
    "adjusted_shapley",
    "bundled_scenario",
    "coalition_weight",
    "compute_deltas",
    "consistency_report",
    "dominant_eigen",
    "geometric_mean_weights",
    "load_scenario",
    "parse_scenario",
    "principal_weights",
    "resolve_factors",
    "sample_shapley",
    "scenario_game",
    "scenario_hierarchy",
    "serialize_scenario",
    "shapley_exact",
    "shapley_terms",
    "synthesize_factors",
    "validate_game",
    "weighted_value_sums",
]
