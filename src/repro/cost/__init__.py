"""Cost model: calibrated statistics, subplan simulation, memoized plans."""

from .stats import NodeStats, EdgeStat, union_estimate, perturb_stats
from .model import (
    CostConfig,
    DEFAULT_COST_CONFIG,
    SubplanSimResult,
    UniformProfile,
    LedgerProfile,
    CollapsingProfile,
    emissions,
    expected_touched,
    simulate_subplan,
)
from .memo import PlanCostModel, CostEvaluation, OptimizationTimeout
from .cache import CalibrationCache, get_default_cache, set_default_cache

__all__ = [
    "NodeStats",
    "EdgeStat",
    "union_estimate",
    "perturb_stats",
    "CostConfig",
    "DEFAULT_COST_CONFIG",
    "SubplanSimResult",
    "UniformProfile",
    "LedgerProfile",
    "CollapsingProfile",
    "emissions",
    "expected_touched",
    "simulate_subplan",
    "PlanCostModel",
    "CostEvaluation",
    "OptimizationTimeout",
    "CalibrationCache",
    "get_default_cache",
    "set_default_cache",
]
