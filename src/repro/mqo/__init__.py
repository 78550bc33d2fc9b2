"""Multi-query optimization: canonicalization, merging, shared-plan DAG."""

from .canonical import (
    CanonicalNode,
    canonicalize,
    canonicalize_optimized,
    push_down_filters,
    split_conjuncts,
    substitute,
)
from .nodes import OpNode, SharedQueryPlan, Subplan, SubplanRef, TableRef
from .merge import MQOOptimizer, build_unshared_plan, build_blocking_cut_plan

__all__ = [
    "CanonicalNode",
    "canonicalize",
    "canonicalize_optimized",
    "push_down_filters",
    "split_conjuncts",
    "substitute",
    "OpNode",
    "SharedQueryPlan",
    "Subplan",
    "SubplanRef",
    "TableRef",
    "MQOOptimizer",
    "build_unshared_plan",
    "build_blocking_cut_plan",
]
