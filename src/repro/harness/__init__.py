"""Experiment harness: runners, report formatting, per-figure drivers."""

from .runner import APPROACHES, VARIANTS, ApproachResult, ExperimentRunner
from .parallel import CellOutcome, ExperimentCell, run_cells, timing_report
from .report import format_table, missed_latency_row, MISSED_HEADERS
from .experiments import (
    default_config,
    ExperimentResult,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    table1,
    two_phase_baseline,
    PAIRS,
)

__all__ = [
    "APPROACHES",
    "VARIANTS",
    "ApproachResult",
    "ExperimentRunner",
    "CellOutcome",
    "ExperimentCell",
    "run_cells",
    "timing_report",
    "format_table",
    "missed_latency_row",
    "MISSED_HEADERS",
    "default_config",
    "ExperimentResult",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table1",
    "two_phase_baseline",
    "PAIRS",
]
