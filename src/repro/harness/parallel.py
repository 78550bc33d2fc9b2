"""Process-parallel execution of independent experiment cells.

One *cell* is an ``(approach, constraint_set)`` pair -- the unit both
:meth:`~repro.harness.runner.ExperimentRunner.run_all` and the per-figure
sweeps in :mod:`repro.harness.experiments` iterate over.  Cells are
mutually independent (each builds its own plan, calibrates, optimizes and
executes), so they fan out cleanly over :func:`repro.workers.ordered_map`:
every worker receives the runner (catalog, query batch, optimizer config)
once and then processes cells as tasks.

Determinism, error propagation, the shared calibration cache and the
observability merge (worker spans under distinct pids, absorbed in
submission order, cells statically assigned while tracing) are the
pool's contract -- see :mod:`repro.workers`.  ``jobs=1`` does not touch
multiprocessing at all: it runs the same ``runner.run_approach`` calls in
the same order, in process.
"""

from ..obs import trace
from ..workers import ordered_map, resolve_jobs


class ExperimentCell:
    """One independent (approach, constraint-set) work unit."""

    __slots__ = ("approach", "relative_constraints", "key", "pace_override")

    def __init__(self, approach, relative_constraints, key=None,
                 pace_override=None):
        self.approach = approach
        self.relative_constraints = dict(relative_constraints)
        self.key = approach if key is None else key
        self.pace_override = dict(pace_override) if pace_override else None

    def __repr__(self):
        return "ExperimentCell(%r, key=%r)" % (self.approach, self.key)


class CellOutcome:
    """A cell's :class:`~repro.harness.runner.ApproachResult` + wall clock."""

    __slots__ = ("key", "approach", "result", "wall_seconds")

    def __init__(self, key, approach, result, wall_seconds):
        self.key = key
        self.approach = approach
        self.result = result
        self.wall_seconds = wall_seconds

    def __repr__(self):
        return "CellOutcome(%r, %.2fs)" % (self.key, self.wall_seconds)


def _run_cell(runner, cell):
    with trace.span("harness.cell", key=str(cell.key), approach=cell.approach):
        return runner.run_approach(
            cell.approach, cell.relative_constraints,
            pace_override=cell.pace_override,
        )


def run_cells(runner, cells, jobs=1):
    """Run experiment cells; returns :class:`CellOutcome` in input order.

    ``jobs=1`` (the default) runs ``runner.run_approach`` per cell in
    order, in process.  ``jobs>1`` fans independent cells out over worker
    processes; result ordering (and, the pipeline being deterministic,
    every measured number) is identical to the serial run.
    """
    cells = list(cells)
    outcomes = ordered_map(_run_cell, cells, jobs, shared=runner,
                           run_label="cell")
    return [
        CellOutcome(cell.key, cell.approach, result, wall_seconds)
        for cell, (result, wall_seconds) in zip(cells, outcomes)
    ]


def timing_report(outcomes, jobs, wall_seconds):
    """Structured per-cell timing block for experiment reports.

    ``speedup`` is the sum of per-cell seconds over the measured wall
    clock -- 1.0 for serial runs, approaching ``jobs`` for a perfectly
    parallel sweep; benchmarks archive it next to their result tables.
    """
    total = sum(outcome.wall_seconds for outcome in outcomes)
    return {
        "jobs": resolve_jobs(jobs),
        "wall_seconds": wall_seconds,
        "cell_seconds_total": total,
        "speedup": (total / wall_seconds) if wall_seconds > 0 else 1.0,
        "cells": [
            {
                "key": str(outcome.key),
                "approach": outcome.approach,
                "seconds": outcome.wall_seconds,
            }
            for outcome in outcomes
        ],
    }
