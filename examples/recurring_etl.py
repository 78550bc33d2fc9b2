"""Recurring ETL: the same jobs, every day, optimized from history.

Simulates a week of daily loads: each morning the optimizer plans from
*yesterday's* statistics, then today's data
arrives and runs.  This is exactly the paper's deployment (scheduled
queries over recurring trigger conditions, section 2.1) -- and shows
that historical calibration is good enough: deadlines derived from
yesterday hold against today's data.

Run:  python examples/recurring_etl.py
"""

from repro.core.optimizer import OptimizerConfig
from repro.engine.stream import StreamConfig
from repro.harness import RecurringSimulation, format_table
from repro.workloads.constraints import random_constraints
from repro.workloads.tpch import build_workload, generate_catalog

JOBS = ("Q1", "Q3", "Q6", "Q10", "Q12", "Q18")


def main():
    simulation = RecurringSimulation(
        make_catalog=lambda day: generate_catalog(scale=0.25, seed=300 + day),
        make_queries=lambda catalog: build_workload(catalog, JOBS),
        config=OptimizerConfig(max_pace=50, stream_config=StreamConfig()),
    )
    relative = random_constraints(range(len(JOBS)), seed=8)
    print("Job deadlines (relative constraints):",
          {JOBS[qid]: rel for qid, rel in relative.items()})

    outcomes = simulation.run(days=5, relative_constraints=relative)
    rows = []
    for outcome in outcomes:
        rows.append([
            "day %d%s" % (outcome.day, " (bootstrap)" if outcome.day == 0 else ""),
            outcome.total_work,
            outcome.missed.mean_percent,
            outcome.missed.max_percent,
            len(outcome.actions),
        ])
    print(format_table(
        ("Window", "Total work", "Mean miss %", "Max miss %", "Unshare actions"),
        rows,
        "A week of recurring execution (plans from history, data from today)",
    ))
    print()
    print("Day 0 self-calibrates; every later day plans purely from the")
    print("previous window's statistics.")


if __name__ == "__main__":
    main()
