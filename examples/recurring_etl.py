"""Recurring ETL: the same jobs, every day, optimized from history.

Simulates a week of daily loads on one long-running query service: the
jobs register once, against the first day's statistics, and every later
day's data arrives and runs on the plan chosen from that history.  A
job that misses its deadline learns a goal margin from the miss, and the
next day's paces are re-searched with it.  This is exactly the paper's
deployment (scheduled queries over recurring trigger conditions, section
2.1) -- and shows that historical calibration is good enough: deadlines
derived from history hold against each new day's data.

Run:  python examples/recurring_etl.py
"""

from repro.core.optimizer import OptimizerConfig
from repro.engine.metrics import MissedLatencySummary
from repro.engine.stream import StreamConfig
from repro.harness import format_table
from repro.service.core import QueryService
from repro.workloads.constraints import random_constraints
from repro.workloads.tpch import build_query, generate_catalog

JOBS = ("Q1", "Q3", "Q6", "Q10", "Q12", "Q18")


def main():
    service = QueryService(
        lambda window: generate_catalog(scale=0.25, seed=300 + window),
        OptimizerConfig(max_pace=50, stream_config=StreamConfig()),
    )
    relative = random_constraints(range(len(JOBS)), seed=8)
    print("Job deadlines (relative constraints):",
          {JOBS[qid]: rel for qid, rel in relative.items()})

    for qid, name in enumerate(JOBS):
        query = build_query(service.basis_catalog, name, qid)
        decision = service.register(query, "etl", relative[qid])
        print("  %-3s %s: %s" % (name, decision.status, decision.reason))

    rows = []
    for _ in range(5):
        outcome = service.run_window()
        missed = MissedLatencySummary()
        for entry in outcome.queries.values():
            missed.add(entry["latency_seconds"], entry["goal_seconds"])
        rows.append([
            "day %d%s" % (outcome.window,
                          " (calibration basis)" if outcome.window == 0 else ""),
            outcome.total_work,
            missed.mean_percent,
            missed.max_percent,
        ])
    print(format_table(
        ("Window", "Total work", "Mean miss %", "Max miss %"),
        rows,
        "A week of recurring execution (plans from history, data from today)",
    ))
    print()
    print("Day 0's data calibrates the plan; every later day runs on it,")
    print("its own data unseen by the optimizer.  A missed day grows the")
    print("job's goal margin, and the next day's paces are re-searched.")


if __name__ == "__main__":
    main()
