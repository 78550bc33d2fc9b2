#!/usr/bin/env python
"""Service-mode churn benchmark: SLO misses and work under online churn.

Drives the long-running multi-tenant service (``python -m repro.service``,
docs/SERVICE.md) through a fixed churn schedule -- three tenants
registering and deregistering TPC-H queries across six trigger windows --
and reports the metrics the service exists to optimize:

* **SLO-miss rate**: fraction of query-windows whose measured latency
  exceeded the query's goal (goals derive from each query's solo batch
  cost, like the paper's relative final-work constraints);
* **work per query-window**: shared-execution efficiency under churn;
* **incremental re-optimization stats**: how many subplans each churn
  re-merge reused versus recalibrated (from the decision log);
* **slack ledger roll-up** (docs/OBSERVABILITY.md): worst deadline
  headroom and pace-induced deferred work;
* **attribution conservation**: the solo-cost-proportional shared-work
  split must account for every measured work unit, exactly;
* serial vs ``--jobs 2`` **bit-identity** of the merged report.

Results land in ``BENCH_service.json`` (repo root by default).
``--check`` compares a fresh run against the committed baseline instead
of overwriting it: the engine-mode stamp and the admission decisions
must be *identical* and the SLO miss count must not regress.  CI runs this mode (see
``.github/workflows/ci.yml``'s ``service-smoke`` job).

Usage::

    PYTHONPATH=src python benchmarks/bench_service_churn.py
        [--output PATH] [--check [BASELINE]] [--jobs N] [--no-cache]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import obs  # noqa: E402
from repro.harness.service import run_service_schedule  # noqa: E402
from repro.obs import OBS  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_service.json"
)

#: Three tenants, eight registrations (one with an unsatisfiable goal,
#: one over its tenant's budget), two deregistrations, six windows.
SCHEDULE = {
    "workload": {"scale": 0.06, "seed": 100},
    "window_seconds": 60.0,
    "windows": 6,
    "shards": 2,
    "max_pace": 8,
    "admission": "reject",
    "tenant_budgets": {"gamma": 1.0},
    "events": [
        {"at": 0.0, "op": "register", "query_id": 0, "tenant": "alpha",
         "query": "Q1", "goal": 0.6},
        {"at": 5.0, "op": "register", "query_id": 1, "tenant": "alpha",
         "query": "Q6", "goal": 0.6},
        {"at": 10.0, "op": "register", "query_id": 2, "tenant": "beta",
         "query": "Q12", "goal": 0.5},
        {"at": 70.0, "op": "register", "query_id": 3, "tenant": "beta",
         "query": "Q18", "goal": 0.5},
        {"at": 75.0, "op": "register", "query_id": 4, "tenant": "alpha",
         "query": "Q14", "goal": 1e-9},
        {"at": 80.0, "op": "register", "query_id": 5, "tenant": "gamma",
         "query": "Q3", "goal": 0.8},
        {"at": 130.0, "op": "deregister", "query_id": 0},
        {"at": 135.0, "op": "register", "query_id": 6, "tenant": "alpha",
         "query": "Q19", "goal": 0.7},
        {"at": 190.0, "op": "register", "query_id": 7, "tenant": "beta",
         "query": "Q4", "goal": 0.7},
        {"at": 250.0, "op": "deregister", "query_id": 2},
        {"at": 255.0, "op": "register", "query_id": 8, "tenant": "alpha",
         "query": "Q14", "goal": 0.8},
    ],
}


def _reoptimize_stats():
    """Aggregate the decision log's service_reoptimize records."""
    records = OBS.declog.of_event("service_reoptimize")
    incremental = [r for r in records if r["scope"] == "incremental"]
    reused = sum(len(r["reused"]) for r in records)
    recalibrated = sum(len(r["recalibrated"]) for r in records)
    return {
        "searches": len(records),
        "incremental": len(incremental),
        "subplans_reused": reused,
        "subplans_recalibrated": recalibrated,
        "reuse_fraction": (
            reused / (reused + recalibrated)
            if (reused + recalibrated) else 0.0
        ),
        "memo_pool_hits": sum(r["memo_pool_hits"] for r in records),
        "search_iterations": sum(r["search_iterations"] for r in records),
    }


def run_benchmark(jobs):
    obs.enable(process_name="bench-service")
    try:
        started = time.perf_counter()
        report = run_service_schedule(SCHEDULE, jobs=1)
        serial_seconds = time.perf_counter() - started
        stats = _reoptimize_stats()
    finally:
        obs.disable()

    started = time.perf_counter()
    parallel = run_service_schedule(SCHEDULE, jobs=jobs)
    parallel_seconds = time.perf_counter() - started
    identical = json.dumps(report, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )
    return {
        "engine_mode": report["engine_mode"],
        "schedule": {
            "windows": SCHEDULE["windows"],
            "shards": SCHEDULE["shards"],
            "events": len(SCHEDULE["events"]),
            "workload": SCHEDULE["workload"],
        },
        "summary": report["summary"],
        "admission": [
            [d["query_id"], d["status"]]
            for shard in report["shards"]
            for d in shard["admission"]
        ],
        "reoptimize": stats,
        "slack": report["summary"]["slack"],
        "attribution_conserved": report["summary"]["attribution_conserved"],
        "bit_identical_parallel": identical,
        "timing": {
            "serial_seconds": round(serial_seconds, 3),
            "parallel_seconds": round(parallel_seconds, 3),
            "jobs": jobs,
        },
    }


def check_against(result, baseline_path):
    """Zero-regression gate: admissions identical, SLO misses not worse."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    if result["engine_mode"] != baseline["engine_mode"]:
        failures.append(
            "ran on the %s backend, the baseline on %s"
            % (result["engine_mode"], baseline["engine_mode"])
        )
    if result["admission"] != baseline["admission"]:
        failures.append(
            "admission decisions diverge from baseline:\n  now:      %r\n"
            "  baseline: %r" % (result["admission"], baseline["admission"])
        )
    now_misses = result["summary"]["slo_misses"]
    base_misses = baseline["summary"]["slo_misses"]
    if now_misses > base_misses:
        failures.append(
            "SLO misses regressed: %d now vs %d in baseline"
            % (now_misses, base_misses)
        )
    if result["summary"]["query_windows"] != baseline["summary"]["query_windows"]:
        failures.append(
            "query-window count changed: %d now vs %d in baseline"
            % (
                result["summary"]["query_windows"],
                baseline["summary"]["query_windows"],
            )
        )
    if not result["bit_identical_parallel"]:
        failures.append("serial and parallel reports are not bit-identical")
    # invariants of the fresh run itself (independent of the baseline's age)
    if not result["attribution_conserved"]:
        failures.append("shared-work attribution leaked work units")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--check", nargs="?", const=DEFAULT_OUTPUT,
                        default=None, metavar="BASELINE",
                        help="compare against a committed baseline instead "
                             "of overwriting it (default: the --output path)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the parallel leg")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk calibration cache")
    args = parser.parse_args(argv)

    if args.no_cache:
        from repro.cost.cache import set_default_cache

        set_default_cache(None)

    result = run_benchmark(args.jobs)
    summary = result["summary"]
    print(
        "service churn: %d query-windows, SLO miss rate %.3f, "
        "work/query-window %.1f" % (
            summary["query_windows"], summary["slo_miss_rate"],
            summary["work_per_query_window"],
        )
    )
    print(
        "admission: %(admitted)d admitted, %(rejected)d rejected"
        % summary["admission"]
    )
    stats = result["reoptimize"]
    print(
        "re-optimization: %d searches (%d incremental), %d subplans reused "
        "vs %d recalibrated (%.0f%% reuse), %d memo pool hits" % (
            stats["searches"], stats["incremental"],
            stats["subplans_reused"], stats["subplans_recalibrated"],
            100 * stats["reuse_fraction"], stats["memo_pool_hits"],
        )
    )
    slack = result["slack"]
    print(
        "slack: min headroom %.1f work, %.1f deferred; "
        "attribution conserved: %s" % (
            slack["min_headroom_work"], slack["deferred_work"],
            result["attribution_conserved"],
        )
    )
    print(
        "wall: %.2fs serial, %.2fs with %d jobs, bit-identical: %s" % (
            result["timing"]["serial_seconds"],
            result["timing"]["parallel_seconds"],
            result["timing"]["jobs"],
            result["bit_identical_parallel"],
        )
    )

    if args.check is not None:
        failures = check_against(result, os.path.abspath(args.check))
        for failure in failures:
            print("CHECK FAILED: %s" % failure)
        if not failures:
            print("check against %s passed" % os.path.abspath(args.check))
        return 1 if failures else 0

    if not result["bit_identical_parallel"]:
        print("ERROR: serial and parallel reports are not bit-identical")
        return 1
    output = os.path.abspath(args.output)
    with open(output, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
