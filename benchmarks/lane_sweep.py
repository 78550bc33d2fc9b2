#!/usr/bin/env python3
"""Sweep the row/vector lane threshold (``columnar.ROW_LANE_MAX``) end to end.

The size dispatch is one constant, and it decides two things: which
kernels a batch takes, and whether a process loads NumPy at all.  This
script measures both on the workload the constant matters for: the
22-query MQO shared plan at ``exec_lazy_22q``'s fixed paces (1 for a
subplan with children, 3 for a leaf), over a TPC-H catalog whose
lineitem stream carries the exec leg's 25% updates, at several scales::

    python3 benchmarks/lane_sweep.py                       # scales 0.5 1 2 4
    python3 benchmarks/lane_sweep.py --scales 1 2 --rounds 41 --output sweep.json
    python3 benchmarks/lane_sweep.py --size tiny           # seconds-long smoke run

Per scale it starts two kinds of child process:

* **timing**: one warm executor; ``ROW_LANE_MAX`` switches between
  consecutive windows, and the order of the thresholds reverses every
  round, so machine drift hits every value alike.  Windows are timed in
  reference-normalised seconds (``benchmarks/pipeline/timing.Clock``).
  Every window at every threshold must measure the same ``total_work``;
  the child fails otherwise.
* **memory**, one per threshold: a fresh process that builds the same
  catalog and plan and runs one window.  It reports its peak RSS,
  whether any ``numpy.`` submodule loaded, and the vector-lane traffic of
  that window: the batch sizes that reached a source or decoration
  chain's vector kernels, the vectorised join probe and the vectorised
  aggregate absorb.

Printed per (scale, threshold): the window median with Q1-Q3, its change
against the first threshold's median (the baseline, 4096 by default),
in how many rounds its window beat the baseline's, peak RSS and the
traffic.  ``--output`` writes the same as JSON.  The
script exits non-zero when a child fails or the work differs between
thresholds: it measures, it does not gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(HERE, "pipeline"))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: ``1 << 30``: no batch reaches the vector lane
NO_VECTOR_LANE = 1 << 30

SIZES = {
    "full": {"scales": (0.5, 1.0, 2.0, 4.0),
             "thresholds": (4096, 16384, 32768, NO_VECTOR_LANE),
             "rounds": 21},
    # both lanes on every operator family, at a scale that builds in a blink
    "tiny": {"scales": (0.05,), "thresholds": (0, NO_VECTOR_LANE),
             "rounds": 2},
}

PACES = (1, 3)  # exec_lazy_22q's (subplan with children, leaf) paces
UPDATE_FRACTION = 0.25


def _build(scale, seed):
    """The catalog, plan and paces a child runs (the exec leg's recipe)."""
    from repro.mqo.merge import MQOOptimizer
    from repro.workloads.tpch import (
        ALL_QUERY_NAMES,
        add_lineitem_updates,
        build_workload,
        generate_catalog,
    )

    catalog = generate_catalog(scale=scale, seed=seed)
    add_lineitem_updates(catalog, fraction=UPDATE_FRACTION, seed=seed + 6)
    plan = MQOOptimizer(catalog).build_shared_plan(
        build_workload(catalog, ALL_QUERY_NAMES))
    parent, leaf = PACES
    paces = {subplan.sid: parent if subplan.child_subplans() else leaf
             for subplan in plan.subplans}
    return catalog, plan, paces


def _describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def timing_child(scale, seed, thresholds, rounds):
    """Interleaved windows on one warm executor: ``{threshold: seconds}``
    and the one ``total_quanta`` every window measured."""
    import timing
    from repro.engine.executor import PlanExecutor
    from repro.engine.stream import StreamConfig
    from repro.physical import columnar

    catalog, plan, paces = _build(scale, seed)
    executor = PlanExecutor(plan, StreamConfig(), catalog=catalog)
    clock = timing.Clock()
    seconds = {threshold: [] for threshold in thresholds}
    work = set()
    for round_index in range(rounds + 1):
        order = thresholds if round_index % 2 else thresholds[::-1]
        for threshold in order:
            columnar.ROW_LANE_MAX = threshold
            sample = clock.timed(
                lambda: executor.run(paces, collect_results=False))
            work.add(sample.result.total_quanta)
            if round_index:  # round 0 compiles both lanes' kernels
                seconds[threshold].append(sample.seconds)
    if len(work) != 1:
        raise SystemExit("total work differs between thresholds: %s"
                         % sorted(work))
    return {"seconds": {str(t): s for t, s in seconds.items()},
            "total_quanta": work.pop()}


def memory_child(scale, seed, threshold):
    """One window in a fresh process: peak RSS, NumPy, vector traffic."""
    import resource
    from collections import Counter

    from repro.engine.executor import PlanExecutor
    from repro.engine.stream import StreamConfig
    from repro.physical import columnar

    columnar.ROW_LANE_MAX = threshold
    traffic = {"source": Counter(), "join": Counter(), "aggregate": Counter()}

    def spy(cls, name, family, vector_only):
        method = getattr(cls, name)

        def counted(self, batch, *args, **kwargs):
            # apply() serves both lanes; the other two only the vector one
            if vector_only or (self.vector and len(batch) > threshold):
                traffic[family][len(batch)] += 1
            return method(self, batch, *args, **kwargs)

        setattr(cls, name, counted)

    spy(columnar.ColumnarDecorations, "apply", "source", False)
    spy(columnar.ColumnarJoinExec, "_probe", "join", True)
    spy(columnar.ColumnarAggregateExec, "_absorb_columns", "aggregate", True)
    catalog, plan, paces = _build(scale, seed)
    run = PlanExecutor(plan, StreamConfig(), catalog=catalog).run(
        paces, collect_results=False)
    return {
        "total_quanta": run.total_quanta,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": any(name.startswith("numpy.") for name in sys.modules),
        "vector_batches": {family: sorted(sizes.items())
                           for family, sizes in traffic.items()},
    }


def _child(*args):
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child"] + list(args),
        stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit("child %s failed (exit %d)"
                         % (" ".join(args), done.returncode))
    return json.loads(lines[-1])


def sweep_scale(scale, seed, thresholds, rounds):
    """One scale's row: timings from one child, memory from one each."""
    joined = ",".join(map(str, thresholds))
    timed = _child("timing", str(scale), str(seed), joined, str(rounds))
    base = timed["seconds"][str(thresholds[0])]
    rows = []
    for threshold in thresholds:
        seconds = timed["seconds"][str(threshold)]
        described = _describe(seconds)
        memory = _child("memory", str(scale), str(seed), str(threshold))
        if memory["total_quanta"] != timed["total_quanta"]:
            raise SystemExit("scale %s: work %d at threshold %d, %d timed"
                             % (scale, memory["total_quanta"], threshold,
                                timed["total_quanta"]))
        del memory["total_quanta"]
        rows.append(dict(
            described, row_lane_max=threshold,
            delta=described["median"] / statistics.median(base) - 1.0,
            # rounds whose window beat the baseline's of the same round
            wins=sum(mine < theirs for mine, theirs in zip(seconds, base)),
            **memory))
    return {"scale": scale, "total_quanta": timed["total_quanta"],
            "rows": rows}


def _traffic(batches):
    """``family count (smallest-largest rows)`` per family that fired."""
    cells = []
    for family, sizes in batches.items():
        if sizes:
            low, high = sizes[0][0], sizes[-1][0]
            cells.append("%s %d (%s rows)" % (
                family, sum(count for _, count in sizes),
                low if low == high else "%d-%d" % (low, high)))
    return ", ".join(cells) or "none"


def render(report):
    lines = ["lane sweep: seed %d, %d rounds, paces %s, %d%% lineitem updates"
             % (report["seed"], report["rounds"],
                "/".join(map(str, report["paces"])),
                round(100 * report["update_fraction"]))]
    for entry in report["scales"]:
        lines.append("scale %g (total work %d quanta at every threshold)"
                     % (entry["scale"], entry["total_quanta"]))
        lines.append("  %-12s %-32s %8s %6s %9s %6s  %s" % (
            "ROW_LANE_MAX", "window s median [Q1, Q3]", "delta", "wins",
            "peak MB", "numpy", "vector-lane batches per window"))
        for row in entry["rows"]:
            threshold = row["row_lane_max"]
            lines.append("  %-12s %-32s %+7.1f%% %6s %9.1f %6s  %s" % (
                "1 << 30" if threshold == NO_VECTOR_LANE else threshold,
                "%.4f [%.4f, %.4f]" % (row["median"], row["q1"], row["q3"]),
                100 * row["delta"], "%d/%d" % (row["wins"], report["rounds"]),
                row["peak_rss_mb"],
                "yes" if row["numpy"] else "no",
                _traffic(row["vector_batches"])))
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        kind, scale, seed = argv[1], float(argv[2]), int(argv[3])
        if kind == "timing":
            thresholds = tuple(int(t) for t in argv[4].split(","))
            result = timing_child(scale, seed, thresholds, int(argv[5]))
        else:
            result = memory_child(scale, seed, int(argv[4]))
        print(json.dumps(result))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--scales", type=float, nargs="+")
    parser.add_argument("--thresholds", type=int, nargs="+",
                        help="the first is the baseline the deltas read "
                             "against")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--output", help="also write the sweep as JSON")
    args = parser.parse_args(argv)
    size = SIZES[args.size]
    thresholds = tuple(args.thresholds or size["thresholds"])
    rounds = args.rounds or size["rounds"]
    report = {
        "seed": args.seed, "rounds": rounds, "paces": list(PACES),
        "update_fraction": UPDATE_FRACTION,
        "scales": [sweep_scale(scale, args.seed, thresholds, rounds)
                   for scale in args.scales or size["scales"]],
    }
    print(render(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
