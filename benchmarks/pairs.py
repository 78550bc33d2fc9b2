#!/usr/bin/env python3
"""Alternating parent/change pairs of the pipeline benchmark.

One benchmark run per side is no evidence: the machine drifts between
runs by more than most effects a change claims.  This script checks the
parent revision out in a temporary ``git worktree``, then runs pairs of
``benchmarks/pipeline/run.py --workload W --seed S --trace 0`` children,
one in the parent's checkout and one in this one, flipping which side
goes first each pair.  Per end-to-end metric it prints both sides'
medians and quartiles, the change's median delta, how many pairs the
change won (by the metric's ``better`` direction in ``BENCHMARK.json``)
and the two-sided sign-test p-value of those wins::

    python3 benchmarks/pairs.py --workload service_churn --seed 5 --pairs 10
    python3 benchmarks/pairs.py --workload plan_22q --base HEAD --output pairs.json

The change is the working tree this script runs from, committed or not;
``--base`` names the parent (default ``HEAD^``; ``HEAD`` while the change
is still uncommitted).  ``--output`` writes the same numbers as JSON, the
``pairs`` block a claim carries in ``BENCH_pipeline.json``.  The worktree
is removed on exit.  The script exits non-zero only when a child failed
or reported a failed operation: it measures, it does not gate.

``setup_s`` includes import time, so both sides start from the same
bytecode-cache state: each side's children compile into that side's own
cache under the scratch directory (``PYTHONPYCACHEPREFIX``), reading and
writing neither tree's ``__pycache__``, and one unmeasured warm-up child
per side runs before the first pair.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("benchmarks", "pipeline", "run.py")


def git(*args):
    return subprocess.run(
        ("git",) + args, cwd=ROOT, check=True, stdout=subprocess.PIPE,
        text=True,
    ).stdout.strip()


def sign_test_p(wins, losses):
    """Two-sided exact sign-test p-value of ``wins`` against ``losses``
    (ties dropped), 1.0 when there is nothing to test."""
    n = wins + losses
    if not n:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def describe(values):
    """``{"median", "q1", "q3"}`` of a sample (quartiles as
    ``statistics.quantiles`` cuts them; both equal the value for one)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(parent, change, better):
    """Per metric: both sides described, the median delta, and the change's
    wins/losses/ties over the pairs with the sign-test p-value.

    ``parent`` and ``change`` are parallel lists of ``{metric: value}``,
    one per pair; ``better`` maps a metric to ``"lower"`` or
    ``"higher"``."""
    summary = {}
    for name, direction in better.items():
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        losses = sum(sign * (b - a) < 0 for a, b in zip(before, after))
        old, new = describe(before), describe(after)
        summary[name] = {
            "better": direction,
            "parent": old,
            "change": new,
            "delta": (new["median"] - old["median"]) / old["median"]
            if old["median"] else 0.0,
            "wins": wins,
            "losses": losses,
            "ties": len(before) - wins - losses,
            "p": sign_test_p(wins, losses),
        }
    return summary


def run_child(checkout, args, pycache):
    """One contract run in ``checkout``, its bytecode cached under
    ``pycache``: its metrics, or None on failure."""
    command = [sys.executable, os.path.join(checkout, RUN),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", "0", "--size", args.size,
               "--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPYCACHEPREFIX=pycache),
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        return None
    report = json.loads(lines[-1])
    if not report["correct"] or report["failed"]:
        return None
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def measure(args, base_dir, log=print):
    """Run the pairs; returns ``(parent runs, change runs, failures)``."""
    sides = {"parent": base_dir, "change": ROOT}
    caches = {side: os.path.join(args.scratch, "pycache", side)
              for side in sides}
    for side in sides:  # the warm-up, unmeasured
        run_child(sides[side], args, caches[side])
    runs = {"parent": [], "change": []}
    failures = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {side: run_child(sides[side], args, caches[side])
                   for side in order}
        if None in results.values():
            failures += 1
            log("pair %d: a child failed (%s)" % (pair + 1, ", ".join(
                side for side, result in results.items() if result is None)))
            continue
        for side in order:
            runs[side].append(results[side])
        log("pair %d/%d done (%s first)" % (pair + 1, args.pairs, order[0]))
    return runs["parent"], runs["change"], failures


def render(block):
    lines = ["pairs: %s seed %s, %d pairs (size %s, seconds %s); parent %s, "
             "change %s" % (block["workload"], block["seed"], block["pairs"],
                            block["size"], block["seconds"], block["parent"],
                            block["change"])]
    lines.append("%-24s %-38s %-38s %8s %6s %5s %7s" % (
        "metric", "parent median [Q1, Q3]", "change median [Q1, Q3]",
        "delta", "wins", "ties", "p"))
    for name, row in block["metrics"].items():
        cells = [
            "%.6g [%.6g, %.6g]" % (side["median"], side["q1"], side["q3"])
            for side in (row["parent"], row["change"])
        ]
        lines.append("%-24s %-38s %-38s %+7.1f%% %6s %5d %7.4f" % (
            name, cells[0], cells[1], 100 * row["delta"],
            "%d/%d" % (row["wins"], row["wins"] + row["losses"] + row["ties"]),
            row["ties"], row["p"]))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD^",
                        help="the parent revision (default HEAD^)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-time budget of one run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--output", help="also write the pairs block as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    better = {entry["name"]: entry["better"] for entry in manifest["end_to_end"]}
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    base = git("rev-parse", args.base)
    change = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change += "+uncommitted"
    scratch = args.scratch = tempfile.mkdtemp(prefix="pairs-")
    base_dir = os.path.join(scratch, "parent")
    git("worktree", "add", "--detach", base_dir, base)
    try:
        parent_runs, change_runs, failures = measure(args, base_dir)
    finally:
        git("worktree", "remove", "--force", base_dir)
        shutil.rmtree(scratch, ignore_errors=True)
    block = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "pairs": len(change_runs),
        "failed_pairs": failures, "parent": base, "change": change,
        "metrics": summarize(parent_runs, change_runs, better)
        if change_runs else {},
    }
    print(render(block))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(block, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
