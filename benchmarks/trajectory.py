#!/usr/bin/env python3
"""The trajectory gate: the newest benchmark set against the recent best.

``BENCH_pipeline.json`` records one benchmark set per PR.  Holding only the
last two entries to the bounds of ``BENCHMARK.json`` cannot see drift: a
metric that worsens by a few percent per PR passes every step.  This
script writes two sets out of the trajectory and compares them with the
benchmark's own ``--compare``:

* ``trajectory-head.json``: the newest entry (HEAD), verbatim;
* ``trajectory-best.json``: per workload and end-to-end metric, the runs
  of whichever of the last ``LAST`` entries has the best median of that
  metric.  The metrics ``--compare`` holds identical (``total_work_units``,
  ``slo_miss_frac``, ``error_frac``) come from the entry before HEAD, so a
  deliberate change to one of them fails one step and no more.

Then it runs ``benchmarks/pipeline/run.py --compare BEST HEAD`` and exits
with its status, so a breach of a bound, cumulative or in one step,
fails::

    python3 benchmarks/trajectory.py    # writes trajectory-*.json here

Only entries measured like HEAD are candidates: the same seed, seconds,
size and run counts, on the same platform (``stamp.platform``).  Seconds
from different machine images do not compare, so a set measured on a new
image needs its parent re-measured beside it; without one the gate fails.

An entry may carry a ``pairs`` list: the JSON blocks ``benchmarks/pairs.py``
wrote for the claims of its PR.  The gate does not read them; it prints
HEAD's, one line per block, so the claim is cited from the record.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PIPELINE = os.path.join(HERE, "pipeline")
sys.path.insert(0, PIPELINE)

import run as pipeline  # noqa: E402
import timing  # noqa: E402

TRAJECTORY_PATH = os.path.join(ROOT, "BENCH_pipeline.json")
INPUT_KEYS = ("seed", "seconds", "size")
#: entries the best set draws from, HEAD included
LAST = 5


def _comparable(entry, head):
    runs, head_runs = entry["set"]["runs"], head["runs"]
    return (
        all(entry["set"][key] == head[key] for key in INPUT_KEYS)
        and entry["set"]["stamp"]["platform"] == head["stamp"]["platform"]
        and all(len(runs.get(workload, ())) == len(values)
                for workload, values in head_runs.items())
    )


def best_set(entries, manifest, last):
    """``(set, picks)``: the best-median set over the last ``last`` entries
    and, per (workload, metric), the ``pr`` of the entry that supplied it
    where that is not HEAD.  ``ValueError`` when no entry before HEAD in
    the window is comparable with it."""
    head = entries[-1]["set"]
    window = [entry for entry in entries[-last:] if _comparable(entry, head)]
    if len(window) < 2:
        raise ValueError(
            "no entry among the last %d is measured like HEAD (%s): append "
            "the parent re-measured beside it" % (last, head["stamp"]["platform"]))
    better = {entry["name"]: entry["better"] for entry in manifest["end_to_end"]}
    best = {key: head[key] for key in INPUT_KEYS}
    best["runs"] = {}
    picks = {}
    for workload, head_runs in head["runs"].items():
        columns = {}
        for name in head_runs[0]:
            chosen = entries[-1]
            if name in pipeline.DETERMINISTIC:
                chosen = window[-2]
            elif name in better:
                pick = min if better[name] == "lower" else max
                chosen = pick(reversed(window), key=lambda entry: timing.median(
                    [run[name] for run in entry["set"]["runs"][workload]]
                ))  # ties go to the newest
            columns[name] = [run[name] for run in chosen["set"]["runs"][workload]]
            if chosen is not entries[-1]:
                picks[(workload, name)] = chosen.get("pr")
        best["runs"][workload] = [
            dict(zip(columns, values)) for values in zip(*columns.values())
        ]
    return best, picks


def main(trajectory_path=TRAJECTORY_PATH, out_dir="."):
    with open(trajectory_path) as handle:
        entries = json.load(handle)["entries"]
    try:
        best, picks = best_set(entries, pipeline.load_manifest(), LAST)
    except ValueError as error:
        print("trajectory gate: %s" % error)
        return 2
    print("HEAD: PR %s at %s" % (entries[-1].get("pr"), entries[-1]["commit"]))
    for block in entries[-1].get("pairs", ()):
        print("  pairs %s seed %s, %d pairs: %s" % (
            block["workload"], block["seed"], block["pairs"], ", ".join(
                "%s %+.1f%% (%d/%d won)" % (
                    name, 100 * row["delta"], row["wins"], block["pairs"])
                for name, row in sorted(block["metrics"].items()))))
    for (workload, name), pr in sorted(picks.items()):
        print("  best %-24s %-16s from PR %s" % (name, workload, pr))
    paths = []
    for label, data in (("best", best), ("head", entries[-1]["set"])):
        path = os.path.join(out_dir, "trajectory-%s.json" % label)
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return subprocess.run(
        [sys.executable, os.path.join(PIPELINE, "run.py"), "--compare"] + paths,
        check=False,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
