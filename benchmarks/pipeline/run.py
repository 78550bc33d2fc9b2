#!/usr/bin/env python3
"""The repo's benchmark: plan, execute, serve -- end to end and per layer.

``BENCHMARK.json`` (repo root) names the workloads, metrics and bounds;
this runner measures them.  One run of one workload is what the contract
asks for::

    python3 benchmarks/pipeline/run.py --workload exec_lazy_22q \\
        --seed 5 --seconds 12 --trace 0

and prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}`` with every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  Without ``--workload`` it runs a full
*set* (every workload, ``--runs`` times), prints a table and writes the
set to ``benchmarks/pipeline/out/``; ``--traced`` adds the traced run,
``--compare A.json B.json`` checks two sets against the bounds, and
``--selftest`` runs everything at toy scale in a few seconds.

Each workload runs as two legs, one fresh child process each, one after
the other: the default backend, then the same leg with
``REPRO_ENGINE_COLUMNAR=1``.  See ``README.md`` beside this file for the
metric definitions and the layer -> end-to-end map.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import timing  # noqa: E402
import tracing  # noqa: E402

MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
LEG_TIMEOUT_SECONDS = 170

#: environment the children must not inherit: engine toggles, the legacy
#: benchmark knobs, the calibration-cache location, the probe crossover
SCRUBBED_PREFIXES = ("REPRO_ENGINE_", "REPRO_BENCH_")
SCRUBBED_NAMES = ("REPRO_CACHE_DIR", "REPRO_SCALAR_PROBE_MAX")

#: per-layer metrics taken from the columnar leg's trace
COLUMNAR_LAYER_METRICS = {
    "physical.columnar_source_self_s": "physical.source_self_s",
    "physical.columnar_join_self_s": "physical.join_self_s",
    "physical.columnar_aggregate_self_s": "physical.aggregate_self_s",
}


def load_manifest():
    with open(MANIFEST_PATH) as handle:
        return json.load(handle)


def child_env(columnar):
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith(SCRUBBED_PREFIXES) and name not in SCRUBBED_NAMES
    }
    env["PYTHONHASHSEED"] = "0"
    if columnar:
        env["REPRO_ENGINE_COLUMNAR"] = "1"
    return env


def run_leg(workload, leg, seed, seconds, trace, size):
    """Start one leg's child, wait for it, return its JSON report."""
    spec = {"workload": workload, "leg": leg, "seed": seed,
            "seconds": seconds, "trace": trace, "size": size}
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "legs.py"), json.dumps(spec)],
        env=child_env(leg == "columnar"), stdout=subprocess.PIPE,
        timeout=LEG_TIMEOUT_SECONDS, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            "%s leg of %s exited with code %d"
            % (leg, workload, completed.returncode))
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, size="full"):
    """Both legs of one workload, merged into the reported metrics."""
    default = run_leg(workload, "default", seed, seconds, trace, size)
    columnar = run_leg(workload, "columnar", seed, seconds, trace, size)
    failures = list(default["failures"]) + list(columnar["failures"])
    attempted = default["attempted"] + columnar["attempted"] + 2
    if columnar["engine_mode"] != "columnar":
        failures.append("columnar leg ran as %r" % columnar["engine_mode"])
    work = default["total_work_units"]
    # the columnar service leg runs a prefix of the default leg's schedule
    pairs = list(zip(default["work_by_window"], columnar["work_by_window"]))
    if not pairs or any(abs(a - b) > 1e-9 * abs(a) for a, b in pairs):
        failures.append("per-window work differs between the backends")
    end_to_end = {
        "setup_s": timing.median(default["setup_s"] + columnar["setup_s"]),
        "plan_s": timing.median(default["plan_s"]),
        "window_exec_s": timing.median(default["window_s"]),
        "window_exec_columnar_s": timing.median(columnar["window_s"]),
        "total_work_units": work or 0.0,
        "peak_rss_mb": max(default["peak_rss_mb"], columnar["peak_rss_mb"]),
    }
    per_layer = dict(default["layers"])
    for name, source in COLUMNAR_LAYER_METRICS.items():
        per_layer[name] = columnar["layers"].get(source, 0.0)
    per_layer["error_frac"] = len(failures) / attempted
    per_layer.setdefault("slo_miss_frac", 0.0)
    missing = (default["info"].pop("trace_missing_targets", [])
               + columnar["info"].pop("trace_missing_targets", []))
    if trace:
        _merge_trace_parts(workload, (default, columnar))
    return {
        "missing_targets": sorted(set(missing)),
        "workload": workload,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": {
            "setup_s": len(default["setup_s"]) + len(columnar["setup_s"]),
            "plan_s": len(default["plan_s"]),
            "window_exec_s": len(default["window_s"]),
            "window_exec_columnar_s": len(columnar["window_s"]),
        },
        "raw": {"default": default["raw"], "columnar": columnar["raw"]},
        "legs": {
            "default": dict(default["info"], engine_mode=default["engine_mode"]),
            "columnar": dict(columnar["info"],
                             engine_mode=columnar["engine_mode"]),
        },
    }


def _merge_trace_parts(workload, reports):
    """One Chrome trace per workload: the legs' parts, by pid."""
    events = []
    for report in reports:
        part = report["info"].pop("trace_part", None)
        if part and os.path.exists(part):
            with open(part) as handle:
                events.extend(json.load(handle)["traceEvents"])
            os.remove(part)
    tracing.write_chrome_trace(
        os.path.join(OUT_DIR, "trace-%s.json" % workload), events)


# -- output ------------------------------------------------------------------------------

def stamp():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=False,
        ).stdout.decode().strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "ref_nominal_s": timing.REF_NOMINAL_S,
    }


def contract_metrics(result, trace, manifest):
    """Exactly the declared metrics of this mode, with their units."""
    declared = manifest["per_layer" if trace else "end_to_end"]
    measured = result["per_layer" if trace else "end_to_end"]
    return {
        entry["name"]: {"value": measured.get(entry["name"], 0.0),
                        "unit": entry["unit"]}
        for entry in declared
    }


def print_result(result, trace, manifest):
    workload = result["workload"]
    legs = result["legs"]
    print("workload %s  seed family %s  legs: %s / %s" % (
        workload, legs["default"]["seed"], legs["default"]["engine_mode"],
        legs["columnar"]["engine_mode"]))
    print("  sizes: %s" % json.dumps(legs["default"], sort_keys=True))
    metrics = contract_metrics(result, trace, manifest)
    for name, entry in metrics.items():
        samples = result["samples"].get(name)
        print("  %-38s %14.6g %-12s%s" % (
            name, entry["value"], entry["unit"],
            "  (median of %d)" % samples if samples else ""))
    if not trace:
        raw = result["raw"]
        print("  raw medians (s): plan %.4g  window %.4g  columnar window %.4g"
              % (raw["default"].get("plan_s", 0.0),
                 raw["default"].get("window_s", 0.0),
                 raw["columnar"].get("window_s", 0.0)))
        deltas = result["per_layer"].get("workloads.input_deltas", 0)
        print("  input deltas per window %d (%.0f deltas/s); slo_miss_frac %.4f"
              % (deltas, result["per_layer"].get("physical.deltas_per_s", 0.0),
                 result["per_layer"].get("slo_miss_frac", 0.0)))
    for target in result["missing_targets"]:
        print("  WARNING: wrapper target missing, layer metric is 0: %s"
              % target)
    print("  operations: %d attempted, %d failed (error_frac %.4f)" % (
        result["attempted"], result["failed"],
        result["per_layer"]["error_frac"]))
    for failure in result["failures"][:10]:
        print("  FAILED: %s" % failure)


def contract_line(result, trace, manifest):
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result, trace, manifest),
    })


# -- full sets and their comparison -------------------------------------------------------------

def run_set(args, manifest):
    workloads = [entry["name"] for entry in manifest["workloads"]]
    record = {"stamp": stamp(), "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "runs": {}, "traced": {}}
    print("pipeline benchmark set: %s" % json.dumps(record["stamp"]))
    failed = 0
    for workload in workloads:
        record["runs"][workload] = []
        for _ in range(args.runs):
            result = run_workload(
                workload, args.seed, args.seconds, 0, args.size)
            print_result(result, 0, manifest)
            failed += result["failed"]
            record["runs"][workload].append(dict(
                result["end_to_end"],
                slo_miss_frac=result["per_layer"]["slo_miss_frac"],
                error_frac=result["per_layer"]["error_frac"],
            ))
    if args.traced:
        for workload in workloads:
            result = run_workload(
                workload, args.seed, args.seconds, 1, args.size)
            print_result(result, 1, manifest)
            failed += result["failed"]
            record["traced"][workload] = result["per_layer"]
            print("  trace written to %s" % os.path.join(
                OUT_DIR, "trace-%s.json" % workload))
    os.makedirs(OUT_DIR, exist_ok=True)
    output = args.output or os.path.join(
        OUT_DIR, "set-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % output)
    return 1 if failed else 0


#: identical inputs must give identical values, whatever the bound says
DETERMINISTIC = ("total_work_units", "slo_miss_frac", "error_frac")


def compare_sets(path_a, path_b, manifest):
    """One row per (metric, workload); non-zero when a bound is breached."""
    with open(path_a) as handle:
        set_a = json.load(handle)
    with open(path_b) as handle:
        set_b = json.load(handle)
    same_inputs = all(
        set_a[key] == set_b[key] for key in ("seed", "seconds", "size"))
    entries = list(manifest["end_to_end"]) + [
        {"name": name, "better": "lower", "bound": 0.0, "unit": "fraction"}
        for name in ("slo_miss_frac", "error_frac")
    ]
    breaches = 0
    print("%-24s %-16s %12s %12s %8s %7s %7s  %s" % (
        "metric", "workload", "A median", "B median", "worse", "spread",
        "bound", "verdict"))
    for entry in entries:
        name, bound = entry["name"], entry["bound"]
        for workload in sorted(set_a["runs"]):
            values_a = [run[name] for run in set_a["runs"][workload]]
            values_b = [run[name] for run in set_b["runs"].get(workload, [])]
            if not values_b:
                continue
            median_a, median_b = timing.median(values_a), timing.median(values_b)
            change = (median_b - median_a) / median_a if median_a else (
                0.0 if median_b == median_a else float("inf"))
            worse = change if entry["better"] == "lower" else -change
            own_spread = max(timing.spread(values_a), timing.spread(values_b))
            if name in DETERMINISTIC and same_inputs:
                exact = abs(median_b - median_a) <= 1e-9 * abs(median_a)
                verdict = "identical" if exact else "BREACH (not identical)"
            elif own_spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "BREACH"
            else:
                verdict = "ok"
            breaches += verdict.startswith("BREACH")
            print("%-24s %-16s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s" % (
                name, workload, median_a, median_b, 100 * worse,
                100 * own_spread, 100 * bound, verdict))
    print("%d breach(es)" % breaches)
    return 1 if breaches else 0


def selftest(manifest):
    """Every workload, untraced and traced, at toy scale; checks coverage.

    An end-to-end metric must be measured on every workload; a per-layer
    metric on at least one (a layer a workload never enters reports 0).
    """
    problems = []
    layered = set()
    for entry in manifest["workloads"]:
        for trace in (0, 1):
            result = run_workload(entry["name"], 5, 0.2, trace, "tiny")
            print_result(result, trace, manifest)
            problems.extend(
                "%s: %s" % (entry["name"], failure)
                for failure in result["failures"]
            )
            if trace:
                layered.update(result["per_layer"])
            else:
                problems.extend(
                    "%s: end-to-end metric %s is not positive"
                    % (entry["name"], metric["name"])
                    for metric in manifest["end_to_end"]
                    if not result["end_to_end"].get(metric["name"], 0.0) > 0
                )
    problems.extend(
        "per-layer metric %s is measured by no workload" % metric["name"]
        for metric in manifest["per_layer"] if metric["name"] not in layered
    )
    for problem in problems:
        print("SELFTEST FAILED: %s" % problem)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-time budget of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per workload in a full set")
    parser.add_argument("--traced", action="store_true",
                        help="full set: add the traced run of every workload")
    parser.add_argument("--output", help="full set: where to write the JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.compare:
        return compare_sets(args.compare[0], args.compare[1], manifest)
    if args.selftest:
        return selftest(manifest)
    if args.workload is None:
        return run_set(args, manifest)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.size)
    print_result(result, args.trace, manifest)
    print(contract_line(result, args.trace, manifest))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        # a leg that cannot start or finish: no result line, non-zero exit
        print("pipeline benchmark aborted: %s" % error, file=sys.stderr)
        sys.exit(2)
