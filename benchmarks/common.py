"""Shared helpers for the figure/table benchmarks.

Each benchmark runs one experiment driver exactly once (the driver itself
is the expensive end-to-end pipeline), prints the paper-style tables, and
archives them under ``benchmarks/results/``.  Run with::

    pytest benchmarks/ --benchmark-only -s

Two environment knobs control the harness layer:

``REPRO_BENCH_JOBS``
    worker processes for the parallelizable sweep drivers (default 1 =
    serial; 0 = all cores).  Results are identical at any job count; the
    per-cell timings are archived as ``results/<name>.timings.json``.
``REPRO_BENCH_NO_CACHE``
    set to disable the on-disk calibration cache.  By default repeat
    benchmark runs reuse calibrations from ``benchmarks/.calibration-cache``
    (or ``$REPRO_CACHE_DIR``) and skip every reference batch run.
``REPRO_BENCH_TRACE``
    set to a directory (or ``1`` for ``benchmarks/results``) to enable
    observability (docs/OBSERVABILITY.md): each benchmark archives
    ``<name>.trace.json`` (Chrome trace events) and
    ``<name>.declog.jsonl`` there, scoped per benchmark.
``REPRO_BENCH_SEED``
    TPC-H catalog generation seed (default 5, the paper-repro default).
    Also settable as ``pytest benchmarks/ --seed N``; the seed used is
    recorded in every archived report.
"""

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _trace_dir():
    """Observability output directory, or None when tracing is off."""
    value = os.environ.get("REPRO_BENCH_TRACE")
    if not value:
        return None
    return RESULTS_DIR if value == "1" else value


def bench_jobs():
    """Worker processes for parallelizable drivers (``REPRO_BENCH_JOBS``)."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def bench_seed():
    """Catalog generation seed (``REPRO_BENCH_SEED``, default 5)."""
    return int(os.environ.get("REPRO_BENCH_SEED", "5") or "5")


def _maybe_enable_cache():
    if os.environ.get("REPRO_BENCH_NO_CACHE"):
        return
    from repro.cost.cache import (
        CalibrationCache,
        get_default_cache,
        set_default_cache,
    )

    if get_default_cache() is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or os.path.join(
            os.path.dirname(__file__), ".calibration-cache"
        )
        set_default_cache(CalibrationCache(cache_dir))


_maybe_enable_cache()


def run_and_report(benchmark, name, experiment):
    """Benchmark one experiment driver and report its tables."""
    trace_dir = _trace_dir()
    if trace_dir is not None:
        from repro import obs

        obs.enable(process_name="repro-bench-%s" % name)
        obs.reset()  # scope the collectors to this benchmark
    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    if trace_dir is not None:
        from repro.obs import OBS

        os.makedirs(trace_dir, exist_ok=True)
        OBS.tracer.export(os.path.join(trace_dir, "%s.trace.json" % name))
        OBS.declog.export(os.path.join(trace_dir, "%s.declog.jsonl" % name))
    text = result.text()
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s.txt" % name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    tables = getattr(result, "tables", None)
    if tables:
        with open(os.path.join(RESULTS_DIR, "%s.csv" % name), "w") as handle:
            handle.write(result.to_csv())
    timings = getattr(result, "data", {}).get("timings")
    if timings:
        with open(os.path.join(RESULTS_DIR, "%s.timings.json" % name), "w") as handle:
            json.dump(timings, handle, indent=2)
    data = getattr(result, "data", {})
    meta = {
        "benchmark": name,
        "engine_mode": data.get("engine_mode"),
        "catalog_seed": data.get("catalog_seed", bench_seed()),
    }
    with open(os.path.join(RESULTS_DIR, "%s.meta.json" % name), "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return result
