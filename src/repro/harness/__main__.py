"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.harness fig9  --scale 0.5 --max-pace 100
    python -m repro.harness fig11 --scale 0.4 --jobs 4
    python -m repro.harness all   --scale 0.3 --max-pace 50 --no-cache

Each experiment prints the same rows/series the paper's figure or table
reports.  See EXPERIMENTS.md for expected shapes.

``--jobs N`` fans the independent (approach, constraint-set) cells of the
sweep experiments out over N worker processes (0 = all cores); results
are identical to the serial run.  Calibration results are cached on disk
between runs (``--cache-dir``, default ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-calibration``); ``--no-cache`` disables that.

Observability (docs/OBSERVABILITY.md): ``--trace FILE`` writes a Chrome
trace-event JSON (open in Perfetto or chrome://tracing) merging spans
from the driver and every ``--jobs`` worker; ``--decision-log FILE``
writes the optimizer's decision log as JSON lines; ``--log-level`` turns
on stderr logging.  Either export flag enables collection.
"""

import argparse
import os
import sys
import time

from .. import obs
from ..cost.cache import CalibrationCache, set_default_cache
from ..engine.stream import StreamConfig
from ..obs import OBS
from . import experiments

EXPERIMENTS = {
    "fig9": lambda args, config: experiments.fig9(
        args.scale, args.max_pace, config=config, jobs=args.jobs,
        catalog_seed=args.seed,
    ),
    "fig10": lambda args, config: experiments.fig10(
        args.scale, config=config, catalog_seed=args.seed
    ),
    "fig11": lambda args, config: experiments.fig11(
        args.scale, args.max_pace, config=config, jobs=args.jobs,
        catalog_seed=args.seed,
    ),
    "fig12": lambda args, config: experiments.fig12(
        args.scale, args.max_pace, config=config, jobs=args.jobs,
        catalog_seed=args.seed,
    ),
    "fig13": lambda args, config: experiments.fig13(
        args.scale, args.max_pace, config=config, catalog_seed=args.seed
    ),
    "fig14": lambda args, config: experiments.fig14(
        args.scale, args.max_pace, config=config, jobs=args.jobs,
        catalog_seed=args.seed,
    ),
    "fig15": lambda args, config: experiments.fig15(
        args.scale, catalog_seed=args.seed
    ),
    "fig16": lambda args, config: experiments.fig16(
        args.scale, args.max_pace, config=config, catalog_seed=args.seed
    ),
    "fig17": lambda args, config: experiments.fig17(
        args.scale, args.max_pace, config=config, jobs=args.jobs,
        catalog_seed=args.seed,
    ),
    "table1": lambda args, config: experiments.table1(
        args.scale, args.max_pace, config=config, jobs=args.jobs,
        catalog_seed=args.seed,
    ),
}


def state_factor(text):
    """``--state-factor`` through the one validator, :class:`StreamConfig`."""
    return StreamConfig(state_factor=text).state_factor


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the iShare paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument("--scale", type=float, default=0.4,
                        help="TPC-H micro scale factor (default 0.4)")
    parser.add_argument("--max-pace", type=int, default=100,
                        help="max pace J (default 100, as in the paper)")
    parser.add_argument("--state-factor", type=state_factor, default="3/10",
                        help="per-entry state maintenance charge, an exact "
                             "rational such as 0.3 or 1/3 (default 3/10)")
    parser.add_argument("--seed", type=int, default=5,
                        help="TPC-H catalog generation seed (default 5); "
                             "recorded in every report header/export")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent experiment "
                             "cells (default 1 = serial, 0 = all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk calibration cache")
    parser.add_argument("--cache-dir", default=None,
                        help="calibration cache directory (default "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-calibration)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON of the run "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--decision-log", default=None, metavar="FILE",
                        help="write the optimizer decision log (JSON lines)")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="log the repro logger hierarchy to stderr")
    args = parser.parse_args(argv)
    if args.jobs == 0:
        args.jobs = os.cpu_count() or 1

    if args.no_cache:
        set_default_cache(None)
    else:
        set_default_cache(CalibrationCache(args.cache_dir))

    if args.trace or args.decision_log:
        obs.enable(process_name="repro-harness")
    if args.log_level:
        obs.configure_logging(args.log_level)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        config = experiments.default_config(args.max_pace, args.state_factor)
        started = time.monotonic()
        result = EXPERIMENTS[name](args, config)
        print(result.text())
        timings = result.data.get("timings")
        if timings:
            print(
                "\n[%s: %d cells, %.1f cell-seconds over %d jobs, "
                "wall %.1fs, speedup %.1fx]"
                % (
                    name,
                    len(timings["cells"]),
                    timings["cell_seconds_total"],
                    timings["jobs"],
                    timings["wall_seconds"],
                    timings["speedup"],
                )
            )
        print("\n[%s finished in %.1fs]\n" % (name, time.monotonic() - started))

    if OBS.enabled:
        if args.trace:
            OBS.tracer.export(args.trace)
            print("[trace: %d events -> %s]"
                  % (len(OBS.tracer.events), args.trace))
        if args.decision_log:
            OBS.declog.export(args.decision_log)
            print("[decision log: %d records -> %s]"
                  % (len(OBS.declog.records), args.decision_log))
    return 0


if __name__ == "__main__":
    sys.exit(main())
