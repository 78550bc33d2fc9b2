"""Command-line entry point for the long-running service mode.

Usage::

    python -m repro.service                        # built-in demo schedule
    python -m repro.service --schedule churn.json  # scripted churn schedule
    python -m repro.service --jobs 2 --out report.json

With no arguments the demo schedule (:data:`repro.service.schedule.DEMO_SCHEDULE`)
runs end-to-end: three tenants register and deregister TPC-H queries over
four trigger windows, incremental re-optimization fires on every churn
event, one registration is rejected for an unsatisfiable goal and one for
a tenant budget.  ``--jobs N`` runs tenant shards in worker processes;
the report is bit-identical to serial.

The report is printed as canonical JSON (sorted keys) so two runs can be
compared byte for byte.  ``--decision-log FILE`` additionally exports the
optimizer's decision log -- including the ``service_reoptimize`` records
showing which subplans each churn re-search reused versus recalibrated.
Like ``--trace`` it enables observability.  The slack
and attribution ledgers need no flag: they are in the report.
"""

import argparse
import json
import sys
import time

from .. import obs
from ..cost.cache import CalibrationCache, set_default_cache
from ..errors import ReproError
from ..harness.service import run_service_schedule
from ..obs import OBS
from .schedule import DEMO_SCHEDULE


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a long-running multi-tenant service over a "
                    "scripted churn schedule.",
    )
    parser.add_argument("--schedule", default=None, metavar="FILE",
                        help="churn schedule JSON (default: built-in demo)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for tenant shards "
                             "(default 1 = serial, 0 = all cores)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the report JSON to FILE")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk calibration cache")
    parser.add_argument("--cache-dir", default=None,
                        help="calibration cache directory (default "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-calibration)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON of the run")
    parser.add_argument("--decision-log", default=None, metavar="FILE",
                        help="write the optimizer decision log (JSON lines)")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="log the repro logger hierarchy to stderr")
    args = parser.parse_args(argv)

    if args.no_cache:
        set_default_cache(None)
    else:
        set_default_cache(CalibrationCache(args.cache_dir))

    if args.trace or args.decision_log:
        obs.enable(process_name="repro-service")
    if args.log_level:
        obs.configure_logging(args.log_level)

    if args.schedule:
        try:
            with open(args.schedule) as handle:
                schedule = json.load(handle)
        except (OSError, ValueError) as exc:
            print("error: cannot read schedule %s: %s" % (args.schedule, exc),
                  file=sys.stderr)
            return 1
    else:
        schedule = DEMO_SCHEDULE

    started = time.monotonic()
    try:
        report = run_service_schedule(schedule, jobs=args.jobs)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    summary = report["summary"]
    print(
        "\n[%d shards, %d query-windows, SLO miss rate %.3f, "
        "work/query-window %.1f, admission %s, wall %.1fs]"
        % (
            report["schedule"]["shards"],
            summary["query_windows"],
            summary["slo_miss_rate"],
            summary["work_per_query_window"],
            summary["admission"],
            time.monotonic() - started,
        ),
        file=sys.stderr,
    )
    slack = summary["slack"]
    print(
        "[slack: min headroom %s work, %s deferred; attribution conserved: %s]"
        % (
            _num(slack["min_headroom_work"]),
            _num(slack["deferred_work"]),
            summary["attribution_conserved"],
        ),
        file=sys.stderr,
    )

    if OBS.enabled:
        if args.trace:
            OBS.tracer.export(args.trace)
        if args.decision_log:
            OBS.declog.export(args.decision_log)
            print(
                "[decision log: %d records -> %s]"
                % (len(OBS.declog.records), args.decision_log),
                file=sys.stderr,
            )
    return 0


def _num(value):
    return "-" if value is None else "%.1f" % value


if __name__ == "__main__":
    sys.exit(main())
