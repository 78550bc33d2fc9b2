"""Fuzz campaign driver and ``python -m repro.fuzz`` entry point.

Usage::

    python -m repro.fuzz --seed 0 --cases 200             # smoke campaign
    python -m repro.fuzz --seed 7 --cases 0 --minutes 5   # time-budgeted
    python -m repro.fuzz --seed 3 --cases 500 --shrink    # minimize failures
    python -m repro.fuzz --replay tests/fuzz_corpus/x.json

Each case runs through every differential oracle
(:mod:`repro.fuzz.oracles`); failures are written as self-contained JSON
files under ``--failures-dir`` (default ``fuzz-failures/``) together
with the exact replay command.  ``--shrink`` delta-debugs each failing
case down to a minimal repro before saving.  Exit status is 0 for a
green campaign, 1 when any case failed.

Observability: ``--trace FILE`` enables :mod:`repro.obs` collection;
the campaign emits per-case spans (``fuzz.case`` / ``fuzz.shrink``).
"""

import argparse
import os
import sys
import time

from .. import obs
from ..errors import ReproError
from ..obs import OBS, trace
from . import corpus, grammar, oracles, shrinker


class CaseFailure:
    """One failing case: raw + minimized forms, verdict text, saved paths."""

    __slots__ = ("case", "minimized", "failures", "path", "minimized_path")

    def __init__(self, case, failures):
        self.case = case
        self.minimized = None
        self.failures = failures
        self.path = None
        self.minimized_path = None


class CampaignResult:
    """Summary of one fuzz campaign."""

    __slots__ = ("seed", "cases_run", "rejected", "failures", "wall_seconds")

    def __init__(self, seed):
        self.seed = seed
        self.cases_run = 0
        self.rejected = 0
        self.failures = []
        self.wall_seconds = 0.0

    @property
    def ok(self):
        return not self.failures


def case_verdict(case, case_path=None):
    """Run one case; returns ``(report_or_None, failure_lines)``.

    Any exception escaping the oracles -- ReproError divergence handled
    inside :func:`~repro.fuzz.oracles.run_case`, so what escapes here is
    a crash -- becomes a failure line instead of aborting the campaign.
    """
    try:
        report = oracles.run_case(case, case_path=case_path)
    except Exception as exc:  # crashes are findings, not campaign aborts
        return None, ["crash: %s: %s" % (type(exc).__name__, exc)]
    if report.status == "fail":
        return report, list(report.failures)
    return report, []


def _is_failing(case):
    """Shrinker predicate: does this case still fail (or crash)?"""
    try:
        report = oracles.run_case(case)
    except Exception:
        return True
    return report.status == "fail"


def run_campaign(seed, cases, minutes=None, shrink=False, failures_dir=None,
                 shrink_budget=400, progress=None):
    """Run a fuzz campaign; returns a :class:`CampaignResult`.

    ``cases`` may be 0 with ``minutes`` set for a purely time-budgeted
    run.  When ``failures_dir`` is set, raw (and minimized) failing
    cases are saved there.
    """
    started = time.monotonic()
    deadline = started + minutes * 60.0 if minutes else None
    result = CampaignResult(seed)
    index = 0
    while True:
        if cases and index >= cases:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if not cases and deadline is None:
            break
        case = grammar.generate_case(seed, index)
        with trace.span("fuzz.case", seed=seed, index=index):
            report, failure_lines = case_verdict(case)
        result.cases_run += 1
        if report is not None and report.status == "rejected":
            result.rejected += 1
        if failure_lines:
            failure = CaseFailure(case, failure_lines)
            if shrink:
                with trace.span("fuzz.shrink", seed=seed, index=index):
                    failure.minimized = shrinker.shrink(
                        case, _is_failing, budget=shrink_budget
                    )
            if failures_dir:
                _save_failure(failure, failures_dir)
            result.failures.append(failure)
        if progress is not None:
            progress(index, result)
        index += 1
    result.wall_seconds = time.monotonic() - started
    return result


def _save_failure(failure, directory):
    name = corpus.case_filename(failure.case)
    failure.path = corpus.save_case(
        failure.case, os.path.join(directory, name), failures=failure.failures
    )
    if failure.minimized is not None:
        failure.minimized_path = corpus.save_case(
            failure.minimized,
            os.path.join(directory, corpus.case_filename(
                failure.minimized, prefix="minimized"
            )),
            failures=failure.failures,
            note="minimized from %s" % name,
        )


def replay(path):
    """Replay a saved case; returns its :class:`~.oracles.CaseReport`.

    ReproErrors raised during the replay carry the case path and seed
    (:meth:`~repro.errors.ReproError.attach_fuzz_context`).
    """
    case = corpus.load_case(path)
    try:
        return oracles.run_case(case, case_path=path)
    except ReproError as exc:
        raise exc.attach_fuzz_context(seed=case.get("seed"), case_path=path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzer for the shared-execution engine.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--cases", type=int, default=200,
                        help="number of cases to run (default 200; 0 = "
                             "unbounded, requires --minutes)")
    parser.add_argument("--minutes", type=float, default=None,
                        help="wall-clock budget; stops early when exceeded")
    parser.add_argument("--shrink", action="store_true",
                        help="delta-debug failing cases to minimal repros")
    parser.add_argument("--shrink-budget", type=int, default=400,
                        help="max oracle evaluations per shrink (default 400)")
    parser.add_argument("--failures-dir", default="fuzz-failures",
                        help="directory for failing-case JSON dumps "
                             "(default fuzz-failures/)")
    parser.add_argument("--replay", metavar="PATH", action="append",
                        default=[],
                        help="replay saved case(s) instead of generating "
                             "new ones (repeatable)")
    parser.add_argument("--progress-every", type=int, default=50,
                        help="print progress every N cases (0 = quiet)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON of the run")
    args = parser.parse_args(argv)

    if args.trace:
        obs.enable(process_name="repro-fuzz")

    status = 0
    if args.replay:
        for path in args.replay:
            report = replay(path)
            print(report.describe())
            if report.status == "fail":
                status = 1
    else:
        if not args.cases and not args.minutes:
            parser.error("--cases 0 requires --minutes")

        def progress(index, result):
            if args.progress_every and (index + 1) % args.progress_every == 0:
                print(
                    "[fuzz] %d cases (%d rejected, %d failures)"
                    % (index + 1, result.rejected, len(result.failures))
                )

        result = run_campaign(
            args.seed, args.cases, minutes=args.minutes, shrink=args.shrink,
            failures_dir=args.failures_dir, shrink_budget=args.shrink_budget,
            progress=progress,
        )
        print(
            "[fuzz] seed %d: %d cases in %.1fs, %d rejected, %d failure(s)"
            % (result.seed, result.cases_run, result.wall_seconds,
               result.rejected, len(result.failures))
        )
        for failure in result.failures:
            print("\n".join("  " + line for line in failure.failures))
            if failure.path:
                print("  saved: %s" % failure.path)
                print("  replay: %s" % corpus.replay_command(failure.path))
            if failure.minimized_path:
                print("  minimized: %s" % failure.minimized_path)
        status = 0 if result.ok else 1

    if args.trace:
        OBS.tracer.export(args.trace)
        print("[trace: %d events -> %s]"
              % (len(OBS.tracer.events), args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
