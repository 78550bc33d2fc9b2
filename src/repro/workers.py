"""The one worker pool: an ordered map that owns the determinism contract.

The paper's metric is deterministic work, so every ``--jobs N`` path --
experiment sweeps (:mod:`repro.harness.parallel`), sharded service
schedules (:mod:`repro.harness.service`) -- promises a report
bit-identical to the serial one.  :func:`ordered_map` is where that
promise is kept, once:

* every worker process starts from the *driver's* state, not from its
  own environment: the initializer installs the driver's
  calibration-cache directory, resets observability and re-enables it
  under a per-process name when the driver is observing, and holds the
  ``shared`` object (shipped once per worker, not once per task);
* every task runs under the same wrapper, in process or in a worker: the
  decision log is stamped ``<run_label>-<task index>``, the task is
  timed, and in a worker a :class:`~repro.errors.ReproError` is
  snapshotted (:class:`CapturedError`) and the observability payload
  drained;
* the driver merges in *task* order regardless of completion order:
  results, observability payloads, and the first failing task, which is
  re-raised as its original exception with the worker traceback chained;
* while the driver is observing, tasks are assigned statically (worker
  ``k`` of ``W`` owns tasks ``k, k+W, ...``) so each worker's warm/cold
  history, and with it the merged event / decision sequence, is
  identical run to run at a fixed job count; untraced runs use the
  dynamically balanced pool;
* ``jobs <= 1`` or a single task runs the same task function in process
  and never touches multiprocessing.
"""

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from . import obs
from .cost import cache as calibration_cache
from .errors import ReproError


def resolve_jobs(jobs):
    """Normalize a ``--jobs`` value: 0/None means every core."""
    if not jobs:
        return os.cpu_count() or 1
    return max(1, int(jobs))


# -- error propagation across the process boundary ------------------------------

class WorkerTraceback(Exception):
    """Carrier for a worker-side traceback, chained as ``__cause__``.

    Mirrors what ``concurrent.futures`` does internally, but for errors we
    capture explicitly so the original exception -- type, ``args`` *and*
    enrichment attributes like ``fuzz_seed``/``fuzz_case_path`` -- arrives
    in the driver verbatim instead of flattened to a string.
    """

    def __init__(self, text):
        super().__init__(text)
        self.text = text

    def __str__(self):
        return "\n\nworker traceback:\n%s" % self.text


class CapturedError:
    """Picklable snapshot of a :class:`ReproError` raised in a worker.

    Snapshotting (class, args, attribute dict, formatted traceback) is
    robust where pickling live exception objects is not: reconstruction
    never depends on the exception's ``__init__`` signature, and the
    attribute dict restores post-construction enrichment (fuzz context,
    positions, ...) exactly.
    """

    __slots__ = ("exc_class", "args", "state", "traceback_text")

    def __init__(self, exc):
        self.exc_class = type(exc)
        self.args = exc.args
        self.state = dict(getattr(exc, "__dict__", {}) or {})
        self.traceback_text = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )

    def rebuild(self):
        try:
            exc = self.exc_class(*self.args)
        except Exception:
            exc = ReproError(
                "%s%r (original could not be reconstructed)"
                % (self.exc_class.__name__, self.args)
            )
        for key, value in self.state.items():
            try:
                setattr(exc, key, value)
            except Exception:
                pass
        return exc

    def reraise(self):
        """Raise the rebuilt error with the worker traceback chained."""
        raise self.rebuild() from WorkerTraceback(self.traceback_text)


# -- the per-task wrapper (both sides) ------------------------------------------

def _run_task(fn, shared, run_label, index, task):
    """``(fn(shared, task), seconds)`` under the task's stable run id.

    The id names the unit of work, not the process, so merged decision
    logs sort by ``(run, seq)`` identically at any job count.
    """
    if obs.OBS.enabled:
        obs.OBS.declog.set_run("%s-%d" % (run_label, index))
    started = time.monotonic()
    result = fn(shared, task)
    return result, time.monotonic() - started


# -- worker side ----------------------------------------------------------------

_SHARED = None


def _init_worker(cache_dir, observing, shared):
    """Make this process a replica of the driver; keep ``shared``."""
    global _SHARED
    calibration_cache.set_default_cache(
        calibration_cache.CalibrationCache(cache_dir)
        if cache_dir is not None else None
    )
    # a forked worker inherits the driver's enabled session (parent pid,
    # already-collected events) -- always start from a clean slate
    obs.disable()
    if observing:
        obs.enable(process_name="repro-worker-%d" % os.getpid())
    _SHARED = shared


def _run_batch(fn, run_label, indexed_tasks):
    """Run ``(index, task)`` pairs in order; stop at the first failure.

    Returns ``(index, result | CapturedError, seconds, obs payload)`` per
    task run.  Fail-fast like the in-process loop: tasks behind a failed
    one in this batch are not started.
    """
    outcomes = []
    for index, task in indexed_tasks:
        try:
            result, seconds = _run_task(fn, _SHARED, run_label, index, task)
        except ReproError as exc:
            result, seconds = CapturedError(exc), 0.0
        outcomes.append((index, result, seconds, obs.drain_worker_payload()))
        if isinstance(result, CapturedError):
            break
    return outcomes


# -- driver side ----------------------------------------------------------------

def _map_in_process(fn, tasks, shared, run_label):
    """The serial loop, cycling observability through the same
    drain/absorb path the workers use: counters then merge as per-task
    sums in both modes, so even float-valued counters stay bit-identical
    between serial and ``jobs=N``."""
    observing = obs.is_enabled()
    previous_run = obs.OBS.declog.run_id if observing else None
    outcomes = []
    payloads = []
    try:
        for index, task in enumerate(tasks):
            try:
                outcomes.append(_run_task(fn, shared, run_label, index, task))
            finally:
                payloads.append(obs.drain_worker_payload())
    finally:
        for payload in payloads:
            obs.absorb_worker_payload(payload)
        if observing:
            obs.OBS.declog.set_run(previous_run)
    return outcomes


def ordered_map(fn, tasks, jobs=1, shared=None, run_label="task"):
    """``[(fn(shared, task), seconds), ...]`` in task order, over ``jobs``
    processes.

    ``fn`` is a module-level function (it crosses the process boundary by
    import path) and must be deterministic given ``shared`` and ``task``;
    ``shared`` is whatever every task needs and is shipped once per
    worker.  The return value, the driver's merged observability session
    and the exception raised on failure are then the same at every job
    count -- see the module docstring.
    """
    tasks = list(tasks)
    workers = min(resolve_jobs(jobs), len(tasks))
    if workers <= 1:
        return _map_in_process(fn, tasks, shared, run_label)

    indexed = list(enumerate(tasks))
    observing = obs.is_enabled()
    if observing:
        batches = [indexed[k::workers] for k in range(workers)]
    else:
        batches = [[pair] for pair in indexed]
    cache = calibration_cache.get_default_cache()
    cache_dir = cache.cache_dir if cache is not None else None
    done = {}
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(cache_dir, observing, shared),
    ) as pool:
        futures = [
            pool.submit(_run_batch, fn, run_label, batch) for batch in batches
        ]
        for future in futures:
            for index, result, seconds, payload in future.result():
                done[index] = (result, seconds, payload)

    # task order, not completion order: every payload before the first
    # failing task is absorbed (and that task's own), none after it
    outcomes = []
    for index in range(len(tasks)):
        result, seconds, payload = done[index]
        obs.absorb_worker_payload(payload)
        if isinstance(result, CapturedError):
            result.reraise()
        outcomes.append((result, seconds))
    return outcomes
