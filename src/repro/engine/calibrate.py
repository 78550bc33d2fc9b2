"""Calibration: one instrumented batch run fills per-node statistics.

Mirrors the paper's use of historical statistics (sections 2.1, 3.2): a
recurring query's prior executions tell the optimizer the cardinalities
it needs.  :func:`calibrate_plan` runs the plan once in batch mode
(every pace 1) with statistics collection enabled and attaches a
:class:`~repro.cost.stats.NodeStats` to every plan node.  That run is a
production run plus counters: the executor compiles the operator family
and lanes every window runs, and ``stats_mode`` only makes each operator
tally the batches that cross its boundaries.

Calibration results can be cached on disk (:mod:`repro.cost.cache`):
when a cache is passed -- or installed process-wide with
:func:`repro.cost.cache.set_default_cache` -- a repeat calibration over
the same plan structure, table content and stream configuration replays
the stored statistics instead of executing the batch run.
"""

import logging

from ..cost import cache as calibration_cache
from ..cost.stats import NodeStats
from ..obs import OBS
from ..physical.columnar import (
    ColumnarAggregateExec,
    ColumnarJoinExec,
    ColumnarSourceExec,
)
from ..physical.operators import AggregateExec, JoinExec, SourceExec
from .executor import PlanExecutor
from .stream import StreamConfig

# the production operators and the reference expose the identical stats
# surface (scanned/kept/in/out totals and per-q dicts, decorations
# counters, ``group_count``), so the stats walker treats them
# interchangeably
_SOURCE_EXECS = (SourceExec, ColumnarSourceExec)
_JOIN_EXECS = (JoinExec, ColumnarJoinExec)
_AGGREGATE_EXECS = (AggregateExec, ColumnarAggregateExec)

logger = logging.getLogger(__name__)

#: count of *actual* calibration batch executions in this process (cache
#: replays do not increment it); tests assert warm runs leave it untouched
_execution_count = [0]


def calibration_execution_count():
    """How many non-cached calibration batch runs this process performed."""
    return _execution_count[0]


class CalibrationResult:
    """Outcome of a calibration run.

    Attributes
    ----------
    run:
        the batch :class:`~repro.engine.metrics.RunResult`.
    query_batch_work:
        per-query total work units of the batch run, summed over the
        query's subplans.  For an *unshared* plan this is the paper's
        "final work of separately executing the query in one batch" --
        the denominator of relative final-work constraints.
    query_batch_latency:
        the same, converted to seconds.
    """

    def __init__(self, run, query_batch_work, query_batch_latency):
        self.run = run
        self.query_batch_work = query_batch_work
        self.query_batch_latency = query_batch_latency

    def __repr__(self):
        return "CalibrationResult(total_work=%.1f)" % self.run.total_work


class CachedCalibrationRun:
    """Summary stand-in for the batch :class:`RunResult` of a cache replay.

    Carries the aggregate measurements consumers of a calibration use;
    the per-execution records of the original run are not stored.
    """

    __slots__ = ("stream_config", "total_work", "subplan_total_work", "records")

    def __init__(self, stream_config, total_work, subplan_total_work):
        self.stream_config = stream_config
        self.total_work = total_work
        self.subplan_total_work = dict(subplan_total_work)
        self.records = []

    @property
    def total_seconds(self):
        return self.stream_config.seconds(self.total_work)

    def __repr__(self):
        return "CachedCalibrationRun(total_work=%.1f)" % self.total_work


def calibrate_plan(plan, stream_config=None, cache=None):
    """Run ``plan`` in batch mode and attach statistics to its nodes.

    ``cache`` overrides the process-wide default calibration cache
    (:func:`repro.cost.cache.set_default_cache`); when either is set, a
    content-key hit replays the stored statistics without executing.
    """
    stream_config = stream_config or StreamConfig()
    if cache is None:
        cache = calibration_cache.get_default_cache()
    start_us = OBS.tracer.now_us() if OBS.enabled else 0.0
    key = None
    if cache is not None:
        key = cache.key_for(plan, stream_config)
        payload = cache.get(key)
        if payload is not None:
            result = _replay_cached(plan, stream_config, payload)
            if result is not None:
                logger.debug("calibration replayed from cache (key %s)", key[:12])
                if OBS.enabled:
                    OBS.metrics.counter("calibration.replays").inc()
                    OBS.tracer.complete(
                        "engine.calibrate", start_us,
                        {"cached": True, "subplans": len(plan.subplans)},
                    )
                return result
            # present but not applicable to this plan: a stale entry
            if OBS.enabled:
                OBS.metrics.counter("calibration.cache.invalidation").inc()

    run = _batch_run(plan, stream_config)
    _execution_count[0] += 1
    logger.debug(
        "calibration batch run: %d subplans, total work %.1f",
        len(plan.subplans), run.total_work,
    )
    if OBS.enabled:
        OBS.metrics.counter("calibration.batch_runs").inc()
        OBS.tracer.complete(
            "engine.calibrate", start_us,
            {"cached": False, "subplans": len(plan.subplans),
             "total_work": round(run.total_work, 2)},
        )

    query_batch_work = {}
    query_batch_latency = {}
    for qid in plan.query_roots:
        work = sum(
            run.subplan_total_work.get(subplan.sid, 0.0)
            for subplan in plan.subplans_of_query(qid)
        )
        query_batch_work[qid] = work
        query_batch_latency[qid] = stream_config.seconds(work)
    result = CalibrationResult(run, query_batch_work, query_batch_latency)
    if cache is not None:
        cache.put(key, _serialize_result(plan, result))
    return result


def _batch_run(plan, stream_config):
    """The stats run at pace 1 everywhere, its statistics attached.

    Each subplan's statistics are read as it retires, so the run holds
    the state of the subplans still running, never of the whole plan.
    """
    executor = PlanExecutor(plan, stream_config, stats_mode=True)
    return executor.run(
        {subplan.sid: 1 for subplan in plan.subplans},
        collect_results=False, on_retire=_collect_stats,
    )


def _serialize_result(plan, result):
    """JSON-safe cache payload for one calibration outcome."""
    order = plan.topological_order()
    position = {subplan.sid: index for index, subplan in enumerate(order)}
    return {
        "stats": calibration_cache.serialize_stats(plan),
        "query_batch_work": {
            str(qid): work for qid, work in result.query_batch_work.items()
        },
        "total_work": result.run.total_work,
        "subplan_total_work": {
            str(position[sid]): work
            for sid, work in result.run.subplan_total_work.items()
        },
    }


def _replay_cached(plan, stream_config, payload):
    """Rebuild a :class:`CalibrationResult` from a cache payload.

    Returns None (fall through to a real batch run) when the payload does
    not line up with the plan -- a stale or corrupt entry, not an error.
    """
    try:
        calibration_cache.apply_stats(plan, payload["stats"])
        query_batch_work = {
            int(qid): float(work)
            for qid, work in payload["query_batch_work"].items()
        }
        total_work = float(payload["total_work"])
        stored_subplan_work = payload.get("subplan_total_work", {})
    except (KeyError, TypeError, ValueError):
        return None
    if set(query_batch_work) != set(plan.query_roots):
        return None
    order = plan.topological_order()
    subplan_total_work = {}
    try:
        for position, work in stored_subplan_work.items():
            subplan_total_work[order[int(position)].sid] = float(work)
    except (IndexError, TypeError, ValueError):
        return None
    query_batch_latency = {
        qid: stream_config.seconds(work)
        for qid, work in query_batch_work.items()
    }
    run = CachedCalibrationRun(stream_config, total_work, subplan_total_work)
    return CalibrationResult(run, query_batch_work, query_batch_latency)


def _collect_stats(unit):
    """Attach a retiring subplan's statistics to its plan nodes."""
    _node_stats(unit.root_exec)


def _node_stats(exec_op):
    if isinstance(exec_op, _SOURCE_EXECS):
        stats = NodeStats("source")
        stats.scanned_total = float(exec_op.scanned_total)
        stats.kept_total = float(exec_op.kept_total)
        stats.kept_per_q = {q: float(c) for q, c in exec_op.kept_per_q.items()}
        _fill_filter_sel(stats, exec_op.decorations)
        exec_op.node.stats = stats
        return
    if isinstance(exec_op, _JOIN_EXECS):
        _node_stats(exec_op.left)
        _node_stats(exec_op.right)
        stats = NodeStats("join")
        stats.in_left = float(exec_op.in_left)
        stats.in_right = float(exec_op.in_right)
        stats.in_left_per_q = {q: float(c) for q, c in exec_op.in_left_per_q.items()}
        stats.in_right_per_q = {q: float(c) for q, c in exec_op.in_right_per_q.items()}
        stats.join_out = float(exec_op.out_total)
        stats.join_out_per_q = {q: float(c) for q, c in exec_op.out_per_q.items()}
        _fill_filter_sel(stats, exec_op.decorations)
        exec_op.node.stats = stats
        return
    if isinstance(exec_op, _AGGREGATE_EXECS):
        _node_stats(exec_op.child)
        stats = NodeStats("aggregate")
        stats.agg_in = float(exec_op.in_total)
        stats.agg_in_per_q = {q: float(c) for q, c in exec_op.in_per_q.items()}
        stats.groups_union = float(exec_op.group_count())
        stats.groups_per_q = {
            q: float(exec_op.group_count(q)) for q in exec_op.in_per_q
        }
        stats.agg_out = float(exec_op.out_total)
        stats.has_minmax = any(spec.func in ("min", "max") for spec in exec_op.specs)
        _fill_filter_sel(stats, exec_op.decorations)
        exec_op.node.stats = stats
        return
    raise TypeError("unknown physical operator %r" % (exec_op,))


def _fill_filter_sel(stats, decorations):
    for qid, in_count in decorations.filter_in_per_q.items():
        out_count = decorations.filter_out_per_q.get(qid, 0)
        stats.filter_sel_per_q[qid] = (out_count / in_count) if in_count else 1.0
