"""Calibration: one instrumented batch run fills per-node statistics.

Mirrors the paper's use of historical statistics (sections 2.1, 3.2): a
recurring query's prior executions tell the optimizer the cardinalities
it needs.  :func:`calibrate_plan` runs the plan once in batch mode
(every pace 1) with statistics collection enabled and attaches a
:class:`~repro.cost.stats.NodeStats` to every plan node.  That run is a
production run plus counters: the executor compiles the operators every
window runs, and ``stats_mode`` only makes each operator tally the
batches that cross its boundaries (a join runs the window's side
kernels; a filtered one also counts its matches' bits on the probe).

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
from .executor import PlanExecutor
from .metrics import RunResult
from .stream import StreamConfig

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
        per-query total work units of the batch run, summed exactly over
        the query's subplans.  For an *unshared* plan this is the paper's
        "final work of separately executing the query in one batch" --
        the denominator of relative final-work constraints.
    query_batch_latency:
        the same, converted to seconds.
    """

    def __init__(self, plan, run):
        self.run = run
        self.query_batch_work = {}
        self.query_batch_latency = {}
        for qid in plan.query_roots:
            quanta = sum(
                run.subplan_total_quanta.get(subplan.sid, 0)
                for subplan in plan.subplans_of_query(qid)
            )
            work = self.query_batch_work[qid] = quanta / run.quantum
            self.query_batch_latency[qid] = run.stream_config.seconds(work)

    def __repr__(self):
        return "CalibrationResult(total_work=%.1f)" % self.run.total_work


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
                    OBS.tracer.complete(
                        "engine.calibrate", start_us,
                        {"cached": True, "subplans": len(plan.subplans)},
                    )
                return result
            # present but not applicable to this plan: a stale entry

    run = _batch_run(plan, stream_config)
    _execution_count[0] += 1
    logger.debug(
        "calibration batch run: %d subplans, total work %.1f",
        len(plan.subplans), run.total_work,
    )
    if OBS.enabled:
        OBS.tracer.complete(
            "engine.calibrate", start_us,
            {"cached": False, "subplans": len(plan.subplans),
             "total_work": round(run.total_work, 2)},
        )

    if cache is not None:
        cache.put(key, _serialize_run(plan, run))
    return CalibrationResult(plan, run)


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


def _serialize_run(plan, run):
    """JSON-safe cache payload for one calibration: the statistics and
    each subplan's measured work as integer quanta."""
    order = plan.topological_order()
    position = {subplan.sid: index for index, subplan in enumerate(order)}
    return {
        "stats": calibration_cache.serialize_stats(plan),
        "subplan_total_quanta": {
            str(position[sid]): quanta
            for sid, quanta in run.subplan_total_quanta.items()
        },
    }


def _replay_cached(plan, stream_config, payload):
    """Rebuild a :class:`CalibrationResult` from a cache payload.

    The replayed run carries the measured per-subplan quanta and no
    execution records.  Returns None (fall through to a real batch run)
    when the payload does not line up with the plan -- a stale or corrupt
    entry, work that is not integer quanta included -- not an error.
    """
    order = plan.topological_order()
    run = RunResult({}, stream_config)
    try:
        stored = payload["subplan_total_quanta"]
        for position, quanta in stored.items():
            if type(quanta) is not int:
                return None
            run.subplan_total_quanta[order[int(position)].sid] = quanta
        calibration_cache.apply_stats(plan, payload["stats"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None
    run.total_quanta = sum(run.subplan_total_quanta.values())
    return CalibrationResult(plan, run)


def _collect_stats(unit):
    """Attach a retiring subplan's statistics to its plan nodes."""
    _node_stats(unit.root_exec)


def _node_stats(exec_op):
    # every operator family exposes the same stats surface (scanned/kept/
    # in/out totals and per-q dicts, decorations counters,
    # ``group_count``), so the walk reads the plan node's kind only
    node = exec_op.node
    stats = NodeStats(node.kind)
    if node.kind == "source":
        stats.scanned_total = float(exec_op.scanned_total)
        stats.kept_total = float(exec_op.kept_total)
        stats.kept_per_q = {q: float(c) for q, c in exec_op.kept_per_q.items()}
    elif node.kind == "join":
        _node_stats(exec_op.left)
        _node_stats(exec_op.right)
        stats.in_left = float(exec_op.in_left)
        stats.in_right = float(exec_op.in_right)
        stats.in_left_per_q = {q: float(c) for q, c in exec_op.in_left_per_q.items()}
        stats.in_right_per_q = {q: float(c) for q, c in exec_op.in_right_per_q.items()}
        stats.join_out = float(exec_op.out_total)
        stats.join_out_per_q = {q: float(c) for q, c in exec_op.out_per_q.items()}
    else:
        _node_stats(exec_op.child)
        stats.agg_in = float(exec_op.in_total)
        stats.agg_in_per_q = {q: float(c) for q, c in exec_op.in_per_q.items()}
        stats.groups_union = float(exec_op.group_count())
        stats.groups_per_q = {
            q: float(exec_op.group_count(q)) for q in exec_op.in_per_q
        }
        stats.agg_out = float(exec_op.out_total)
        stats.has_minmax = any(spec.func in ("min", "max") for spec in exec_op.specs)
    _fill_filter_sel(stats, exec_op.decorations)
    node.stats = stats


def _fill_filter_sel(stats, decorations):
    for qid, in_count in decorations.filter_in_per_q.items():
        out_count = decorations.filter_out_per_q.get(qid, 0)
        stats.filter_sel_per_q[qid] = (out_count / in_count) if in_count else 1.0
