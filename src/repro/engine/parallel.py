"""Intra-trigger parallelism: independent subplan components in processes.

A shared plan's subplans form a dependency DAG (parents read their
children's buffers), and with shared arrangements enabled two otherwise
independent subplans may also share one ``(table, key columns)`` join
index (:mod:`repro.engine.arrangements`).  :func:`plan_components`
partitions the subplans into *components* -- the connected components of
the union of those two edge sets.  Components never exchange data, never
touch each other's operator state, and never co-own an arrangement, so
one trigger window can execute them concurrently.

:func:`run_parallel` fans the components out over
:func:`repro.workers.ordered_map` (the plan ships once per worker, tasks
are tiny sid lists).  Each worker compiles and runs *only* its component
(``PlanExecutor(plan, only=sids)``), rebuilding its own table streams
from the catalog -- base-table delta streams are a seeded simulation, so
every worker sees byte-identical table contents without sharing state.

Determinism contract (enforced by ``tests/test_intra_trigger_parallel``
and the fuzz-adjacent CI step): ``run_parallel(jobs=N)`` returns a
:class:`~repro.engine.metrics.RunResult` *bit-identical* to the serial
``PlanExecutor.run`` -- query results, total work, every execution
record, subplan final work, and the arrangement summary.  Three pieces
make that hold:

* every per-subplan WorkMeter charge happens inside exactly one worker,
  in the same operator order as the serial run, so each record's
  ``work``/``latency_work`` floats are the serial ones;
* the driver replays the merged records through
  ``RunResult.add_record`` in the serial schedule order -- ascending
  trigger fraction, then subplan topological position -- so the float
  accumulation sequence behind ``total_work`` is the serial one;
* per-worker arrangement summaries merge by the same sorted
  ``(table, key columns)`` order ``ArrangementStore.summary`` uses.

``jobs=1`` (and a single-component plan) bypasses the component split
entirely and runs the exact serial path.  Worker engine mode, error
propagation and the observability merge (component order, run ids
``component-<index>``) are the pool's contract (:mod:`repro.workers`).
"""

from fractions import Fraction

from ..physical.hotpath import HOTPATH
from ..workers import ordered_map, resolve_jobs
from .arrangements import arrangeable_side
from .executor import PlanExecutor
from .metrics import ExecutionRecord, RunResult
from .stream import StreamConfig


def _walk(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.children)


def plan_components(plan):
    """Partition the plan's subplans into independent components.

    Returns a list of sid lists; each inner list is in topological
    order, and the components are ordered by their first subplan's
    topological position.  Two subplans land in one component when they
    are dependency-connected or when any of their joins would share an
    arrangement (same ``(table, key columns)`` -- computed from the plan
    shape alone, so the partition is identical with arrangements on or
    off; grouping a little coarsely is always safe).
    """
    order = plan.topological_order()
    parent = {subplan.sid: subplan.sid for subplan in order}

    def find(sid):
        root = sid
        while parent[root] != root:
            root = parent[root]
        while parent[sid] != root:
            parent[sid], sid = root, parent[sid]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    arrangement_owner = {}
    for subplan in order:
        for child in subplan.child_subplans():
            union(subplan.sid, child.sid)
        for node in _walk(subplan.root):
            if node.kind != "join":
                continue
            for side in (0, 1):
                spec = arrangeable_side(node, side)
                if spec is None:
                    continue
                table_name, key_indexes = spec
                key = (table_name, tuple(key_indexes))
                owner = arrangement_owner.get(key)
                if owner is None:
                    arrangement_owner[key] = subplan.sid
                else:
                    union(owner, subplan.sid)

    groups = {}
    for subplan in order:  # topological order within and across groups
        groups.setdefault(find(subplan.sid), []).append(subplan.sid)
    return list(groups.values())


# -- worker side ----------------------------------------------------------------

def _run_component(shared, sids):
    plan, stream_config, stats_mode, pace_config, collect_results = shared
    executor = PlanExecutor(plan, stream_config, stats_mode, only=sids)
    result = executor.run(pace_config, collect_results=collect_results)
    return {
        "records": [
            (r.sid, r.fraction, r.work, r.output_count, r.latency_work)
            for r in result.records
        ],
        "query_results": dict(result.query_results),
        "engine_mode": result.metadata["engine_mode"],
        "arrangement_summary": result.metadata.get("arrangement_summary"),
    }


# -- driver side ----------------------------------------------------------------

def run_parallel(plan, pace_config, stream_config=None, jobs=1,
                 collect_results=True, stats_mode=False):
    """Execute ``plan`` under ``pace_config``, components in parallel.

    Bit-identical to ``PlanExecutor(plan, stream_config).run(...)`` at
    every job count; ``jobs=1`` *is* that serial call.  ``jobs=0`` means
    one worker per core (``resolve_jobs``), capped at the component
    count.
    """
    stream_config = stream_config or StreamConfig()
    components = plan_components(plan)
    serial = PlanExecutor(plan, stream_config, stats_mode)
    if resolve_jobs(jobs) <= 1 or len(components) <= 1:
        return serial.run(pace_config, collect_results=collect_results)

    # fail fast on bad paces in the driver, not inside a worker
    serial._validate_paces(pace_config)
    shared = (plan, stream_config, stats_mode, pace_config, collect_results)
    payloads = [
        payload for payload, _ in ordered_map(
            _run_component, components, jobs, shared=shared,
            run_label="component",
        )
    ]
    return _merge(plan, pace_config, stream_config, payloads,
                  collect_results)


def _merge(plan, pace_config, stream_config, payloads, collect_results):
    """Reassemble one serial-identical RunResult from component payloads."""
    order = plan.topological_order()
    position = {subplan.sid: index for index, subplan in enumerate(order)}

    by_slot = {}
    query_results = {}
    summaries = []
    for payload in payloads:
        for sid, fraction, work, output_count, latency_work in payload["records"]:
            by_slot[(fraction, position[sid])] = (
                sid, fraction, work, output_count, latency_work
            )
        query_results.update(payload["query_results"])
        if payload["arrangement_summary"]:
            summaries.append(payload["arrangement_summary"])

    result = RunResult(pace_config, stream_config)
    # every worker compiled the whole plan's backend for its component
    result.metadata["engine_mode"] = payloads[0]["engine_mode"]

    one = Fraction(1)
    # serial schedule order: ascending fraction, topological position
    # within a trigger point -- the accumulation order behind total_work
    for key in sorted(by_slot):
        sid, fraction, work, output_count, latency_work = by_slot[key]
        result.add_record(
            ExecutionRecord(sid, fraction, work, output_count, latency_work),
            is_final=(fraction == one),
        )

    infos = [info for summary in summaries for info in summary["arrangements"]]
    result.metadata["arrangements"] = bool(HOTPATH.arrangements and infos)
    if infos:
        # ArrangementStore.summary() orders by sorted (table, keys); the
        # components own disjoint arrangements, so re-sorting the merged
        # records reproduces the serial summary exactly
        infos.sort(key=lambda info: (info["table"], tuple(info["key_columns"])))
        resident = sum(info["resident_entries"] for info in infos)
        maintenance = sum(info["maintenance_ops"] for info in infos)
        private = sum(info["private_ops"] for info in infos)
        result.metadata["arrangement_summary"] = {
            "arrangements": infos,
            "resident_entries": resident,
            "maintenance_ops": maintenance,
            "private_ops": private,
            "shared_ops_saved": private - maintenance,
        }

    for qid in plan.query_roots:
        final = sum(
            result.subplan_final_work.get(subplan.sid, 0.0)
            for subplan in plan.subplans_of_query(qid)
        )
        result.query_final_work[qid] = final
        if collect_results:
            result.query_results[qid] = query_results[qid]
    return result
