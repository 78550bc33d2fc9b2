"""Sharded execution of a churn schedule over the worker pool.

Tenants are statically sharded -- ``crc32(tenant) % shards``, a stable
hash, unlike salted ``hash()`` -- and each shard is one fully independent
:class:`~repro.service.core.QueryService` with its own plan, catalog
stream and admission.  Sharding by *tenant* keeps every tenant's
queries (and its fairness budget) on one service; cross-tenant work
sharing is deliberately given up at the shard boundary, which is the
standard scale-out trade of a shared-execution service.

The serial path replays shards in index order; ``jobs>1`` fans the same
shard schedules out over :func:`repro.workers.ordered_map`, which merges
results, errors and observability in shard order.  The whole pipeline is
a seeded simulation, so the merged report is bit-identical to the serial
one at any job count.
"""

import zlib

from ..core.optimizer import OptimizerConfig
from ..engine.stream import StreamConfig
from ..errors import ServiceError
from ..physical.hotpath import engine_mode_label
from ..service.core import QueryService
from ..service.schedule import replay_schedule, tenant_of_events, validate_schedule
from ..workers import ordered_map
from ..workloads.tpch import build_query as tpch_build_query
from ..workloads.tpch import generate_catalog


def shard_of(tenant, shards):
    """The shard index owning ``tenant`` (stable across processes/runs)."""
    return zlib.crc32(tenant.encode("utf-8")) % shards


def build_shard_service(shard_schedule):
    """One shard's :class:`QueryService` plus its query factory.

    The workload spec names a TPC-H window stream: ``scale``, ``seed``
    (window ``w`` draws ``seed + w * window_seed_stride``).  Returns
    ``(service, build_query)`` for :func:`~repro.service.schedule.replay_schedule`.
    """
    spec = shard_schedule.get("workload", {})
    scale = float(spec.get("scale", 0.05))
    seed = int(spec.get("seed", 100))
    stride = int(spec.get("window_seed_stride", 1))

    def make_catalog(window):
        return generate_catalog(scale=scale, seed=seed + window * stride)

    stream_config = StreamConfig()
    if "state_factor" in shard_schedule:
        stream_config = StreamConfig(state_factor=shard_schedule["state_factor"])
    config = OptimizerConfig(
        max_pace=int(shard_schedule.get("max_pace", 8)),
        stream_config=stream_config,
    )
    service = QueryService(
        make_catalog,
        config,
        admission=shard_schedule.get("admission", "reject"),
        tenant_budgets=shard_schedule.get("tenant_budgets"),
    )

    def build_query(name, query_id):
        return tpch_build_query(service.basis_catalog, name, query_id)

    return service, build_query


def _run_shard(_shared, task):
    """Replay one shard's schedule; returns its JSON-native report."""
    shard_index, shard_schedule = task
    service, build_query = build_shard_service(shard_schedule)
    outcomes, decisions = replay_schedule(service, shard_schedule, build_query)
    return {
        "shard": shard_index,
        "windows": [outcome.to_dict() for outcome in outcomes],
        "admission": [decision.to_dict() for decision in decisions],
    }


def run_service_schedule(schedule, jobs=1):
    """Run a churn schedule across tenant shards; returns the merged report.

    ``jobs=1`` replays shards serially in index order; ``jobs>1``
    distributes whole shards over worker processes.  Either way the
    report -- window outcomes, admission decisions, summary -- is
    bit-identical, and so is the merged observability session
    (:mod:`repro.workers`).
    """
    ordered = validate_schedule(schedule)
    shards = schedule.get("shards", 1)
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ServiceError(
            "schedule 'shards' must be a positive integer, got %r" % (shards,)
        )
    owners = tenant_of_events(ordered)
    shard_events = [[] for _ in range(shards)]
    for _, event in ordered:
        tenant = event.get("tenant") or owners[event["query_id"]]
        shard_events[shard_of(tenant, shards)].append(event)
    base = {key: value for key, value in schedule.items() if key != "events"}
    shard_schedules = [
        dict(base, events=events) for events in shard_events
    ]

    # decision-log run ids are ``shard-<index>`` at any job count
    reports = [
        report for report, _ in ordered_map(
            _run_shard, enumerate(shard_schedules), jobs, run_label="shard"
        )
    ]
    return {
        "engine_mode": engine_mode_label(),
        "schedule": {
            "windows": schedule["windows"],
            "window_seconds": schedule.get("window_seconds", 60.0),
            "shards": shards,
            "admission": schedule.get("admission", "reject"),
        },
        "shards": reports,
        "summary": summarize_reports(reports),
    }


def summarize_reports(reports):
    """SLO-miss rate, work per query-window, slack and admission tallies."""
    slo_checks = 0
    slo_misses = 0
    total_work = 0.0
    tenants = {}
    statuses = {"admitted": 0, "rejected": 0}
    min_headroom = None
    deferred_work = 0.0
    conserved = True
    for report in reports:
        for window in report["windows"]:
            total_work += window["total_work"]
            for entry in window["queries"].values():
                slo_checks += 1
                if entry["missed_seconds"] > 0:
                    slo_misses += 1
            for entry in window.get("slack", {}).values():
                headroom = entry["headroom_work"]
                if min_headroom is None or headroom < min_headroom:
                    min_headroom = headroom
                deferred_work += entry.get("deferred_work") or 0.0
            if not window.get("attribution", {}).get("conserved", True):
                conserved = False
            for tenant, bucket in window["tenants"].items():
                merged = tenants.setdefault(
                    tenant, {"work": 0.0, "query_windows": 0, "slo_misses": 0}
                )
                merged["work"] += bucket["work"]
                merged["query_windows"] += bucket["queries"]
                merged["slo_misses"] += bucket["slo_misses"]
        for decision in report["admission"]:
            statuses[decision["status"]] += 1
    return {
        "total_work": total_work,
        "query_windows": slo_checks,
        "slo_misses": slo_misses,
        "slo_miss_rate": (slo_misses / slo_checks) if slo_checks else 0.0,
        "work_per_query_window": (
            total_work / slo_checks if slo_checks else 0.0
        ),
        "slack": {
            "min_headroom_work": min_headroom,
            "deferred_work": deferred_work,
        },
        "attribution_conserved": conserved,
        "tenants": {t: tenants[t] for t in sorted(tenants)},
        "admission": statuses,
    }
