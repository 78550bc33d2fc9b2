#!/usr/bin/env python
"""Hot-path engine benchmark: batched vs. per-tuple reference paths.

Measures, for each physical operator class, the delta throughput of the
batched hot path against the original per-tuple reference path (kept in
the engine as the switchable correctness oracle), plus the fig11-style
end-to-end wall clock and the effect of the compiled-artifact cache and
operator-tree reuse.  When numpy is available the columnar backend
(``engine_mode="columnar"``, docs/PERFORMANCE.md) is timed as a third
leg of every case.  Results land in ``BENCH_hotpath.json`` and the
columnar-vs-batched extract in ``BENCH_columnar.json`` (repo root by
default; see docs/PERFORMANCE.md for how to read them).

A fourth section measures shared arrangements (docs/ARRANGEMENTS.md): a
fan-out of single-join subplans over the same base tables, run with
arrangements on and off.  Alongside wall clock it records resident
join-state entries and index-maintenance operations for both legs --
after asserting the two runs are work- and result-identical -- and the
extract lands in ``BENCH_arrangements.json``.  With ``--check`` the
script exits nonzero unless arrangements cut resident entries by at
least ``ARRANGEMENT_ENTRY_FLOOR``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py [--quick]
        [--output PATH] [--columnar-output PATH]
        [--arrangements-output PATH] [--scale S] [--repeat N] [--seed S]
        [--jobs N] [--check]

This is a standalone script (not a pytest-benchmark module) so CI can run
it directly and archive the JSON artifacts.
"""

import argparse
import gc
import json
import os
import platform
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.engine.executor import PlanExecutor  # noqa: E402
from repro.engine.parallel import plan_components, run_parallel  # noqa: E402
from repro.engine.stream import StreamConfig  # noqa: E402
from repro.logical.builder import PlanBuilder  # noqa: E402
from repro.mqo.merge import MQOOptimizer, build_unshared_plan  # noqa: E402
from repro.mqo.nodes import OpNode, TableRef  # noqa: E402
from repro.physical.hotpath import (  # noqa: E402
    clear_compiled_caches,
    columnar_available,
    engine_mode,
)
from repro.physical.operators import (  # noqa: E402
    AggregateExec,
    JoinExec,
    SourceExec,
)
from repro.physical.work import WorkMeter  # noqa: E402
from repro.relational.expressions import agg_avg, agg_sum, col  # noqa: E402
from repro.relational.schema import FLOAT, INT, Schema  # noqa: E402
from repro.relational.table import Catalog  # noqa: E402
from repro.relational.tuples import DELETE, Delta, INSERT, consolidate  # noqa: E402
from repro.workloads.tpch import (  # noqa: E402
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_hotpath.json"
)
DEFAULT_COLUMNAR_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_columnar.json"
)
DEFAULT_ARRANGEMENTS_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..",
    "BENCH_arrangements.json"
)

#: ``--check``: minimum resident-entry reduction from shared arrangements
ARRANGEMENT_ENTRY_FLOOR = 2.0


def _columnar_execs():
    """The columnar operator classes, or None when numpy is missing."""
    if not columnar_available():
        return None
    from repro.physical.columnar import (
        ColumnarAggregateExec,
        ColumnarJoinExec,
        ColumnarSourceExec,
    )

    return ColumnarSourceExec, ColumnarJoinExec, ColumnarAggregateExec


class _Feed:
    """A scripted child operator (same adapter the unit tests use)."""

    def __init__(self, batches):
        self._template = batches
        self.batches = list(batches)

    def advance(self):
        if not self.batches:
            return []
        return self.batches.pop(0)

    def reset(self):
        self.batches = list(self._template)


def _source_node(schema, filters=None, projections=None, mask=0b1111):
    return OpNode(
        "source", ref=TableRef("bench", schema), filters=filters,
        projections=projections, query_mask=mask,
    )


def _timed(fn, repeat):
    """Best-of-``repeat`` wall time of ``fn()`` (returns seconds).

    Collections are forced before and disabled during each timing so a
    GC cycle triggered by one mode's garbage does not land in another
    mode's measurement (the modes allocate very differently).
    """
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeat):
            gc.collect()
            gc.disable()
            started = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - started
            if gc_was_enabled:
                gc.enable()
            best = min(best, elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def _micro_case(make_exec, batches, repeat, make_columnar=None):
    """Time one operator over scripted batches in every engine mode.

    ``make_exec()`` builds a fresh operator tree around fresh feeds; a
    fresh tree per timing keeps hash-table/group state comparable.
    ``make_columnar`` (optional) builds the columnar twin of the same
    tree; it is timed as a third leg when numpy is available.
    """
    n_deltas = sum(len(batch) for batch in batches)

    def drain(builder):
        exec_op = builder()
        total = 0
        while True:
            out = exec_op.advance()
            total += len(out)
            if not exec_op._feeds_pending():
                break
        return total

    modes = [
        ("batched", dict(batched=True), make_exec),
        ("reference", dict(batched=False), make_exec),
    ]
    if make_columnar is not None and columnar_available():
        modes.append(
            ("columnar", dict(batched=True, columnar=True), make_columnar)
        )

    timings = {}
    for label, mode, builder in modes:
        clear_compiled_caches()
        with engine_mode(**mode):
            seconds = _timed(lambda: drain(builder), repeat)
        timings[label] = {
            "seconds": seconds,
            "deltas_per_sec": n_deltas / seconds if seconds > 0 else None,
        }
    timings["speedup"] = (
        timings["reference"]["seconds"] / timings["batched"]["seconds"]
        if timings["batched"]["seconds"] > 0 else None
    )
    if "columnar" in timings:
        timings["columnar_vs_batched"] = (
            timings["batched"]["seconds"] / timings["columnar"]["seconds"]
            if timings["columnar"]["seconds"] > 0 else None
        )
    timings["input_deltas"] = n_deltas
    return timings


def _columnar_feed_batches(feed_batches, width):
    """Pre-converted ``ColumnBatch`` inputs for columnar micro legs.

    Inside a columnar pipeline an operator's input arrives as columnar
    buffer segments (the buffer passthrough path), so the join and
    aggregate micro legs are fed their native format -- exactly as the
    batched legs are fed delta lists.  The source micro is the exception
    and keeps raw deltas on every leg: ingest conversion is inherent to
    the source operator.
    """
    from repro.engine.columns import ColumnBatch

    return [ColumnBatch.from_deltas(batch, width) for batch in feed_batches]


class _Harness:
    """Wraps an operator plus its feeds so the micro loop can drain it."""

    def __init__(self, exec_op, feeds):
        self._exec = exec_op
        self._feeds = feeds

    def advance(self):
        return self._exec.advance()

    def _feeds_pending(self):
        return any(feed.batches for feed in self._feeds)


def bench_filter_project(n, batches, repeat):
    schema = Schema.of("a", "b")
    node = _source_node(
        schema,
        filters={0: col("a") > 100, 1: col("a") > 5000, 2: col("b") > 50,
                 3: col("a") > 0},
        projections={0: (("s", col("a") + col("b")),)},
    )
    per_batch = max(1, n // batches)
    feed_batches = [
        [
            Delta((i * 7 % 10000, i % 100), INSERT, 0b1111)
            for i in range(b * per_batch, (b + 1) * per_batch)
        ]
        for b in range(batches)
    ]

    # SourceExec reads via reader.read_new(); adapt the feed
    class _ReaderFeed(_Feed):
        offset = 0  # logical span cursor (cache_view keys go unused here)

        def read_new(self):
            return self.advance()

        def read_new_segments(self):
            batch = self.advance()
            self.offset += len(batch)
            return batch, []

    def make_source():
        feed = _ReaderFeed(feed_batches)
        op = SourceExec(node, feed, 0b1111, WorkMeter())
        return _Harness(op, [feed])

    def make_columnar():
        feed = _ReaderFeed(feed_batches)
        op = _columnar_execs()[0](node, feed, 0b1111, WorkMeter())
        return _Harness(op, [feed])

    return _micro_case(make_source, feed_batches, repeat,
                       make_columnar=make_columnar)


def bench_join(n, batches, repeat, keys_div=64, payload_mod=9973):
    """Shared two-query equi-join.

    The default shape is the distinct-row regime (high payload
    cardinality, so stored nets are 1): every matched pair is a fresh
    output row, which the batched path must allocate a Delta for while
    the columnar probe emits via array gather -- the regime vectorized
    emission is built for, and the realistic one (TPC-H rows are
    distinct).  ``payload_mod=3`` flips to the low-cardinality bag
    regime where stored slots accumulate net multiplicities > 1 and the
    batched path's multiplicity-shared expansion (one Delta object per
    slot, repeated by reference) closes most of the gap -- kept as the
    ``join_shared_multiplicity`` case below.
    """
    left_schema = Schema.of("k", "x")
    right_schema = Schema.of("k2", "y")
    node = OpNode(
        "join",
        children=[
            _source_node(left_schema, mask=0b11),
            _source_node(right_schema, mask=0b11),
        ],
        left_keys=["k"], right_keys=["k2"], query_mask=0b11,
    )
    per_batch = max(1, n // (2 * batches))
    n_keys = max(64, n // keys_div)
    left_batches = [
        [
            Delta((i % n_keys, (i * 7) % payload_mod), INSERT,
                  0b11 if i % 3 else 0b01)
            for i in range(b * per_batch, (b + 1) * per_batch)
        ]
        for b in range(batches)
    ]
    right_batches = [
        [
            Delta(((i * 5) % n_keys, -((i * 11) % payload_mod)), INSERT,
                  0b11 if i % 2 else 0b10)
            for i in range(b * per_batch, (b + 1) * per_batch)
        ]
        for b in range(batches)
    ]

    def make():
        left = _Feed(left_batches)
        right = _Feed(right_batches)
        op = JoinExec(node, left, right, WorkMeter(), state_factor=0.3)
        return _Harness(op, [left, right])

    if columnar_available():
        left_columnar = _columnar_feed_batches(left_batches, 2)
        right_columnar = _columnar_feed_batches(right_batches, 2)

    def make_columnar():
        left = _Feed(left_columnar)
        right = _Feed(right_columnar)
        op = _columnar_execs()[1](
            node, left, right, WorkMeter(), state_factor=0.3
        )
        return _Harness(op, [left, right])

    return _micro_case(make, left_batches + right_batches, repeat,
                       make_columnar=make_columnar)


def bench_aggregate(n, batches, repeat, with_deletes=True):
    # six shared queries over one aggregate (the paper's sharing regime)
    # and a Q1-like group cardinality: few groups, many updates per group
    mask = 0b111111
    child_schema = Schema.of("g", "v")
    node = OpNode(
        "aggregate",
        children=[_source_node(child_schema, mask=mask)],
        group_by=["g"],
        aggs=[agg_sum(col("v"), "s"), agg_avg(col("v"), "m")],
        query_mask=mask,
    )
    per_batch = max(1, n // batches)
    n_groups = max(16, n // 600)
    bit_patterns = (0b111111, 0b010101, 0b001111)
    feed_batches = []
    for b in range(batches):
        batch = []
        for i in range(b * per_batch, (b + 1) * per_batch):
            bits = bit_patterns[i % 3]
            batch.append(Delta((i % n_groups, float(i % 997)), INSERT, bits))
            if with_deletes and i % 7 == 0 and i >= per_batch:
                j = i - per_batch
                bits_j = bit_patterns[j % 3]
                batch.append(
                    Delta((j % n_groups, float(j % 997)), DELETE, bits_j)
                )
        feed_batches.append(batch)

    def make():
        feed = _Feed(feed_batches)
        op = AggregateExec(node, feed, mask, WorkMeter(), state_factor=0.3)
        return _Harness(op, [feed])

    if columnar_available():
        columnar_batches = _columnar_feed_batches(feed_batches, 2)

    def make_columnar():
        feed = _Feed(columnar_batches)
        op = _columnar_execs()[2](
            node, feed, mask, WorkMeter(), state_factor=0.3
        )
        return _Harness(op, [feed])

    return _micro_case(make, feed_batches, repeat,
                       make_columnar=make_columnar)


def bench_aggregate_string_keys(n, batches, repeat):
    """Group-by over string keys: the key-interning regime.

    Few distinct string groups, many deltas per group per batch -- the
    shape where the batched absorb loop used to rebuild an identical key
    tuple per delta and now builds it once per batch (see
    ``_absorb_batch``'s key interning).
    """
    mask = 0b1111
    child_schema = Schema.of("g", "v")
    node = OpNode(
        "aggregate",
        children=[_source_node(child_schema, mask=mask)],
        group_by=["g"],
        aggs=[agg_sum(col("v"), "s")],
        query_mask=mask,
    )
    per_batch = max(1, n // batches)
    groups = ["segment-%04d" % g for g in range(64)]
    feed_batches = [
        [
            Delta((groups[i % len(groups)], i % 1009), INSERT, mask)
            for i in range(b * per_batch, (b + 1) * per_batch)
        ]
        for b in range(batches)
    ]

    def make():
        feed = _Feed(feed_batches)
        op = AggregateExec(node, feed, mask, WorkMeter(), state_factor=0.3)
        return _Harness(op, [feed])

    if columnar_available():
        columnar_batches = _columnar_feed_batches(feed_batches, 2)

    def make_columnar():
        feed = _Feed(columnar_batches)
        op = _columnar_execs()[2](
            node, feed, mask, WorkMeter(), state_factor=0.3
        )
        return _Harness(op, [feed])

    return _micro_case(make, feed_batches, repeat,
                       make_columnar=make_columnar)


def bench_consolidate(n, repeat):
    deltas = []
    for i in range(n):
        row = (i % (n // 4 or 1), "payload-%d" % (i % 50))
        deltas.append(Delta(row, INSERT, 0b111))
        if i % 3 == 0:
            deltas.append(Delta(row, DELETE, 0b111))
    seconds = _timed(lambda: consolidate(deltas), repeat)
    return {
        "input_deltas": len(deltas),
        "seconds": seconds,
        "deltas_per_sec": len(deltas) / seconds if seconds > 0 else None,
    }


def bench_end_to_end(scale, repeat, seed=5, fraction=0.25,
                     pace_parent=1, pace_leaf=3, jobs=1):
    """fig11-shaped run: shared plan over all 22 queries, mixed paces.

    The default regime (25% update fraction, paces 1/3) is a point on
    the paper's fig11 pace sweep where per-execution batches are large
    enough for vectorization to matter; tighter paces shrink batches to
    a few hundred rows and shared-machinery overhead dominates every
    backend equally (docs/PERFORMANCE.md, "tiny-batch caveat").
    """
    catalog = generate_catalog(scale=scale, seed=seed)
    add_lineitem_updates(catalog, fraction=fraction, seed=seed + 6)
    queries = build_workload(catalog, ALL_QUERY_NAMES)
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    paces = {
        subplan.sid: pace_parent if subplan.child_subplans() else pace_leaf
        for subplan in plan.subplans
    }
    config = StreamConfig()

    modes = [
        ("batched", dict(batched=True)),
        ("reference", dict(batched=False)),
    ]
    if columnar_available():
        modes.append(("columnar", dict(batched=True, columnar=True)))

    results = {}
    for label, mode in modes:
        clear_compiled_caches()
        with engine_mode(**mode):
            seconds = _timed(
                lambda: PlanExecutor(plan, config).run(
                    paces, collect_results=False
                ),
                repeat,
            )
        results[label] = {"seconds": seconds}
    results["speedup"] = (
        results["reference"]["seconds"] / results["batched"]["seconds"]
        if results["batched"]["seconds"] > 0 else None
    )
    if "columnar" in results:
        results["columnar_vs_batched"] = (
            results["batched"]["seconds"] / results["columnar"]["seconds"]
            if results["columnar"]["seconds"] > 0 else None
        )

    components = plan_components(plan)
    if jobs > 1 and len(components) > 1 and columnar_available():
        # intra-trigger parallelism: independent subplan components in
        # worker processes (repro.engine.parallel); the leg first asserts
        # bit-identity against the serial run, then times the fan-out
        clear_compiled_caches()
        with engine_mode(batched=True, columnar=True):
            serial_probe = PlanExecutor(plan, config).run(paces)
            parallel_probe = run_parallel(plan, paces, config, jobs=jobs)
            if _run_fingerprint(serial_probe) != _run_fingerprint(
                parallel_probe
            ):
                raise AssertionError(
                    "serial and --jobs %d runs diverged -- the determinism "
                    "contract is broken; do not trust these numbers" % jobs
                )
            seconds = _timed(
                lambda: run_parallel(
                    plan, paces, config, jobs=jobs, collect_results=False
                ),
                repeat,
            )
        results["columnar_parallel"] = {
            "seconds": seconds,
            "jobs": jobs,
            "serial_identical": True,
            "vs_serial_columnar": (
                results["columnar"]["seconds"] / seconds
                if seconds > 0 else None
            ),
        }

    # compiled-plan reuse: repeated runs on one executor vs fresh executors
    runs = 4
    clear_compiled_caches()
    with engine_mode(batched=True):
        executor = PlanExecutor(plan, config)
        executor.run(paces, collect_results=False)  # warm the tree

        def reused():
            for _ in range(runs):
                executor.run(paces, collect_results=False)

        reused_seconds = _timed(reused, repeat)

        def fresh():
            for _ in range(runs):
                clear_compiled_caches()
                PlanExecutor(plan, config).run(paces, collect_results=False)

        fresh_seconds = _timed(fresh, repeat)
    results["plan_reuse"] = {
        "runs": runs,
        "reused_tree_seconds": reused_seconds,
        "fresh_executor_seconds": fresh_seconds,
        "speedup": fresh_seconds / reused_seconds if reused_seconds > 0 else None,
    }
    results["workload"] = {
        "scale": scale,
        "seed": seed,
        "updates_seed": seed + 6,
        "update_fraction": fraction,
        "queries": len(queries),
        "subplans": len(plan.subplans),
        "pace_parent": pace_parent,
        "pace_leaf": pace_leaf,
        "paces": sorted(set(paces.values())),
        "components": len(components),
    }
    return results


#: profiled-share buckets for the overhead breakdown, by code location
_BREAKDOWN_BUCKETS = (
    # operator kernels: columnar/fused/batched operator code plus numpy
    ("kernel", ("/repro/physical/", "/numpy/", "<fused:")),
    # row<->column boundary: ColumnBatch materialization and conversion
    ("boundary_materialization", ("/repro/engine/columns",)),
    # scheduling, buffers, streams, metering around the kernels
    ("plan_driver", ("/repro/engine/", "/repro/mqo/", "/repro/relational/")),
)


def bench_e2e_overhead_breakdown(scale, seed=5, fraction=0.25,
                                 pace_parent=1, pace_leaf=3):
    """Where one columnar fig11 run spends its time (profiled shares).

    Profiles a single warmed end-to-end run under ``cProfile`` and
    buckets per-function self time into kernel work, row<->column
    boundary materialization, and plan-driver overhead.  The absolute
    seconds carry instrumentation overhead (roughly 2x wall clock); the
    *shares* are what this leg is for -- they say which layer to attack
    next, and how much boundary cost the columnar-native buffer
    passthrough still leaves behind.
    """
    import cProfile
    import pstats

    catalog = generate_catalog(scale=scale, seed=seed)
    add_lineitem_updates(catalog, fraction=fraction, seed=seed + 6)
    queries = build_workload(catalog, ALL_QUERY_NAMES)
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    paces = {
        subplan.sid: pace_parent if subplan.child_subplans() else pace_leaf
        for subplan in plan.subplans
    }
    config = StreamConfig()

    clear_compiled_caches()
    with engine_mode(batched=True, columnar=True):
        executor = PlanExecutor(plan, config)
        executor.run(paces, collect_results=False)  # warm the tree
        profile = cProfile.Profile()
        profile.enable()
        executor.run(paces, collect_results=False)
        profile.disable()

    buckets = {name: 0.0 for name, _ in _BREAKDOWN_BUCKETS}
    buckets["other"] = 0.0
    total = 0.0
    for (filename, _, _), entry in pstats.Stats(profile).stats.items():
        self_seconds = entry[2]
        total += self_seconds
        for name, needles in _BREAKDOWN_BUCKETS:
            if any(needle in filename for needle in needles):
                buckets[name] += self_seconds
                break
        else:
            buckets["other"] += self_seconds

    return {
        "profiled_seconds": total,
        "seconds": {name: seconds for name, seconds in buckets.items()},
        "shares": {
            name: (seconds / total if total > 0 else None)
            for name, seconds in buckets.items()
        },
        "note": "self time under cProfile; read the shares, not the seconds",
    }


def _arrangement_catalog(n_events, seed):
    """Two-table star (events -> items) for the fan-out workload."""
    import random as _random

    rng = _random.Random(seed)
    n_items = max(32, n_events // 15)
    catalog = Catalog()
    items = catalog.create(
        "items",
        Schema.of(("item_id", INT), ("item_cat", INT), ("price", FLOAT)),
    )
    for iid in range(n_items):
        items.append((iid, iid % 24, float(rng.randint(1, 100))))
    events = catalog.create(
        "events", Schema.of(("ev_item", INT), ("qty", FLOAT))
    )
    for _ in range(n_events):
        events.append(
            (rng.randrange(n_items), float(rng.randint(1, 9)))
        )
    return catalog


def _run_fingerprint(result):
    return (
        result.total_work,
        tuple(
            (r.sid, r.fraction, r.work, r.latency_work, r.output_count)
            for r in result.records
        ),
        tuple(sorted(result.subplan_final_work.items())),
    )


def bench_arrangements(n_events, repeat, n_queries=6, seed=9):
    """Fan-out of single-join subplans: shared vs private join indexes.

    ``n_queries`` identical events |X| items rollups stay separate
    subplans (no MQO merge), so with arrangements off each one maintains
    private hash tables over both base tables; with arrangements on all
    of them read one shared index per table.  The two legs must be
    result- and work-identical (asserted here); what the benchmark
    records is the resource gap -- resident join-state entries and
    index-maintenance operations -- plus wall clock.
    """
    catalog = _arrangement_catalog(n_events, seed)
    queries = [
        PlanBuilder.scan(catalog, "events")
        .join(PlanBuilder.scan(catalog, "items"), "ev_item", "item_id")
        .aggregate(["item_cat"], [agg_sum(col("qty"), "total")])
        .as_query(i, "arr_q%d" % i)
        for i in range(n_queries)
    ]
    plan = build_unshared_plan(catalog, queries)
    pace_cycle = (1, 2, 4)
    paces = {
        sid: pace_cycle[index % len(pace_cycle)]
        for index, sid in enumerate(sorted(s.sid for s in plan.subplans))
    }
    config = StreamConfig()

    def private_entries(executor):
        _, _, compiled, _, _ = executor._runtime
        total = 0
        for unit in compiled.values():
            stack = [unit.root_exec]
            while stack:
                node = stack.pop()
                if hasattr(node, "_private_entries"):
                    total += node.entry_count
                for attr in ("left", "right", "child"):
                    nxt = getattr(node, attr, None)
                    if nxt is not None and hasattr(nxt, "advance"):
                        stack.append(nxt)
        return total

    legs = {}
    fingerprints = {}
    for label, arranged in (("arranged", True), ("private", False)):
        clear_compiled_caches()
        with engine_mode(batched=True, arrangements=arranged):
            executor = PlanExecutor(plan, config)
            probe = executor.run(paces)
            fingerprints[label] = _run_fingerprint(probe)
            resident = (
                probe.metadata["arrangement_summary"]["resident_entries"]
                if arranged else private_entries(executor)
            )
            seconds = _timed(
                lambda: PlanExecutor(plan, config).run(
                    paces, collect_results=False
                ),
                repeat,
            )
        legs[label] = {"seconds": seconds, "resident_entries": resident}
        if arranged:
            summary = probe.metadata["arrangement_summary"]
            legs[label]["maintenance_ops"] = summary["maintenance_ops"]
            legs[label]["private_ops"] = summary["private_ops"]
            legs[label]["arrangements"] = len(summary["arrangements"])

    if fingerprints["arranged"] != fingerprints["private"]:
        raise AssertionError(
            "arranged and private runs diverged -- the exactness contract "
            "is broken; do not trust these numbers"
        )

    arranged, private = legs["arranged"], legs["private"]
    return {
        "arranged": arranged,
        "private": private,
        "entry_reduction": (
            private["resident_entries"] / arranged["resident_entries"]
            if arranged["resident_entries"] else None
        ),
        "maintenance_reduction": (
            arranged["private_ops"] / arranged["maintenance_ops"]
            if arranged["maintenance_ops"] else None
        ),
        "work_identical": True,
        "workload": {
            "events": n_events,
            "queries": n_queries,
            "seed": seed,
            "paces": sorted(set(paces.values())),
        },
    }


def _columnar_report(report):
    """The columnar-vs-batched extract written to BENCH_columnar.json."""
    micro = {}
    for name, case in report["micro"].items():
        if "columnar" not in case:
            continue
        micro[name] = {
            "batched_deltas_per_sec": case["batched"]["deltas_per_sec"],
            "columnar_deltas_per_sec": case["columnar"]["deltas_per_sec"],
            "columnar_vs_batched": case["columnar_vs_batched"],
            "input_deltas": case["input_deltas"],
        }
    e2e = report["end_to_end_fig11"]
    extract = {
        "config": report["config"],
        "micro": micro,
        "end_to_end_fig11": {
            "batched_seconds": e2e["batched"]["seconds"],
            "columnar_seconds": e2e["columnar"]["seconds"],
            "columnar_vs_batched": e2e["columnar_vs_batched"],
            "workload": e2e["workload"],
        },
    }
    if "columnar_parallel" in e2e:
        extract["end_to_end_fig11"]["columnar_parallel"] = (
            e2e["columnar_parallel"]
        )
    if "e2e_overhead_breakdown" in report:
        extract["e2e_overhead_breakdown"] = report["e2e_overhead_breakdown"]
    return extract


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small config for CI smoke runs")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--columnar-output", default=DEFAULT_COLUMNAR_OUTPUT,
                        help="where to write the columnar-vs-batched extract")
    parser.add_argument("--arrangements-output",
                        default=DEFAULT_ARRANGEMENTS_OUTPUT,
                        help="where to write the arrangements extract")
    parser.add_argument("--check", action="store_true",
                        help="fail unless arrangements cut resident "
                             "join-state entries by the %.1fx floor"
                             % ARRANGEMENT_ENTRY_FLOOR)
    parser.add_argument("--scale", type=float, default=None,
                        help="TPC-H scale for the end-to-end section")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timing repetitions (best-of)")
    parser.add_argument("--seed", type=int, default=5,
                        help="catalog seed for the end-to-end section "
                             "(updates stream uses seed+6)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the intra-trigger "
                             "parallel end-to-end leg (1 = serial only)")
    args = parser.parse_args(argv)

    if args.quick:
        n, batches, repeat, scale = 40_000, 8, 2, 0.05
    else:
        n, batches, repeat, scale = 200_000, 10, 3, 1.0
    if args.scale is not None:
        scale = args.scale
    if args.repeat is not None:
        repeat = args.repeat

    report = {
        "config": {
            "quick": bool(args.quick),
            "micro_deltas": n,
            "micro_batches": batches,
            "repeat": repeat,
            "e2e_scale": scale,
            "seed": args.seed,
            "python": sys.version.split()[0],
            "machine": {
                "platform": platform.platform(),
                "arch": platform.machine(),
                "cpus": os.cpu_count(),
            },
            "columnar_available": columnar_available(),
        },
        "micro": {},
    }

    print("hot-path micro benchmarks (%d deltas, best of %d)" % (n, repeat))
    for name, runner in (
        ("filter_project", lambda: bench_filter_project(n, batches, repeat)),
        ("join", lambda: bench_join(n, batches, repeat)),
        ("join_shared_multiplicity",
         lambda: bench_join(n, batches, repeat, keys_div=32, payload_mod=3)),
        ("aggregate", lambda: bench_aggregate(n, batches, repeat)),
        ("aggregate_insert_only",
         lambda: bench_aggregate(n, batches, repeat, with_deletes=False)),
        ("aggregate_string_keys",
         lambda: bench_aggregate_string_keys(n, batches, repeat)),
    ):
        case = runner()
        report["micro"][name] = case
        columnar = (
            "  %9.0f/s columnar (%.2fx vs batched)"
            % (case["columnar"]["deltas_per_sec"],
               case["columnar_vs_batched"])
            if "columnar" in case else ""
        )
        print(
            "  %-22s %9.0f/s batched  %9.0f/s reference  %.2fx%s"
            % (
                name,
                case["batched"]["deltas_per_sec"],
                case["reference"]["deltas_per_sec"],
                case["speedup"],
                columnar,
            )
        )

    case = bench_consolidate(n // 2, repeat)
    report["micro"]["consolidate"] = case
    print("  %-22s %9.0f/s" % ("consolidate", case["deltas_per_sec"]))

    print("end-to-end fig11 workload (scale %.2f, seed %d)"
          % (scale, args.seed))
    e2e = bench_end_to_end(scale, repeat, seed=args.seed, jobs=args.jobs)
    report["end_to_end_fig11"] = e2e
    print(
        "  wall clock: %.3fs batched  %.3fs reference  %.2fx"
        % (
            e2e["batched"]["seconds"],
            e2e["reference"]["seconds"],
            e2e["speedup"],
        )
    )
    if "columnar" in e2e:
        print(
            "  columnar:   %.3fs (%.2fx vs batched)"
            % (e2e["columnar"]["seconds"], e2e["columnar_vs_batched"])
        )
    if "columnar_parallel" in e2e:
        par = e2e["columnar_parallel"]
        print(
            "  --jobs %d:   %.3fs (%.2fx vs serial columnar, bit-identical)"
            % (par["jobs"], par["seconds"], par["vs_serial_columnar"])
        )

    if columnar_available():
        breakdown = bench_e2e_overhead_breakdown(scale, seed=args.seed)
        report["e2e_overhead_breakdown"] = breakdown
        shares = breakdown["shares"]
        print(
            "  overhead breakdown (profiled shares): kernel %.0f%%  "
            "boundary %.0f%%  driver %.0f%%  other %.0f%%"
            % (
                100 * shares["kernel"],
                100 * shares["boundary_materialization"],
                100 * shares["plan_driver"],
                100 * shares["other"],
            )
        )
    print(
        "  plan reuse (%d runs): %.3fs reused  %.3fs fresh  %.2fx"
        % (
            e2e["plan_reuse"]["runs"],
            e2e["plan_reuse"]["reused_tree_seconds"],
            e2e["plan_reuse"]["fresh_executor_seconds"],
            e2e["plan_reuse"]["speedup"],
        )
    )

    arr_events = 30_000 if args.quick else 120_000
    print("shared arrangements fan-out (%d events)" % arr_events)
    arrangements = bench_arrangements(arr_events, repeat, seed=args.seed + 4)
    report["arrangements"] = arrangements
    print(
        "  resident entries: %d shared vs %d private (%.2fx);"
        " maintenance ops %.2fx; %.3fs vs %.3fs"
        % (
            arrangements["arranged"]["resident_entries"],
            arrangements["private"]["resident_entries"],
            arrangements["entry_reduction"],
            arrangements["maintenance_reduction"],
            arrangements["arranged"]["seconds"],
            arrangements["private"]["seconds"],
        )
    )

    output = os.path.abspath(args.output)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % output)

    if columnar_available():
        columnar_output = os.path.abspath(args.columnar_output)
        with open(columnar_output, "w") as handle:
            json.dump(_columnar_report(report), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print("wrote %s" % columnar_output)

    arrangements_output = os.path.abspath(args.arrangements_output)
    with open(arrangements_output, "w") as handle:
        json.dump(
            {"config": report["config"], "arrangements": arrangements},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print("wrote %s" % arrangements_output)

    floor = 2.0
    agg_speedup = report["micro"]["aggregate"]["speedup"]
    # the multiplicity-shared bag regime is the batched path's showcase;
    # the headline ``join`` case is the distinct-row regime where both
    # scalar paths allocate per output and the gap is structurally smaller
    join_speedup = report["micro"]["join_shared_multiplicity"]["speedup"]
    status = 0
    if agg_speedup < floor or join_speedup < floor:
        print(
            "WARNING: speedup below the %.1fx acceptance floor "
            "(aggregate %.2fx, join %.2fx)" % (floor, agg_speedup, join_speedup)
        )
        status = 1
    if columnar_available():
        columnar_floor = 2.5
        low = {
            name: case["columnar_vs_batched"]
            for name, case in report["micro"].items()
            if case.get("columnar_vs_batched") is not None
            and name != "join_shared_multiplicity"
            and case["columnar_vs_batched"] < columnar_floor
        }
        if low:
            print(
                "WARNING: columnar speedup below the %.1fx floor: %s"
                % (
                    columnar_floor,
                    ", ".join(
                        "%s %.2fx" % (k, v) for k, v in sorted(low.items())
                    ),
                )
            )
            status = 1
    entry_reduction = arrangements["entry_reduction"] or 0.0
    if entry_reduction < ARRANGEMENT_ENTRY_FLOOR:
        print(
            "%s: arrangement resident-entry reduction %.2fx below the "
            "%.1fx floor"
            % ("FAILED" if args.check else "WARNING", entry_reduction,
               ARRANGEMENT_ENTRY_FLOOR)
        )
        status = 1
    elif args.check:
        print(
            "check passed: %.2fx resident-entry reduction (floor %.1fx)"
            % (entry_reduction, ARRANGEMENT_ENTRY_FLOOR)
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
