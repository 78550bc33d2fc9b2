#!/usr/bin/env python
"""Operator micro benchmark: the reference and the two production lanes.

Measures, for each physical operator class, the delta throughput of the
per-tuple reference operators (the work oracle) and of the
production operator with every batch forced onto its *row lane*
(``ROW_LANE_MAX = 1 << 30``) and onto its *vector lane*
(``ROW_LANE_MAX = 0``) -- docs/PERFORMANCE.md, "Size-dispatched
operators".  The number this script guards is the same-run ratio
*vector lane / row lane* at micro batch sizes (thousands of rows per
batch): it is what justifies keeping the vector lane at all.  End-to-end
numbers live in the pipeline benchmark (``benchmarks/pipeline/``,
``BENCH_pipeline.json``).

A second section measures shared arrangements (docs/ARRANGEMENTS.md): a
fan-out of single-join subplans over the same base tables.  Alongside
wall clock it records the resident join-state entries and
index-maintenance operations of the shared indexes next to what one
private table per reader would hold and apply -- after asserting the run
is work- and result-identical to the per-tuple reference
(:class:`repro.fuzz.reference.ReferenceExecutor`), whose joins keep
private tables -- and the extract lands in
``BENCH_arrangements.json``.  With ``--check`` the script exits nonzero
unless every guarded micro holds
``VECTOR_LANE_FLOOR``, the emission-dominated aggregate micros
(``EAGER_BATCH``-delta batches) hold ``EAGER_ROW_LANE_FLOOR`` of *row
lane / reference*, and arrangements cut resident entries by at least
``ARRANGEMENT_ENTRY_FLOOR``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py [--quick]
        [--output PATH] [--arrangements-output PATH] [--repeat N]
        [--seed S] [--check]

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

from repro.engine.columns import ColumnBatch  # noqa: E402
from repro.engine.executor import PlanExecutor  # noqa: E402
from repro.engine.stream import StreamConfig  # noqa: E402
from repro.fuzz.reference import ReferenceExecutor  # noqa: E402
from repro.logical.builder import PlanBuilder  # noqa: E402
from repro.mqo.merge import build_unshared_plan  # noqa: E402
from repro.mqo.nodes import OpNode, TableRef  # noqa: E402
from repro.physical import columnar  # noqa: E402
from repro.physical.columnar import (  # noqa: E402
    ColumnarAggregateExec,
    ColumnarJoinExec,
    ColumnarSourceExec,
)
from repro.physical.hotpath import (  # noqa: E402
    clear_compiled_caches,
    engine_mode_label,
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

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_hotpath.json"
)
DEFAULT_ARRANGEMENTS_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..",
    "BENCH_arrangements.json"
)

#: ``--check``: minimum resident-entry reduction from shared arrangements
ARRANGEMENT_ENTRY_FLOOR = 2.0

#: ``--check``: minimum same-run vector-lane / row-lane throughput ratio
#: of every guarded micro (thousands of rows per batch)
VECTOR_LANE_FLOOR = 2.0

#: deltas per batch of the emission-dominated aggregate micros: the eager
#: regime, where every batch ends in a retract-and-re-emit of the groups
#: it touched and the vector lane has nothing to amortise over
EAGER_BATCH = 200

#: ``--check``: minimum same-run row-lane / reference throughput ratio of
#: those micros (group records and the per-group generated emission
#: against the reference's per-state objects and global (row, sign) dict)
EAGER_ROW_LANE_FLOOR = {
    "aggregate_eager": 1.6,
    "aggregate_eager_single_query": 3.0,
}

#: micros outside the vector floor: a filter -> project chain is one pass
#: of cheap scalar work per row either way (the vector lane is ~1.2x), the
#: multiplicity-bag join is dominated by install bookkeeping, and the
#: eager aggregates are held to ``EAGER_ROW_LANE_FLOOR`` instead
UNGUARDED = ("filter_project", "join_shared_multiplicity") + tuple(
    EAGER_ROW_LANE_FLOOR)

#: leg -> the ``ROW_LANE_MAX`` that forces it on every non-empty batch
LANES = (("row_lane", 1 << 30), ("vector_lane", 0))


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

    One untimed call goes first: every leg starts from cleared code
    caches, and the call that generates a lane's kernels can take twice
    a warm one, so counted as a repetition it would leave best-of-2
    resting on a single warm sample.
    Collections are forced before and disabled during each timing so a
    GC cycle triggered by one mode's garbage does not land in another
    mode's measurement (the modes allocate very differently).
    """
    fn()
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


def _micro_case(make_reference, make_production, batches, repeat):
    """Time one operator over scripted batches on every leg.

    ``make_reference()`` builds a fresh per-tuple operator around fresh
    feeds, ``make_production()`` its production twin (timed once per
    forced lane); a fresh tree per timing keeps hash-table/group state
    comparable.
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

    legs = [("reference", None, make_reference)] + [
        (label, lane_max, make_production) for label, lane_max in LANES
    ]
    timings = {}
    saved = columnar.ROW_LANE_MAX
    try:
        for label, lane_max, builder in legs:
            if lane_max is not None:
                columnar.ROW_LANE_MAX = lane_max
            clear_compiled_caches()
            seconds = _timed(lambda: drain(builder), repeat)
            timings[label] = {
                "seconds": seconds,
                "deltas_per_sec": n_deltas / seconds if seconds > 0 else None,
            }
    finally:
        columnar.ROW_LANE_MAX = saved
    timings["vector_vs_row_lane"] = _ratio(timings, "row_lane", "vector_lane")
    timings["row_lane_vs_reference"] = _ratio(timings, "reference", "row_lane")
    timings["input_deltas"] = n_deltas
    return timings


def _ratio(timings, slower, faster):
    """How many times faster leg ``faster`` ran than leg ``slower``."""
    seconds = timings[faster]["seconds"]
    return timings[slower]["seconds"] / seconds if seconds > 0 else None


def _columnar_feed_batches(feed_batches, width):
    """Pre-converted ``ColumnBatch`` inputs for the production legs.

    Inside a production tree every operator's input -- a source's
    buffer segments included -- is a ``ColumnBatch``, so the production
    legs are fed their native form, exactly as the reference leg is fed
    delta lists.
    """
    return [
        ColumnBatch.from_rows(
            [d.row for d in batch], [d.sign for d in batch],
            [d.bits for d in batch], width,
        )
        for batch in feed_batches
    ]


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

    # a source reads via reader.read_new(): one segment per advance
    class _ReaderFeed(_Feed):
        offset = 0  # logical span cursor (cache_view keys go unused here)

        def read_new(self):
            segment = self.advance()
            self.offset += len(segment)
            return [segment]

    def make(source_cls, segments):
        def build():
            feed = _ReaderFeed(segments)
            return _Harness(
                source_cls(node, feed, 0b1111, WorkMeter()), [feed])

        return build

    return _micro_case(
        make(SourceExec, feed_batches),
        make(ColumnarSourceExec, _columnar_feed_batches(feed_batches, 2)),
        feed_batches, repeat)


def bench_join(n, batches, repeat, keys_div=64, payload_mod=9973):
    """Shared two-query equi-join.

    The default shape is the distinct-row regime (high payload
    cardinality, so stored nets are 1): every matched pair is a fresh
    output row, which the scalar probes build one by one while the
    vectorised probe emits via array gather -- the regime vectorized
    emission is built for, and the realistic one (TPC-H rows are
    distinct).  ``payload_mod=3`` flips to the low-cardinality bag
    regime where stored slots accumulate net multiplicities > 1 and
    per-slot install bookkeeping dominates every leg -- kept as the
    (unguarded) ``join_shared_multiplicity`` case below.
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

    def make(join_cls, left_feed, right_feed):
        def build():
            left = _Feed(left_feed)
            right = _Feed(right_feed)
            op = join_cls(node, left, right, WorkMeter())
            return _Harness(op, [left, right])

        return build

    return _micro_case(
        make(JoinExec, left_batches, right_batches),
        make(ColumnarJoinExec, _columnar_feed_batches(left_batches, 2),
             _columnar_feed_batches(right_batches, 2)),
        left_batches + right_batches, repeat,
    )


def bench_aggregate(n, batches, repeat, with_deletes=True, mask=0b111111):
    # six shared queries over one aggregate (the paper's sharing regime)
    # and a Q1-like group cardinality: few groups, many updates per group
    # (``mask`` narrows it: 0b1 is the one-query node of the 22-query plan)
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
    bit_patterns = tuple(
        bits & mask for bits in (0b111111, 0b010101, 0b001111))
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

    return _aggregate_case(node, mask, feed_batches, repeat)


def _aggregate_case(node, mask, feed_batches, repeat):
    def make(aggregate_cls, batches):
        def build():
            feed = _Feed(batches)
            op = aggregate_cls(node, feed, mask, WorkMeter())
            return _Harness(op, [feed])

        return build

    return _micro_case(
        make(AggregateExec, feed_batches),
        make(ColumnarAggregateExec, _columnar_feed_batches(feed_batches, 2)),
        feed_batches, repeat,
    )


def bench_aggregate_string_keys(n, batches, repeat):
    """Group-by over string keys: the key-interning regime.

    Few distinct string groups, many deltas per group per batch -- the
    shape where the row lane's absorb loop reaches a group's record
    with one dict lookup on the bare key and never builds a key tuple.
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

    return _aggregate_case(node, mask, feed_batches, repeat)


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
    """Fan-out of single-join subplans over shared join indexes.

    ``n_queries`` identical events |X| items rollups stay separate
    subplans (no MQO merge) and all of them read one shared index per
    table.  What the benchmark records is the resource gap against one
    private table per reader -- resident join-state entries and
    index-maintenance operations -- plus wall clock.  The
    private-equivalent resident entries are the summary's
    ``private_entries``: every join side here is arranged, so that is
    the sum of the joins' ``entry_count`` as the window ends, which is
    what ``charge_state`` bills per reader; the run must be work- and
    result-identical to the per-tuple reference, whose joins really
    keep private tables (asserted here).
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

    clear_compiled_caches()
    probe = PlanExecutor(plan, config).run(paces)
    summary = probe.metadata["arrangement_summary"]
    arranged = {
        "seconds": _timed(
            lambda: PlanExecutor(plan, config).run(
                paces, collect_results=False
            ),
            repeat,
        ),
        "resident_entries": summary["resident_entries"],
        "maintenance_ops": summary["maintenance_ops"],
        "private_ops": summary["private_ops"],
        "arrangements": len(summary["arrangements"]),
    }
    private = {"resident_entries": summary["private_entries"]}
    reference = ReferenceExecutor(plan, config).run(paces)
    if (
        _run_fingerprint(probe) != _run_fingerprint(reference)
        or probe.query_results != reference.query_results
    ):
        raise AssertionError(
            "the arranged run and the private-table reference diverged -- "
            "the exactness contract is broken; do not trust these numbers"
        )

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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small config for CI smoke runs")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--arrangements-output",
                        default=DEFAULT_ARRANGEMENTS_OUTPUT,
                        help="where to write the arrangements extract")
    parser.add_argument("--check", action="store_true",
                        help="fail unless every guarded micro's vector lane "
                             "is %.1fx its row lane, the eager aggregates' "
                             "row lane holds its floor over the reference "
                             "and arrangements cut resident join-state "
                             "entries by %.1fx"
                             % (VECTOR_LANE_FLOOR, ARRANGEMENT_ENTRY_FLOOR))
    parser.add_argument("--repeat", type=int, default=None,
                        help="timing repetitions (best-of)")
    parser.add_argument("--seed", type=int, default=5,
                        help="seed of the arrangements fan-out catalog")
    args = parser.parse_args(argv)

    # --quick runs fewer batches of the full run's size (20k deltas): a
    # lane ratio depends on the batch size, and at 5k-delta batches the
    # string-key aggregate's vector lane, which pays per group and query
    # per batch, sits within ~10% of the 2x floor
    if args.quick:
        n, batches, repeat = 40_000, 2, 2
    else:
        n, batches, repeat = 200_000, 10, 3
    if args.repeat is not None:
        repeat = args.repeat

    report = {
        "config": {
            "quick": bool(args.quick),
            "micro_deltas": n,
            "micro_batches": batches,
            "repeat": repeat,
            "seed": args.seed,
            "engine_mode": engine_mode_label(),
            "row_lane_max": columnar.ROW_LANE_MAX,
            "python": sys.version.split()[0],
            "machine": {
                "platform": platform.platform(),
                "arch": platform.machine(),
                "cpus": os.cpu_count(),
            },
        },
        "micro": {},
    }

    print("operator micro benchmarks (%d deltas, best of %d)" % (n, repeat))
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
        ("aggregate_eager",
         lambda: bench_aggregate(n, n // EAGER_BATCH, repeat)),
        ("aggregate_eager_single_query",
         lambda: bench_aggregate(n, n // EAGER_BATCH, repeat, mask=0b1)),
    ):
        case = runner()
        report["micro"][name] = case
        print(
            "  %-24s %9.0f/s reference  %9.0f/s row lane  %9.0f/s vector "
            "lane  (%.2fx vector / row%s)"
            % (
                name,
                case["reference"]["deltas_per_sec"],
                case["row_lane"]["deltas_per_sec"],
                case["vector_lane"]["deltas_per_sec"],
                case["vector_vs_row_lane"],
                ", unguarded" if name in UNGUARDED else "",
            )
        )

    case = bench_consolidate(n // 2, repeat)
    report["consolidate"] = case
    print("  %-24s %9.0f/s" % ("consolidate", case["deltas_per_sec"]))

    arr_events = 30_000 if args.quick else 120_000
    print("shared arrangements fan-out (%d events)" % arr_events)
    arrangements = bench_arrangements(arr_events, repeat, seed=args.seed + 4)
    report["arrangements"] = arrangements
    print(
        "  resident entries: %d shared vs %d private (%.2fx);"
        " maintenance ops %.2fx; %.3fs"
        % (
            arrangements["arranged"]["resident_entries"],
            arrangements["private"]["resident_entries"],
            arrangements["entry_reduction"],
            arrangements["maintenance_reduction"],
            arrangements["arranged"]["seconds"],
        )
    )

    output = os.path.abspath(args.output)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % output)

    arrangements_output = os.path.abspath(args.arrangements_output)
    with open(arrangements_output, "w") as handle:
        json.dump(
            {"config": report["config"], "arrangements": arrangements},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print("wrote %s" % arrangements_output)

    verdict = "FAILED" if args.check else "WARNING"
    status = 0
    low = {
        name: case["vector_vs_row_lane"]
        for name, case in report["micro"].items()
        if name not in UNGUARDED
        and case["vector_vs_row_lane"] < VECTOR_LANE_FLOOR
    }
    if low:
        print(
            "%s: vector lane below %.1fx its row lane: %s"
            % (verdict, VECTOR_LANE_FLOOR, ", ".join(
                "%s %.2fx" % item for item in sorted(low.items())))
        )
        status = 1
    slow = {
        name: report["micro"][name]["row_lane_vs_reference"]
        for name, floor in EAGER_ROW_LANE_FLOOR.items()
        if report["micro"][name]["row_lane_vs_reference"] < floor
    }
    if slow:
        print(
            "%s: eager aggregate row lane below its floor over the "
            "reference: %s" % (verdict, ", ".join(
                "%s %.2fx (floor %.1fx)"
                % (name, ratio, EAGER_ROW_LANE_FLOOR[name])
                for name, ratio in sorted(slow.items())))
        )
        status = 1
    entry_reduction = arrangements["entry_reduction"] or 0.0
    if entry_reduction < ARRANGEMENT_ENTRY_FLOOR:
        print(
            "%s: arrangement resident-entry reduction %.2fx below the "
            "%.1fx floor" % (verdict, entry_reduction, ARRANGEMENT_ENTRY_FLOOR)
        )
        status = 1
    if args.check and not status:
        print(
            "check passed: every guarded vector lane >= %.1fx its row lane, "
            "eager aggregate row lanes over their floors, "
            "%.2fx resident-entry reduction (floor %.1fx)"
            % (VECTOR_LANE_FLOOR, entry_reduction, ARRANGEMENT_ENTRY_FLOOR)
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
