"""Shared arrangements: one join index per ``(table, key columns)``.

The contract (docs/ARRANGEMENTS.md): N production subplans joining the
same base table on the same keys share one index -- resident join-state
entries and index-maintenance operations drop by the number of readers
-- while query results, execution records and every WorkMeter charge
stay *bit-identical* to the per-tuple reference, whose joins keep a
private table on every side.  These tests pin that exactness contract,
the resource wins, the multiversioned copy-on-write protocol, and the
satellite fixes that rode along (columnar join-side compaction, the
buffer occupancy gauge, warm-started selected-pace scans).
"""

import random

import pytest

from repro import obs
from repro.cost.memo import PlanCostModel
from repro.cost.model import CostConfig
from repro.core.split import LocalSplitOptimizer, set_partitions
from repro.engine.arrangements import (
    Arrangement,
    ArrangementStore,
    arrangeable_side,
)
from repro.engine.buffers import Buffer
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.errors import ExecutionError
from repro.fuzz.reference import ReferenceExecutor
from repro.logical.builder import PlanBuilder
from repro.mqo.merge import build_unshared_plan
from repro.obs import OBS
from repro.physical import columnar as columnar_mod
from repro.physical.columnar import ColumnarJoinExec
from repro.physical.hotpath import clear_compiled_caches
from repro.physical.operators import JoinExec
from repro.relational.expressions import agg_sum, col
from repro.relational.tuples import Delta
from repro.workloads.constraints import uniform_constraints

from .util import (
    batch_of,
    make_toy_catalog,
    shared_plan_for,
    toy_query_region,
    toy_query_total,
)


def fingerprint(result):
    """Every numeric surface of a RunResult, exact (no tolerance)."""
    return {
        "total_work": result.total_work,
        "records": [
            (r.sid, r.fraction, r.work, r.latency_work, r.output_count)
            for r in result.records
        ],
        "subplan_total_work": result.subplan_total_work,
        "subplan_final_work": result.subplan_final_work,
        "query_final_work": result.query_final_work,
        "query_results": result.query_results,
    }


def single_join_queries(catalog, n=4, filtered=False):
    """N identical-shape events |X| items rollups, one subplan each.

    ``build_unshared_plan`` keeps them separate, so every subplan probes
    the same two base tables -- the workload where one shared arrangement
    replaces N private tables.  ``filtered`` puts an always-true filter
    on the events scan: the same deltas arrive, but a decorated scan is
    not arrangeable, so that side keeps a private table.
    """
    def events():
        scan = PlanBuilder.scan(catalog, "events")
        return scan.where(col("qty") > 0) if filtered else scan

    return [
        events()
        .join(PlanBuilder.scan(catalog, "items"), "ev_item", "item_id")
        .aggregate(["item_cat"], [agg_sum(col("qty"), "total")])
        .as_query(i, "arr_q%d" % i)
        for i in range(n)
    ]


def add_event_churn(catalog, fraction=0.2, seed=3):
    """Update-churn on the events table (delete + corrected insert)."""
    rng = random.Random(seed)
    events = catalog.get("events")
    qty = events.schema.index_of("qty")
    updates = []
    for row in rng.sample(events.rows, max(1, int(len(events.rows) * fraction))):
        new_row = list(row)
        new_row[qty] = float(rng.randint(1, 9))
        updates.append((row, tuple(new_row)))
    events.apply_updates(updates, rng=rng)
    return catalog


def run_with(plan, paces, batched=True):
    """A production run, or (``batched=False``) the per-tuple reference's."""
    clear_compiled_caches()
    executor = PlanExecutor if batched else ReferenceExecutor
    return executor(plan, StreamConfig()).run(paces)


@pytest.fixture(scope="module")
def fanout_setup():
    catalog = make_toy_catalog(seed=13)
    queries = single_join_queries(catalog)
    plan = build_unshared_plan(catalog, queries)
    paces = dict(zip(sorted(s.sid for s in plan.subplans), (1, 2, 4, 4)))
    return plan, paces


# -- exactness: production-arranged vs reference-private, bit-identical ------------


class TestArrangedExactness:
    def test_batched_paths_bit_identical(self, fanout_setup):
        plan, paces = fanout_setup
        arranged = run_with(plan, paces, batched=True)
        private = run_with(plan, paces, batched=False)
        assert arranged.metadata["arrangements"] is True
        assert private.metadata["arrangements"] is False
        assert "arrangement_summary" not in private.metadata
        assert fingerprint(arranged) == fingerprint(private)

    def test_columnar_paths_bit_identical(self, fanout_setup, monkeypatch):
        # each lane forced on every batch: the vector lane, then the row
        # lane (the fan-out sums integral quantities, so the vector
        # lane's segment sums are exact as well)
        plan, paces = fanout_setup
        private = run_with(plan, paces, batched=False)
        for lane_max in (0, 1 << 30):
            monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", lane_max)
            arranged = run_with(plan, paces, batched=True)
            assert fingerprint(arranged) == fingerprint(private), lane_max

    def test_mixed_shared_plan_bit_identical(self):
        # toy shared plan: filtered scans stay private, bare scans share
        # -- a join can have one arranged and one private side
        catalog = make_toy_catalog(seed=29)
        queries = [
            toy_query_total(catalog, 0),
            toy_query_region(catalog, 1, region="EU"),
            toy_query_total(catalog, 2, day_filter=60),
        ]
        plan = shared_plan_for(catalog, queries)
        paces = {
            s.sid: 2 if s.child_subplans() else 4 for s in plan.subplans
        }
        arranged = run_with(plan, paces, batched=True)
        private = run_with(plan, paces, batched=False)
        assert arranged.metadata["arrangements"] is True
        assert fingerprint(arranged) == fingerprint(private)

    def test_churned_workload_bit_identical(self):
        catalog = add_event_churn(make_toy_catalog(seed=17))
        plan = build_unshared_plan(catalog, single_join_queries(catalog))
        paces = dict(zip(sorted(s.sid for s in plan.subplans), (2, 3, 6, 1)))
        arranged = run_with(plan, paces, batched=True)
        private = run_with(plan, paces, batched=False)
        assert fingerprint(arranged) == fingerprint(private)


# -- the resource win: >= 2x fewer resident entries and maintenance ops ------------


def tap_join_advances(monkeypatch, join_cls, check):
    """Call ``check(join)`` after every ``join_cls`` advance.

    A run releases its join state as the window ends, so what a join
    holds is read inside the window, at its advances.
    """
    advance = join_cls.advance

    def tapped(join):
        out = advance(join)
        check(join)
        return out

    monkeypatch.setattr(join_cls, "advance", tapped)


class TestArrangedSavings:
    def _final_entries(self, monkeypatch, plan, paces, batched):
        """The run, and its joins' entry counts summed as the window ends."""
        last = {}
        join_cls = ColumnarJoinExec if batched else JoinExec
        with monkeypatch.context() as patch:
            tap_join_advances(
                patch, join_cls,
                lambda join: last.__setitem__(id(join), join.entry_count))
            run = run_with(plan, paces, batched=batched)
        return run, sum(last.values())

    def test_resident_entries_halved_or_better(self, fanout_setup, monkeypatch):
        # what N private tables would hold is what ``charge_state`` bills
        # per reader: the joins' entry counts, which the reference's
        # private tables really do hold
        plan, paces = fanout_setup
        arranged, billed = self._final_entries(monkeypatch, plan, paces, True)
        _, held = self._final_entries(monkeypatch, plan, paces, False)
        summary = arranged.metadata["arrangement_summary"]
        # every join side of the fan-out is arranged
        assert summary["private_entries"] == billed == held
        assert summary["resident_entries"] > 0
        assert billed >= 2 * summary["resident_entries"]

    def test_maintenance_ops_halved_or_better(self, fanout_setup):
        plan, paces = fanout_setup
        arranged = run_with(plan, paces, batched=True)
        summary = arranged.metadata["arrangement_summary"]
        assert summary["maintenance_ops"] > 0
        assert summary["private_ops"] >= 2 * summary["maintenance_ops"]
        assert summary["shared_ops_saved"] == (
            summary["private_ops"] - summary["maintenance_ops"]
        )

    def test_attribution_is_exact_per_arrangement(self, fanout_setup):
        plan, paces = fanout_setup
        arranged = run_with(plan, paces, batched=True)
        for info in arranged.metadata["arrangement_summary"]["arrangements"]:
            shares = info["attribution"]
            assert len(shares) == info["readers"]
            assert sum(shares.values()) == pytest.approx(
                info["maintenance_ops"]
            )


# -- tree reuse across runs --------------------------------------------------------


class TestTreeReuse:
    def test_reused_tree_matches_fresh(self, fanout_setup):
        plan, paces = fanout_setup
        clear_compiled_caches()
        executor = PlanExecutor(plan, StreamConfig())
        first = fingerprint(executor.run(paces))
        second = fingerprint(executor.run(paces))  # reused tree
        fresh = fingerprint(PlanExecutor(plan, StreamConfig()).run(paces))
        assert first == second == fresh


# -- the multiversioned copy-on-write protocol, in isolation -----------------------


def _delta(key, payload, sign=1):
    return Delta((key, payload), sign, ~0)


class TestArrangementVersions:
    def _arranged_buffer(self, deltas):
        buffer = Buffer("t")
        # the arrangement's trailing reader registers before the feed
        arrangement = Arrangement("t", (0,), buffer)
        buffer.append(batch_of(deltas, 2))
        return arrangement, buffer

    def test_exact_match_shares_a_version(self):
        arr, _ = self._arranged_buffer([_delta(1, "a"), _delta(2, "b")])
        h1, h2 = arr.acquire(0, "j1"), arr.acquire(1, "j2")
        h1.advance_to(2)
        h2.advance_to(2)
        assert len(arr.versions) == 1
        assert h1.version is h2.version
        assert h1.version.refs == 2
        # the second reader paid no maintenance: the version was shared
        assert arr.maintenance_ops == 2
        assert arr.private_ops == 4

    def test_solo_reader_cannibalizes_in_place(self):
        arr, _ = self._arranged_buffer(
            [_delta(1, "a"), _delta(1, "b"), _delta(1, "a", -1)]
        )
        (h,) = [arr.acquire(0, "j1")]
        v1 = h.advance_to(1)
        v2 = h.advance_to(3)
        assert v1 is v2  # rolled forward in place, no copy
        assert len(arr.versions) == 1
        assert h.version.table == {1: {(1, "b"): 1}}
        assert h.version.entries == 1

    def test_lagging_reader_clones_copy_on_write(self):
        arr, _ = self._arranged_buffer(
            [_delta(1, "a"), _delta(2, "b"), _delta(1, "a", -1)]
        )
        h1, h2 = arr.acquire(0, "j1"), arr.acquire(1, "j2")
        h1.advance_to(2)
        h2.advance_to(2)
        shared = h1.version
        h1.advance_to(3)  # must clone: h2 still reads the shared version
        assert h1.version is not shared
        assert shared.table == {1: {(1, "a"): 1}, 2: {(2, "b"): 1}}
        assert h1.version.table == {2: {(2, "b"): 1}}
        assert shared.entries == 2 and h1.version.entries == 1
        assert len(arr.versions) == 2
        # the laggard catches up onto the existing version and the old
        # one is pruned
        h2.advance_to(3)
        assert h2.version is h1.version
        assert len(arr.versions) == 1

    def test_backwards_advance_raises(self):
        arr, _ = self._arranged_buffer([_delta(1, "a"), _delta(2, "b")])
        h = arr.acquire(0, "j1")
        h.advance_to(2)
        with pytest.raises(ExecutionError):
            h.advance_to(1)

    def test_acquire_after_advance_raises(self):
        arr, _ = self._arranged_buffer([_delta(1, "a")])
        h = arr.acquire(0, "j1")
        h.advance_to(1)
        with pytest.raises(ExecutionError):
            arr.acquire(1, "j2")

    def test_reader_pin_blocks_compaction(self):
        arr, buffer = self._arranged_buffer([_delta(1, "a"), _delta(2, "b")])
        consumer = buffer.reader()
        consumer.read_new()
        h1, h2 = arr.acquire(0, "j1"), arr.acquire(1, "j2")
        h1.advance_to(2)
        assert buffer.compact() == 0  # h2's version still needs offset 0
        h2.advance_to(2)
        assert buffer.compact() == 2

    def test_attribution_sums_exactly(self):
        arr, _ = self._arranged_buffer(
            [_delta(k, "p") for k in range(7)]
        )
        h1, h2 = arr.acquire(0, "j1"), arr.acquire(1, "j2")
        h1.advance_to(7)
        h2.advance_to(3)
        shares = arr.attribution()
        assert all(type(share) is int for share in shares.values())
        assert sum(shares.values()) == arr.maintenance_ops
        assert shares[0] > shares[1]  # weighted by advanced span

    def test_reset_restores_pristine_state(self):
        arr, buffer = self._arranged_buffer([_delta(1, "a"), _delta(2, "b")])
        h1, h2 = arr.acquire(0, "j1"), arr.acquire(1, "j2")
        h1.advance_to(2)
        h2.advance_to(1)
        arr.reset()
        assert list(arr.versions) == [0]
        assert arr.versions[0].refs == 2
        assert h1.version is arr.versions[0] is h2.version
        assert arr.maintenance_ops == arr.private_ops == 0
        # the executor resets buffers alongside the store, then the
        # streams re-feed them; a fresh advance sees the replayed log
        buffer.reset()
        buffer.append(batch_of([_delta(1, "a"), _delta(2, "b")], 2))
        assert h1.advance_to(2).table == {
            1: {(1, "a"): 1}, 2: {(2, "b"): 1}
        }

    def test_store_deduplicates_by_table_and_keys(self):
        store = ArrangementStore()
        buffer = Buffer("t")
        h1 = store.handle("t", (0,), buffer, 0, "j1")
        h2 = store.handle("t", (0,), buffer, 1, "j2")
        h3 = store.handle("t", (1,), buffer, 0, "j3")
        assert h1.arrangement is h2.arrangement
        assert h3.arrangement is not h1.arrangement
        assert len(store) == 2


class TestArrangeableSide:
    def test_bare_scan_sides_are_eligible(self, fanout_setup):
        plan, _ = fanout_setup
        join = next(
            node
            for subplan in plan.subplans
            for node in subplan.root.walk()
            if node.kind == "join"
        )
        assert arrangeable_side(join, 0) == ("events", (0,))
        assert arrangeable_side(join, 1) == ("items", (0,))

    def test_filtered_scan_is_not_eligible(self):
        catalog = make_toy_catalog(seed=31)
        query = toy_query_total(catalog, 0, day_filter=50)
        plan = build_unshared_plan(catalog, [query])
        joins = [
            node
            for node in plan.subplans[0].root.walk()
            if node.kind == "join"
        ]
        for join in joins:
            for side in (0, 1):
                child = join.children[side]
                eligible = arrangeable_side(join, side)
                if child.kind == "source" and child.filters:
                    assert eligible is None
                if child.kind == "join":
                    assert eligible is None


# -- satellite: columnar join-side compaction under churn --------------------------


class TestColumnarSideCompaction:
    def test_dead_slots_stay_bounded(self, monkeypatch):
        # every batch on the row lane, which is bit-identical to the
        # reference whatever the toy batch sizes are
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", 1 << 30)
        catalog = add_event_churn(make_toy_catalog(seed=41), fraction=0.6)
        plan = build_unshared_plan(
            catalog, single_join_queries(catalog, 2, filtered=True)
        )
        paces = {s.sid: 3 for s in plan.subplans}
        checked = []

        def bounded(join):
            for state in (join._left_state, join._right_state):
                if state is not None:
                    # before the fix the raw delta chunks grew without
                    # bound; compaction now keeps dead slots below the
                    # live count (plus the trigger threshold)
                    assert state.dead <= max(32, state.entries)
                    checked.append(state.dead)

        with monkeypatch.context() as patch:
            tap_join_advances(patch, ColumnarJoinExec, bounded)
            run = run_with(plan, paces, batched=True)
        assert checked, "no private columnar join sides compiled"
        assert any(checked), "no slot ever retracted"
        # compaction preserved per-key probe order: still bit-identical
        # to the per-tuple reference
        reference = run_with(plan, paces, batched=False)
        assert fingerprint(run) == fingerprint(reference)


# -- satellite: buffer occupancy gauge refreshes on compaction ---------------------


class TestOccupancyGauge:
    @pytest.fixture(autouse=True)
    def _clean_session(self):
        obs.disable()
        yield
        obs.disable()

    def test_compact_refreshes_the_gauge(self):
        obs.enable()
        buffer = Buffer("churny")
        reader = buffer.reader()
        buffer.append([_delta(k, "p") for k in range(10)])
        reader.read_new()
        gauge = OBS.metrics.gauge("engine.buffer.occupancy", buffer="churny")
        assert gauge.value == 10
        assert buffer.compact() == 10
        # the stale-gauge bug: this kept reading 10 after compaction
        assert gauge.value == 0
        assert gauge.max == 10
        # and its twin: a reused tree's buffer kept reading the previous
        # window's last occupancy until its next append
        buffer.append([_delta(k, "q") for k in range(4)])
        assert gauge.value == 4
        buffer.reset()
        assert gauge.value == 0

    def test_gauge_reads_zero_where_nothing_is_held(self):
        obs.enable()
        buffer = Buffer("unread")
        buffer.append([_delta(k, "p") for k in range(10)])
        gauge = OBS.metrics.gauge("engine.buffer.occupancy", buffer="unread")
        assert gauge.value == 0 and gauge.max == 0
        assert buffer.end() == 10


# -- satellite: warm-started selected-pace scans -----------------------------------


class TestWarmStartedSelectedPace:
    def _splitter(self, **kwargs):
        catalog = make_toy_catalog(seed=23)
        queries = [
            toy_query_total(catalog, 0),
            toy_query_region(catalog, 1, region="EU"),
            toy_query_region(catalog, 2, region="US"),
        ]
        plan = shared_plan_for(catalog, queries)
        calibrate_plan(plan, StreamConfig())
        model = PlanCostModel(plan, CostConfig())
        absolute = model.absolute_constraints(
            uniform_constraints(plan.query_ids(), 0.2)
        )
        target = max(plan.subplans, key=lambda s: len(s.query_ids()))
        assert len(target.query_ids()) >= 2
        paces = {s.sid: 1 for s in plan.subplans}
        inputs = model.evaluate(paces, collect_inputs=True)
        return LocalSplitOptimizer(
            target,
            inputs.subplan_inputs[target.sid],
            model.local_constraints(target, absolute),
            max_pace=12,
            **kwargs,
        )

    def test_verified_warm_start_agrees_with_cold_scan(self):
        # verify_warm_start re-runs every warm scan from pace 1 and
        # raises on divergence -- the monotonicity assertion itself
        verified = self._splitter(verify_warm_start=True)
        decision = verified.brute_force()
        plain = self._splitter()
        assert plain.brute_force().partitions == decision.partitions

    def test_warm_start_saves_simulations(self):
        warm = self._splitter()
        warm_decision = warm.brute_force()

        cold = self._splitter()
        best = None
        for partition_set in set_partitions(cold.queries):
            total = sum(
                cold.selected_pace(part, 1)[1] for part in partition_set
            )
            if best is None or total < best:
                best = total
        assert best == pytest.approx(warm_decision.local_total_work)
        assert warm.simulations <= cold.simulations
