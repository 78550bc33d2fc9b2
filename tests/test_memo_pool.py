"""Tests for the content-addressed memo pool shared by derived cost models."""

import pytest

from repro import obs
from repro.core.decompose import decompose_full_plan
from repro.core.greedy import PaceSearch
from repro.core.optimizer import OptimizerConfig, optimize_ishare
from repro.core.pace import batch_configuration, uniform_configuration
from repro.core.partial import partial_cut_candidates
from repro.core.regenerate import apply_split
from repro.cost.memo import MemoPool, OptimizationTimeout, PlanCostModel
from repro.cost.stats import NodeStats
from repro.engine.calibrate import calibrate_plan
from repro.mqo.nodes import OpNode, SharedQueryPlan, Subplan, SubplanRef, TableRef
from repro.obs import OBS
from repro.workloads import random_constraints
from repro.workloads.tpch import ALL_QUERY_NAMES, build_workload, generate_catalog

from .util import make_toy_catalog

SMALL_QUERIES = ("Q1", "Q3", "Q4", "Q6", "Q12", "Q14")


def small_workload(names=ALL_QUERY_NAMES):
    catalog = generate_catalog(scale=0.05, seed=5)
    queries = build_workload(catalog, names)
    relative = random_constraints([q.query_id for q in queries], seed=5)
    return catalog, queries, relative


@pytest.fixture(scope="module")
def searched():
    """The 22-query shared plan at a small scale, after the greedy search."""
    from repro.mqo.merge import MQOOptimizer

    catalog, queries, relative = small_workload()
    config = OptimizerConfig(max_pace=4)
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    calibrate_plan(plan, config.stream_config)
    model = PlanCostModel(plan, config.cost_config)
    constraints = model.absolute_constraints(relative)
    found = PaceSearch(model, constraints, config.max_pace).find()
    return plan, config, constraints, found.pace_config


def candidate_plans(plan, paces):
    """Every plan one decomposition step can derive, with its initial paces:
    each shared subplan split first-query-vs-rest, and every partial cut."""
    for shared in plan.shared_subplans():
        qids = shared.query_ids()
        yield apply_split(plan, paces, shared.sid, [qids[:1], qids[1:]])
        for cut_plan, top_sid, bottom_sids in partial_cut_candidates(
                plan, shared.sid):
            cut_paces = dict(paces)
            cut_paces.update((sid, paces[top_sid]) for sid in bottom_sids)
            yield cut_plan, cut_paces


def ancestors_and_self(model, sid):
    closure = {sid}
    frontier = [sid]
    while frontier:
        for parent in model.parents[frontier.pop()]:
            if parent not in closure:
                closure.add(parent)
                frontier.append(parent)
    return closure


class TestSharedPoolIsExact:
    def test_candidates_cost_the_same_shared_and_private(self, searched):
        plan, config, _, paces = searched
        shared_pool = MemoPool()
        PlanCostModel(plan, config.cost_config, memo_pool=shared_pool).evaluate(paces)
        candidates = list(candidate_plans(plan, paces))
        assert len(candidates) > 3
        for candidate, initial in candidates:
            pooled = PlanCostModel(
                candidate, config.cost_config, memo_pool=shared_pool)
            private = PlanCostModel(candidate, config.cost_config)
            for pace_config in (
                initial,
                batch_configuration(candidate),
                uniform_configuration(candidate, 3),
            ):
                got = pooled.evaluate(pace_config)
                want = private.evaluate(pace_config)
                assert got.total_work == want.total_work
                assert got.query_final_work == want.query_final_work
                assert got.subplan_total == want.subplan_total
                assert got.subplan_final == want.subplan_final
            # the untouched cones were served from the parent's rows
            assert pooled.simulation_count < private.simulation_count
        assert shared_pool.hits > 0

    def test_no_memo_model_leaves_the_pool_alone(self, searched):
        plan, config, _, paces = searched
        pool = MemoPool()
        model = PlanCostModel(
            plan, config.cost_config, use_memo=False, memo_pool=pool)
        model.evaluate(paces)
        model.evaluate(paces)
        assert pool.signatures() == set()
        assert pool.hits == 0
        assert model.simulation_count == 2 * len(plan.subplans)

    def test_cost_config_is_part_of_the_address(self, searched):
        from repro.cost.model import CostConfig

        plan, config, _, paces = searched
        pool = MemoPool()
        base = PlanCostModel(plan, config.cost_config, memo_pool=pool)
        other_config = CostConfig(state_factor=0.0)
        other = PlanCostModel(plan, other_config, memo_pool=pool)
        base.evaluate(paces)
        assert other.evaluate(paces).total_work == PlanCostModel(
            plan, other_config).evaluate(paces).total_work
        assert pool.hits == 0


class TestConeSignatures:
    def test_clone_has_equal_signatures(self, searched):
        plan, config, _, _ = searched
        original = PlanCostModel(plan, config.cost_config)
        clone = PlanCostModel(plan.clone(), config.cost_config)
        for subplan in plan.subplans:
            assert (original.cone_signature(subplan.sid)
                    == clone.cone_signature(subplan.sid))

    def test_split_changes_exactly_target_and_ancestors(self, searched):
        plan, config, _, paces = searched
        before = PlanCostModel(plan, config.cost_config)
        old_signatures = set(before.cone_signatures())
        for shared in plan.shared_subplans():
            qids = shared.query_ids()
            new_plan, _ = apply_split(
                plan, paces, shared.sid, [qids[:1], qids[1:]])
            after = PlanCostModel(new_plan, config.cost_config)
            touched = ancestors_and_self(before, shared.sid)
            surviving = {subplan.sid for subplan in new_plan.subplans}
            for subplan in plan.subplans:
                sid = subplan.sid
                if sid not in touched:
                    assert after.cone_signature(sid) == before.cone_signature(sid)
                elif sid in surviving:  # an ancestor retargeted in place
                    assert after.cone_signature(sid) != before.cone_signature(sid)
            # nothing else is reusable: every other cone of the new plan is new
            untouched = {
                before.cone_signature(s.sid) for s in plan.subplans
                if s.sid not in touched
            }
            assert set(after.cone_signatures()) & old_signatures == untouched

    def test_restricting_queries_changes_the_signature(self, searched):
        plan, config, _, paces = searched
        shared = plan.shared_subplans()[0]
        qids = shared.query_ids()
        new_plan, _ = apply_split(plan, paces, shared.sid, [qids[:1], qids[1:]])
        before = PlanCostModel(plan, config.cost_config)
        after = PlanCostModel(new_plan, config.cost_config)
        old_sids = {subplan.sid for subplan in plan.subplans}
        pieces = [s.sid for s in new_plan.subplans if s.sid not in old_sids]
        signatures = {after.cone_signature(sid) for sid in pieces}
        assert len(signatures) == len(pieces)
        assert before.cone_signature(shared.sid) not in signatures

    def test_twice_read_child_differs_from_two_identical_children(self):
        catalog = make_toy_catalog()
        table = catalog.get("events")
        ref = TableRef("events", table.schema)
        key = [table.schema.names()[0]]
        scan_stats, join_stats = NodeStats("source"), NodeStats("join")

        def scan(sid):
            return Subplan(sid, OpNode("source", ref=ref, stats=scan_stats), 1)

        def join_of(sid, left, right):
            root = OpNode(
                "join",
                children=[
                    OpNode("source", ref=SubplanRef(left), stats=scan_stats),
                    OpNode("source", ref=SubplanRef(right), stats=scan_stats),
                ],
                left_keys=key, right_keys=key, stats=join_stats,
            )
            return Subplan(sid, root, 1)

        child = scan(0)
        diamond_top = join_of(1, child, child)
        diamond = SharedQueryPlan(catalog, [child, diamond_top], {0: diamond_top})
        left, right = scan(0), scan(1)
        twins_top = join_of(2, left, right)
        twins = SharedQueryPlan(catalog, [left, right, twins_top], {0: twins_top})

        diamond_model = PlanCostModel(diamond)
        twins_model = PlanCostModel(twins)
        # the look-alike children themselves are one cone
        assert twins_model.cone_signature(0) == twins_model.cone_signature(1)
        assert twins_model.cone_signature(0) == diamond_model.cone_signature(0)
        assert diamond_model.cone_signature(1) != twins_model.cone_signature(2)


def _private_sibling(self, plan):
    """``PlanCostModel.sibling`` with a fresh pool: the pre-pool behaviour."""
    model = PlanCostModel(plan, self.config)
    model.time_budget = self.time_budget
    model._deadline = self._deadline
    return model


def _count_simulations(monkeypatch):
    """``{"memo": n, "split": n}``, counted where the benchmark's
    ``cost.simulations`` hook counts -- the ``simulate_subplan`` binding
    of each calling module."""
    import repro.core.split as split_module
    import repro.cost.memo as memo_module

    counts = {"memo": 0, "split": 0}

    def counting(module, name):
        original = module.simulate_subplan

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "simulate_subplan", wrapper)

    counting(memo_module, "memo")
    counting(split_module, "split")
    return counts


def _optimize_logged():
    catalog, queries, relative = small_workload()
    obs.enable()
    try:
        result = optimize_ishare(
            catalog, queries, relative, OptimizerConfig(max_pace=4))
        events = [
            {k: v for k, v in record.items() if k not in ("run", "ts")}
            for record in OBS.declog.records
        ]
    finally:
        obs.disable()
    return result, events


class TestOptimizerWithPool:
    def test_shared_pool_and_private_pools_choose_the_same_plan(self, monkeypatch):
        shared, shared_events = _optimize_logged()
        monkeypatch.setattr(PlanCostModel, "sibling", _private_sibling)
        private, private_events = _optimize_logged()
        assert shared.diagnostics["actions"]  # the instance does decompose
        assert shared.pace_config == private.pace_config
        assert shared.evaluation.total_work == private.evaluation.total_work
        assert shared.evaluation.query_final_work == private.evaluation.query_final_work
        assert ([repr(a) for a in shared.diagnostics["actions"]]
                == [repr(a) for a in private.diagnostics["actions"]])
        assert shared_events == private_events
        assert shared.diagnostics["memo_pool_hits"] > 0
        assert private.diagnostics["memo_pool_hits"] == 0

    def test_result_pool_holds_only_the_result_plans_cones(self):
        catalog, queries, relative = small_workload()
        result = optimize_ishare(
            catalog, queries, relative, OptimizerConfig(max_pace=4))
        model = result.cost_model
        assert model.plan is result.plan
        pool = model.memo_pool
        assert pool.signatures() == set(model.cone_signatures())
        assert {key[0] for key in pool._partition_costs} <= pool.signatures()
        # and the kept rows are live: re-evaluating the result costs nothing
        count = model.simulation_count
        again = model.evaluate(result.pace_config)
        assert model.simulation_count == count
        assert again.total_work == result.evaluation.total_work

    def test_simulation_budget_on_the_small_instance(self, monkeypatch):
        """The CI floor: these counts are deterministic and only go down."""
        counts = _count_simulations(monkeypatch)
        catalog, queries, relative = small_workload(SMALL_QUERIES)
        result = optimize_ishare(
            catalog, queries, relative, OptimizerConfig(max_pace=4))
        assert result.evaluation.total_work == 4660.449101369631
        # 122 with one private memo per model, 91 with solo rows per model
        assert counts["memo"] <= 89
        assert counts["split"] <= 31
        diagnostics = result.diagnostics
        assert diagnostics["simulations"] == 31
        assert diagnostics["decompose_simulations"] == 33

    def test_simulation_budget_on_the_22_query_instance(self, monkeypatch):
        """The CI floor that sees retries: on all 22 queries every shared
        subplan is re-tried after each of six adoptions, and a retry
        reads the rows its earlier try simulated.  Deterministic counts
        that only go down (1916 memo-side and 1410 split-side simulations
        while the pool was pruned after every worklist step)."""
        counts = _count_simulations(monkeypatch)
        catalog, queries, relative = small_workload()
        result = optimize_ishare(
            catalog, queries, relative, OptimizerConfig(max_pace=8))
        assert result.evaluation.total_work == 20707.39001167701
        assert len(result.diagnostics["actions"]) == 6
        assert counts["memo"] <= 1329
        assert counts["split"] <= 875
        assert result.diagnostics["simulations"] == 758
        assert result.diagnostics["decompose_simulations"] == 297

    def test_planning_structure_on_the_22_query_instance(self, monkeypatch):
        """The CI floor beside the simulation floor: what the decomposition
        of the 22-query instance builds.  A candidate is an edit of the
        plan in force, so it clones no plan and indexes no plan from
        scratch.  Deterministic counts that only go down (9864 operators,
        2569 subplans, 162 plans, 81 clones and 81 full indexes while
        every candidate was a clone)."""
        import repro.core.optimizer as optimizer_module

        counts = dict.fromkeys(
            ("operators", "subplans", "plans", "clones", "full_indexes"), 0)
        inside = [False]

        def counting(cls, name, key, when=lambda *args, **kwargs: True):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                if inside[0] and when(self, *args, **kwargs):
                    counts[key] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(OpNode, "__init__", "operators")
        counting(Subplan, "__init__", "subplans")
        counting(SharedQueryPlan, "__init__", "plans")
        counting(SharedQueryPlan, "derive", "plans")
        counting(SharedQueryPlan, "clone", "clones")
        counting(
            PlanCostModel, "_index_plan", "full_indexes",
            lambda model, parent=None: parent is None
            or parent._generation != model.memo_pool.generation)
        decompose = optimizer_module.decompose_full_plan

        def decompose_counted(*args, **kwargs):
            inside[0] = True
            try:
                return decompose(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(
            optimizer_module, "decompose_full_plan", decompose_counted)
        catalog, queries, relative = small_workload()
        result = optimize_ishare(
            catalog, queries, relative, OptimizerConfig(max_pace=8))
        assert result.evaluation.total_work == 20707.39001167701
        assert len(result.diagnostics["actions"]) == 6
        assert counts["operators"] <= 756
        assert counts["subplans"] <= 334
        assert counts["plans"] <= 67
        assert counts["clones"] == 0
        assert counts["full_indexes"] == 0

    def test_no_cache_key_is_simulated_twice(self, monkeypatch):
        """Within one ``optimize_ishare`` every memo row ``(cone, private
        paces)``, solo row ``(cone, qid)`` and partition cost ``(cone,
        input profiles, partition, pace)`` is simulated at most once: the
        decomposition keeps what it simulated until it returns."""
        written = {}

        class Recording(dict):
            __slots__ = ("prefix",)

            def __setitem__(self, key, value):
                address = (self.prefix, key)
                written[address] = written.get(address, 0) + 1
                super().__setitem__(key, value)

        def recording(prefix):
            table = Recording()
            table.prefix = prefix
            return table

        original_init = MemoPool.__init__

        def init(self):
            original_init(self)
            self.solo = recording("solo")

        def attach(self, signature):
            table = self._tables.get(signature)
            if table is not None:
                return table, True
            table = self._tables[signature] = recording(("memo", signature))
            return table, False

        def partition_costs(self, signature, child_profiles):
            key = (signature, child_profiles)
            return self._partition_costs.setdefault(
                key, recording(("partition",) + key))

        monkeypatch.setattr(MemoPool, "__init__", init)
        monkeypatch.setattr(MemoPool, "attach", attach)
        monkeypatch.setattr(MemoPool, "partition_costs", partition_costs)
        catalog, queries, relative = small_workload()
        result = optimize_ishare(
            catalog, queries, relative, OptimizerConfig(max_pace=8))
        assert len(result.diagnostics["actions"]) == 6
        kinds = {address[0] if address[0] == "solo" else address[0][0]
                 for address in written}
        assert kinds == {"memo", "solo", "partition"}
        assert [address for address, n in written.items() if n > 1] == []

    @staticmethod
    def _expire_at_sibling(searched, monkeypatch, expire_at):
        """Decompose with a deadline that passes as the ``expire_at``-th
        candidate model is built; ``(model, model in force, excinfo)``."""
        import repro.cost.memo as memo_module

        plan, config, constraints, paces = searched

        class Clock:
            now = 0.0

            @classmethod
            def monotonic(cls):
                return cls.now

        monkeypatch.setattr(memo_module, "time", Clock)
        model = PlanCostModel(plan, config.cost_config, time_budget=10.0)
        original = PlanCostModel.sibling
        calls = []

        def sibling_then_expire(self, derived):
            candidate = original(self, derived)
            calls.append(candidate)
            if len(calls) == expire_at:
                Clock.now = 11.0
            return candidate

        monkeypatch.setattr(PlanCostModel, "sibling", sibling_then_expire)
        with pytest.raises(OptimizationTimeout) as excinfo:
            decompose_full_plan(
                plan, paces, constraints, config.max_pace,
                cost_config=config.cost_config, cost_model=model,
            )
        in_force = next(
            entry.frame.f_locals["model"] for entry in excinfo.traceback
            if entry.name == "decompose_full_plan"
        )
        return model, in_force, excinfo

    @staticmethod
    def _assert_pruned_to(pool, in_force):
        assert pool.signatures() == set(in_force.cone_signatures())
        assert {key[0] for key in pool._partition_costs} <= pool.signatures()
        assert all(not program.specs for program in pool.programs.values())

    def test_time_budget_bounds_decomposition(self, searched, monkeypatch):
        """The deadline reaches the candidate models: once it passes, the
        next candidate evaluation raises, not the next worklist step.  The
        pool is pruned on the way out, to the plan in force."""
        model, in_force, excinfo = self._expire_at_sibling(
            searched, monkeypatch, 1)
        frames = {entry.name for entry in excinfo.traceback}
        assert frames & {"decrease_paces", "_try_partial"}
        assert in_force is model
        self._assert_pruned_to(model.memo_pool, in_force)

    def test_timeout_after_an_adoption_prunes_to_the_adopted_plan(
            self, searched, monkeypatch):
        # the first candidate is adopted before the second is built
        model, in_force, _ = self._expire_at_sibling(searched, monkeypatch, 2)
        assert in_force is not model
        assert in_force.plan is not model.plan
        self._assert_pruned_to(model.memo_pool, in_force)


class TestSiblingCosts:
    def test_sibling_over_a_clone_costs_like_the_model_in_force(self, searched):
        plan, config, _, paces = searched
        model = PlanCostModel(plan, config.cost_config)
        want = model.evaluate(paces)
        got = model.sibling(plan.clone()).evaluate(paces)
        assert got.total_work == want.total_work
        assert got.query_final_work == want.query_final_work
        assert got.subplan_total == want.subplan_total
        assert got.subplan_final == want.subplan_final


class TestRenamedPlanOverOnePool:
    """A plan whose sids were renamed and reordered -- what a churn
    re-merge does to the subplans it leaves alone -- finds its rows in the
    pool, because cone signatures hold positions, not sids."""

    @staticmethod
    def _renamed(plan):
        # same plan, every sid renamed so that sid order reverses
        sids = sorted(subplan.sid for subplan in plan.subplans)
        renamed_to = dict(zip(sids, reversed([sid + 100 for sid in sids])))
        renamed = plan.clone()
        for subplan in renamed.subplans:
            subplan.sid = renamed_to[subplan.sid]
        renamed = SharedQueryPlan(
            renamed.catalog, list(reversed(renamed.subplans)),
            renamed.query_roots, renamed.queries,
        )
        return renamed, renamed_to

    def test_rows_are_found_under_permuted_sids(self, searched):
        plan, config, _, paces = searched
        source = PlanCostModel(plan, config.cost_config)
        configs = (paces, batch_configuration(plan),
                   uniform_configuration(plan, 2))
        for pace_config in configs:
            source.evaluate(pace_config)

        renamed, renamed_to = self._renamed(plan)
        target = PlanCostModel(
            renamed, config.cost_config, memo_pool=source.memo_pool)
        assert set(target.cone_signatures()) == set(source.cone_signatures())
        for subplan in plan.subplans:
            assert target._tables[renamed_to[subplan.sid]] \
                is source._tables[subplan.sid]
        for pace_config in configs:
            evaluation = target.evaluate(
                {renamed_to[sid]: pace for sid, pace in pace_config.items()})
            want = source.evaluate(pace_config)
            # per subplan the rows are the same objects; the plan-wide
            # sums run in the reversed subplan order
            assert evaluation.subplan_total == {
                renamed_to[sid]: work
                for sid, work in want.subplan_total.items()
            }
            assert evaluation.total_work == pytest.approx(want.total_work)
            assert evaluation.query_final_work == pytest.approx(
                want.query_final_work)
        assert target.simulation_count == 0

    def test_solo_follows_the_sid_map(self, searched):
        plan, config, _, paces = searched
        source = PlanCostModel(plan, config.cost_config)
        solo = {qid: source.solo_batch(qid) for qid in plan.query_roots}

        renamed, renamed_to = self._renamed(plan)
        target = PlanCostModel(
            renamed, config.cost_config, memo_pool=source.memo_pool)
        sid_map = {new: old for old, new in renamed_to.items()}
        target.carry_solo_from(source, sid_map)
        for qid, (total, per_subplan) in solo.items():
            assert target._solo_cache[qid] == (total, {
                renamed_to[sid]: work for sid, work in per_subplan.items()
            })
        got = target.evaluate(
            {renamed_to[sid]: pace for sid, pace in paces.items()})
        assert got.total_work == pytest.approx(
            source.evaluate(paces).total_work)

    def test_unmatched_subplan_blocks_the_solo_carry(self, searched):
        plan, config, _, _ = searched
        source = PlanCostModel(plan, config.cost_config)
        for qid in plan.query_roots:
            source.solo_batch(qid)
        renamed, renamed_to = self._renamed(plan)
        target = PlanCostModel(renamed, config.cost_config)
        dropped = plan.subplans[0]
        sid_map = {
            new: old for old, new in renamed_to.items() if old != dropped.sid
        }
        target.carry_solo_from(source, sid_map)
        assert set(target._solo_cache) == (
            set(plan.query_roots) - set(dropped.query_ids())
        )
