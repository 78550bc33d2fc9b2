"""The flat simulation program against its executable spec.

``repro.cost.model.simulate_subplan`` runs a per-tree program in one loop;
``tests/cost_sim_spec.py`` is the recursive interpreter it replaced.  The
two must agree with ``==`` -- no tolerance -- on every field of every
simulation, because the optimizer's plans, paces, memo rows and decision
log are functions of those floats.
"""

import gc
import random
import weakref

import pytest

import repro.core.split as split_module
import repro.cost.memo as memo_module
from repro.core.decompose import decompose_full_plan
from repro.core.greedy import PaceSearch
from repro.core.optimizer import OptimizerConfig, optimize_ishare
from repro.core.partial import partial_cut_candidates
from repro.cost.memo import MemoPool, PlanCostModel
from repro.cost.model import (
    DEFAULT_COST_CONFIG,
    CostConfig,
    LedgerProfile,
    SimProgram,
    UniformProfile,
    simulate_subplan,
)
from repro.cost.stats import EdgeStat, NodeStats, perturb_stats
from repro.engine.calibrate import calibrate_plan
from repro.errors import CostModelError
from repro.fuzz import grammar
from repro.mqo.merge import MQOOptimizer
from repro.workloads.tpch import ALL_QUERY_NAMES, build_workload, generate_catalog

from .cost_sim_spec import simulate_subplan_spec
from .util import (
    calibrated_shared_plan,
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)


def stat_fields(stat):
    return (stat.total, stat.deletes, list(stat.per_q.items()), stat.uniform)


def profile_fields(profile):
    if isinstance(profile, LedgerProfile):
        return ("ledger", profile.granularity,
                [stat_fields(stat) for stat in profile.exec_stats])
    return (
        "collapsing", profile.granularity, profile.universe, profile.series,
        list(profile.per_q.items()), profile.scale_total,
        list(profile.scale_per_q.items()),
    )


def sim_fields(result):
    return (
        result.private_total, result.private_final, result.works,
        stat_fields(result.out_stat), profile_fields(result.out_profile),
    )


def assert_matches_spec(subplan, pace, inputs, config=None, query_subset=None,
                        program=None):
    got = simulate_subplan(
        subplan, pace, inputs, config, query_subset, program=program)
    want = simulate_subplan_spec(
        subplan, pace, inputs, config or DEFAULT_COST_CONFIG, query_subset)
    assert sim_fields(got) == sim_fields(want), (subplan, pace, query_subset)
    return got


@pytest.fixture()
def side_by_side(monkeypatch):
    """Every simulation the optimizer asks for also runs the spec.

    Wraps the binding each caller uses -- where the benchmark's
    ``cost.simulations`` hook counts -- and returns the per-caller counts.
    """
    counts = {"memo": 0, "split": 0}

    def wrap(module, name):
        original = module.simulate_subplan

        def wrapper(subplan, pace, inputs, config=None, query_subset=None,
                    **kwargs):
            counts[name] += 1
            got = original(
                subplan, pace, inputs, config, query_subset, **kwargs)
            want = simulate_subplan_spec(
                subplan, pace, inputs, config or DEFAULT_COST_CONFIG,
                query_subset)
            assert sim_fields(got) == sim_fields(want), (
                name, subplan, pace, query_subset)
            return got

        monkeypatch.setattr(module, "simulate_subplan", wrapper)

    wrap(memo_module, "memo")
    wrap(split_module, "split")
    return counts


class TestRecordedReplay:
    def test_every_simulation_of_one_optimize_ishare(self, side_by_side):
        """fig11's workload at a small scale: the pace search, full and
        partial decomposition, the split optimizer's partitions and the
        solo rows all go through the program, and all of them match."""
        catalog = generate_catalog(scale=0.05, seed=5)
        queries = build_workload(catalog, ALL_QUERY_NAMES)
        relative = {query.query_id: 0.2 for query in queries}
        result = optimize_ishare(
            catalog, queries, relative,
            OptimizerConfig(max_pace=8))
        kinds = {action.kind for action in result.diagnostics["actions"]}
        assert kinds == {"unshare", "partial"}
        assert max(result.pace_config.values()) >= 6
        assert side_by_side["memo"] > 1000
        assert side_by_side["split"] > 1000


def fuzz_plan(seed, index):
    case = grammar.generate_case(seed, index)
    catalog = grammar.build_catalog(case)
    queries = grammar.build_queries(catalog, case)
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    stream = grammar.stream_config(case)
    calibrate_plan(plan, stream)
    return plan, CostConfig(
        execution_overhead=stream.execution_overhead,
        state_factor=stream.state_factor,
    )


class TestGeneratedWorkloads:
    CASES = 200

    def test_spec_and_program_side_by_side(self):
        simulated = 0
        for index in range(self.CASES):
            plan, config = fuzz_plan(19, index)
            rng = random.Random("sim:%d" % index)
            model = PlanCostModel(plan, config)
            paces = {subplan.sid: rng.randint(1, 12)
                     for subplan in plan.subplans}
            inputs = model.evaluate(paces, collect_inputs=True).subplan_inputs
            for subplan in plan.subplans:
                qids = subplan.query_ids()
                subsets = [None, tuple(rng.sample(qids, rng.randint(1, len(qids))))]
                for query_subset in subsets:
                    assert_matches_spec(
                        subplan, rng.randint(1, 12), inputs[subplan.sid],
                        config, query_subset, model.programs[subplan.sid])
                    simulated += 1
        assert simulated >= 2 * self.CASES


@pytest.fixture(scope="module")
def toy():
    catalog = make_toy_catalog(seed=21)
    queries = [
        toy_query_total(catalog, 0, day_filter=50),
        toy_query_region(catalog, 1),
        toy_query_max(catalog, 2),
    ]
    plan = calibrated_shared_plan(catalog, queries)
    model = PlanCostModel(plan)
    paces = {subplan.sid: 3 for subplan in plan.subplans}
    inputs = model.evaluate(paces, collect_inputs=True).subplan_inputs
    return plan, model, inputs


def first_node(plan, wanted):
    for subplan in plan.subplans:
        for node in subplan.root.walk():
            if wanted(node):
                return subplan, node
    raise AssertionError("the toy plan lost the node this test needs")


class TestWhatTheRecursionHandledImplicitly:
    def test_statsless_bare_subplan_leaf_simulates(self, toy):
        """A partial cut leaves an uncalibrated, undecorated ``SubplanRef``
        leaf in the top piece; only nodes whose model reads statistics
        need them."""
        plan, _, _ = toy
        shared = max(plan.subplans, key=lambda s: s.operator_count())
        tried = 0
        for cut_plan, top_sid, bottom_sids in partial_cut_candidates(
                plan, shared.sid):
            top = cut_plan.subplan_by_id(top_sid)
            leaves = [
                node for node in top.root.source_nodes()
                if node.stats is None
            ]
            assert leaves and not any(
                leaf.filters or leaf.projections for leaf in leaves)
            model = PlanCostModel(cut_plan)
            paces = {subplan.sid: 2 for subplan in cut_plan.subplans}
            inputs = model.evaluate(paces, collect_inputs=True).subplan_inputs
            assert_matches_spec(top, 4, inputs[top_sid])
            assert bottom_sids
            tried += 1
        assert tried

    @pytest.mark.parametrize("wanted", [
        lambda node: node.kind == "join",
        lambda node: node.kind == "aggregate",
        lambda node: node.kind == "source" and node.filters,
    ], ids=["join", "aggregate", "filtered-source"])
    def test_uncalibrated_node_raises(self, toy, wanted):
        plan, _, inputs = toy
        subplan, node = first_node(plan, wanted)
        stats, node.stats = node.stats, None
        try:
            with pytest.raises(CostModelError, match="statistics"):
                simulate_subplan(subplan, 2, inputs[subplan.sid])
            with pytest.raises(CostModelError, match="statistics"):
                simulate_subplan_spec(
                    subplan, 2, inputs[subplan.sid], DEFAULT_COST_CONFIG)
        finally:
            node.stats = stats

    def test_pace_below_one_raises(self, toy):
        plan, model, inputs = toy
        subplan = plan.subplans[0]
        for pace in (0, -1):
            with pytest.raises(ValueError, match="pace must be >= 1"):
                simulate_subplan(
                    subplan, pace, inputs[subplan.sid],
                    program=model.programs[subplan.sid])

    def test_missing_input_profile_raises(self, toy):
        plan, model, _ = toy
        subplan = plan.subplans[0]
        with pytest.raises(KeyError, match="no input stats"):
            simulate_subplan(subplan, 1, {})
        with pytest.raises(KeyError, match="no input stats"):
            simulate_subplan(
                subplan, 1, {}, program=model.programs[subplan.sid])

    def test_empty_query_subset_intersection(self, toy):
        plan, model, inputs = toy
        for subplan in plan.subplans:
            result = assert_matches_spec(
                subplan, 3, inputs[subplan.sid], query_subset=(41,),
                program=model.programs[subplan.sid])
            assert result.out_stat.total == 0.0

    @pytest.mark.parametrize("config", [
        CostConfig(state_factor=0),
        CostConfig(execution_overhead=0.0, minmax_rescan_factor=2.0),
    ], ids=["no-state", "rescan-heavy"])
    def test_cost_configs(self, toy, config):
        plan, _, inputs = toy
        for subplan in plan.subplans:
            for pace in (1, 2, 5):
                assert_matches_spec(subplan, pace, inputs[subplan.sid], config)

    def test_minmax_aggregate_under_deletes(self, toy):
        plan, _, inputs = toy
        subplan, node = first_node(
            plan, lambda node: node.kind == "aggregate"
            and node.stats.has_minmax)
        assert subplan.root is node or node in list(subplan.root.walk())

        def churned(deletes):
            feeds = {}
            for key, profile in inputs[subplan.sid].items():
                total = profile.total_stat()
                feeds[key] = UniformProfile(EdgeStat(
                    total.total, deletes * total.total, total.per_q,
                    total.uniform), profile.granularity)
            return feeds

        # one batch retracts nothing, so nothing is rescanned; at pace 4
        # the inner aggregate's retractions reach the MAX above it
        free = CostConfig(minmax_rescan_factor=0.0)
        for deletes in (0.0, 0.25):
            feeds = churned(deletes)
            batch = assert_matches_spec(subplan, 1, feeds)
            assert batch.private_total == assert_matches_spec(
                subplan, 1, feeds, free).private_total
            paced = assert_matches_spec(subplan, 4, feeds)
            assert paced.private_total > assert_matches_spec(
                subplan, 4, feeds, free).private_total

    def test_recalibration_is_never_served_stale(self):
        """Specialisations read the statistics once, so they belong to a
        pool, never to the subplan: ``perturb_stats`` mutates in place
        *before* a model is built, and recalibration attaches fresh
        ``NodeStats`` -- a new tree, a new program, even over one pool."""
        catalog = make_toy_catalog(seed=22)
        queries = [toy_query_total(catalog, 0, day_filter=40),
                   toy_query_region(catalog, 1)]
        plan = calibrated_shared_plan(catalog, queries)
        paces = {subplan.sid: 2 for subplan in plan.subplans}
        first = PlanCostModel(plan)
        before = first.evaluate(paces).total_work

        perturb_stats(plan, seed=3)
        perturbed = PlanCostModel(plan)  # its own pool: nothing cached
        inputs = perturbed.evaluate(paces, collect_inputs=True)
        assert inputs.total_work != before
        for subplan in plan.subplans:
            assert_matches_spec(
                subplan, 2, inputs.subplan_inputs[subplan.sid],
                program=perturbed.programs[subplan.sid])

        for subplan in plan.subplans:  # what a recalibration does
            for node in subplan.root.walk():
                if node.stats is not None:
                    fresh = NodeStats(node.stats.kind)
                    for name in NodeStats.__slots__:
                        setattr(fresh, name, getattr(node.stats, name))
                    fresh.join_out *= 0.5
                    node.stats = fresh
        recalibrated = PlanCostModel(plan, memo_pool=perturbed.memo_pool)
        shared_pool = recalibrated.evaluate(paces).total_work
        assert shared_pool == PlanCostModel(plan).evaluate(paces).total_work
        assert shared_pool != inputs.total_work


class TestProgramLifecycle:
    def test_discarded_candidates_leave_nothing_behind(self, monkeypatch):
        """Programs are content, owned by the pool: once ``retain`` ran, no
        subplan of a rejected candidate plan is reachable, and the pool
        holds exactly one program per operator tree of the plan in force."""
        catalog = generate_catalog(scale=0.05, seed=5)
        queries = build_workload(
            catalog, ("Q1", "Q3", "Q4", "Q6", "Q12", "Q14"))
        config = OptimizerConfig(max_pace=4)
        plan = MQOOptimizer(catalog).build_shared_plan(queries)
        calibrate_plan(plan, config.stream_config)
        model = PlanCostModel(plan, config.cost_config)
        constraints = model.absolute_constraints(
            {query.query_id: 0.3 for query in queries})
        found = PaceSearch(model, constraints, config.max_pace).find()

        candidates = []
        original = PlanCostModel.sibling

        def recording(self, derived):
            candidates.extend(weakref.ref(s) for s in derived.subplans)
            return original(self, derived)

        monkeypatch.setattr(PlanCostModel, "sibling", recording)
        outcome = decompose_full_plan(
            plan, found.pace_config, constraints, config.max_pace,
            cost_config=config.cost_config, cost_model=model)
        assert outcome.actions, "the workload no longer decomposes"
        gc.collect()
        kept = {id(subplan) for subplan in outcome.plan.subplans}
        alive = [ref() for ref in candidates if ref() is not None]
        assert len(alive) < len(candidates)
        assert {id(subplan) for subplan in alive} <= kept

        pool = outcome.cost_model.memo_pool
        live_trees = {
            tree
            for _, cone in outcome.cost_model.cone_signatures()
            for _, tree, _ in cone
        }
        assert set(pool.programs) == live_trees
        assert all(
            isinstance(program, SimProgram) and not program.specs
            for program in pool.programs.values()
        )
        assert {key[0] for key in pool.solo} <= pool.signatures()

    def test_clones_share_one_program(self, toy):
        plan, model, _ = toy
        clone = PlanCostModel(plan.clone(), memo_pool=model.memo_pool)
        for subplan in plan.subplans:
            assert clone.programs[subplan.sid][0] is model.programs[subplan.sid][0]
        lonely = PlanCostModel(plan.clone(), memo_pool=MemoPool())
        assert lonely.programs[plan.subplans[0].sid][0] \
            is not model.programs[plan.subplans[0].sid][0]


class TestUseMemoOffIsInherited:
    def test_no_pool_row_is_read_or_written(self):
        """``sibling`` used to build memoizing models whatever its parent
        was: the decomposition of a ``use_memo=False`` run wrote rows."""
        catalog = generate_catalog(scale=0.05, seed=5)
        names = ("Q1", "Q3", "Q4", "Q6", "Q12", "Q14")
        relative = {qid: 0.3 for qid in range(len(names))}
        results = {}
        for use_memo in (True, False):
            results[use_memo] = optimize_ishare(
                catalog, build_workload(catalog, names), relative,
                OptimizerConfig(max_pace=4, use_memo=use_memo))
        with_memo, without = results[True], results[False]
        assert with_memo.diagnostics["actions"]
        pool = without.cost_model.memo_pool
        assert pool.signatures() == set()
        assert pool.hits == 0
        assert not pool.solo and not pool._partition_costs
        assert without.cost_model.use_memo is False
        assert without.plan.describe() == with_memo.plan.describe()
        assert without.pace_config == with_memo.pace_config
        assert without.evaluation.total_work == with_memo.evaluation.total_work
