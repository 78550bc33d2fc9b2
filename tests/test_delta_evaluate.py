"""A pace move costed as a delta of the configuration it moves from.

``PlanCostModel.evaluate(config, base=evaluation)`` re-reads only the
subplans whose cone holds a moved pace -- the moved subplans and their
ancestors -- and takes every other row from ``base``.  These tests hold
the delta path to the full evaluation *bit for bit* (every float, every
key order, the identity of every output profile) and counter for counter
over seeded pace walks, and pin what may serve as a base.
"""

import random
import struct

import pytest

from repro.core.regenerate import apply_split
from repro.cost.memo import MemoPool, PlanCostModel
from repro.engine.calibrate import calibrate_plan
from repro.engine.stream import StreamConfig
from repro.errors import CostModelError
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .util import shared_plan_for

MAX_PACE = 6


@pytest.fixture(scope="module")
def fig11_plan():
    """The 22-query shared plan of the fig11 workload, calibrated."""
    catalog = generate_catalog(scale=0.05, seed=5)
    add_lineitem_updates(catalog, fraction=0.05, seed=11)
    plan = shared_plan_for(catalog, build_workload(catalog, ALL_QUERY_NAMES))
    calibrate_plan(plan, StreamConfig())
    return plan


@pytest.fixture(scope="module")
def decomposed_plan(fig11_plan):
    """The fig11 plan with its widest shared subplan split first-vs-rest."""
    shared = max(fig11_plan.shared_subplans(), key=lambda s: len(s.query_ids()))
    qids = shared.query_ids()
    paces = {subplan.sid: 1 for subplan in fig11_plan.subplans}
    plan, _ = apply_split(fig11_plan, paces, shared.sid, [qids[:1], qids[1:]])
    return plan


def bits(value):
    return struct.pack("<d", value)


def differences(got, want, collect_inputs=False):
    """What tells two evaluations apart, bitwise; empty when identical."""
    found = []
    if bits(got.total_work) != bits(want.total_work):
        found.append("total_work")
    for name in ("query_final_work", "subplan_total", "subplan_final"):
        mine, theirs = getattr(got, name), getattr(want, name)
        if list(mine) != list(theirs):
            found.append(name + " key order")
        elif [bits(v) for v in mine.values()] != [
                bits(v) for v in theirs.values()]:
            found.append(name)
    if list(got.subplan_outputs) != list(want.subplan_outputs) or any(
            got.subplan_outputs[sid] is not profile
            for sid, profile in want.subplan_outputs.items()):
        found.append("subplan_outputs")
    if collect_inputs and (
            [(sid, list(inputs)) for sid, inputs in got.subplan_inputs.items()]
            != [(sid, list(inputs))
                for sid, inputs in want.subplan_inputs.items()]
            or any(got.subplan_inputs[sid][key] is not profile
                   for sid, inputs in want.subplan_inputs.items()
                   for key, profile in inputs.items())):
        found.append("subplan_inputs")
    if got.pace_config != want.pace_config:
        found.append("pace_config")
    return found


def pace_walk(model, seed, steps=60):
    """Seeded configurations: +-1 moves, group moves, multi-sid diffs and
    repeats, each with the index of an earlier configuration to use as the
    delta base (mostly the one just before, as the searches do)."""
    rng = random.Random(seed)
    sids = sorted(model.parents)
    config = {sid: 1 for sid in sids}
    walk = [(dict(config), None)]
    for index in range(1, steps):
        move = rng.choice(("step", "step", "group", "multi", "repeat"))
        if move == "step":
            sid = rng.choice(sids)
            config[sid] = min(MAX_PACE, max(1, config[sid] + rng.choice((-1, 1))))
        elif move == "group":
            delta = rng.choice((-1, 1))
            for sid in rng.sample(sids, min(len(sids), rng.randint(2, 4))):
                config[sid] = min(MAX_PACE, max(1, config[sid] + delta))
        elif move == "multi":
            for sid in rng.sample(sids, min(len(sids), rng.randint(2, 6))):
                config[sid] = rng.randint(1, MAX_PACE)
        base = index - 1 if rng.random() < 0.8 else rng.randrange(index)
        walk.append((dict(config), base))
    return walk


def walk_mismatches(model, seed):
    """Run a walk on ``model`` as deltas, re-evaluate each configuration
    in full on the same model, and list every step where the two differ."""
    rng = random.Random(seed + 1)
    evaluations = []
    mismatches = []
    for index, (config, base) in enumerate(pace_walk(model, seed)):
        collect = rng.random() < 0.3
        got = model.evaluate(
            config, collect_inputs=collect,
            base=evaluations[base] if base is not None else None)
        want = model.evaluate(config, collect_inputs=collect)
        found = differences(got, want, collect)
        if found:
            mismatches.append((index, found))
        evaluations.append(got)
    return mismatches


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fig11_plan(self, fig11_plan, seed):
        assert walk_mismatches(PlanCostModel(fig11_plan), seed) == []

    @pytest.mark.parametrize("seed", [4, 5])
    def test_decomposed_plan(self, fig11_plan, decomposed_plan, seed):
        parent = PlanCostModel(fig11_plan)
        parent.evaluate({subplan.sid: 1 for subplan in fig11_plan.subplans})
        model = parent.sibling(decomposed_plan)
        assert walk_mismatches(model, seed) == []

    def test_fails_when_the_dirty_set_omits_ancestors(self, fig11_plan):
        # negative control: a delta that re-reads only the moved subplans
        # serves its ancestors stale rows, and the walk must see it
        model = PlanCostModel(fig11_plan)
        model._upward = {sid: frozenset([sid]) for sid in model._upward}
        assert walk_mismatches(model, 1)

    def test_an_unmoved_configuration_only_collects_inputs(self, fig11_plan):
        model = PlanCostModel(fig11_plan)
        paces = {subplan.sid: 3 for subplan in fig11_plan.subplans}
        base = model.evaluate(paces)
        count = model.simulation_count
        again = model.evaluate(paces, collect_inputs=True, base=base)
        assert model.simulation_count == count
        assert differences(again, base) == []
        assert differences(
            again, model.evaluate(paces, collect_inputs=True), True) == []


def counted_walk(plan, seed, delta):
    """Walk a fresh model over a pool warmed by a parent model; returns
    the model's and its pool's counters."""
    pool = MemoPool()
    PlanCostModel(plan, memo_pool=pool).evaluate(
        {subplan.sid: 2 for subplan in plan.subplans})
    model = PlanCostModel(plan, memo_pool=pool)
    evaluations = []
    for config, base in pace_walk(model, seed):
        evaluations.append(model.evaluate(
            config,
            base=evaluations[base] if delta and base is not None else None))
    return {
        "simulation_count": model.simulation_count,
        "evaluation_count": model.evaluation_count,
        "pool.simulations": pool.simulations,
        "pool.hits": pool.hits,
    }


class TestCounters:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equal_to_the_full_path(self, fig11_plan, seed):
        delta = counted_walk(fig11_plan, seed, delta=True)
        full = counted_walk(fig11_plan, seed, delta=False)
        assert delta == full
        assert delta["pool.hits"] > 0
        assert delta["simulation_count"] > 0

    def test_memo_less_model_simulates_every_subplan(self, fig11_plan):
        pool = MemoPool()
        model = PlanCostModel(fig11_plan, use_memo=False, memo_pool=pool)
        full = PlanCostModel(fig11_plan, use_memo=False)
        evaluations = []
        for count, (config, base) in enumerate(pace_walk(model, 3, 12), 1):
            got = model.evaluate(
                config, base=evaluations[base] if base is not None else None)
            assert model.simulation_count == count * len(fig11_plan.subplans)
            assert differences(got, full.evaluate(config)) in (
                [], ["subplan_outputs"])  # simulated afresh: new profiles
            evaluations.append(got)
        assert pool.signatures() == set()
        assert pool.hits == 0


class TestBase:
    def test_base_from_a_sibling_model_raises(self, fig11_plan):
        model = PlanCostModel(fig11_plan)
        sibling = model.sibling(fig11_plan)
        paces = {subplan.sid: 1 for subplan in fig11_plan.subplans}
        with pytest.raises(CostModelError):
            model.evaluate(paces, base=sibling.evaluate(paces))

    def test_base_from_a_model_over_the_same_pool_raises(self, fig11_plan):
        # same plan, same pool, so the same rows: still another model's
        model = PlanCostModel(fig11_plan)
        other = PlanCostModel(fig11_plan, memo_pool=model.memo_pool)
        paces = {subplan.sid: 2 for subplan in fig11_plan.subplans}
        with pytest.raises(CostModelError):
            model.evaluate(paces, base=other.evaluate(paces))
        own = model.evaluate(paces)
        assert differences(model.evaluate(paces, base=own), own) == []

    def test_memo_less_model_checks_its_base_too(self, fig11_plan):
        model = PlanCostModel(fig11_plan, use_memo=False)
        paces = {subplan.sid: 1 for subplan in fig11_plan.subplans}
        with pytest.raises(CostModelError):
            model.evaluate(paces, base=PlanCostModel(fig11_plan).evaluate(paces))
