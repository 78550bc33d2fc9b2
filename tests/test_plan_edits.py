"""Decomposition candidates are edits of the plan in force, not clones.

``apply_split`` and ``partial_cut_candidates`` derive a candidate plan
that shares every subplan the surgery left alone with the input plan, by
identity, and never change the input plan; ``PlanCostModel.sibling``
takes the parent model's index for every shared subplan and cone.
"""

import pytest

from repro.core.decompose import decompose_full_plan
from repro.core.greedy import PaceSearch
from repro.core.optimizer import OptimizerConfig, optimize_ishare
from repro.core.partial import partial_cut_candidates
from repro.core.regenerate import apply_split
from repro.cost.memo import OptimizationTimeout, PlanCostModel
from repro.engine.calibrate import calibrate_plan
from repro.mqo.merge import MQOOptimizer
from repro.mqo.nodes import SubplanRef
from repro.workloads import random_constraints
from repro.workloads.tpch import ALL_QUERY_NAMES, build_workload, generate_catalog


@pytest.fixture(scope="module")
def searched():
    """The 22-query shared plan at a small scale, after the greedy search."""
    catalog = generate_catalog(scale=0.05, seed=5)
    queries = build_workload(catalog, ALL_QUERY_NAMES)
    relative = random_constraints([q.query_id for q in queries], seed=5)
    config = OptimizerConfig(max_pace=4)
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    calibrate_plan(plan, config.stream_config)
    model = PlanCostModel(plan, config.cost_config)
    constraints = model.absolute_constraints(relative)
    found = PaceSearch(model, constraints, config.max_pace).find()
    return plan, config, constraints, found.pace_config


def fingerprint(plan):
    """Everything a surgery could change in place: per subplan its
    identity, sid, mask and root, and per operator its identity, ref,
    children, decorations, mask and statistics object."""
    subplans = []
    for subplan in plan.subplans:
        nodes = []
        for node in subplan.root.walk():
            ref = node.ref
            nodes.append((
                id(node), node.kind, id(ref),
                id(ref.subplan) if isinstance(ref, SubplanRef) else None,
                tuple(id(child) for child in node.children),
                id(node.filters), tuple(node.filters.items()),
                id(node.projections), tuple(node.projections.items()),
                node.query_mask, id(node.stats),
            ))
        subplans.append((
            id(subplan), subplan.sid, subplan.query_mask, subplan.label,
            id(subplan.root), tuple(nodes),
        ))
    roots = tuple((qid, id(root)) for qid, root in plan.query_roots.items())
    return tuple(subplans), roots


def upward_closure(plan, sid):
    closure = {sid}
    frontier = [plan.subplan_by_id(sid)]
    while frontier:
        for parent in plan.parents_of(frontier.pop()):
            if parent.sid not in closure:
                closure.add(parent.sid)
                frontier.append(parent)
    return closure


def candidates(plan, paces):
    """``(target sid, candidate plan, initial paces)`` of every split
    (first query against the rest) and every partial cut."""
    for shared in plan.shared_subplans():
        qids = shared.query_ids()
        new_plan, initial = apply_split(
            plan, paces, shared.sid, [qids[:1], qids[1:]])
        yield shared.sid, new_plan, initial
        for cut_plan, top_sid, bottom_sids in partial_cut_candidates(
                plan, shared.sid):
            cut_paces = dict(paces)
            cut_paces.update((sid, paces[top_sid]) for sid in bottom_sids)
            yield shared.sid, cut_plan, cut_paces


class TestSurgeryOnlyEdits:
    def test_the_input_plan_is_untouched(self, searched):
        plan, _, _, paces = searched
        before = fingerprint(plan)
        count = 0
        for _ in candidates(plan, paces):
            count += 1
        assert count > 20
        assert fingerprint(plan) == before

    def test_untouched_under_a_timeout_mid_decomposition(
            self, searched, monkeypatch):
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
        built = []

        def sibling_then_expire(self, derived):
            built.append(fingerprint(derived))
            if len(built) == 5:
                Clock.now = 11.0
            return original(self, derived)

        monkeypatch.setattr(PlanCostModel, "sibling", sibling_then_expire)
        before = fingerprint(plan)
        with pytest.raises(OptimizationTimeout):
            decompose_full_plan(
                plan, paces, constraints, config.max_pace,
                cost_config=config.cost_config, cost_model=model,
            )
        assert len(built) == 5
        assert fingerprint(plan) == before

    def test_candidates_share_what_the_surgery_left_alone(self, searched):
        plan, _, _, paces = searched
        by_sid = {subplan.sid: subplan for subplan in plan.subplans}
        for target_sid, new_plan, _ in candidates(plan, paces):
            closure = upward_closure(plan, target_sid)
            for subplan in new_plan.subplans:
                old = by_sid.get(subplan.sid)
                if subplan.sid in closure or old is None:
                    assert subplan is not old  # rewritten or new
                else:
                    assert subplan is old
            # and the surgery kept every subplan outside the closure
            kept = {id(s) for s in new_plan.subplans}
            assert all(id(by_sid[sid]) in kept
                       for sid in by_sid if sid not in closure)

    def test_cut_bottoms_are_the_targets_own_operators(self, searched):
        plan, _, _, _ = searched
        for shared in plan.shared_subplans():
            target_nodes = {id(node): node for node in shared.root.walk()}
            for cut_plan, top_sid, bottom_sids in partial_cut_candidates(
                    plan, shared.sid):
                for sid in bottom_sids:
                    assert id(cut_plan.subplan_by_id(sid).root) in target_nodes
                top = cut_plan.subplan_by_id(top_sid)
                assert top is not shared
                for node in top.root.walk():
                    if isinstance(node.ref, SubplanRef) \
                            and node.ref.subplan.sid in bottom_sids:
                        continue  # the leaf reading a bottom is new
                    assert any(node.stats is other.stats
                               for other in target_nodes.values())

    def test_split_pieces_carry_the_targets_statistics_objects(self, searched):
        plan, _, _, paces = searched
        old_sids = {subplan.sid for subplan in plan.subplans}
        compared = 0
        for shared in plan.shared_subplans():
            qids = shared.query_ids()
            new_plan, _ = apply_split(
                plan, paces, shared.sid, [qids[:1], qids[1:]])
            want = [node.stats for node in shared.root.walk()]
            for piece in new_plan.subplans:
                # a piece is new and labelled after the subplan it splits
                if (piece.sid in old_sids
                        or not piece.label.startswith(shared.label + "/")):
                    continue
                got = [node.stats for node in piece.root.walk()]
                if len(got) == len(want):
                    compared += 1
                    assert all(a is b for a, b in zip(got, want))
                else:  # a merge folded the piece into its one consumer
                    assert all(any(a is b for b in got) for a in want)
        assert compared


def index_of(model):
    return {
        "signatures": model._signatures,
        "cones": model._cones,
        "tables": {sid: id(table) for sid, table in model._tables.items()},
        "programs": {sid: (id(program), keys)
                     for sid, (program, keys) in model.programs.items()},
        "sources": model._sources,
        "query_ids": model.query_ids,
        "upward": model._upward,
        "query_sids": model._query_sids,
        "children": model.children,
        "parents": model.parents,
        "steps": [(sid, id(subplan), cone)
                  for sid, subplan, cone, _, _ in model._steps],
    }


class TestSiblingIndex:
    def test_every_candidate_of_the_22_query_instance(self, monkeypatch):
        """Each sibling built while optimizing the 22-query CI instance
        holds the index a model built from scratch over the same plan and
        pool would, and the same solo estimates."""
        original = PlanCostModel.sibling
        checked = []

        def checking(self, plan):
            model = original(self, plan)
            scratch = PlanCostModel(plan, self.config, memo_pool=self.memo_pool)
            assert index_of(model) == index_of(scratch)
            for qid, entry in model._solo_cache.items():
                assert scratch.solo_batch(qid) == entry
            checked.append(len(model._solo_cache))
            return model

        monkeypatch.setattr(PlanCostModel, "sibling", checking)
        catalog = generate_catalog(scale=0.05, seed=5)
        queries = build_workload(catalog, ALL_QUERY_NAMES)
        relative = random_constraints([q.query_id for q in queries], seed=5)
        result = optimize_ishare(
            catalog, queries, relative, OptimizerConfig(max_pace=8))
        assert len(result.diagnostics["actions"]) == 6
        assert len(checked) == 67
        assert any(checked)  # some solo estimates were carried

    def test_a_pruned_pool_walks_every_tree_again(self, searched):
        plan, config, _, paces = searched
        model = PlanCostModel(plan, config.cost_config)
        model.evaluate(paces)
        shared = plan.shared_subplans()[0]
        qids = shared.query_ids()
        new_plan, _ = apply_split(plan, paces, shared.sid, [qids[:1], qids[1:]])
        model.memo_pool.retain(())  # drops every table and program
        sibling = model.sibling(new_plan)
        scratch = PlanCostModel(new_plan, config.cost_config,
                                memo_pool=model.memo_pool)
        assert index_of(sibling) == index_of(scratch)
        dropped = {id(table) for table in model._tables.values()}
        assert not dropped & {id(table) for table in sibling._tables.values()}
