"""Tests for the long-running multi-tenant service mode."""

import json
import re
from fractions import Fraction

import pytest

from repro import obs
from repro.core.incremental import merge_with_carry
from repro.core.optimizer import OptimizerConfig
from repro.core.pace import uniform_configuration
from repro.cost import memo
from repro.cost.memo import OptimizationTimeout
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.errors import OptimizationError, ServiceError
from repro.fuzz.oracles import stats_keys_outside_mask
from repro.harness.service import (
    build_shard_service,
    run_service_schedule,
    shard_of,
)
from repro.logical.ops import Query
from repro.mqo.merge import build_unshared_plan
from repro.obs import OBS
from repro.service.core import QueryService, split_misses
from repro.service.schedule import (
    DEMO_SCHEDULE,
    replay_schedule,
    validate_schedule,
)
from repro.engine.compare import assert_results_close
from repro.workloads.tpch import build_query, generate_catalog

from .util import (
    batch_reference,
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)


def toy_service(**kwargs):
    """A service over the deterministic toy star schema."""
    return QueryService(
        lambda window: make_toy_catalog(seed=41 + window),
        OptimizerConfig(max_pace=6),
        **kwargs,
    )


class TestRegistrationValidation:
    def test_rejects_bad_query_id(self):
        service = toy_service()
        query = toy_query_total(service.basis_catalog, 0)
        query.query_id = "zero"
        with pytest.raises(ServiceError, match="query_id"):
            service.register(query, "a", 0.5)

    def test_rejects_empty_tenant(self):
        service = toy_service()
        query = toy_query_total(service.basis_catalog, 0)
        with pytest.raises(ServiceError, match="tenant"):
            service.register(query, "", 0.5)

    def test_rejects_non_positive_goal(self):
        service = toy_service()
        query = toy_query_total(service.basis_catalog, 0)
        for goal in (0, -1.0, True, "fast"):
            with pytest.raises(ServiceError, match="goal"):
                service.register(query, "a", goal)

    def test_rejects_duplicate_query_id(self):
        service = toy_service()
        catalog = service.basis_catalog
        service.register(toy_query_total(catalog, 7), "a", 5.0)
        with pytest.raises(ServiceError, match="already registered"):
            service.register(toy_query_region(catalog, 7), "b", 5.0)

    def test_deregister_unknown_id_is_descriptive(self):
        service = toy_service()
        service.register(toy_query_total(service.basis_catalog, 3), "a", 5.0)
        with pytest.raises(OptimizationError, match="not registered") as err:
            service.deregister(99)
        assert "3" in str(err.value)  # the live ids are listed
        service.deregister(3)
        with pytest.raises(OptimizationError, match="already deregistered"):
            service.deregister(3)


class TestAdmission:
    def test_unsatisfiable_goal_is_rejected_not_raised(self):
        service = toy_service()
        query = toy_query_total(service.basis_catalog, 0)
        decision = service.register(query, "a", 1e-12)
        assert decision.status == "rejected"
        assert decision.reason.startswith("goal_unsatisfiable")
        assert service.registrations == {}
        assert service.plan is None

    def test_unsatisfiable_rejections_are_measured_alone(self):
        """A goal the shared plan cannot meet at ``P_max`` is run alone:
        ``meets_alone`` agrees with an independent unshared run."""
        probe = toy_service()
        catalog = probe.basis_catalog
        probe.register(toy_query_total(catalog, 0), "a", 50.0)
        probe.register(toy_query_region(catalog, 1), "b", 50.0)
        slot = probe.slots[1]
        solo = probe.model.solo_batch(slot)[0]
        shared = probe.model.evaluate(
            uniform_configuration(probe.plan, 6)).query_final_work[slot]
        plan = build_unshared_plan(catalog, [toy_query_region(catalog, 1)])
        alone = PlanExecutor(plan, StreamConfig(), catalog=catalog).run(
            uniform_configuration(plan, 6), collect_results=False,
        ).query_final_work[1]
        assert alone < shared  # sharing raises its final work at P_max
        # the alone estimate only reads: no solo row, no memo row
        model = probe.model
        before = (dict(model.memo_pool.solo), dict(model._solo_cache),
                  model.simulation_count, model.memo_pool.simulations)
        assert model.solo_final(slot, 6) > 0
        assert (dict(model.memo_pool.solo), dict(model._solo_cache),
                model.simulation_count, model.memo_pool.simulations) == before

        verdicts = []
        for bound in ((alone + shared) / 2, alone / 2):
            service = toy_service()
            first = service.register(
                toy_query_total(service.basis_catalog, 0), "a", 50.0)
            assert first.meets_alone is first.alone_estimate is None
            decision = service.register(
                toy_query_region(service.basis_catalog, 1), "b", bound / solo)
            assert decision.status == "rejected"
            assert decision.reason.startswith("goal_unsatisfiable")
            assert decision.meets_alone is (alone <= bound)
            assert decision.to_dict()["meets_alone"] is decision.meets_alone
            # the model's estimate of the same alone run, read-only
            assert decision.alone_estimate == probe.model.solo_final(slot, 6)
            assert decision.to_dict()["alone_estimate"] == (
                decision.alone_estimate)
            verdicts.append(decision.meets_alone)
        assert verdicts == [True, False]

    def test_tenant_budget_rejection(self):
        probe = toy_service()
        probe.register(toy_query_total(probe.basis_catalog, 0), "a", 50.0)
        solo = probe.model.solo_batch(probe.slots[0])[0]

        service = toy_service(tenant_budgets={"a": solo * 1.5})
        catalog = service.basis_catalog
        assert service.register(
            toy_query_total(catalog, 0), "a", 50.0
        ).status == "admitted"
        second = service.register(toy_query_region(catalog, 1), "a", 50.0)
        assert second.status == "rejected"
        assert second.reason.startswith("tenant_budget")
        assert second.meets_alone is None
        # another tenant is not constrained by a's budget
        assert service.register(
            toy_query_region(catalog, 2), "b", 50.0
        ).status == "admitted"

    def test_invalid_admission_mode(self):
        with pytest.raises(ServiceError, match="must be 'reject'"):
            toy_service(admission="drop")

    def test_queue_admission_mode_is_refused(self):
        # rejection is the one policy: the service and a schedule both
        # refuse the queued mode instead of holding a query back
        with pytest.raises(ServiceError, match="must be 'reject'"):
            toy_service(admission="queue")
        with pytest.raises(ServiceError, match="must be 'reject'"):
            run_service_schedule(dict(SMALL_SCHEDULE, admission="queue"))


class TestServiceExecution:
    def test_results_match_unshared_reference_with_sparse_ids(self):
        # external ids 10/11/12 run under slots 0/1/2
        service = toy_service()
        catalog = service.basis_catalog
        dense = [
            toy_query_total(catalog, 0),
            toy_query_region(catalog, 1),
            toy_query_max(catalog, 2),
        ]
        reference = batch_reference(catalog, dense)
        for ext, query in zip((10, 11, 12), dense):
            decision = service.register(
                Query(ext, query.name, query.root), "t", 50.0
            )
            assert decision.status == "admitted"
        outcome = service.run_window(collect_results=True)
        assert outcome.reoptimized
        for ext, query in zip((10, 11, 12), dense):
            assert_results_close(
                outcome.run.query_results[service.slots[ext]],
                reference[query.query_id],
                context="service query %d" % ext,
            )

    def test_survivors_of_a_deregistration_are_costed_like_a_cold_model(self):
        service = toy_service()
        catalog = service.basis_catalog
        dense = [
            toy_query_total(catalog, 0),
            toy_query_region(catalog, 1),
            toy_query_max(catalog, 2),
        ]
        for query in dense:
            service.register(query, "t", 50.0)
        service.run_window()

        service.deregister(0)  # q1 and q2 stay where they are
        assert service.slots == {1: 1, 2: 2}
        merge = service._last_merge
        # toy_query_max shares nothing with the departed query: all of its
        # subplans survive the re-merge with their calibrated state
        assert merge.matched, "a neighbour leaving must not defeat matching"

        # what was carried over is what a fresh calibration would measure:
        # the live model and a cold one over the survivors agree on every
        # estimate
        cold = merge_with_carry(
            catalog,
            [Query(service.slots[q.query_id], q.name, q.root)
             for q in dense[1:]],
            service.config,
        )
        for pace in (1, 4):
            live = service.model.evaluate(
                uniform_configuration(service.plan, pace))
            want = cold.model.evaluate(uniform_configuration(cold.plan, pace))
            assert live.total_work == want.total_work
            assert live.query_final_work == want.query_final_work

        # the second trigger executes against window 1's data
        window1 = make_toy_catalog(seed=42)
        reference = batch_reference(window1, dense)
        outcome = service.run_window(collect_results=True)
        for ext in (1, 2):
            assert_results_close(
                outcome.run.query_results[service.slots[ext]],
                reference[ext],
                context="surviving query %d" % ext,
            )

    def test_freed_slot_taken_by_another_query_inherits_nothing(self):
        service = toy_service()
        catalog = service.basis_catalog
        service.register(toy_query_total(catalog, 0), "t", 50.0)
        service.register(toy_query_region(catalog, 1), "t", 50.0)
        service.run_window()
        service.deregister(0)
        assert service.slots == {1: 1}

        newcomer = toy_query_max(catalog, 7)
        assert service.register(newcomer, "t", 50.0).status == "admitted"
        assert service.slots == {1: 1, 7: 0}  # the lowest free slot
        merge = service._last_merge
        mine = [s.sid for s in service.plan.subplans if s.query_mask & 1]
        assert mine and set(mine) <= set(merge.fresh_sids)
        assert not stats_keys_outside_mask(service.plan)

        cold = merge_with_carry(
            catalog,
            [Query(1, "region", toy_query_region(catalog, 1).root),
             Query(0, newcomer.name, newcomer.root)],
            service.config,
        )
        assert service.model.solo_batch(0)[0] == pytest.approx(
            cold.model.solo_batch(0)[0])
        for pace in (1, 4):
            live = service.model.evaluate(
                uniform_configuration(service.plan, pace))
            want = cold.model.evaluate(uniform_configuration(cold.plan, pace))
            assert live.total_work == want.total_work
            assert live.query_final_work == want.query_final_work

    def test_slots_are_bounded_by_live_count_not_service_age(self):
        # the columnar backend needs every slot below 62: that must limit
        # how many queries are live at once, not how many ever were
        service = toy_service()
        catalog = service.basis_catalog
        makers = (toy_query_total, toy_query_region, toy_query_max)
        live = []
        for ext in range(100):
            decision = service.register(
                makers[ext % 3](catalog, 1000 + ext), "t", 50.0)
            assert decision.status == "admitted"
            live.append(1000 + ext)
            if len(live) == 5:
                # drop the oldest, then one from the middle
                service.deregister(live.pop(0 if ext % 2 else 2))
            assert len(set(service.slots.values())) == len(live)
            assert max(service.slots.values()) < 5
        outcome = service.run_window(collect_results=True)
        assert set(outcome.queries) == set(live)

    def test_rejected_candidates_do_not_outlive_the_next_adopt(self):
        service = toy_service()
        catalog = service.basis_catalog
        service.register(toy_query_total(catalog, 0), "t", 50.0)
        service.run_window()
        pool = service.model.memo_pool
        assert pool.signatures() == set(service.model.cone_signatures())

        rejected = service.register(toy_query_max(catalog, 1), "t", 1e-12)
        assert rejected.status == "rejected"
        # the candidate was costed over the live pool ...
        assert pool.signatures() > set(service.model.cone_signatures())
        # ... and the next plan change sweeps its cones out
        service.register(toy_query_region(catalog, 2), "t", 50.0)
        assert service.model.memo_pool is pool
        assert pool.signatures() == set(service.model.cone_signatures())
        service.deregister(0)
        assert pool.signatures() == set(service.model.cone_signatures())

    def test_statistics_stay_keyed_by_the_queries_a_node_serves(self):
        # TPC-H churn: every register/deregister re-merges the plan, and
        # whatever statistics survive must still name their own queries
        service = QueryService(
            lambda window: generate_catalog(scale=0.04, seed=100 + window),
            OptimizerConfig(max_pace=4),
        )

        def churn(op, ext, name=None):
            if op == "register":
                query = build_query(service.basis_catalog, name, ext)
                assert service.register(query, "t", 5.0).status == "admitted"
            else:
                service.deregister(ext)
            assert stats_keys_outside_mask(service.plan) == []

        for ext, name in enumerate(("Q1", "Q6", "Q12", "Q3", "Q18")):
            churn("register", ext, name)
        service.run_window()
        churn("deregister", 0)
        churn("register", 5, "Q19")
        service.run_window()
        churn("deregister", 2)
        churn("deregister", 3)
        churn("register", 6, "Q14")
        churn("register", 7, "Q10")
        outcome = service.run_window()
        assert set(outcome.queries) == {1, 4, 5, 6, 7}
        assert sorted(service.slots.values()) == [0, 1, 2, 3, 4]

    def test_idle_windows_advance_the_clock(self):
        service = toy_service()
        idle = service.run_window()
        assert idle.total_work == 0.0 and idle.queries == {}
        assert service.window == 1
        service.register(
            toy_query_total(service.basis_catalog, 0), "a", 50.0
        )
        assert service.registrations[0].registered_window == 1

    def test_reoptimize_scope_is_incremental_on_churn(self):
        obs.enable(process_name="test-service")
        try:
            service = toy_service()
            catalog = service.basis_catalog
            service.register(toy_query_total(catalog, 0), "a", 50.0)
            service.run_window()
            service.register(toy_query_max(catalog, 1), "a", 50.0)
            service.run_window()
            records = OBS.declog.of_event("service_reoptimize")
            assert len(records) == 2
            assert records[1]["scope"] == "incremental"
            assert records[1]["reused"], "prior subplans must be reused"
            admissions = OBS.declog.of_event("service_admission")
            assert [r["status"] for r in admissions] == ["admitted"] * 2
        finally:
            obs.disable()


class TestScheduleValidation:
    def test_demo_schedule_is_valid(self):
        ordered = validate_schedule(DEMO_SCHEDULE)
        assert [e["at"] for _, e in ordered] == sorted(
            e["at"] for e in DEMO_SCHEDULE["events"]
        )

    def test_rejects_unknown_op(self):
        with pytest.raises(ServiceError, match="unknown op"):
            validate_schedule(
                {"windows": 1, "events": [{"op": "pause", "at": 0, "query_id": 0}]}
            )

    def test_rejects_bad_windows(self):
        for windows in (0, -1, None, 1.5, True):
            with pytest.raises(ServiceError, match="windows"):
                validate_schedule({"windows": windows, "events": []})

    def test_rejects_deregister_of_never_registered(self):
        with pytest.raises(ServiceError, match="no earlier event registered"):
            validate_schedule(
                {
                    "windows": 1,
                    "events": [{"op": "deregister", "at": 5.0, "query_id": 3}],
                }
            )

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ServiceError, match="'at'"):
            validate_schedule(
                {
                    "windows": 1,
                    "events": [
                        {"op": "register", "at": -1, "query_id": 0,
                         "tenant": "a", "query": "Q1", "goal": 1.0}
                    ],
                }
            )


SMALL_SCHEDULE = {
    "workload": {"scale": 0.04, "seed": 100},
    "window_seconds": 60.0,
    "windows": 2,
    "shards": 2,
    "max_pace": 4,
    "admission": "reject",
    "events": [
        {"at": 0.0, "op": "register", "query_id": 0, "tenant": "alpha",
         "query": "Q1", "goal": 5.0},
        {"at": 5.0, "op": "register", "query_id": 1, "tenant": "beta",
         "query": "Q6", "goal": 5.0},
        {"at": 70.0, "op": "register", "query_id": 2, "tenant": "alpha",
         "query": "Q12", "goal": 5.0},
    ],
}


class TestSlackAndAttribution:
    def _run_outcome(self):
        service = toy_service()
        catalog = service.basis_catalog
        service.register(toy_query_total(catalog, 0), "alpha", 50.0)
        service.register(toy_query_region(catalog, 1), "beta", 50.0)
        return service, service.run_window()

    def test_outcome_carries_slack_entries(self):
        service, outcome = self._run_outcome()
        assert set(outcome.slack) == {0, 1}
        for entry in outcome.slack.values():
            assert entry["goal_work"] > 0
            assert entry["headroom_work"] == pytest.approx(
                entry["goal_work"] - entry["final_work"]
            )
            # admission already evaluated the eagerest plan; the deferral
            # breakdown must therefore always be present in service mode
            assert "slack_available_work" in entry
            assert entry["deferred_work"] >= 0.0
            assert "goal_seconds" in entry

    def test_attribution_is_conservation_exact(self):
        service, outcome = self._run_outcome()
        assert outcome.conserved is True
        assert set(outcome.attribution) == {0, 1}
        for qid, entry in outcome.queries.items():
            assert entry["attributed_work"] == outcome.attribution[qid]
        # the integer shares sum to the integer sum of the measured
        # per-subplan quanta -- equality, not a tolerance
        _, shares = service.attribution.windows[-1]
        served = {
            subplan.sid
            for subplan in service.plan.subplans
            if subplan.query_ids()
        }
        measured = sum(
            quanta
            for sid, quanta in outcome.run.subplan_total_quanta.items()
            if sid in served
        )
        assert all(type(share) is int for share in shares.values())
        assert sum(shares.values()) == measured

    def test_tampered_totals_fail_the_next_window(self):
        service, outcome = self._run_outcome()
        assert outcome.conserved is True
        service.attribution.query_totals[0] += 1
        assert service.run_window().conserved is False

    def test_window_path_skips_the_full_replay(self, monkeypatch):
        def full_replay(self):
            raise AssertionError("check_conservation() on the window path")

        service, _ = self._run_outcome()
        monkeypatch.setattr(
            type(service.attribution), "check_conservation", full_replay
        )
        assert service.run_window().conserved is True

    def test_tenant_buckets_hold_attributed_work(self):
        service, outcome = self._run_outcome()
        assert outcome.tenants["alpha"]["work"] == pytest.approx(
            outcome.attribution[0]
        )
        assert sum(b["work"] for b in outcome.tenants.values()) == \
            pytest.approx(sum(outcome.attribution.values()))

    def test_service_slack_declog_record(self):
        obs.enable(process_name="test-service")
        try:
            _, outcome = self._run_outcome()
            [record] = OBS.declog.of_event("service_slack")
            assert record["min_headroom_work"] == pytest.approx(
                min(e["headroom_work"] for e in outcome.slack.values())
            )
            assert record["missed"] == sum(
                1 for e in outcome.slack.values() if e["missed"]
            )
        finally:
            obs.disable()


class TestMissSplit:
    """``split_misses`` re-runs a window at uniform ``P_max``: a miss that
    meets there is avoidable; one that still misses is isolable if its
    own unshared plan meets at ``P_max`` on the same data, else
    infeasible."""

    @staticmethod
    def _missing_service(goals=(0.5, 0.5, 0.5)):
        # window 1 carries twice the basis window's events, so every
        # query overshoots the work its paces were chosen for
        def make_catalog(window):
            return make_toy_catalog(
                seed=41 + window, n_events=900 * (1 + window))

        service = QueryService(make_catalog, OptimizerConfig(max_pace=6))
        catalog = service.basis_catalog
        for query, tenant, goal in ((toy_query_total(catalog, 0), "a", goals[0]),
                                    (toy_query_region(catalog, 1), "b", goals[1]),
                                    (toy_query_max(catalog, 2), "c", goals[2])):
            assert service.register(query, tenant, goal).status == "admitted"
        assert split_misses(service, service.run_window()) == {
            "avoidable": [], "isolable": [], "infeasible": []}
        return service, make_catalog

    @staticmethod
    def _final_at_max(service, plan, catalog):
        return PlanExecutor(
            plan, service.config.stream_config, catalog=catalog,
        ).run(uniform_configuration(plan, 6),
              collect_results=False).query_final_work

    def test_one_miss_of_each_kind(self):
        service, make_catalog = self._missing_service(goals=(0.5, 0.4, 0.5))
        outcome = service.run_window()
        split = split_misses(service, outcome)
        assert split == {"avoidable": [2], "isolable": [0], "infeasible": [1]}
        assert all(outcome.queries[qid]["missed_seconds"] > 0
                   for qid in (0, 1, 2))
        # the verdicts are the final work of the same plan at P_max over
        # the same data, then of each late query's own plan, held to
        # each query's bound
        catalog = make_catalog(1)
        shared = self._final_at_max(service, service.plan, catalog)
        for qid, late, alone_late in ((0, True, False), (1, True, True),
                                      (2, False, None)):
            slot = service.slots[qid]
            bound = service._constraints[slot]
            assert (shared[slot] > bound) is late
            if late:
                alone = build_unshared_plan(
                    catalog, [service.plan.queries[slot]])
                final = self._final_at_max(service, alone, catalog)[slot]
                assert (final > bound) is alone_late

    def test_a_miss_sharing_causes_is_isolable(self):
        # at equal goals queries 0 and 1 miss at P_max only because they
        # share subplan 0: each meets its bound alone
        service, _ = self._missing_service()
        first = service._last_run
        assert first._final_alone == {}  # no miss, no alone-run
        outcome = service.run_window()
        ran = service._last_run
        split = split_misses(service, outcome)
        assert split == {"avoidable": [2], "isolable": [0, 1], "infeasible": []}
        assert sorted(ran.classify(service.config, {
            qid: outcome.queries[qid]["goal_seconds"] for qid in (0, 1, 2)
        })[1]) == [0, 1]
        # one alone-run per late query, cached on the window: asking
        # again runs nothing
        cached = dict(ran._final_alone)
        assert sorted(cached) == [0, 1]
        assert split_misses(service, outcome) == split
        assert ran._final_alone == cached
        for qid, final in cached.items():
            assert final <= service._constraints[service.slots[qid]]

    def test_the_split_changes_no_service_state(self):
        def state(service):
            # a missed window leaves the paces dirty (None) and the ones
            # it ran in _initial_paces, where the next search starts
            pool = service.model.memo_pool
            paces = service.paces
            return (None if paces is None else dict(paces),
                    dict(service._initial_paces), service.model,
                    pool.simulations, pool.hits, len(service.slack),
                    len(service.attribution.windows))

        outcomes = []
        for split in (False, True):
            service, _ = self._missing_service()
            outcome = service.run_window()
            if split:
                before = state(service)
                split_misses(service, outcome)
                assert state(service) == before
            third = service.run_window()
            outcomes.append((third.run.total_quanta,
                             dict(third.run.query_final_quanta)))
        assert outcomes[0] == outcomes[1]

    def test_a_miss_grows_the_margin_and_the_next_window_re_searches(self):
        service, _ = self._missing_service()
        estimated = dict(service._estimated_final)
        bounds = dict(service._constraints)
        obs.enable(process_name="test-service")
        try:
            outcome = service.run_window()
            missed = sorted(qid for qid, entry in outcome.queries.items()
                            if entry["missed_seconds"] > 0)
            assert missed
            final = outcome.run.query_final_work
            for qid, registration in service.registrations.items():
                slot = service.slots[qid]
                expected = final[slot] / estimated[slot] - 1.0 \
                    if qid in missed else 0.0
                assert registration.margin == expected
            # dirty, and the next search starts from the paces that ran
            assert service.paces is None
            assert service._initial_paces == outcome.run.pace_config
            following = service.run_window()
            record = OBS.declog.of_event("service_reoptimize")[-1]
        finally:
            obs.disable()
        assert following.reoptimized
        assert record["trigger"] == "miss"
        assert sorted(record["margins"]) == missed
        # the margin tightens the search, never the goal
        for qid, entry in following.slack.items():
            assert entry["goal_work"] == bounds[service.slots[qid]]
        service.deregister(missed[0])
        query = toy_query_total(service.basis_catalog, missed[0])
        assert service.register(query, "a", 0.5).status == "admitted"
        assert service.registrations[missed[0]].margin == 0.0

    def test_a_window_whose_plan_changed_is_refused(self):
        service, _ = self._missing_service()
        outcome = service.run_window()
        service.deregister(2)
        with pytest.raises(ServiceError, match="no longer live"):
            split_misses(service, outcome)


class TestMeasuredAdmission:
    """A query whose first window misses even at ``P_max`` leaves the
    live plan as ``measured_unsatisfiable``; an avoidable miss stays."""

    BUILDERS = {0: (toy_query_total, "a"), 1: (toy_query_region, "b"),
                2: (toy_query_max, "c")}

    @staticmethod
    def _service():
        # admitted on window 0's statistics, a query first run on window 1
        # meets twice the events: queries 0 and 1 miss even at P_max
        def make_catalog(window):
            return make_toy_catalog(
                seed=41 + window, n_events=900 * (1 + window))

        return QueryService(
            make_catalog, OptimizerConfig(max_pace=6))

    def _first_window(self, queries=(0, 1, 2)):
        service = self._service()
        catalog = service.basis_catalog
        service.run_window()  # idle: the clock moves to window 1
        for qid in queries:
            build, tenant = self.BUILDERS[qid]
            decision = service.register(build(catalog, qid), tenant, 0.5)
            assert decision.status == "admitted"
        outcome = service.run_window()
        assert all(entry["missed_seconds"] > 0
                   for entry in outcome.queries.values())
        return service, outcome

    def test_reject_mode_evicts_what_p_max_cannot_meet(self):
        service, outcome = self._first_window()
        rechecked = service.decisions[3:]
        assert [(d.query_id, d.status, d.window) for d in rechecked] == [
            (0, "rejected", 1), (1, "rejected", 1)]
        for decision in rechecked:
            assert decision.reason.startswith("measured_unsatisfiable")
            final, bound = re.search(
                r"final work ([\d.]+) at max pace 6 exceeds bound ([\d.]+)",
                decision.reason).groups()
            assert float(final) > float(bound)
        # each is measured alone before it goes: both meet their bound
        assert [d.meets_alone for d in rechecked] == [True, True]
        # with the model's estimate of each alone run beside the verdict
        assert all(d.alone_estimate > 0 for d in rechecked)
        assert sorted(service.registrations) == [2]
        # the window that evicted them still splits: they miss at P_max
        # in the shared plan, yet each meets its bound alone
        assert split_misses(service, outcome) == {
            "avoidable": [2], "isolable": [0, 1], "infeasible": []}
        assert sorted(service.run_window().queries) == [2]

    def test_an_avoidable_first_window_miss_stays_live(self):
        service, outcome = self._first_window(queries=(2,))
        assert [d.status for d in service.decisions] == ["admitted"]
        assert split_misses(service, outcome) == {
            "avoidable": [2], "isolable": [], "infeasible": []}
        assert sorted(service.run_window().queries) == [2]

    def test_only_the_first_window_is_rechecked(self):
        service, _ = self._first_window(queries=(2,))
        # window 2 misses too, but it is not query 2's first window
        outcome = service.run_window()
        assert outcome.queries[2]["missed_seconds"] > 0
        assert len(service.decisions) == 1
        assert service._last_run._final_at_max is None

    def test_a_schedule_may_deregister_an_evicted_query(self):
        service = self._service()
        schedule = {"windows": 3, "window_seconds": 60.0, "events": [
            {"at": 70.0, "op": "register", "query_id": qid, "tenant": tenant,
             "query": build.__name__, "goal": 0.5}
            for qid, (build, tenant) in sorted(self.BUILDERS.items())
        ] + [{"at": 130.0, "op": "deregister", "query_id": 0}]}

        def build_query(name, qid):
            return globals()[name](service.basis_catalog, qid)

        outcomes, decisions = replay_schedule(service, schedule, build_query)
        assert [sorted(o.queries) for o in outcomes] == [[], [0, 1, 2], [2]]
        assert [(d.query_id, d.status) for d in decisions[3:]] == [
            (0, "rejected"), (1, "rejected")]

    def test_the_eviction_is_logged(self):
        obs.enable(process_name="test-service")
        try:
            self._first_window()
            records = [r for r in OBS.declog.of_event("service_admission")
                       if r["reason"].startswith("measured_unsatisfiable")]
            assert [(r["query_id"], r["status"], r["window"])
                    for r in records] == [(0, "rejected", 1), (1, "rejected", 1)]
        finally:
            obs.disable()


TPCH_JOBS = ("Q1", "Q6", "Q12", "Q18")


def fixed_set_service(config=None):
    """A service over drifting TPC-H windows: one catalog seed per window."""
    return QueryService(
        lambda window: generate_catalog(scale=0.12, seed=100 + window),
        config or OptimizerConfig(max_pace=12),
    )


@pytest.fixture(scope="module")
def fixed_set_run():
    """Four TPC-H jobs registered once, then three windows: the recurring
    deployment of scheduled queries (paper section 2.1).  Returns each
    window's outcome and the paces each window ran at."""
    service = fixed_set_service()
    for qid, name in enumerate(TPCH_JOBS):
        query = build_query(service.basis_catalog, name, qid)
        assert service.register(query, "etl", 0.5).status == "admitted"
    outcomes, paces = [], []
    for _ in range(3):
        outcomes.append(service.run_window())
        paces.append(dict(service.paces))
    return outcomes, paces


class TestFixedRegistrationSet:
    def test_runs_every_window_with_work(self, fixed_set_run):
        outcomes, _ = fixed_set_run
        assert [o.window for o in outcomes] == [0, 1, 2]
        for outcome in outcomes:
            assert outcome.total_work > 0
            assert sorted(outcome.queries) == [0, 1, 2, 3]

    def test_goals_from_the_basis_hold_on_drifting_windows(self, fixed_set_run):
        outcomes, _ = fixed_set_run
        for outcome in outcomes:
            assert all(entry["missed_seconds"] == 0
                       for entry in outcome.queries.values())

    def test_paces_stay_put_without_churn(self, fixed_set_run):
        outcomes, paces = fixed_set_run
        assert [o.reoptimized for o in outcomes] == [True, False, False]
        assert paces[0] == paces[1] == paces[2]

    def test_every_window_has_a_slack_entry_per_live_query(self, fixed_set_run):
        outcomes, _ = fixed_set_run
        for outcome in outcomes:
            assert set(outcome.slack) == set(outcome.queries)
            for entry in outcome.slack.values():
                assert entry["headroom_work"] == pytest.approx(
                    entry["goal_work"] - entry["final_work"]
                )
                # the eager (uniform max pace) estimate always exists here
                assert entry["deferred_work"] is not None
                assert entry["missed"] == (
                    entry["final_work"] > entry["goal_work"]
                )

    def test_the_optimizer_time_budget_reaches_the_service(self):
        # a budget no cost evaluation can meet: the service's model, the
        # one admission and the pace search evaluate on, honours it
        service = fixed_set_service(
            OptimizerConfig(max_pace=12, time_budget=1e-9))
        query = build_query(service.basis_catalog, "Q1", 0)
        with pytest.raises(OptimizationTimeout):
            service.register(query, "etl", 0.5)

    def test_a_late_window_gets_its_own_search_budget(self, monkeypatch):
        # the deadline the merge started has passed when the window
        # fires; the re-search restarts it and finishes inside its budget
        service = fixed_set_service(
            OptimizerConfig(max_pace=8, time_budget=1.0))
        query = build_query(service.basis_catalog, "Q1", 0)
        assert service.register(query, "etl", 0.5).status == "admitted"
        clock = memo.time.monotonic
        monkeypatch.setattr(memo.time, "monotonic", lambda: clock() + 1.5)
        outcome = service.run_window()
        assert outcome.reoptimized
        assert sorted(outcome.queries) == [0]


class TestShardedHarness:
    def test_shard_of_is_stable(self):
        assert shard_of("alpha", 2) == shard_of("alpha", 2)
        assert 0 <= shard_of("alpha", 3) < 3

    def test_serial_and_parallel_reports_are_bit_identical(self):
        serial = run_service_schedule(SMALL_SCHEDULE, jobs=1)
        parallel = run_service_schedule(SMALL_SCHEDULE, jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_summary_counts_add_up(self):
        report = run_service_schedule(SMALL_SCHEDULE, jobs=1)
        summary = report["summary"]
        assert summary["admission"]["admitted"] == 3
        assert summary["query_windows"] == sum(
            len(w["queries"]) for shard in report["shards"]
            for w in shard["windows"]
        )
        assert summary["total_work"] == pytest.approx(
            sum(
                w["total_work"] for shard in report["shards"]
                for w in shard["windows"]
            )
        )

    def test_rational_state_factor_schedule_runs(self):
        # the schedule's text reaches StreamConfig unrounded
        report = run_service_schedule(
            dict(SMALL_SCHEDULE, shards=1, state_factor="1/3"), jobs=1)
        assert report["summary"]["attribution_conserved"] is True
        windows = report["shards"][0]["windows"]
        assert windows and all(w["total_work"] > 0 for w in windows)
        service, _ = build_shard_service(dict(SMALL_SCHEDULE, state_factor="1/3"))
        stream = service.config.stream_config
        assert stream.state_factor == Fraction(1, 3) and stream.quantum == 3

    def test_rational_charges_keep_totals_on_the_quantum(self):
        # overhead 5/2 and state factor 1/3: every total is an exact
        # multiple of 1/6 work unit (so of 1/30 too)
        stream = StreamConfig(execution_overhead="5/2", state_factor="1/3")
        assert stream.quantum == 6
        service = QueryService(
            lambda window: make_toy_catalog(seed=41 + window),
            OptimizerConfig(max_pace=6, stream_config=stream),
        )
        catalog = service.basis_catalog
        service.register(toy_query_total(catalog, 0), "alpha", 50.0)
        service.register(toy_query_region(catalog, 1), "beta", 50.0)
        for _ in range(3):
            outcome = service.run_window()
            run = outcome.run
            assert run.quantum == 6
            assert type(run.total_quanta) is int
            assert outcome.total_work == run.total_quanta / 6
            assert outcome.conserved is True
        assert service.attribution.check_conservation() == []

    def test_summary_slack_and_conservation(self):
        report = run_service_schedule(SMALL_SCHEDULE, jobs=1)
        summary = report["summary"]
        assert summary["attribution_conserved"] is True
        slack = summary["slack"]
        assert slack["min_headroom_work"] is not None
        assert slack["deferred_work"] >= 0.0
        for shard in report["shards"]:
            for window in shard["windows"]:
                assert set(window["slack"]) == set(window["queries"])
                assert window["attribution"]["conserved"] is True


CHURN_SCHEDULE = dict(
    SMALL_SCHEDULE,
    windows=3,
    events=SMALL_SCHEDULE["events"] + [
        {"at": 130.0, "op": "deregister", "query_id": 0},
    ],
)


class TestObsBitIdentity:
    """The merged observability state of a churn schedule -- decision
    log, span sequence and the spans' arguments (each execution's work
    among them) -- is bit-identical between serial and ``--jobs 2``
    runs."""

    @staticmethod
    def _obs_state():
        spans = [
            (event["name"], event.get("args"))
            for event in OBS.tracer.events if event.get("ph") == "X"
        ]
        return spans, list(OBS.declog.records)

    def test_serial_and_parallel_obs_payloads_match(self):
        states = {}
        reports = {}
        for jobs in (1, 2):
            obs.disable()
            obs.enable(process_name="driver")
            try:
                reports[jobs] = run_service_schedule(CHURN_SCHEDULE, jobs=jobs)
                states[jobs] = self._obs_state()
            finally:
                obs.disable()
        assert json.dumps(reports[1], sort_keys=True) == json.dumps(
            reports[2], sort_keys=True
        )
        (serial_spans, serial_log), (parallel_spans, parallel_log) = (
            states[1], states[2])
        assert serial_log == parallel_log, "decision logs diverged"
        assert serial_spans == parallel_spans, "span sequences diverged"
        assert any(name == "engine.execute" for name, _ in serial_spans)
        # churn really happened and was logged under shard run ids
        runs = {record["run"] for record in serial_log}
        assert runs == {"shard-0", "shard-1"}
        assert any(
            record["event"] == "service_deregister" for record in serial_log
        )
        assert any(
            record["event"] == "service_slack" for record in serial_log
        )
