"""Slack ledger, shared-work attribution, decision-log run ids."""

from fractions import Fraction

import pytest

from repro import obs
from repro.harness.service import run_service_schedule
from repro.obs import OBS
from repro.obs.attribution import (
    AttributionLedger,
    ConservationError,
    split_work,
)
from repro.obs.declog import DEFAULT_RUN, DecisionLog
from repro.obs.slack import SlackLedger


@pytest.fixture(autouse=True)
def _clean_session():
    obs.disable()
    yield
    obs.disable()


# -- slack ledger -----------------------------------------------------------------


class TestSlackLedger:
    def test_entry_fields_and_eager_breakdown(self):
        ledger = SlackLedger()
        recorded = ledger.record_window(
            0,
            {7: {"goal_work": 100.0, "final_work": 60.0,
                 "eager_final_work": 40.0}},
            seconds=lambda work: work / 10.0,
        )
        entry = recorded[7]
        assert entry["headroom_work"] == pytest.approx(40.0)
        assert entry["missed"] is False
        assert entry["slack_available_work"] == pytest.approx(60.0)
        assert entry["deferred_work"] == pytest.approx(20.0)
        assert entry["slack_utilization"] == pytest.approx(20.0 / 60.0)
        assert entry["goal_seconds"] == pytest.approx(10.0)
        assert entry["headroom_seconds"] == pytest.approx(4.0)

    def test_eagerless_entry_omits_deferral_fields(self):
        ledger = SlackLedger()
        entry = ledger.record_window(
            0, {1: {"goal_work": 10.0, "final_work": 12.0}}
        )[1]
        assert entry["missed"] is True
        assert entry["headroom_work"] == pytest.approx(-2.0)
        assert "deferred_work" not in entry and "slack_utilization" not in entry

    def test_empty_window_summary(self):
        ledger = SlackLedger()
        assert ledger.record_window(0, {}) == {}
        assert ledger.windows[-1][1]["min_headroom_work"] is None


# -- attribution ------------------------------------------------------------------


class TestSplitWork:
    def test_proportional_split_conserves_exactly(self):
        shares = split_work(100, [(0, 0.3), (1, 0.2), (2, 0.1)])
        assert all(type(share) is int for share in shares.values())
        assert sum(shares.values()) == 100
        # floors 50/33/16, the one leftover quantum to the largest
        # remainder (qid 2's 16.67)
        assert shares == {0: 50, 1: 33, 2: 17}

    def test_ties_go_to_the_lower_qid(self):
        assert split_work(5, [(3, 1), (1, 1), (2, 1)]) == {1: 2, 2: 2, 3: 1}
        assert split_work(1, [(9, 2.5), (4, 2.5)]) == {4: 1, 9: 0}

    def test_zero_weights_degrade_to_even_split(self):
        shares = split_work(9, [(0, 0.0), (1, -1.0), (2, 0.0)])
        assert set(shares.values()) == {3}
        assert split_work(10, [(0, 0.0), (1, 0)]) == {0: 5, 1: 5}

    def test_empty_beneficiaries(self):
        assert split_work(5, []) == {}

    def test_awkward_floats_still_conserve(self):
        # exactness must hold for arbitrary float weights, where naive
        # float proportional splits routinely drop ulps
        for scale in (0.1, 0.7, 123.456, 1e-9, 1e9):
            for count in (2, 3, 7, 11):
                weights = [(i, scale * 0.1 * (i + 1)) for i in range(count)]
                for work in (0, 1, 7, 10 ** 6 + 3):
                    shares = split_work(work, weights)
                    assert sum(shares.values()) == work, (scale, count, work)
                    # largest remainder: every share within one quantum
                    # of its exact proportional value
                    total = sum(Fraction(w) for _, w in weights)
                    for qid, w in weights:
                        assert abs(shares[qid] - work * Fraction(w) / total) < 1


class TestAttributionLedger:
    def _record(self, ledger, window=0):
        return ledger.record_window(
            window,
            {4: 100, 5: 10, 6: 3},
            beneficiaries={4: (0, 1), 5: (1,), 6: ()}.get,
            weight_of=lambda sid, qid: {(4, 0): 3.0, (4, 1): 1.0,
                                        (5, 1): 2.0}.get((sid, qid), 0.0),
            tenant_of={0: "alpha", 1: "beta"}.get,
        )

    def test_shares_follow_solo_cost_weights(self):
        ledger = AttributionLedger()
        shares = self._record(ledger)
        assert shares == {0: 75, 1: 25 + 10}
        # sid 6 serves nobody: its work is not billed
        assert sum(shares.values()) == 110
        assert ledger.check_conservation() == []

    def test_tenant_totals_accumulate_exactly(self):
        ledger = AttributionLedger(quantum=10)
        self._record(ledger, 0)
        self._record(ledger, 1)
        assert ledger.tenant_totals == {"alpha": 150, "beta": 70}
        payload = ledger.to_dict()
        assert payload["conserved"] is True
        # the JSON view is in work units: quanta over the quantum
        assert payload["tenant_totals"]["alpha"] == 15.0

    def test_tampered_totals_fail_conservation(self):
        ledger = AttributionLedger()
        self._record(ledger)
        ledger.query_totals[0] += 1
        failures = ledger.check_conservation()
        assert failures and "query 0" in failures[0]

    def test_running_totals_check_catches_tampered_totals(self):
        ledger = AttributionLedger()
        self._record(ledger, 0)
        assert ledger.check_running_totals() == []
        ledger.query_totals[0] += 1
        self._record(ledger, 1)  # recording more does not launder it
        [failure] = ledger.check_running_totals()
        assert "running totals" in failure

    def test_full_replay_still_catches_a_retroactive_edit(self):
        ledger = AttributionLedger()
        for window in range(3):
            self._record(ledger, window)
        ledger.windows[0][1][0] += 1
        # an edited history is beyond the constant-time check ...
        assert ledger.check_running_totals() == []
        # ... and exactly what the full replay is for
        assert any("query 0" in f for f in ledger.check_conservation())
        assert ledger.to_dict()["conserved"] is False

    def test_window_shares_float_view(self):
        ledger = AttributionLedger(quantum=4)
        self._record(ledger, window=3)
        window, shares = ledger.window_shares()
        assert window == 3
        assert shares[0] == 18.75 and isinstance(shares[0], float)

    def test_recording_a_leak_raises(self):
        # simulate a leak by patching split_work's result path: every
        # share loses its last quantum between split and bill
        import repro.obs.attribution as attribution_module

        original = split_work

        def bad_split(work, weights):
            shares = original(work, weights)
            return {qid: share - 1 for qid, share in shares.items()}

        ledger = AttributionLedger()
        attribution_module.split_work, saved = (
            bad_split, attribution_module.split_work
        )
        try:
            with pytest.raises(ConservationError):
                ledger.record_window(
                    0, {1: 8}, lambda sid: (0,), lambda sid, qid: 1.0
                )
        finally:
            attribution_module.split_work = saved


# -- decision log run ids ---------------------------------------------------------


class TestRunIds:
    def test_set_run_brackets_and_restores(self):
        log = DecisionLog()
        log.log("a")
        previous = log.set_run("shard-1")
        assert previous == DEFAULT_RUN
        log.log("b")
        log.set_run(previous)
        log.log("c")
        assert [r["run"] for r in log.records] == ["main", "shard-1", "main"]
        assert [r["seq"] for r in log.records] == [1, 2, 3]

    def test_extend_preserves_worker_run_stamps(self):
        driver, worker = DecisionLog(), DecisionLog(run_id="shard-2")
        worker.log("pace_move", sid=9)
        worker.records.append({"event": "legacy"})  # pre-run-id record
        driver.extend(worker.records)
        assert driver.records[0]["run"] == "shard-2"
        assert driver.records[1]["run"] == DEFAULT_RUN
        assert [r["seq"] for r in driver.records] == [1, 2]


# -- end-to-end over the sharded service ------------------------------------------

E2E_SCHEDULE = {
    "workload": {"scale": 0.04, "seed": 100},
    "window_seconds": 60.0,
    "windows": 2,
    "shards": 1,
    "max_pace": 4,
    "admission": "reject",
    "events": [
        {"at": 0.0, "op": "register", "query_id": 0, "tenant": "alpha",
         "query": "Q1", "goal": 5.0},
        {"at": 5.0, "op": "register", "query_id": 1, "tenant": "beta",
         "query": "Q6", "goal": 5.0},
    ],
}


class TestServiceTelemetryEndToEnd:
    def test_report_over_a_real_service_run(self):
        obs.enable(process_name="test-telemetry")
        report = run_service_schedule(E2E_SCHEDULE, jobs=1)
        [shard] = report["shards"]

        # slack: every query of every window reported
        for window in shard["windows"]:
            assert set(window["slack"]) == set(window["queries"])
        assert set(shard["windows"][-1]["slack"]) == {"0", "1"}
        for window in shard["windows"]:
            for entry in window["slack"].values():
                assert {"goal_work", "final_work", "headroom_work",
                        "slack_available_work", "deferred_work"} <= set(entry)

        # attribution conserved, tenants billed
        assert report["summary"]["attribution_conserved"] is True
        assert all(window["attribution"]["conserved"]
                   for window in shard["windows"])
        tenants = report["summary"]["tenants"]
        assert set(tenants) == {"alpha", "beta"}
        assert all(bucket["work"] > 0 for bucket in tenants.values())

        # the shard's pace search reached the decision log
        assert any(r["event"].startswith("pace_") and r["run"] == "shard-0"
                   for r in OBS.declog.records)
