"""Fuzzer self-tests: determinism, oracle soundness, injected-bug detection.

The differential fuzzer is itself guarded code: these tests prove that
the case stream is deterministic, that a healthy engine fuzzes green,
and -- via a known bug injected behind a test-only toggle
(:mod:`repro.physical.faults`) -- that the oracles detect a real
divergence within a bounded case budget and the shrinker reduces it to
a minimal repro.
"""

import json
import os
from fractions import Fraction

from repro.errors import ExecutionError, ReproError
from repro.fuzz import generate_case, grammar, run_campaign, shrink
from repro.fuzz.cli import _is_failing, case_verdict, main
from repro.fuzz.corpus import load_case, save_case
from repro.fuzz.oracles import _check_invariants, run_case
from repro.physical.faults import FAULTS, inject_fault
from repro.service.core import QueryService


class TestGrammarDeterminism:
    def test_same_seed_same_case_stream(self):
        first = [generate_case(11, index) for index in range(15)]
        second = [generate_case(11, index) for index in range(15)]
        assert first == second

    def test_different_seeds_differ(self):
        assert generate_case(0, 3) != generate_case(1, 3)

    def test_cases_are_json_native(self):
        case = generate_case(4, 2)
        assert json.loads(json.dumps(case)) == case

    def test_same_seed_same_verdicts(self):
        for index in range(6):
            case = generate_case(2, index)
            first = run_case(case)
            second = run_case(case)
            assert first.status == second.status
            assert first.failures == second.failures


class TestHealthyEngineFuzzesGreen:
    def test_small_campaign_is_green(self):
        result = run_campaign(0, 25)
        assert result.cases_run == 25
        assert result.failures == []

    def test_inconsistent_case_is_rejected_with_context(self):
        # a case every oracle rejects for the same reason is noise, not
        # a bug -- and the per-oracle errors carry fuzz provenance
        case = generate_case(3, 0)
        case["queries"][0]["filters"] = [["f_nope", "<", 1]]
        report = run_case(case, case_path="/tmp/bad-case.json")
        assert report.status == "rejected"
        assert report.ok
        for outcome in report.oracles.values():
            assert isinstance(outcome.error, ReproError)
            assert outcome.error.fuzz_seed == 3
            assert outcome.error.fuzz_case_path == "/tmp/bad-case.json"

    def test_service_that_admits_nothing_is_an_idle_outcome(self):
        # a goal admission rejects for every query: the service only ever
        # fires idle windows, which record no attribution and no result
        case = load_case(os.path.join(
            os.path.dirname(__file__), "fuzz_corpus",
            "service-idle-final-window.json"))
        report = run_case(case)
        assert report.status == "ok", report.describe()
        for name in ("service", "service-unbatched"):
            outcome = report.oracles[name]
            assert outcome.idle and outcome.error is None, outcome
            assert "idle" in repr(outcome)
        assert "service: idle final window" in report.describe()
        assert not report.oracles["shared-columnar"].idle

    def test_service_reference_raises_what_the_service_raised(
        self, monkeypatch
    ):
        # the reference leg re-runs the service's final window; when the
        # service never got there, it fails the same way
        case = next(
            generate_case(7, index) for index in range(50)
            if generate_case(7, index).get("service")
        )

        def broken(self, collect_results=False):
            raise ExecutionError("window refused")

        monkeypatch.setattr(QueryService, "run_window", broken)
        report = run_case(case)
        service = report.oracles["service"]
        assert isinstance(service.error, ExecutionError)
        assert report.oracles["service-unbatched"].error is service.error
        assert report.status == "fail"


class TestExactWorkInvariants:
    """Work is integer quanta, so the invariants hold with no tolerance."""

    def _outcome(self):
        case = generate_case(7, 0)
        case["stream"].update(execution_overhead="5/2", state_factor="1/3")
        outcome = run_case(case).oracles["shared-columnar"]
        assert outcome.error is None and outcome.result.quantum == 6
        return outcome

    def test_the_grammar_draws_non_decimal_quanta(self):
        quanta = {
            grammar.stream_config(generate_case(7, index)).quantum
            for index in range(60)
        }
        # lcm of the overhead's denominator (1 or 2) and the state
        # factor's (1, 3 or 10)
        assert quanta == {1, 2, 3, 6, 10}

    def test_decimal_corpus_charges_parse_to_the_same_rationals(self):
        case = {"stream": {"execution_overhead": 2.5, "state_factor": 0.3}}
        config = grammar.stream_config(case)
        assert config.execution_overhead == Fraction(5, 2)
        assert config.state_factor == Fraction(3, 10)
        assert config.quantum == 10

    def test_a_healthy_run_passes(self):
        assert _check_invariants("leg", self._outcome()) == []

    def test_a_total_off_by_one_quantum_is_flagged(self):
        outcome = self._outcome()
        outcome.result.total_quanta += 1
        [failure] = _check_invariants("leg", outcome)
        assert failure.startswith("leg: total work")

    def test_a_subplan_total_off_by_one_quantum_is_flagged(self):
        outcome = self._outcome()
        sid = min(outcome.result.subplan_total_quanta)
        outcome.result.subplan_total_quanta[sid] -= 1
        [failure] = _check_invariants("leg", outcome)
        assert "subplans [%d]" % sid in failure

    def test_the_shrinker_zeroes_both_charges(self):
        from repro.fuzz.shrinker import _simplify_config

        case = generate_case(7, 0)
        case["stream"].update(execution_overhead="5/2", state_factor="1/3")
        assert any(
            variant["stream"]["execution_overhead"] == 0
            and variant["stream"]["state_factor"] == 0
            for variant in _simplify_config(case)
        )


def _optimized_cases(seed, limit):
    cases = (generate_case(seed, index) for index in range(limit))
    return [case for case in cases if case.get("optimize")]


class TestOptimizerExits:
    """The ``optimized`` leg: ``optimize_ishare`` on the case, its plan run
    at its paces, and its exits checked as they leave the optimizer."""

    def test_the_leg_runs_and_agrees_with_the_naive_evaluator(self):
        cases = _optimized_cases(7, 12)
        assert cases
        for case in cases:
            report = run_case(case)
            assert report.status == "ok", report.describe()
            outcome = report.oracles["optimized"]
            assert outcome.error is None and outcome.result is not None

    def test_a_pool_the_decomposition_never_prunes_is_caught(
            self, monkeypatch):
        from repro.cost.memo import MemoPool

        monkeypatch.setattr(MemoPool, "retain", lambda self, signatures: None)
        lines = [
            line for case in _optimized_cases(7, 40)
            for line in run_case(case).failures
        ]
        assert lines
        assert all(line.startswith("optimized memo pool:") for line in lines)

    def test_the_shrinker_drops_the_leg(self):
        from repro.fuzz.shrinker import _simplify_config

        case = _optimized_cases(7, 12)[0]
        assert any(
            variant.get("optimize") is None
            for variant in _simplify_config(case)
        )


class TestInjectedBugDetection:
    """The fault toggle plants a known bug; the fuzzer must find it."""

    BUDGET = 40

    def test_detected_within_bounded_case_budget(self):
        with inject_fault(drop_agg_retraction=True):
            result = run_campaign(0, self.BUDGET)
        assert result.failures, (
            "injected drop_agg_retraction bug not detected in %d cases"
            % self.BUDGET
        )
        first = result.failures[0]
        assert any(
            "diverges from reference" in line or "shared-columnar" in line
            for line in first.failures
        )

    def test_the_bug_lives_in_the_production_aggregate(self, monkeypatch):
        # the hook sits ahead of the production aggregate's lane
        # dispatch, so the default dispatch and both forced lanes lose
        # the retraction while the per-tuple reference does not ...
        from repro.physical import columnar as columnar_mod

        with inject_fault(drop_agg_retraction=True):
            result = run_campaign(0, self.BUDGET)
        lines = [line for failure in result.failures
                 for line in failure.failures]
        for oracle in ("shared-columnar", "shared-columnar-rows",
                       "shared-columnar-vec"):
            assert any(
                line.startswith(oracle + ": total_work differs")
                and "shared-unbatched" in line for line in lines
            ), oracle
        # ... and with the hook taken out of that aggregate the armed
        # flag injects nothing: the self-test above would fail
        monkeypatch.setattr(
            columnar_mod, "drop_first_retraction", lambda batch: batch
        )
        with inject_fault(drop_agg_retraction=True):
            assert run_campaign(0, self.BUDGET).failures == []

    def test_shrinker_minimizes_to_tiny_repro(self):
        with inject_fault(drop_agg_retraction=True):
            case = next(
                candidate
                for candidate in (
                    generate_case(0, index) for index in range(self.BUDGET)
                )
                if _is_failing(candidate)
            )
            small = shrink(case, _is_failing)
            assert _is_failing(small), "shrunk case no longer fails"
        assert len(small["tables"]) <= 2
        assert len(small["queries"]) <= 2
        assert sum(len(t["rows"]) for t in small["tables"]) <= len(
            case["tables"][0]["rows"]
        )
        # and without the fault the minimized case is clean
        report = run_case(small)
        assert report.status == "ok"

    def test_a_bug_every_engine_leg_shares_is_caught_by_the_naive_leg_alone(
        self
    ):
        from repro.engine.compare import results_close

        with inject_fault(drop_last_key_match=True):
            result = run_campaign(0, self.BUDGET)
            lines = [line for failure in result.failures
                     for line in failure.failures]
            assert lines, "drop_last_key_match not detected"
            # no work or bit identity between engine legs broke ...
            assert all(
                "diverges from the naive ground truth" in line
                for line in lines
            )
            # ... and every engine leg agrees with the unshared one
            for failure in result.failures:
                oracles = run_case(failure.case).oracles
                expected = oracles["unshared"].result.query_results
                for name, outcome in oracles.items():
                    if outcome.result is None or name.startswith("service"):
                        continue  # (the service answers under its slots)
                    for qid, rows in expected.items():
                        assert results_close(
                            outcome.result.query_results[qid], rows), name

    def test_fault_flag_restored_after_context(self):
        assert not FAULTS.drop_agg_retraction
        with inject_fault(drop_agg_retraction=True):
            assert FAULTS.drop_agg_retraction
        assert not FAULTS.drop_agg_retraction
        with inject_fault(drop_last_key_match=True):
            assert FAULTS.drop_last_key_match
            assert not FAULTS.drop_agg_retraction
        assert not FAULTS.drop_last_key_match


class TestCampaignCli:
    def test_green_campaign_exits_zero(self, tmp_path, capsys):
        status = main(
            ["--seed", "0", "--cases", "8", "--failures-dir",
             str(tmp_path / "failures"), "--progress-every", "0"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "8 cases" in out
        assert not (tmp_path / "failures").exists()

    def test_failing_campaign_dumps_case_with_replay_command(
        self, tmp_path, capsys
    ):
        failures_dir = tmp_path / "failures"
        with inject_fault(drop_agg_retraction=True):
            status = main(
                ["--seed", "0", "--cases", "3", "--shrink",
                 "--failures-dir", str(failures_dir), "--progress-every", "0"]
            )
        assert status == 1
        saved = sorted(p.name for p in failures_dir.glob("*.json"))
        assert any(name.startswith("case-") for name in saved)
        assert any(name.startswith("minimized-") for name in saved)
        out = capsys.readouterr().out
        assert "replay: python -m repro.fuzz --replay" in out
        # the dump is self-contained: loading it back yields the case
        path = next(iter(failures_dir.glob("case-*.json")))
        document = json.loads(path.read_text())
        assert document["replay"].endswith(str(path))
        assert load_case(str(path)) == generate_case(0, document["index"])

    def test_replay_of_saved_case(self, tmp_path, capsys):
        path = tmp_path / "case.json"
        save_case(generate_case(0, 1), str(path))
        status = main(["--replay", str(path)])
        assert status == 0
        assert "ok" in capsys.readouterr().out


class TestCaseVerdictCrashHandling:
    def test_crash_becomes_failure_line_not_abort(self, monkeypatch):
        from repro.fuzz import oracles as oracles_mod

        def boom(case, case_path=None):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(oracles_mod, "run_case", boom)
        # cli.case_verdict resolves run_case through the oracles module
        report, lines = case_verdict(generate_case(0, 0))
        assert report is None
        assert lines == ["crash: RuntimeError: engine exploded"]
