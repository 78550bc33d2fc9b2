"""Observability layer: tracer, decision log, harness wiring."""

import json
import time
from collections import Counter

import pytest

from repro import obs
from repro.core.optimizer import OptimizerConfig, optimize_ishare
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.harness.parallel import ExperimentCell, run_cells
from repro.harness.runner import ExperimentRunner
from repro.obs import OBS
from repro.obs.declog import DecisionLog
from repro.obs.trace import NOOP_SPAN, Tracer, span
from repro.workloads.constraints import uniform_constraints

from .test_columnar_equivalence import fig11_setup  # noqa: F401 (fixture)
from .util import (
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)


@pytest.fixture(autouse=True)
def _clean_session():
    """Every test starts and ends with observability off."""
    obs.disable()
    yield
    obs.disable()


def _toy_runner(seed=23):
    catalog = make_toy_catalog(seed=seed)
    queries = [
        toy_query_total(catalog, 0),
        toy_query_region(catalog, 1, region="EU"),
        toy_query_max(catalog, 2),
        toy_query_region(catalog, 3, region="US"),
    ]
    config = OptimizerConfig(max_pace=6, stream_config=StreamConfig())
    return ExperimentRunner(catalog, queries, config)


def _toy_workload():
    catalog = make_toy_catalog(seed=7)
    queries = [
        toy_query_total(catalog, 0),
        toy_query_region(catalog, 1, region="EU"),
        toy_query_total(catalog, 2, day_filter=60),
    ]
    return catalog, queries


# -- the no-op (disabled) path ----------------------------------------------------


class TestDisabledPath:
    def test_collectors_are_none_when_disabled(self):
        assert not OBS.enabled
        assert OBS.tracer is None and OBS.declog is None

    def test_disabled_span_is_the_noop_singleton(self):
        assert span("anything", sid=3) is NOOP_SPAN
        with span("anything") as active:
            active.set(ignored=1)  # must be accepted and dropped

    def test_disabled_run_emits_nothing(self):
        runner = _toy_runner()
        runner.run_approach("iShare", uniform_constraints(range(4), 0.5))
        assert not OBS.enabled
        assert OBS.tracer is None

    def test_disabled_overhead_is_a_single_guard_check(self):
        """Micro-benchmark: the disabled path must stay within a small
        constant factor of a bare attribute test -- no allocation, no
        formatting, no dict lookups."""
        iterations = 200_000

        def guarded():
            enabled = 0
            for _ in range(iterations):
                if OBS.enabled:
                    enabled += 1
            return enabled

        def spanned():
            for _ in range(iterations):
                span("hot.loop")

        # warm up, then take the best of three to dampen scheduler noise
        guarded(), spanned()
        guard_s = min(_timed(guarded) for _ in range(3))
        span_s = min(_timed(spanned) for _ in range(3))
        # span() adds one function call over the bare guard; anything that
        # allocates a span object or formats args blows far past this
        assert span_s < max(10 * guard_s, 0.5), (
            "disabled span() too slow: %.4fs vs guard %.4fs" % (span_s, guard_s)
        )


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# -- tracer -----------------------------------------------------------------------


class TestTracer:
    def test_chrome_payload_shape(self, tmp_path):
        tracer = Tracer(process_name="test-proc")
        start = tracer.now_us()
        tracer.complete("unit.work", start, {"sid": 1})
        with_span = tracer.span("unit.span", kind="x")
        with with_span:
            with_span.set(done=True)
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "test-proc"
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"unit.work", "unit.span"}
        for event in complete:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0 and event["dur"] >= 0
        spanned = next(e for e in complete if e["name"] == "unit.span")
        assert spanned["args"] == {"kind": "x", "done": True}

    def test_category_is_span_name_prefix(self):
        tracer = Tracer()
        tracer.complete("engine.execute", 0.0, {})
        assert tracer.events[-1]["cat"] == "engine"

    def test_drain_keeps_process_metadata(self):
        tracer = Tracer(process_name="w")
        tracer.complete("a.b", 0.0, {})
        drained = tracer.drain_events()
        assert [e["name"] for e in drained] == ["process_name", "a.b"]
        # metadata survives the drain so later cells still identify the process
        assert [e["name"] for e in tracer.events] == ["process_name"]


# -- decision log -----------------------------------------------------------------


class TestDecisionLog:
    def test_records_are_sequenced_and_exported_as_json_lines(self, tmp_path):
        log = DecisionLog()
        log.log("pace_move", sid=1, score=2.5)
        log.log("pace_reject", sid=2, reason="outscored")
        path = tmp_path / "decisions.jsonl"
        log.export(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seq"] for r in lines] == [1, 2]
        assert lines[0]["event"] == "pace_move" and lines[0]["score"] == 2.5

    def test_extend_resequences_worker_records(self):
        driver, worker = DecisionLog(), DecisionLog()
        driver.log("pace_move", sid=0)
        worker.log("pace_move", sid=9)
        driver.extend(worker.records)
        assert [r["seq"] for r in driver.records] == [1, 2]

    def test_ishare_optimization_logs_every_stage(self):
        """Completeness: a small iShare run must log the pace search, the
        clustering decisions, and the decomposition verdicts."""
        catalog, queries = _toy_workload()
        obs.enable()
        config = OptimizerConfig(max_pace=6, stream_config=StreamConfig())
        optimize_ishare(
            catalog, queries, uniform_constraints(range(3), 0.3), config
        )
        kinds = {record["event"] for record in OBS.declog.records}
        assert "pace_move" in kinds or "pace_exhausted" in kinds
        assert "pace_search_done" in kinds
        assert "split_decision" in kinds
        # every decomposition proposal ends in an adopt or a reasoned reject
        verdicts = [
            r for r in OBS.declog.records
            if r["event"] in ("decompose_adopt", "decompose_reject")
        ]
        assert verdicts
        for record in verdicts:
            assert "sid" in record
            if record["event"] == "decompose_reject":
                assert record["reason"] in ("no_split", "not_improving")
        for record in OBS.declog.of_event("pace_move"):
            assert {"iteration", "pace", "incrementability", "total_work"} <= set(record)


# -- harness wiring ---------------------------------------------------------------


class TestHarnessWiring:
    def _cells(self, runner):
        relative = uniform_constraints(range(4), 0.5)
        return [
            ExperimentCell(name, relative)
            for name in ("iShare", "NoShare-Uniform", "Share-Uniform")
        ]

    def test_parallel_trace_covers_both_workers(self):
        runner = _toy_runner()
        obs.enable(process_name="driver")
        run_cells(runner, self._cells(runner), jobs=2)
        events = OBS.tracer.events
        worker_pids = {
            e["pid"] for e in events
            if e.get("ph") == "M" and e["args"]["name"].startswith("repro-worker-")
        }
        assert len(worker_pids) == 2
        span_pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert worker_pids <= span_pids

    def test_event_order_is_deterministic_under_jobs_2(self):
        """Two traced --jobs 2 runs produce the same event-name sequence:
        cells are statically assigned and absorbed in submission order, so
        nondeterministic completion order never reaches the trace."""
        sequences = []
        for _ in range(2):
            obs.disable()
            obs.enable(process_name="driver")
            runner = _toy_runner()
            run_cells(runner, self._cells(runner), jobs=2)
            names = [
                e["name"] for e in OBS.tracer.events if e.get("ph") == "X"
            ]
            sequences.append(names)
        assert sequences[0] == sequences[1]

    def test_decision_sequence_matches_serial(self):
        """The decision log is pure per-cell optimizer work, so the merged
        parallel sequence equals the serial one exactly."""
        sequences = []
        for jobs in (1, 2):
            obs.disable()
            obs.enable(process_name="driver")
            runner = _toy_runner()
            run_cells(runner, self._cells(runner), jobs=jobs)
            sequences.append([
                (r["seq"], r["event"]) for r in OBS.declog.records
            ])
        assert sequences[0] == sequences[1]

    def test_worker_metrics_are_merged_into_the_driver(self):
        """Each worker's executions reach the driver as spans that carry
        their work, from every worker process."""
        runner = _toy_runner()
        obs.enable(process_name="driver")
        run_cells(runner, self._cells(runner), jobs=2)
        executions = [
            event for event in OBS.tracer.events
            if event["name"] == "engine.execute"
        ]
        workers = {
            event["pid"] for event in OBS.tracer.events
            if event.get("ph") == "M"
            and event["args"]["name"].startswith("repro-worker-")
        }
        assert {event["pid"] for event in executions} == workers
        assert sum(event["args"]["work"] for event in executions) > 0


# -- the engine's counts -----------------------------------------------------------


class TestExecuteSpansCarryTheRunRecords:
    def test_one_fig11_window(self, fig11_setup):
        """The ``engine.execute`` spans are the run's records: one per
        execution, in order, each with its work in work units."""
        plan, paces, _ = fig11_setup
        obs.enable(process_name="test-counts")
        run = PlanExecutor(plan, StreamConfig()).run(paces)
        executions = [
            event["args"] for event in OBS.tracer.events
            if event["name"] == "engine.execute"
        ]
        assert Counter(args["sid"] for args in executions) == Counter(
            record.sid for record in run.records
        )
        assert len(executions) == len(run.records) > len(paces)
        for args, record in zip(executions, run.records):
            assert args["sid"] == record.sid
            assert args["fraction"] == str(record.fraction)
            assert args["work"] == round(record.work / run.quantum, 2)
            assert args["outputs"] == record.output_count
