"""Parallel experiment harness: serial/parallel equality, ordering, timings."""

import pickle

import pytest

from repro import obs
from repro.core.optimizer import OptimizerConfig
from repro.engine.stream import StreamConfig
from repro.errors import ExecutionError
from repro.harness.experiments import _uniform_sweep, fig11
from repro.harness.parallel import (
    CellOutcome,
    ExperimentCell,
    run_cells,
    timing_report,
)
from repro.harness.runner import APPROACHES, ExperimentRunner
from repro.workers import CapturedError, WorkerTraceback, resolve_jobs
from repro.workloads.constraints import uniform_constraints

from .util import (
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)


def _four_query_runner():
    """A small 4-query batch over the toy star schema."""
    catalog = make_toy_catalog(seed=23)
    queries = [
        toy_query_total(catalog, 0),
        toy_query_region(catalog, 1, region="EU"),
        toy_query_max(catalog, 2),
        toy_query_region(catalog, 3, region="US"),
    ]
    config = OptimizerConfig(max_pace=6, stream_config=StreamConfig())
    return ExperimentRunner(catalog, queries, config)


def _result_fingerprint(result):
    """Everything an experiment report consumes from one approach result."""
    return (
        result.name,
        result.total_work,
        result.total_seconds,
        tuple(sorted(result.goals_seconds.items())),
        tuple(result.missed.absolute),
        tuple(result.missed.relative),
    )


class TestResolveJobs:
    def test_explicit_values_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4

    def test_zero_and_none_mean_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1

    def test_negative_clamps_to_one(self):
        assert resolve_jobs(-3) == 1


class TestRunCellsEquality:
    def test_parallel_matches_serial_on_four_query_batch(self):
        runner = _four_query_runner()
        relative = uniform_constraints(range(4), 0.5)
        cells = [ExperimentCell(name, relative) for name in APPROACHES]
        serial = run_cells(runner, cells, jobs=1)
        parallel = run_cells(runner, cells, jobs=2)
        assert [o.key for o in serial] == [o.key for o in parallel]
        for ser, par in zip(serial, parallel):
            assert _result_fingerprint(ser.result) == _result_fingerprint(par.result)

    def test_run_all_parallel_matches_serial(self):
        runner = _four_query_runner()
        relative = uniform_constraints(range(4), 0.2)
        serial = runner.run_all(relative)
        parallel = runner.run_all(relative, jobs=2)
        assert [r.name for r in serial] == list(APPROACHES)
        for ser, par in zip(serial, parallel):
            assert _result_fingerprint(ser) == _result_fingerprint(par)

    def test_outcomes_preserve_submission_order_and_keys(self):
        runner = _four_query_runner()
        relative = uniform_constraints(range(4), 1.0)
        cells = [
            ExperimentCell(name, relative, key=(level, name))
            for level in (1.0, 0.5)
            for name in ("iShare", "NoShare-Uniform")
        ]
        outcomes = run_cells(runner, cells, jobs=3)
        assert [o.key for o in outcomes] == [c.key for c in cells]
        assert all(isinstance(o, CellOutcome) for o in outcomes)
        assert all(o.wall_seconds >= 0 for o in outcomes)


class TestUniformSweepParallel:
    def test_sweep_rows_and_missed_identical(self):
        kwargs = dict(
            names=None, title="sweep", scale=0.12, max_pace=6,
            levels=(1.0, 0.2), config=None,
        )
        # the toy TPC-H sharing-friendly subset keeps this fast
        from repro.workloads.tpch import SHARING_FRIENDLY

        kwargs["names"] = SHARING_FRIENDLY[:4]
        serial = _uniform_sweep(jobs=1, **kwargs)
        parallel = _uniform_sweep(jobs=2, **kwargs)
        assert serial.tables == parallel.tables
        for (s_label, s_by), (p_label, p_by) in zip(
            serial.data["rows"], parallel.data["rows"]
        ):
            assert s_label == p_label
            for name in APPROACHES:
                assert _result_fingerprint(s_by[name]) == _result_fingerprint(
                    p_by[name]
                )
        for name in APPROACHES:
            assert (
                serial.data["missed"][name].row()
                == parallel.data["missed"][name].row()
            )

    def test_timings_recorded_per_cell(self):
        from repro.workloads.tpch import SHARING_FRIENDLY

        result = _uniform_sweep(
            SHARING_FRIENDLY[:2], "sweep", 0.12, 6, (1.0,), None, jobs=2
        )
        timings = result.data["timings"]
        assert timings["jobs"] == 2
        assert len(timings["cells"]) == len(APPROACHES)
        assert timings["wall_seconds"] > 0
        assert timings["cell_seconds_total"] > 0
        assert all(cell["seconds"] > 0 for cell in timings["cells"])


class TestFig11Parallel:
    def test_fig11_parallel_equals_serial(self):
        serial = fig11(scale=0.12, max_pace=6, levels=(0.5,), jobs=1)
        parallel = fig11(scale=0.12, max_pace=6, levels=(0.5,), jobs=2)
        # identical total work per approach and identical missed rows
        assert serial.tables == parallel.tables
        for name in APPROACHES:
            s_missed = serial.data["missed"][name]
            p_missed = parallel.data["missed"][name]
            assert s_missed.absolute == p_missed.absolute
            assert s_missed.relative == p_missed.relative
            (_, s_by), (_, p_by) = serial.data["rows"][0], parallel.data["rows"][0]
            assert s_by[name].total_work == p_by[name].total_work


class TestWorkerErrorPropagation:
    """ReproErrors raised in workers arrive in the driver verbatim."""

    def test_captured_error_survives_pickling_with_enrichment(self):
        try:
            raise ExecutionError("boom").attach_fuzz_context(
                seed=42, case_path="/tmp/case-000.json"
            )
        except ExecutionError as exc:
            captured = CapturedError(exc)
        captured = pickle.loads(pickle.dumps(captured))  # the pool boundary
        rebuilt = captured.rebuild()
        assert type(rebuilt) is ExecutionError
        assert rebuilt.args == ("boom",)
        assert rebuilt.fuzz_seed == 42
        assert rebuilt.fuzz_case_path == "/tmp/case-000.json"
        assert "fuzz seed 42" in str(rebuilt)
        assert "case /tmp/case-000.json" in str(rebuilt)
        assert "boom" in captured.traceback_text

    def test_worker_repro_error_reraised_with_type_and_traceback(self):
        runner = _four_query_runner()
        relative = uniform_constraints(range(4), 0.5)
        cells = [
            ExperimentCell("NoShare-Uniform", relative, key="good"),
            # a pace override missing every subplan: the worker-side
            # executor raises ExecutionError("no pace for subplan ...")
            ExperimentCell("NoShare-Uniform", relative, key="bad",
                           pace_override={9999: 1}),
        ]
        with pytest.raises(ExecutionError, match="no pace for subplan") as info:
            run_cells(runner, cells, jobs=2)
        assert isinstance(info.value.__cause__, WorkerTraceback)
        assert "run_approach" in info.value.__cause__.text

    def test_worker_error_propagates_while_observing(self):
        runner = _four_query_runner()
        relative = uniform_constraints(range(4), 0.5)
        cells = [
            ExperimentCell("NoShare-Uniform", relative, key="good"),
            ExperimentCell("NoShare-Uniform", relative, key="bad",
                           pace_override={9999: 1}),
        ]
        obs.enable(process_name="test-driver")
        try:
            with pytest.raises(ExecutionError, match="no pace for subplan"):
                run_cells(runner, cells, jobs=2)
        finally:
            obs.disable()
