"""The ordered-map worker pool (``repro.workers``) and its two callers.

The primitive owns the determinism contract of every ``--jobs N`` path:
task-order results, errors and observability merge; static assignment
while tracing; the driver's calibration cache in every worker under any
multiprocessing start method; ``jobs=1`` in process.
"""

import multiprocessing
import time

import pytest

from repro import obs, workers
from repro.core.optimizer import OptimizerConfig
from repro.cost import cache as calibration_cache
from repro.engine.stream import StreamConfig
from repro.errors import ExecutionError
from repro.harness.parallel import ExperimentCell, run_cells
from repro.harness.runner import ExperimentRunner
from repro.harness.service import run_service_schedule
from repro.obs import OBS
from repro.workers import WorkerTraceback, ordered_map
from repro.workloads.constraints import uniform_constraints

from .util import (
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)


@pytest.fixture(autouse=True)
def _clean_session():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def spawn_start_method():
    """Force ``spawn``: workers start from a fresh import, so nothing the
    driver set at run time reaches them unless the pool ships it."""
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


# -- module-level task functions (they cross the process boundary) ----------------

def _sleep_then_echo(shared, task):
    delay, value = task
    time.sleep(delay)
    return shared, value


def _log_or_fail(_shared, task):
    if OBS.enabled:
        OBS.declog.log("task_ran", task=task)
    if task == "bad":
        raise ExecutionError("boom").attach_fuzz_context(
            seed=42, case_path="/tmp/case-000.json"
        )
    return task


def _cache_probe(_shared, _task):
    cache = calibration_cache.get_default_cache()
    return None if cache is None else cache.cache_dir


# -- the primitive ------------------------------------------------------------------

class TestOrderedMap:
    def test_results_in_task_order_despite_completion_order(self):
        tasks = [(0.4, "slow"), (0.0, "fast"), (0.0, "faster")]
        outcomes = ordered_map(_sleep_then_echo, tasks, jobs=3, shared="s")
        assert [result for result, _ in outcomes] == [
            ("s", "slow"), ("s", "fast"), ("s", "faster"),
        ]
        seconds = [elapsed for _, elapsed in outcomes]
        assert seconds[0] >= 0.4 > seconds[1]

    def test_middle_error_reraised_after_earlier_payloads_only(self):
        obs.enable(process_name="driver")
        with pytest.raises(ExecutionError, match="boom") as info:
            # traced: worker 0 owns "first" and "later", worker 1 "bad",
            # so "later" completes and ships a payload that must be dropped
            ordered_map(_log_or_fail, ["first", "bad", "later"], jobs=2)
        error = info.value
        assert type(error) is ExecutionError and error.args == ("boom",)
        assert error.fuzz_seed == 42
        assert error.fuzz_case_path == "/tmp/case-000.json"
        assert isinstance(error.__cause__, WorkerTraceback)
        assert "_log_or_fail" in error.__cause__.text
        assert [r["task"] for r in OBS.declog.records] == ["first", "bad"]
        assert [r["run"] for r in OBS.declog.records] == ["task-0", "task-1"]

    def test_in_process_error_is_the_original_exception(self):
        obs.enable(process_name="driver")
        OBS.declog.set_run("outer")
        with pytest.raises(ExecutionError, match="boom") as info:
            ordered_map(_log_or_fail, ["first", "bad", "later"], jobs=1)
        assert info.value.__cause__ is None  # raised here, not rebuilt
        assert [r["task"] for r in OBS.declog.records] == ["first", "bad"]
        assert OBS.declog.run_id == "outer"

    def test_jobs_one_and_single_task_never_construct_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("constructed a process pool")

        monkeypatch.setattr(workers, "ProcessPoolExecutor", no_pool)
        tasks = [(0.0, index) for index in range(3)]
        serial = ordered_map(_sleep_then_echo, tasks, jobs=1, shared="s")
        assert [result for result, _ in serial] == [
            ("s", 0), ("s", 1), ("s", 2),
        ]
        single = ordered_map(_sleep_then_echo, tasks[:1], jobs=4, shared="s")
        assert [result for result, _ in single] == [("s", 0)]
        assert ordered_map(_sleep_then_echo, [], jobs=4) == []

    def test_workers_see_the_drivers_calibration_cache(self, tmp_path):
        previous = calibration_cache.get_default_cache()
        calibration_cache.set_default_cache(
            calibration_cache.CalibrationCache(str(tmp_path))
        )
        try:
            outcomes = ordered_map(_cache_probe, range(3), jobs=2)
        finally:
            calibration_cache.set_default_cache(previous)
        assert [result for result, _ in outcomes] == [str(tmp_path)] * 3


# -- engine mode across start methods ------------------------------------------------

class TestEngineModeUnderSpawn:
    """``spawn`` workers re-import ``repro``: with nothing to switch, they
    run the one production backend the driver runs."""

    def test_run_cells_reports_the_serial_engine_mode(self, spawn_start_method):
        runner = _toy_runner()
        cells = _toy_cells()
        serial = run_cells(runner, cells, jobs=1)
        parallel = run_cells(runner, cells, jobs=2)
        for ser, par in zip(serial, parallel):
            assert ser.result.run.metadata["engine_mode"] == "columnar"
            assert par.result.run.metadata == ser.result.run.metadata
            assert par.result.total_work == ser.result.total_work
            assert par.result.missed.absolute == ser.result.missed.absolute


def test_service_schedule_bit_identical_under_spawn(spawn_start_method):
    """Full report and merged decision log, traced, serial vs ``jobs=2``."""
    import json

    states = []
    for jobs in (1, 2):
        obs.disable()
        obs.enable(process_name="driver")
        report = run_service_schedule(SCHEDULE, jobs=jobs)
        states.append(
            (json.dumps(report, sort_keys=True), list(OBS.declog.records))
        )
    assert states[0] == states[1]


def _imported_modules(path, root):
    """Every module ``path`` (a file under package ``root``) imports,
    relative imports resolved, ``from m import n`` also as ``m.n``."""
    import ast

    package = ("repro",) + path.relative_to(root).parent.parts
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            parts = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join(parts + ((node.module,) if node.module else ()))
            yield module
            for alias in node.names:
                yield "%s.%s" % (module, alias.name)


def test_engine_matrix_guard():
    """No toggle, no environment switch, one production backend, one
    process pool -- and a reference that knows nothing of arrangements,
    which only the fuzz package imports."""
    import pathlib
    import re

    import repro
    from repro.physical import hotpath

    assert not hasattr(hotpath, "EngineMode")
    root = pathlib.Path(repro.__file__).parent
    sources = {path: path.read_text() for path in root.rglob("*.py")}
    switches = {
        name for text in sources.values()
        for name in re.findall(r"REPRO_ENGINE_[A-Z_]+", text)
    }
    assert switches == set()
    retired = re.compile(
        r"_advance_batched|_apply_batched|_process_batch|columnar_available"
        r"|COLUMNAR_KILLED|_columnar_active|_advance_arranged|arranged_state"
        r"|run_parallel|EngineMode|HOTPATH\b|engine_mode\(|_runtime_reference"
        r"|_runtime_mode|REPRO_ENGINE_UNBATCHED"
    )
    assert not [
        path.name for path, text in sources.items() if retired.search(text)
    ]
    assert "arrang" not in (root / "physical" / "operators.py").read_text()
    importers = sorted(
        str(path.relative_to(root)) for path in sources
        if "repro.physical.operators" in set(_imported_modules(path, root))
    )
    assert importers and all(
        name.startswith("fuzz/") for name in importers
    ), importers
    pools = [
        path.name for path, text in sources.items()
        if "ProcessPoolExecutor(" in text
    ]
    assert pools == ["workers.py"]


def test_production_never_loads_the_oracle():
    """The per-tuple operators and the fuzz package stay out of a process
    that only plans, calibrates, serves and runs experiments."""
    import pathlib
    import subprocess
    import sys

    import repro

    script = (
        "import sys\n"
        "import repro.service.core, repro.harness.experiments\n"
        "import repro.core.optimizer, repro.engine.calibrate, repro.workers\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name == 'repro.physical.operators'\n"
        "             or name.startswith('repro.fuzz')))\n"
    )
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=str(src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout


# -- static assignment under observability, per caller ------------------------------

def _toy_runner():
    catalog = make_toy_catalog(seed=23)
    queries = [
        toy_query_total(catalog, 0),
        toy_query_region(catalog, 1, region="EU"),
        toy_query_max(catalog, 2),
        toy_query_region(catalog, 3, region="US"),
    ]
    config = OptimizerConfig(max_pace=6, stream_config=StreamConfig())
    return ExperimentRunner(catalog, queries, config)


def _toy_cells():
    relative = uniform_constraints(range(4), 0.5)
    return [
        ExperimentCell(name, relative)
        for name in ("iShare", "NoShare-Uniform", "Share-Uniform")
    ]


SCHEDULE = {
    "workload": {"scale": 0.04, "seed": 100},
    "window_seconds": 60.0,
    "windows": 2,
    "shards": 3,
    "max_pace": 4,
    "events": [
        {"at": 0.0, "op": "register", "query_id": 0, "tenant": "alpha",
         "query": "Q1", "goal": 5.0},
        {"at": 5.0, "op": "register", "query_id": 1, "tenant": "beta",
         "query": "Q6", "goal": 5.0},
        {"at": 6.0, "op": "register", "query_id": 2, "tenant": "gamma",
         "query": "Q12", "goal": 5.0},
    ],
}


def _merged_obs_state():
    spans = [e for e in OBS.tracer.events if e.get("ph") == "X"]
    return (
        [(r["run"], r["seq"], r["event"]) for r in OBS.declog.records],
        [e.get("args") for e in spans],
        [e["name"] for e in spans],
    )


class TestStaticAssignmentWhileTracing:
    """Two consecutive traced ``jobs=2`` runs merge to the same decision
    log, span arguments and span-name sequence: worker ``k`` owns tasks
    ``k::2``, so each worker's warm/cold history repeats exactly."""

    @pytest.fixture(autouse=True)
    def _no_disk_cache(self):
        # an on-disk calibration cache would be cold for the first run
        # and warm for the second, whatever the assignment
        previous = calibration_cache.get_default_cache()
        calibration_cache.set_default_cache(None)
        yield
        calibration_cache.set_default_cache(previous)

    def _twice(self, run):
        states = []
        for _ in range(2):
            obs.disable()
            obs.enable(process_name="driver")
            run()
            states.append(_merged_obs_state())
        first, second = states
        assert first[1] and first[2]  # (the engine alone logs no decisions)
        assert first[0] == second[0], "decision logs diverged"
        assert first[1] == second[1], "span arguments diverged"
        assert first[2] == second[2], "span sequences diverged"
        return first

    def test_run_cells(self):
        declog, _, spans = self._twice(
            lambda: run_cells(_toy_runner(), _toy_cells(), jobs=2)
        )
        assert {run for run, _, _ in declog} <= {"cell-0", "cell-1", "cell-2"}
        assert spans.count("harness.cell") == 3

    def test_run_service_schedule(self):
        declog, _, _ = self._twice(
            lambda: run_service_schedule(SCHEDULE, jobs=2)
        )
        # crc32 leaves one of the three shards without a tenant
        runs = {run for run, _, _ in declog}
        assert len(runs) == 2 and runs < {"shard-0", "shard-1", "shard-2"}
