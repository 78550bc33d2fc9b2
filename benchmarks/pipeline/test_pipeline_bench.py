"""The pipeline benchmark keeps its contract.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run with
``python -m pytest benchmarks/pipeline/test_pipeline_bench.py``.
Everything runs at the ``tiny`` size, a few seconds in total.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    return run.load_manifest()


class TestManifest:
    def test_keys_and_limits(self, manifest):
        assert set(manifest) == {"command", "paths", "run_seconds",
                                 "workloads", "end_to_end", "per_layer"}
        assert 2 <= len(manifest["workloads"]) <= 8
        assert 1 <= len(manifest["end_to_end"]) <= 16
        assert 1 <= len(manifest["per_layer"]) <= 128
        assert isinstance(manifest["run_seconds"], int)
        assert 1 <= manifest["run_seconds"] <= 60
        assert manifest["paths"] == ["benchmarks/pipeline"]

    def test_names_and_units(self, manifest):
        entries = (manifest["workloads"] + manifest["end_to_end"]
                   + manifest["per_layer"])
        names = [entry["name"] for entry in entries]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        for entry in manifest["end_to_end"] + manifest["per_layer"]:
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")
        for entry in manifest["workloads"]:
            assert set(entry) == {"name", "why"}
            assert len(entry["why"]) <= 200 and "\n" not in entry["why"]

    def test_bounds(self, manifest):
        for entry in manifest["end_to_end"]:
            assert set(entry) == {"name", "unit", "better", "bound"}
            assert 0 < entry["bound"] <= 0.25
        for entry in manifest["per_layer"]:
            assert set(entry) == {"name", "unit", "better"}
        setup = [e for e in manifest["end_to_end"] if e["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s"
        assert setup[0]["better"] == "lower"


def _contract_run(workload, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        stdout=subprocess.PIPE, check=True, timeout=120,
    )
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["plan_22q", "exec_lazy_22q",
                                      "exec_eager_22q", "service_churn"])
class TestContractOutput:
    def test_end_to_end_metrics(self, manifest, workload):
        line = _contract_run(workload, 0)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        declared = {e["name"]: e["unit"] for e in manifest["end_to_end"]}
        assert set(line["metrics"]) == set(declared)
        for name, entry in line["metrics"].items():
            assert entry["unit"] == declared[name]
            assert entry["value"] > 0, name

    def test_per_layer_metrics(self, manifest, workload):
        line = _contract_run(workload, 1)
        assert line["correct"] is True
        declared = {e["name"]: e["unit"] for e in manifest["per_layer"]}
        assert set(line["metrics"]) == set(declared)
        for name, entry in line["metrics"].items():
            assert entry["unit"] == declared[name]
            assert isinstance(entry["value"], (int, float)), name
        values = {k: v["value"] for k, v in line["metrics"].items()}
        assert values["trace.overhead_ratio"] > 0
        assert values["trace.spans"] > 0
        # the named self times plus the remainder are the traced wall
        assert 0 <= values["engine.other_share"] < 0.5
        trace_path = os.path.join(HERE, "out", "trace-%s.json" % workload)
        with open(trace_path) as handle:
            events = json.load(handle)["traceEvents"]
        assert {event["pid"] for event in events} == {1, 2}


class TestRecorder:
    def test_self_times_sum_to_the_root(self):
        recorder = tracing.Recorder()

        def leaf():
            time.sleep(0.002)

        wrapped_leaf = recorder.wrap(leaf, "physical.source")

        def parent():
            wrapped_leaf()
            time.sleep(0.001)
            wrapped_leaf()

        wrapped_parent = recorder.wrap(parent, "engine.run")
        with recorder.root("window"):
            wrapped_parent()
            time.sleep(0.001)
        recorder.scale_last(2.0)
        metrics, calls, wall, accounted = recorder.summary()
        assert calls["physical.source"] == 2 and calls["engine.run"] == 1
        root = recorder.spans[0]
        assert wall == pytest.approx(2.0 * (root[tracing.END] - root[tracing.START]))
        own_root = wall - metrics["engine.run_s"]
        assert accounted + own_root == pytest.approx(wall)
        assert metrics["physical.source_self_s"] >= 2.0 * 0.004
        assert metrics["engine.driver_self_s"] >= 2.0 * 0.001

    def test_inactive_outside_a_root(self):
        recorder = tracing.Recorder()
        wrapped = recorder.wrap(lambda: 7, "cost.evaluate")
        assert wrapped() == 7
        assert recorder.spans == []

    def test_missing_target_is_listed_not_raised(self, monkeypatch):
        monkeypatch.setattr(tracing, "TARGETS", (
            ("repro.no_such_module", "thing", "x"),
            ("json", "NoSuchClass.method", "x"),
        ))
        recorder = tracing.Recorder()
        recorder.install()
        recorder.uninstall()
        assert recorder.missing == ["repro.no_such_module.thing",
                                    "json.NoSuchClass.method"]


class TestEnvironment:
    def test_children_start_scrubbed(self, monkeypatch):
        for name in ("REPRO_ENGINE_COLUMNAR", "REPRO_ENGINE_NO_FUSION",
                     "REPRO_BENCH_JOBS", "REPRO_CACHE_DIR",
                     "REPRO_SCALAR_PROBE_MAX"):
            monkeypatch.setenv(name, "1")
        env = run.child_env(columnar=False)
        assert not [name for name in env if name.startswith("REPRO_")]
        assert env["PYTHONHASHSEED"] == "0"
        assert run.child_env(columnar=True)["REPRO_ENGINE_COLUMNAR"] == "1"


class TestCompare:
    def _set(self, tmp_path, name, plan_values, work=100.0):
        record = {
            "seed": 5, "seconds": 10.0, "size": "full",
            "runs": {"plan_22q": [
                {"setup_s": 0.3, "plan_s": value, "window_exec_s": 0.2,
                 "window_exec_columnar_s": 0.2, "total_work_units": work,
                 "peak_rss_mb": 80.0, "slo_miss_frac": 0.0, "error_frac": 0.0}
                for value in plan_values
            ]},
        }
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    def test_agreeing_sets_pass(self, manifest, tmp_path, capsys):
        a = self._set(tmp_path, "a.json", [2.0, 2.01, 2.02])
        b = self._set(tmp_path, "b.json", [2.02, 2.03, 2.04])
        assert run.compare_sets(a, b, manifest) == 0
        assert "BREACH" not in capsys.readouterr().out

    def test_slowdown_is_a_breach(self, manifest, tmp_path, capsys):
        a = self._set(tmp_path, "a.json", [2.0, 2.01, 2.02])
        b = self._set(tmp_path, "b.json", [3.0, 3.01, 3.02])
        assert run.compare_sets(a, b, manifest) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_noisy_sets_are_unresolved(self, manifest, tmp_path, capsys):
        a = self._set(tmp_path, "a.json", [1.0, 2.0, 3.0])
        b = self._set(tmp_path, "b.json", [1.5, 2.5, 3.5])
        assert run.compare_sets(a, b, manifest) == 0
        assert "unresolved" in capsys.readouterr().out

    def test_deterministic_metrics_must_be_identical(self, manifest, tmp_path):
        a = self._set(tmp_path, "a.json", [2.0, 2.0, 2.0], work=100.0)
        b = self._set(tmp_path, "b.json", [2.0, 2.0, 2.0], work=100.5)
        assert run.compare_sets(a, b, manifest) == 1


def test_clock_samples_the_kernel_inside_a_long_call(monkeypatch):
    monkeypatch.setattr(timing, "ref_seconds", lambda: timing.REF_NOMINAL_S / 2.0)
    clock = timing.Clock()

    def busy():
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
        return 7

    plain = clock.timed(busy)
    assert plain.result == 7 and plain.scale == pytest.approx(2.0)
    sampled = clock.timed(busy, sample_every=0.01)
    # the readings taken inside agree with the ends here, and the timer
    # and its handler are gone afterwards
    assert sampled.result == 7 and sampled.scale == pytest.approx(2.0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_middle_mean_drops_preempted_readings():
    readings = [1.0, 1.0, 1.1, 0.9, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0]
    assert timing._middle_mean(readings) == pytest.approx(1.0)
    assert timing._middle_mean([1.0, 3.0]) == pytest.approx(2.0)


def test_spread_matches_the_contract_definition():
    values = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    import statistics
    q = statistics.quantiles(values, n=4)
    assert timing.spread(values) == pytest.approx((q[2] - q[0]) / q[1])
