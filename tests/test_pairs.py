"""The pairs tool (``benchmarks/pairs.py``): alternating order, per-metric
wins by the metric's direction, and the sign test over them."""

import importlib.util
import json
import os
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "benchmarks", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sign_test_p_values(pairs):
    assert pairs.sign_test_p(10, 0) == pytest.approx(2 / 1024)
    assert pairs.sign_test_p(0, 10) == pairs.sign_test_p(10, 0)
    assert pairs.sign_test_p(9, 1) == pytest.approx(22 / 1024)
    assert pairs.sign_test_p(5, 5) == 1.0
    assert pairs.sign_test_p(0, 0) == 1.0


def test_wins_follow_the_metric_direction(pairs):
    parent = [{"rss": 50.0 + i, "rate": 1.0} for i in range(4)]
    change = [{"rss": 40.0 + i, "rate": 1.0 + (i % 2)} for i in range(4)]
    summary = pairs.summarize(
        parent, change, {"rss": "lower", "rate": "higher"})
    rss, rate = summary["rss"], summary["rate"]
    assert (rss["wins"], rss["losses"], rss["ties"]) == (4, 0, 0)
    assert rss["delta"] == pytest.approx(-10 / 51.5)
    assert rss["parent"]["median"] == 51.5
    assert rss["parent"]["q1"] <= 51.5 <= rss["parent"]["q3"]
    assert (rate["wins"], rate["losses"], rate["ties"]) == (2, 0, 2)
    assert rate["p"] == pytest.approx(0.5)


def test_sides_alternate_and_a_failed_pair_is_dropped(pairs, monkeypatch):
    calls = []

    def run_child(checkout, args, pycache):
        calls.append(checkout)
        if len(calls) == 6:  # the second pair's second child
            return None
        return {"rss": 40.0 if checkout == pairs.ROOT else 50.0}

    monkeypatch.setattr(pairs, "run_child", run_child)
    parent, change, failures = pairs.measure(
        SimpleNamespace(pairs=3, scratch="scratch"), "base",
        log=lambda line: None)
    # one warm-up per side, then the pairs
    assert calls == ["base", pairs.ROOT, "base", pairs.ROOT, pairs.ROOT,
                     "base", "base", pairs.ROOT]
    assert failures == 1
    assert parent == [{"rss": 50.0}] * 2 and change == [{"rss": 40.0}] * 2


def test_each_side_has_its_own_bytecode_cache_and_a_warm_up(
        pairs, monkeypatch, tmp_path):
    children = []
    report = {"correct": True, "failed": 0,
              "metrics": {"rss": {"value": 1.0}}}

    def run(command, cwd, env, **kwargs):
        children.append((cwd, env["PYTHONPYCACHEPREFIX"]))
        return SimpleNamespace(returncode=0, stdout=json.dumps(report))

    monkeypatch.setattr(pairs.subprocess, "run", run)
    args = SimpleNamespace(pairs=2, scratch=str(tmp_path), workload="w",
                           seed=5, size="tiny", seconds=1.0)
    parent, change, failures = pairs.measure(args, "base",
                                             log=lambda line: None)
    assert (len(parent), len(change), failures) == (2, 2, 0)
    # a warm-up child per side before the 2 x 2 measured ones
    assert [cwd for cwd, _ in children] == [
        "base", pairs.ROOT, "base", pairs.ROOT, pairs.ROOT, "base"]
    caches = dict(children)
    assert len(caches) == 2 and len(set(caches.values())) == 2
    for cwd, cache in children:
        assert cache == caches[cwd]
        assert cache.startswith(str(tmp_path) + os.sep)
        assert not cache.startswith(cwd)
