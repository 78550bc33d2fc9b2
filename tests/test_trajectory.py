"""The trajectory gate (``benchmarks/trajectory.py``) sees drift that a
comparison of neighbours cannot, and still holds identities step by step."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", os.path.join(ROOT, "benchmarks", "trajectory.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(pr, window_s, work=100.0, platform="image-a"):
    runs = [
        {"setup_s": 0.3, "plan_s": 0.8, "window_exec_s": window_s * factor,
         "window_exec_columnar_s": window_s, "total_work_units": work,
         "peak_rss_mb": 80.0, "slo_miss_frac": 0.0, "error_frac": 0.0}
        for factor in (0.99, 1.0, 1.01)
    ]
    return {"pr": pr, "commit": "c%d" % pr, "set": {
        "seed": 5, "seconds": 20.0, "size": "full",
        "stamp": {"platform": platform}, "runs": {"plan_22q": runs}}}


def write(tmp_path, entries):
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps({"entries": entries}))
    return str(path)


def compare(trajectory, tmp_path, set_a, set_b):
    paths = []
    for name, item in (("a", set_a), ("b", set_b)):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(item))
        paths.append(str(path))
    return trajectory.pipeline.compare_sets(
        paths[0], paths[1], trajectory.pipeline.load_manifest())


def test_creeping_drift_breaches_while_every_neighbour_passes(
        trajectory, tmp_path, capfd):
    # +8% per entry: each step is inside the 25% bound, four steps are not
    entries = [entry(pr, 0.1 * 1.08 ** pr) for pr in range(5)]
    for older, newer in zip(entries, entries[1:]):
        assert compare(trajectory, tmp_path, older["set"], newer["set"]) == 0
    manifest = trajectory.pipeline.load_manifest()
    best, picks = trajectory.best_set(entries, manifest, trajectory.LAST)
    assert picks[("plan_22q", "window_exec_s")] == 0
    assert ("plan_22q", "plan_s") not in picks  # a tie keeps HEAD's runs
    assert trajectory.main(write(tmp_path, entries), str(tmp_path)) == 1
    assert "BREACH" in capfd.readouterr().out
    written = json.loads((tmp_path / "trajectory-best.json").read_text())
    assert written == best
    # a window that no longer reaches back to the fast entries passes
    narrow, _ = trajectory.best_set(entries, manifest, 2)
    assert compare(trajectory, tmp_path, narrow, entries[-1]["set"]) == 0


def test_a_changed_identity_fails_one_step(trajectory, tmp_path):
    entries = [entry(0, 0.1, work=90.0), entry(1, 0.1, work=100.0)]
    best, picks = trajectory.best_set(
        entries, trajectory.pipeline.load_manifest(), trajectory.LAST)
    assert [run["total_work_units"] for run in best["runs"]["plan_22q"]] == [
        90.0] * 3
    assert picks[("plan_22q", "total_work_units")] == 0
    assert trajectory.main(write(tmp_path, entries), str(tmp_path)) == 1
    # once the new value is recorded, the next entry is held to it
    entries.append(entry(2, 0.1, work=100.0))
    assert trajectory.main(write(tmp_path, entries), str(tmp_path)) == 0


def test_entries_measured_differently_are_not_candidates(trajectory):
    other_seed = entry(1, 0.05)
    other_seed["set"]["seed"] = 6
    other_image = entry(2, 0.05, work=90.0, platform="image-b")
    entries = [entry(0, 0.1), other_seed, other_image, entry(3, 0.1)]
    best, picks = trajectory.best_set(
        entries, trajectory.pipeline.load_manifest(), trajectory.LAST)
    assert set(picks.values()) == {0}  # only the identities, from PR 0
    assert best["runs"] == entries[0]["set"]["runs"]


def test_head_without_a_comparable_predecessor_fails(trajectory, tmp_path):
    entries = [entry(0, 0.1), entry(1, 0.1, platform="image-b")]
    with pytest.raises(ValueError, match="re-measured"):
        trajectory.best_set(
            entries, trajectory.pipeline.load_manifest(), trajectory.LAST)
    assert trajectory.main(write(tmp_path, entries), str(tmp_path)) == 2


def test_a_pairs_block_is_cited_and_not_gated(trajectory, tmp_path, capfd):
    entries = [entry(0, 0.1), entry(1, 0.1)]
    entries[-1]["pairs"] = [{
        "workload": "plan_22q", "seed": 5, "pairs": 10,
        "metrics": {"peak_rss_mb": {"delta": -0.2, "wins": 10}},
    }]
    assert trajectory.main(write(tmp_path, entries), str(tmp_path)) == 0
    assert "pairs plan_22q seed 5, 10 pairs: peak_rss_mb -20.0% (10/10 won)" \
        in capfd.readouterr().out
