"""The lane-threshold sweep (``benchmarks/lane_sweep.py``) at its smoke
size: it runs, finds the same work at every threshold, and writes the
JSON shape docs/PERFORMANCE.md's sweep table is read from."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tiny_sweep_reports_identical_work_and_writes_json(tmp_path):
    output = tmp_path / "sweep.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "lane_sweep.py"),
         "--size", "tiny", "--output", str(output)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "at every threshold" in done.stdout
    report = json.loads(output.read_text())
    assert set(report) == {"seed", "rounds", "paces", "update_fraction",
                           "scales"}
    assert report["paces"] == [1, 3]
    (entry,) = report["scales"]
    assert entry["scale"] == 0.05 and entry["total_quanta"] > 0
    rows = {row["row_lane_max"]: row for row in entry["rows"]}
    assert set(rows) == {0, 1 << 30}
    for row in rows.values():
        assert set(row) == {"row_lane_max", "median", "q1", "q3", "delta",
                            "wins", "peak_rss_mb", "numpy", "vector_batches"}
        assert 0 <= row["wins"] <= report["rounds"]
        assert row["q1"] <= row["median"] <= row["q3"]
        assert set(row["vector_batches"]) == {"source", "join", "aggregate"}
    # the first threshold is the baseline
    assert rows[0]["delta"] == 0.0 and rows[0]["wins"] == 0
    # with no vector lane nothing reaches a vector kernel or loads NumPy
    assert not any(rows[1 << 30]["vector_batches"].values())
    assert not rows[1 << 30]["numpy"]
