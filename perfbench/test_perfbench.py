"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from worker import failure  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """One untraced and one traced batch of grid-quadrant."""
    directory = tmp_path_factory.mktemp("grid-quadrant")
    deadline = time.monotonic() + run.DEADLINE_S
    run.child(["setup", "grid-quadrant", directory, 1, 0], deadline)
    plain = run.child(["calls", "grid-quadrant", directory, 7, 0, 0], deadline)
    traced = run.child(["calls", "grid-quadrant", directory, 7, 0, 1], deadline)
    return plain, traced


def test_tracing_keeps_reports_identical(grid):
    plain, traced = grid
    assert plain["consistent"] and traced["consistent"]
    assert plain["report_digest"] == traced["report_digest"]


def test_self_times_add_up_to_call_wall_time(grid):
    _, traced = grid
    walls = [t for batch in traced["batches"] for t in batch["times"]]
    self_times = traced["trace"]["self_times"]
    assert len(self_times) == len(walls) > 0
    for per, wall in zip(self_times, walls):
        assert sum(per.values()) == pytest.approx(wall, rel=0.01, abs=0.002)
        assert all(seconds >= -1e-6 for seconds in per.values())


def test_every_named_metric_is_reported(grid):
    _, traced = grid
    assert traced["trace"]["missing"] == []
    metrics = layer_metrics(traced["trace"]["self_times"], traced["trace"]["counters"], 1)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def test_known_defects_show_as_failed_probes(grid):
    plain, _ = grid
    assert run.summarize(plain)["failed"] == 0
    assert [p["failure"] for p in plain["probes"]] == [
        "pass with non-finite theoretical=inf",
        "raised OverflowError",
    ]


def _report(tmp_path, passed, theoretical):
    path = tmp_path / "r.csv"
    path.write_text(f"inequality,pass,theoretical\nhardy,{passed},{theoretical}\n")
    return path


def test_failure_rules(tmp_path):
    ok = _report(tmp_path, "True", "1e30")
    assert failure(0, None, ok) is None
    assert failure(None, "OverflowError", ok) == "raised OverflowError"
    assert failure(1, None, ok) == "exit code 1"
    assert failure(0, None, tmp_path / "missing.csv") == "no report that parses"
    assert "disagrees" in failure(2, None, ok)
    assert "non-finite" in failure(0, None, _report(tmp_path, "True", "inf"))
    assert failure(2, None, _report(tmp_path, "False", "inf")) is None


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "grid-quadrant", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
