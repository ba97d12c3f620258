"""Smoke test of the benchmark: every workload once, at a small size, through ``run.py``.

    python3 -m pytest -q perfbench

The sizes are the smallest at which the statistical output checks of seed 1
still pass with a clear margin.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SCALE = {"fit-grid": 0.4, "score-replay": 0.2, "grow-scan": 0.2}


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(root / HERE.name / "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
        "--scale", str(SMOKE_SCALE[workload]),
    ]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", SMOKE_SCALE)
def test_workload_reports_every_metric_with_no_errors(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in spec["workloads"]}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = bench(ROOT, workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], done.stderr
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[group]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace:
            assert result["metrics"]["bench.error_rate"]["value"] == 0
            assert result["metrics"]["bench.span_coverage"]["value"] >= 0.95
        else:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "fit-grid", 0)
    assert done.returncode != 0
    assert done.stdout == ""
