"""Tests of the benchmark itself (not collected by the repository's test suite).

    python3 -m pytest bench/test_bench.py

They start bench/run.py from the repository root, as a user would, so they
take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def traced_result(workload: str, seed: int) -> dict:
    out = run_bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_count_metrics_repeat_exactly():
    first = traced_result("semigroup", 1)
    second = traced_result("semigroup", 2)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = sorted(n for n, m in first["metrics"].items() if m["unit"] == "count")
    assert "spectral.uniformization_terms" in counts and "statespace.states" in counts
    assert first["metrics"]["spectral.uniformization_terms"]["value"] > 0
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
