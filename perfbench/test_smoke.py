"""Smoke test of the benchmark command.

    python3 -m pytest perfbench

Every workload runs at its tiny size in both trace modes; the command
itself fails unless each run is correct and prints every BENCHMARK.json
metric with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_runs_every_workload_with_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                           "--smoke"], capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        assert f"\n{workload['name']}  trace=0" in proc.stdout
        assert f"\n{workload['name']}  trace=1" in proc.stdout
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert f" {metric['name']} " in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pron-tree",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
