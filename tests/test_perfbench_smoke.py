"""Smoke tests for the benchmark: quick pass_sweep and diffusion_witness runs
complete, check their own outputs and report every end-to-end metric that
BENCHMARK.json declares.  No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quick_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]


def test_quick_pass_sweep_reports_every_end_to_end_metric():
    _quick_run("pass_sweep")


def test_quick_diffusion_witness_reports_every_end_to_end_metric():
    _quick_run("diffusion_witness")
