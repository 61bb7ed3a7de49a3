"""Smoke test for the benchmark: a quick pass_sweep run completes, checks its
own outputs and reports every end-to-end metric that BENCHMARK.json declares.
No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_pass_sweep_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pass_sweep", "--seed", "1",
         "--seconds", "0.5", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]
