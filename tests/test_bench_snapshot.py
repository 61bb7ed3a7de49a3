"""Shape of the committed performance snapshot: a quick `bench/snapshot.py`
run prints every end-to-end metric per workload, every per-layer metric of
its traced run, the cli_mix floors, the bytecode state and the cli_mix run
from source.  Every workload checks its own outputs and must report them
correct with no failed op.  No timing is asserted."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_summary_gives_median_and_quartiles_over_seeds():
    spec = importlib.util.spec_from_file_location("snapshot", ROOT / "bench" / "snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    got = snapshot.summary([5.0, 1.0, 3.0, 2.0, 4.0], "ms")
    assert got == {"unit": "ms", "median": 3.0, "q1": 2.0, "q3": 4.0,
                   "runs": [5.0, 1.0, 3.0, 2.0, 4.0]}
    assert snapshot.summary([7.0], "s") == {"unit": "s", "median": 7.0, "q1": 7.0, "q3": 7.0,
                                            "runs": [7.0]}


def test_quick_snapshot_has_the_declared_shape():
    proc = subprocess.run([sys.executable, "bench/snapshot.py", "--quick"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    assert set(data["machine"]) == {"nproc", "cpus_allowed", "python", "numpy", "blas"}
    bytecode = data["bytecode"]
    assert bytecode["modules"] > 0 and bytecode["modules_with_current_pyc"] == bytecode["modules"]
    assert set(data["workloads"]) == {w["name"] for w in declared["workloads"]}
    source = data["cli_mix_from_source"]
    assert source["env"] == {"PYTHONDONTWRITEBYTECODE": "1"} and source["relqopt_pyc_files"] == 0
    assert set(source) == {"env", "relqopt_pyc_files", "attempted", "failed", "correct",
                           "end_to_end", "floors"}
    for name, workload in (*data["workloads"].items(), ("cli_mix_from_source", source)):
        assert workload["attempted"] > 0 and workload["failed"] == 0, name
        assert workload["correct"] is True, name
        for metric in declared["end_to_end"]:
            summary = workload["end_to_end"][metric["name"]]
            assert summary["unit"] == metric["unit"], (name, metric["name"])
            assert set(summary) == {"unit", "median", "q1", "q3", "runs"}
            assert len(summary["runs"]) == len(data["runs"]["seeds"])
    traced = data["workloads"]["pass_sweep"]["per_layer"]
    for metric in declared["per_layer"]:
        assert traced[metric["name"]]["unit"] == metric["unit"], metric["name"]
    for cli_mix in (data["workloads"]["cli_mix"], source):
        assert set(cli_mix["floors"]) == {
            "cli.floor_python_ms", "cli.floor_numpy_ms", "cli.floor_numpy_pinned_ms"}
