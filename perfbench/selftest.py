#!/usr/bin/env python3
"""Self-test of the relqopt benchmark.

    python3 perfbench/selftest.py

1. Quick mode: every workload, untraced and traced, prints as its last line
   a JSON result with exactly the keys correct, attempted and failed and
   metrics, and the metrics are exactly the end-to-end (untraced) or
   per-layer (traced) names of BENCHMARK.json, with their units.
2. The checker checks: for each workload, one op whose output or expected
   value is deliberately wrong must be counted as a failure.

Exits 0 when every case passes.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import run  # noqa: E402


def quick_runs(spec):
    problems = []
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: not correct: {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ: missing {sorted(want.keys() - got)}, "
                                f"extra {sorted(got.keys() - want)}, units "
                                f"{[k for k in want.keys() & got if want[k] != got[k]]}")
            for k, v in result["metrics"].items():
                if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
                    problems.append(f"{where}: {k} = {v['value']!r}")
            print(f"{'ok  ' if not problems else 'FAIL'} quick {where}", flush=True)
    return problems


class Corrupted:
    """A workload whose op output is passed through `spoil` before checking."""

    def __init__(self, inner, spoil):
        self.inner, self.spoil = inner, spoil

    def op(self, item):
        return self.spoil(item, self.inner.op(item))

    def check(self, item, out):
        return self.inner.check(item, out)


def _first_item(items, pred=lambda item: True):
    return [next(item for item in items if pred(item))]


def fault_cases(workdir):
    """(name, workload, items) whose single op must be counted as failed."""
    cases = []

    cli_mix = importlib.import_module("cli_mix")
    wl = cli_mix.Workload()
    items = _first_item(wl.setup(1, workdir), lambda a: "csv" in a and a[0] == "report")
    key = tuple(items[0])
    rows = cli_mix.expected_rows(items[0])
    name, value = rows[0]
    wl.expected[key] = [(name, value * (1 + 1e-12))] + rows[1:]
    cases.append(("cli_mix: expected value off in the 12th digit", wl, items))

    pass_sweep = importlib.import_module("pass_sweep")
    wl = pass_sweep.Workload()
    lo, hi = pass_sweep.THETA_RANGE
    items = _first_item(wl.setup(1, workdir), lambda item: all(
        lo <= pass_sweep._angles(k)[0] <= hi for k in wl.op(item)[1]))

    def bend_angle(item, out):
        beta, beams, angles, end = out
        return beta, beams, [a + 1e-6 for a in angles], end

    cases.append(("pass_sweep: Wigner angles off by 1e-6 rad", Corrupted(wl, bend_angle), items))

    scan = importlib.import_module("scenario_scan")
    wl = scan.Workload()
    all_items = wl.setup(1, workdir)
    valid = _first_item(all_items, lambda it: not it[1])
    invalid = _first_item(all_items, lambda it: it[1])
    report = importlib.import_module("relqopt.scenario")

    def nan_row(item, out):
        e = out.entries[0]
        return report.EffectReport((report.ReportEntry(e.effect, math.nan, e.unit, e.paper_ref),
                                    *out.entries[1:]))

    cases.append(("scenario_scan: a NaN report row", Corrupted(wl, nan_row), valid))
    cases.append(("scenario_scan: an invalid file expected to load",
                  Corrupted(wl, lambda item, out: report.run_report(report.Scenario())), invalid))

    diff = importlib.import_module("diffusion_witness")
    wl = diff.Workload()
    items = wl.setup(1, workdir)[:1]
    cases.append(("diffusion_witness: deviation of 1e-6",
                  Corrupted(wl, lambda item, out: (1e-6, out[1])), items))
    return cases


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = quick_runs(spec)
    workdir = common.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl, items in fault_cases(workdir):
            res = common.closed_loop(wl, items, 0.0, common.Cursor(len(items)),
                                     common.Calibration.in_process(), min_ops=1)
            ok = res.attempted == 1 and len(res.failures) == 1
            print(f"{'ok  ' if ok else 'FAIL'} fault counted: {name}", flush=True)
            if not ok:
                problems.append(f"fault not counted: {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("problem:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
