#!/usr/bin/env python3
"""Write one committed performance snapshot of this checkout: BENCH_<NNN>_<sha7>.json.

    python3 bench/snapshot.py                 # 5 seeds x 4 workloads, untraced and traced
    python3 bench/snapshot.py --quick         # shape only: one seed, perfbench --quick

Run it from anywhere; it measures the checkout it lives in.  First it
compiles src/relqopt into the in-tree __pycache__ (`python -m compileall`),
so every snapshot starts from the same bytecode state: without it a module
whose .pyc is missing or stale is compiled again in every CLI child, and an
edit is charged its compile time.  Then it runs perfbench/run.py for every
workload, untraced and traced, seed by seed, alternating between workloads.
The file holds the machine, the git SHA, the bytecode state, and for each
workload the median and quartiles over seeds of every end-to-end metric,
every per-layer metric and the `cli_mix` floors.  NNN is one more than the
highest number already in bench/.  Old files are never rewritten.

Each seed also runs `cli_mix` untraced in the source state, under the key
`cli_mix_from_source`: src/relqopt/__pycache__ is removed and the run has
PYTHONDONTWRITEBYTECODE=1, so every child compiles relqopt from source, as
in a fresh checkout whose bytecode is not kept.  Import work weighs several
times more there than with bytecode.  The tree is compiled again afterwards.

--quick is for the tier-1 shape test: one seed, 0.5 s perfbench --quick
runs, traced only on pass_sweep (every traced run reports every per-layer
metric, because the probes run in each).  Its compiled-state runs go two at
a time; the run from source still goes alone, after them, because it
removes __pycache__ and counts the .pyc files.  Its numbers mean nothing, so
it prints the document to stdout and writes no file.  Without --quick every
run goes alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib.util import cache_from_source
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "bench"
WORKLOADS = ("cli_mix", "pass_sweep", "scenario_scan", "diffusion_witness")
SEEDS = (8101, 8102, 8103, 8104, 8105)
SECONDS = 20.0
QUICK_TRACED = "pass_sweep"
QUICK_CONCURRENT = 2
_FLOOR_LINE = re.compile(r"# (cli\.floor_\w+_ms) (\S+) ms$")


def compile_sources() -> dict:
    """Compile src/relqopt in place and report how many modules have bytecode
    that matches their source (the .pyc header's size and mtime)."""
    src = ROOT / "src" / "relqopt"
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], check=True)
    modules = sorted(src.glob("*.py"))
    current = 0
    for path in modules:
        try:
            header = Path(cache_from_source(str(path))).read_bytes()[:16]
        except OSError:
            continue
        stat = path.stat()
        if (int.from_bytes(header[8:12], "little") == int(stat.st_mtime) & 0xFFFFFFFF
                and int.from_bytes(header[12:16], "little") == stat.st_size & 0xFFFFFFFF):
            current += 1
    return {"compiled_by": "python -m compileall -q src/relqopt",
            "cache_tag": sys.implementation.cache_tag,
            "modules": len(modules), "modules_with_current_pyc": current}


@contextlib.contextmanager
def from_source():
    """The environment of a run without relqopt bytecode: none on disk, none
    written.  The compiled tree is put back afterwards."""
    shutil.rmtree(ROOT / "src" / "relqopt" / "__pycache__", ignore_errors=True)
    try:
        yield dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    finally:
        compile_sources()


def git_sha() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: float, trace: int, quick: bool,
             env=None) -> dict:
    """One perfbench run: its result line, provenance, any floor lines and the run's
    workload, seed and trace."""
    print(f"# {workload} seed={seed} trace={trace}{' from source' if env else ''}",
          file=sys.stderr, flush=True)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        argv.append("--quick")
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-300:]}")
    out = json.loads(lines[-1])
    out["provenance"] = next(json.loads(ln[len("# provenance "):]) for ln in lines
                             if ln.startswith("# provenance "))
    out["floors"] = {m[1]: float(m[2]) for m in map(_FLOOR_LINE.match, lines) if m}
    out.update(workload=workload, seed=seed, trace=trace)
    return out


def summary(values: list, unit: str) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: list, declared: dict) -> dict:
    """Median and quartiles over seeds, per workload and metric kind."""
    out = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        entry = {"attempted": sum(r["attempted"] for r in mine),
                 "failed": sum(r["failed"] for r in mine),
                 "correct": all(r["correct"] for r in mine)}
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            values = {}
            for r in (r for r in mine if r["trace"] == trace):
                for name, m in r["metrics"].items():
                    if name in declared[kind]:
                        values.setdefault(name, []).append(m["value"])
            entry[kind] = {name: summary(v, declared[kind][name]) for name, v in values.items()}
        floors = {}
        for r in mine:
            for name, v in r["floors"].items():
                floors.setdefault(name, []).append(v)
        if floors:
            entry["floors"] = {name: summary(v, "ms") for name, v in floors.items()}
        out[workload] = entry
    return out


def next_number() -> int:
    names = (re.match(r"BENCH_(\d+)_", p.name) for p in BENCH_DIR.glob("BENCH_*.json"))
    return max((int(m[1]) for m in names if m), default=0) + 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true",
                   help="shape check: one seed, quick runs, document to stdout")
    args = p.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in declared[kind]}
                for kind in ("end_to_end", "per_layer")}
    bytecode = compile_sources()
    seeds, seconds = (SEEDS[:1], 0.5) if args.quick else (SEEDS, SECONDS)
    runs, source_runs, pyc_during = [], [], []
    for seed in seeds:
        jobs = [(workload, seed, seconds, trace, args.quick)
                for workload in WORKLOADS for trace in (0, 1)
                if not (args.quick and trace and workload != QUICK_TRACED)]
        with ThreadPoolExecutor(max_workers=QUICK_CONCURRENT if args.quick else 1) as pool:
            runs.extend(pool.map(lambda job: run_once(*job), jobs))
        with from_source() as env:
            source_runs.append(run_once("cli_mix", seed, seconds, 0, args.quick, env))
            pyc_during.append(len(list((ROOT / "src" / "relqopt").glob("__pycache__/*.pyc"))))

    prov = runs[0]["provenance"]
    sha = git_sha()
    text = json.dumps({
        "git_sha": sha,
        "src_sha256": prov["src_sha256"],
        "machine": {k: prov[k] for k in ("nproc", "cpus_allowed", "python", "numpy", "blas")},
        "bytecode": bytecode,
        "runs": {"seeds": list(seeds), "seconds": seconds, "quick": args.quick,
                 "order": "per seed, each workload untraced then traced, "
                          "then cli_mix untraced from source"},
        "workloads": summarize(runs, declared),
        "cli_mix_from_source": {
            "env": {"PYTHONDONTWRITEBYTECODE": "1"},
            "relqopt_pyc_files": max(pyc_during),
            **{k: v for k, v in summarize(source_runs, declared)["cli_mix"].items()
               if k != "per_layer"}},
    }, indent=1, sort_keys=True) + "\n"
    if args.quick:
        print(text, end="")
        return 0
    path = BENCH_DIR / f"BENCH_{next_number():03d}_{sha[:7]}.json"
    path.write_text(text)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
