#!/usr/bin/env python3
"""relqopt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  With --trace 0 it measures the workload
untraced and reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced blocks of the same loop, then runs the per-layer
probes, and reports the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import sys
import time

import common
import tracing

ROOT = common.ROOT
WORKLOADS = ("cli_mix", "pass_sweep", "scenario_scan", "diffusion_witness")
# What ops_per_s counts on each workload.
OP_NAMES = {
    "cli_mix": "cli_invocations_per_s",
    "pass_sweep": "pass_samples_per_s",
    "scenario_scan": "scan_scenarios_per_s",
    "diffusion_witness": "witness_checks_per_s",
}
SETUP_REPS = 5
SETUP_BUDGET_S = 0.25
TRACE_ROUNDS = 4


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--quick", action="store_true",
                   help="self-test mode: one setup, no warm-up, minimal probes")
    return p.parse_args(argv)


def _git_sha():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (git / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(common.SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, env_blas):
    import numpy
    import relqopt
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "relqopt": relqopt.__version__, "blas": blas,
        "blas_threads": {"environment": env_blas or "unset", "benchmark": "1",
                         "cli_children": "1", "cli.floor_numpy_ms": "unset"},
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
    }


def _setup(wl, seed, workdir, quick, cal):
    """Median of several full set-ups, each scaled to the reference speed;
    the last one's inputs are used."""
    times, raw = [], []
    start = time.perf_counter()
    while True:
        cal.sample()
        t0 = time.perf_counter()
        items = wl.setup(seed, workdir)
        t1 = time.perf_counter()
        cal.sample()
        raw.append(t1 - t0)
        times.append((t1 - t0) * cal.scale(t0, t1, k=2))
        if quick or (len(times) >= SETUP_REPS
                     and time.perf_counter() - start >= SETUP_BUDGET_S):
            common.log(f"# setup: {len(items)} items; {len(times)} set-ups, median "
                       f"{common.median(raw):.6g} s wall")
            return items, common.median(times)


def _untraced(wl, items, args, cal):
    res = common.closed_loop(wl, items, args.seconds, common.Cursor(len(items)), cal,
                             min_ops=0 if args.quick else wl.min_ops,
                             full_pass=not args.quick)
    times, raw = res.all_times(), res.all_raw()
    rate = len(res.times) / sum(common.median(ts) for ts in res.times.values())
    metrics = {
        "p50_ms": (1e3 * common.median(times), "ms"),
        "p90_ms": (1e3 * common.p90(times), "ms"),
        "ops_per_s": (rate, "1/s"),
    }
    beyond = len(times) - int(0.9 * len(times))
    common.log(f"# {len(times)} ops on {len(res.times)} items in {res.wall_s:.2f} s; "
               f"{beyond} ops at or beyond p90")
    common.log(f"# ops_per_s is {OP_NAMES[args.workload]}")
    common.log(f"# raw wall time: p50 {1e3 * common.median(raw):.6g} ms, p90 "
               f"{1e3 * common.p90(raw):.6g} ms; reference kernel median "
               f"{1e3 * common.median(cal.took):.4g} ms against {1e3 * cal.ref_s:.4g} ms")
    if args.workload == "cli_mix":
        import probes
        for name, value in probes.floors(1 if args.quick else 3, cal).items():
            common.log(f"# {name} {value:.6g} ms")
    return res, metrics


def _traced(wl, items, args, cal, in_process_cal, prov):
    """Alternate untraced and traced blocks of the same loop, then probe
    every layer on fixed inputs."""
    import pass_sweep
    import probes

    tracer = tracing.Tracer()
    plain, traced = common.LoopResult(), common.LoopResult()
    block = args.seconds / (2 * TRACE_ROUNDS)
    pos = 0
    for r in range(TRACE_ROUNDS):
        # Both blocks of a round start at the same item, so the overhead
        # compares the same items; the order alternates to cancel drift.
        cursors = []
        for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
            cursor = common.Cursor(len(items), pos)
            cursors.append(cursor)
            if with_trace:
                wl.traced = True
                with tracing.patched(tracer):
                    traced.add(common.closed_loop(wl, items, block, cursor, cal,
                                                  tracer=tracer))
                wl.traced = False
            else:
                plain.add(common.closed_loop(wl, items, block, cursor, cal))
        pos = max(c.i for c in cursors)
    both = [k for k in traced.times if k in plain.times]
    overhead = (sum(common.median(traced.times[k]) for k in both)
                / sum(common.median(plain.times[k]) for k in both)) - 1.0
    self_s = dict(tracer.self_s)
    counts = dict(tracer.counts)
    for layer, s in getattr(wl, "child_layers", {}).items():
        self_s[layer] = self_s.get(layer, 0.0) + s
    for name, n in getattr(wl, "child_counts", {}).items():
        counts[name] = counts.get(name, 0) + n
    metrics = {f"{layer}.self_share": (self_s.get(layer, 0.0) / traced.wall_s, "frac")
               for layer in tracing.LAYERS}
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["wigner.calls"] = (counts.get("wigner.wigner_angle", 0), "count")
    metrics["gravitomagnetism.steps"] = (
        pass_sweep.S_STEPS * counts.get("gravitomagnetism.transport_ray", 0), "count")
    common.log(f"# traced {traced.attempted} ops, untraced {plain.attempted} ops; "
               f"{sum(tracer.counts.values())} spans in this process")

    probe_failures = []
    probe_dir = wl.workdir / "probes"
    probe_dir.mkdir()
    child_cal = common.Calibration.child()
    for group in (lambda: probes.library_probes(args.quick, probe_dir, in_process_cal),
                  lambda: probes.cli_probes(args.quick, child_cal, in_process_cal)):
        try:
            for name, value in group().items():
                metrics[name] = (value, name.rsplit("_", 1)[1])
        except Exception as exc:  # a probe failing is a counted failure
            probe_failures.append((-1, [f"probe raised {exc!r}"]))
    res = common.LoopResult()
    res.add(plain)
    res.add(traced)
    res.attempted += 2
    res.failures.extend(probe_failures)

    trace_dir = common.WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    out = trace_dir / f"{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "provenance": prov,
        "span_fields": ["layer", "name", "op", "id", "parent", "start_s", "end_s"],
        "spans": tracer.spans,
        "spans_not_kept": tracer.dropped,
        "child_span_fields": ["layer", "name", "id", "parent", "start_s", "end_s"],
        "child_spans": getattr(wl, "child_spans", []),
    }))
    common.log(f"# spans written to {out.relative_to(ROOT)}")
    return res, metrics


def main(argv=None):
    args = _args(argv)
    if not (common.SRC / "relqopt" / "__init__.py").is_file():
        print(f"perfbench: no relqopt sources under {common.SRC}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    env_blas = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(common.SRC))

    wl = importlib.import_module(args.workload).Workload()
    wl.workdir = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(wl.workdir, ignore_errors=True)
    wl.workdir.mkdir(parents=True)
    try:
        prov = provenance(args, env_blas)
        common.log(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
                   f"trace={args.trace}")
        common.log("# provenance " + json.dumps(prov, sort_keys=True))
        inputs = wl.workdir / "inputs"
        inputs.mkdir()
        # Set-up always runs in-process; the ops of cli_mix are children.
        cal = common.Calibration.in_process()
        op_cal = common.Calibration.child() if args.workload == "cli_mix" else cal
        items, setup_s = _setup(wl, args.seed, inputs, args.quick, cal)
        if not args.quick:
            common.closed_loop(wl, items, 1.0, common.Cursor(len(items)), op_cal, min_ops=1)
        if args.trace:
            res, metrics = _traced(wl, items, args, op_cal, cal, prov)
        else:
            res, metrics = _untraced(wl, items, args, op_cal)
            rss = (common.child_peak_rss_mb() if args.workload == "cli_mix"
                   else common.self_peak_rss_mb())
            metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"), **metrics}
        if hasattr(wl, "first_order_checks"):
            common.log(f"# first-order Wigner checks: {wl.first_order_checks}")
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        common.log(f"{name:<40} {value:.6g} {unit}")
    for idx, problems in res.failures[:10]:
        common.log(f"# FAILED item {idx}: {'; '.join(problems)[:300]}")
    failed = len(res.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
