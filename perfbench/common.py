"""Shared pieces of the relqopt benchmark: paths, statistics, child
processes and the measured closed loop."""

from __future__ import annotations

import bisect
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Generated inputs and trace files live here; .gitignore lists it.
WORK = ROOT / ".perfbench"

# Children run with the OpenBLAS pool pinned to one thread.  Unpinned, numpy
# starts one pool thread per core at import, which makes CLI wall time flip
# between two modes; the unpinned cost is still recorded as
# cli.floor_numpy_ms.
PINNED = {"OPENBLAS_NUM_THREADS": "1"}
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(pinned=True):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = str(SRC)
    if pinned:
        env.update(PINNED)
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float


def run_child(argv, env, timeout=60.0):
    """Run one child to completion; wall and CPU time of that child alone.

    Children run one at a time, so the RUSAGE_CHILDREN delta is this child's.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return ChildResult(proc.returncode, proc.stdout, proc.stderr, wall, cpu)


def child_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The host's CPU speed moves between states 1.5x to 1.9x apart that last
# from seconds to minutes, so raw wall times of runs minutes apart disagree
# by more than any change worth detecting.  Every timed op is therefore
# paired with a reference kernel timed next to it, and its duration is
# scaled to the kernel's nominal time: duration * ref_s / kernel time.  A
# kernel never runs relqopt, so a change to relqopt moves the scaled figure
# exactly as it moves the raw one.  Each kernel does the same kind of work
# as the ops it calibrates, because different work slows by different
# factors: interpreter bytecode around small numpy arrays and 256-point
# FFTs for in-process ops, and a fresh interpreter that imports numpy for
# child processes.
def reference_kernel():
    import numpy as np  # imported here so that run.py can pin BLAS threads first

    m = np.eye(4)
    s = 0.0
    for i in range(30):
        a = np.asarray((0.1, 0.2, 0.3), dtype=float)
        c = np.cross(a, a + 1.0)
        d = np.concatenate([a, c])
        s += float(np.linalg.norm(c)) + float(d @ d) + float((m @ m)[0, 0])
        s += math.sin(i)
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(5):
        x = np.fft.irfft(np.fft.rfft(x), n=256)
    return s + float(x[0])


def child_reference_kernel():
    r = run_child([sys.executable, "-c", "import numpy"], child_env())
    if r.returncode != 0:
        raise RuntimeError(f"reference child exited {r.returncode}: {r.stderr[-200:]}")


class Calibration:
    """Timestamps and durations of a reference kernel, taken between ops.

    ref_s is the kernel's nominal time: a little more than it takes on a
    quiet core of the 2-core development host, so scaled times read close
    to quiet-host wall times.
    """

    def __init__(self, kernel, ref_s, every_s):
        self.kernel, self.ref_s, self.every_s = kernel, ref_s, every_s
        self.at = []
        self.took = []

    @classmethod
    def in_process(cls):
        return cls(reference_kernel, 1.0e-3, 0.02)

    @classmethod
    def child(cls):
        return cls(child_reference_kernel, 0.15, 1.0)

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= self.every_s:
            self.sample()

    def scale(self, start, end, k=4):
        """ref_s over the median kernel time of the k samples nearest to
        the interval [start, end]."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_right(self.at, end)
        lo, hi = max(0, i - k // 2), min(len(self.at), j + k // 2)
        return self.ref_s / median(self.took[lo:hi])


def median(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else xs[0]


def time_call(fn, cal, min_reps=5, budget_s=0.05):
    """Median seconds per call at the reference speed: at least min_reps
    calls and budget_s of work, with the reference kernel timed before and
    after."""
    times = []
    cal.sample()
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    end = time.perf_counter()
    cal.sample()
    return median(times) * cal.scale(start, end, k=2)


@dataclass
class LoopResult:
    """Per-op times by item index, scaled to the reference speed, the raw
    wall times beside them, and every failure seen."""

    times: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0

    def all_times(self):
        return [t for ts in self.times.values() for t in ts]

    def all_raw(self):
        return [t for ts in self.raw.values() for t in ts]

    def add(self, other):
        for k, ts in other.times.items():
            self.times.setdefault(k, []).extend(ts)
        for k, ts in other.raw.items():
            self.raw.setdefault(k, []).extend(ts)
        self.attempted += other.attempted
        self.failures.extend(other.failures)
        self.wall_s += other.wall_s


class Cursor:
    """Walks the item list cyclically, so a run covers the seeded mix evenly."""

    def __init__(self, n, start=0):
        self.n = n
        self.i = start

    def next(self):
        idx = self.i % self.n
        self.i += 1
        return idx


# A run stops at this many seconds even if min_ops is not reached, so it
# always ends inside the 180 s a run may take.
HARD_LIMIT_S = 120.0


def closed_loop(workload, items, seconds, cursor, cal, min_ops=0, full_pass=False,
                tracer=None):
    """One caller, next op only after the previous one returns.

    Each op is timed alone; its output is checked outside the timer, and
    the reference kernel runs between ops at most every cal.every_s.  An op
    that raises or fails its check counts as failed.  With full_pass the
    loop ends only after a whole pass over the items, so every item is
    measured equally often and percentiles do not depend on where the time
    ran out.
    """
    res = LoopResult()
    spans = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    hard = t_start + HARD_LIMIT_S
    while True:
        now = time.perf_counter()
        if now >= hard:
            break
        if now >= deadline and res.attempted >= min_ops and (
                not full_pass or cursor.i % cursor.n == 0):
            break
        cal.maybe_sample()
        idx = cursor.next()
        item = items[idx]
        if tracer is not None:
            tracer.op = cursor.i
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = workload.op(item)
            err = None
        except Exception:  # an op failing is a measured outcome, not a crash
            out = None
            err = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        res.attempted += 1
        spans.append((idx, t0, t1))
        if err is None:
            try:
                problems = workload.check(item, out)
            except Exception:  # a check that cannot run is a failed op
                problems = [f"check raised: {traceback.format_exc(limit=3).strip().splitlines()[-1]}"]
        else:
            problems = [f"raised: {err.strip().splitlines()[-1]}"]
        if problems:
            res.failures.append((idx, problems))
    cal.sample()
    for idx, t0, t1 in spans:
        res.raw.setdefault(idx, []).append(t1 - t0)
        res.times.setdefault(idx, []).append((t1 - t0) * cal.scale(t0, t1))
    res.wall_s = time.perf_counter() - t_start
    return res


def log(msg):
    print(msg, flush=True)
