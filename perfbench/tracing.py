"""Span tracer for the relqopt benchmark.

Spans are recorded from benchmark code only: `patched()` temporarily
replaces the public functions of each relqopt layer module (and a few
constructors and classmethods that benchmark code calls directly) with
wrappers that record a span around every call.  Calls that one layer makes
into another go through the module attribute, so they nest: a bell span
inside a scenario span.  Nothing under `src/` is edited.

`kinematics`, `interferometry` and `qft_effects` are deliberately not
patched; their time counts as `scenario` self time, because the benchmark
measures them through `scenario.run_report` and its per-group rows.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "scenario", "bell", "wigner", "gravitomagnetism", "orbits", "diffusion")

# (module, class, attribute) pairs patched besides the module-level functions.
_CLASS_TARGETS = (
    ("wigner", "LorentzMatrix", "boost"),
    ("wigner", "FourMomentum", "__init__"),
    ("gravitomagnetism", "RayState", "__init__"),
)


class Tracer:
    """Spans with self time aggregated as they close.

    A span is [layer, name, op, id, parent id, start, end].  Only the first
    KEEP spans are kept for the trace file, so memory stays bounded on long
    runs; self times and counts cover every span.
    """

    KEEP = 100_000

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.active = False
        self.op = -1
        self._stack = []  # [span, seconds covered by its children]
        self._next_id = 0

    def _open(self, layer, name):
        parent = self._stack[-1][0][3] if self._stack else -1
        span = [layer, name, self.op, self._next_id, parent, time.perf_counter(), 0.0]
        self._next_id += 1
        if len(self.spans) < self.KEEP:
            self.spans.append(span)
        self._stack.append([span, 0.0])

    def _close(self):
        span, covered = self._stack.pop()
        span[6] = time.perf_counter()
        duration = span[6] - span[5]
        self.self_s[span[0]] += duration - covered
        self.counts[span[1]] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A call from a layer into itself adds no information to layer
            # self times, so it gets no span of its own.
            if not self.active or (self._stack and self._stack[-1][0][0] == layer):
                return fn(*args, **kwargs)
            self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    @contextlib.contextmanager
    def span(self, layer, name):
        self._open(layer, name)
        try:
            yield
        finally:
            self._close()

    @property
    def dropped(self):
        return self._next_id - len(self.spans)


def _targets(include_cli):
    layers = LAYERS if include_cli else LAYERS[1:]
    for layer in layers:
        mod = importlib.import_module(f"relqopt.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                yield layer, mod, name, obj
    for layer, cls_name, attr in _CLASS_TARGETS:
        cls = getattr(importlib.import_module(f"relqopt.{layer}"), cls_name)
        yield layer, cls, attr, cls.__dict__[attr]


@contextlib.contextmanager
def patched(tracer, include_cli=False):
    """Install span wrappers on every layer's public entry points."""
    saved = []
    for layer, owner, name, original in _targets(include_cli):
        label = f"{layer}.{getattr(owner, '__name__', '')}.{name}" if inspect.isclass(owner) \
            else f"{layer}.{name}"
        if isinstance(original, classmethod):
            bound = getattr(owner, name)
            replacement = staticmethod(tracer.wrap(layer, label, bound))
        else:
            replacement = tracer.wrap(layer, label, original)
        saved.append((owner, name, original))
        setattr(owner, name, replacement)
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
