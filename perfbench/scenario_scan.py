"""scenario_scan: parse, validate and report seeded scenario files.

Each op is `scenario.load_scenario` on one file, then `scenario.run_report`
when the file is valid.  About 15% of the files are invalid in one of three
ways the loader rejects, so the reject path runs beside the accept path.  A
minority of the valid files use 8 to 64 Monte Carlo streams, which puts
parse+validate and Bell at roughly a third of the time each.  The mix is
stratified: every seed gives the same number of files of each kind and the
same spread of stream counts.

Checks: valid files give reports whose values are all finite; invalid files
raise ConfigurationError or DomainError; any other outcome fails.
"""

from __future__ import annotations

import math
import random

from relqopt import scenario
from relqopt.errors import ConfigurationError, DomainError

import scenario_gen

N_FILES = 720
INVALID_SHARE = 0.15
HIGH_WORKERS_SHARE = 0.15
HIGH_WORKERS = (8, 64)


class Workload:
    min_ops = 0

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        n_bad = round(INVALID_SHARE * N_FILES)
        n_high = round(HIGH_WORKERS_SHARE * N_FILES)
        kinds = [scenario_gen.INVALID_KINDS[i % 3] for i in range(n_bad)]
        kinds += ["high"] * n_high + ["valid"] * (N_FILES - n_bad - n_high)
        rng.shuffle(kinds)
        lo, hi = HIGH_WORKERS
        high = [lo + int((hi - lo + 1) * (j + rng.random()) / n_high) for j in range(n_high)]
        rng.shuffle(high)
        items = []
        for i, kind in enumerate(kinds):
            workers = high.pop() if kind == "high" else 1
            sections = scenario_gen.valid_sections(rng, workers=workers)
            if kind in scenario_gen.INVALID_KINDS:
                sections = scenario_gen.break_sections(rng, sections, kind)
            path = workdir / f"scan_{i:04d}.ini"
            path.write_text(scenario_gen.render(sections))
            items.append((str(path), kind in scenario_gen.INVALID_KINDS))
        return items

    def op(self, item):
        path, _ = item
        try:
            s = scenario.load_scenario(path)
        except (ConfigurationError, DomainError) as exc:
            return exc
        return scenario.run_report(s)

    def check(self, item, out):
        path, invalid = item
        if invalid:
            if isinstance(out, (ConfigurationError, DomainError)):
                return []
            return [f"{path}: invalid file was accepted"]
        if isinstance(out, Exception):
            return [f"{path}: valid file rejected: {out}"]
        return [f"{path}: {e.effect} = {e.value!r}" for e in out.entries
                if not math.isfinite(e.value)]
