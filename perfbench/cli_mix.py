"""cli_mix: one-shot `python -m relqopt ...` children, one at a time.

About 99% of each child is interpreter, numpy and relqopt start-up, so this
is the only workload on which start-up work shows.  The cycle covers all six
subcommands, in table and CSV form, with seeded flags, each on the built-in
defaults or on one of two generated scenario files.

Checks: exit code 0; every value finite; every printed value equals the
value that the library computes in-process for the same inputs, to 17
significant digits in CSV and 9 in tables.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

import numpy as np

from relqopt import bell, diffusion, kinematics, orbits, qft_effects, wigner
from relqopt import scenario as scen
from relqopt.constants import C_LIGHT

import common
import scenario_gen

SUBCOMMANDS = ("report", "bell-sim", "wigner", "orbit", "diffusion", "curves")
N_FILES = 2
TRACE_CHILD = str(common.ROOT / "perfbench" / "trace_child.py")


def _flags(rng, sub):
    f = []
    if sub == "report":
        if rng.random() < 0.5:
            f += ["--effects", ",".join(rng.sample(scenario_gen.GROUPS, rng.randint(1, 4)))]
    elif sub == "bell-sim":
        if rng.random() < 0.5:
            f += ["--photons", str(int(10 ** rng.uniform(3, 8)))]
    elif sub == "wigner":
        f += ["--theta", f"{rng.uniform(5, 85):.4f}", "--phi", f"{rng.uniform(0, 360):.4f}",
              "--theta-b", f"{rng.uniform(0, 180):.4f}", "--phi-b", f"{rng.uniform(0, 360):.4f}"]
        if rng.random() < 0.5:
            f += ["--beta", f"{10 ** rng.uniform(-6, -3):.6g}"]
    elif sub == "orbit":
        f += ["--samples", str(rng.randint(8, 48))]
        if rng.random() < 0.5:
            f += ["--duration", f"{rng.uniform(600, 6000):.1f}"]
    elif sub == "curves":
        points = str(rng.randint(5, 40))
        if rng.random() < 0.5:
            v_min = rng.uniform(0.72, 0.9)
            f += ["--which", "photons", "--points", points,
                  "--v-min", f"{v_min:.5f}", "--v-max", f"{rng.uniform(v_min, 1.0):.5f}"]
        else:
            f += ["--which", "ralph", "--points", points,
                  "--delta-max", f"{10 ** rng.uniform(-13, -11):.6g}"]
    if sub in ("report", "bell-sim") and rng.random() < 0.5:
        f += ["--seed", str(rng.randrange(2**40))]
    if sub in ("report", "bell-sim") and rng.random() < 0.3:
        f += ["--workers", str(rng.randint(1, 8))]
    return f


class Workload:
    # p90 needs ten samples beyond it
    min_ops = 100

    def __init__(self):
        self.traced = False
        self.child_layers = {}
        self.child_counts = {}
        self.child_spans = []

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        files = []
        for i in range(N_FILES):
            path = workdir / f"cli_{i}.ini"
            path.write_text(scenario_gen.render(scenario_gen.valid_sections(rng)))
            files.append(str(path))
        # One table and one CSV command per subcommand: a short cycle, so a
        # run ends on a whole number of passes soon after --seconds.
        items = []
        for sub in SUBCOMMANDS:
            scenarios = rng.sample([None, *files], 2)
            for fmt, scenario in zip(("table", "csv"), scenarios):
                argv = [sub, "--format", fmt] + _flags(rng, sub)
                if scenario is not None:
                    argv += ["--scenario", scenario]
                items.append(argv)
        rng.shuffle(items)
        self.expected = {}
        return items

    def op(self, argv):
        if not self.traced:
            return common.run_child([sys.executable, "-m", "relqopt", *argv],
                                    common.child_env())
        spans_path = common.WORK / f"child-spans-{os.getpid()}.json"
        env = dict(common.child_env(), PERFBENCH_SPANS=str(spans_path))
        res = common.run_child([sys.executable, TRACE_CHILD, *argv], env)
        self._merge_child(spans_path, res.wall_s)
        return res

    def _merge_child(self, path, wall):
        """Fold one traced child's layer self times into this run's totals;
        the child's wall time outside other layers is cli self time."""
        try:
            data = json.loads(path.read_text())
            path.unlink()
        except (OSError, ValueError):
            data = {"self": {}, "counts": {}, "spans": []}
        inner = 0.0
        for layer, s in data["self"].items():
            if layer != "cli":
                self.child_layers[layer] = self.child_layers.get(layer, 0.0) + s
                inner += s
        self.child_layers["cli"] = self.child_layers.get("cli", 0.0) + wall - inner
        for k, n in data["counts"].items():
            self.child_counts[k] = self.child_counts.get(k, 0) + n
        self.child_spans.append(data["spans"])

    def check(self, argv, res):
        if res.returncode != 0:
            return [f"exit {res.returncode}: {res.stderr.strip()[-200:]}"]
        key = tuple(argv)
        if key not in self.expected:
            self.expected[key] = expected_rows(argv)
        return compare(argv, res.stdout, self.expected[key])


def _opts(argv):
    out = {"--format": "table"}
    for i in range(1, len(argv) - 1, 2):
        out[argv[i]] = argv[i + 1]
    return out


def _scenario(o):
    s = scen.load_scenario(o["--scenario"]) if "--scenario" in o else scen.Scenario()
    seed = int(o["--seed"]) if "--seed" in o else None
    workers = int(o["--workers"]) if "--workers" in o else None
    return scen.with_overrides(s, seed=seed, workers=workers)


def _entries(report):
    return [(e.effect, e.value) for e in report.entries]


def expected_rows(argv):
    """The library's values for the same inputs, in the CLI's row order.

    Effect tables give (name, value) rows; the orbit and curves tables give
    rows of numbers.
    """
    sub, o = argv[0], _opts(argv)
    s = _scenario(o)
    if sub == "report":
        effects = None
        if "--effects" in o:
            effects = frozenset(g.strip() for g in o["--effects"].split(",") if g.strip())
        return _entries(scen.run_report(s, effects=effects))
    if sub == "bell-sim":
        n = int(o["--photons"]) if "--photons" in o else s.photon_budget
        counts = bell.simulate_coincidences(s.visibility, n, seed=s.seed, workers=s.workers)
        r = bell.chsh_estimate(counts)
        return [("bell.visibility", s.visibility), ("bell.photon_budget", float(n)),
                ("bell.required_photons", float(bell.required_photons(s.visibility))),
                ("bell.seed", float(s.seed)), ("bell.workers", float(s.workers)),
                ("bell.simulated_s", r.s_value), ("bell.sigma", r.sigma),
                ("bell.n_sigma_violation", r.n_sigma_violation)]
    if sub == "diffusion":
        lam = diffusion.affine_parameter(kinematics.light_travel_time(s.separation_m()),
                                         C_LIGHT / s.wavelength)
        return [("diffusion.affine_parameter", lam)] + _entries(
            scen.run_report(s, effects=frozenset({"diffusion"})))
    if sub == "wigner":
        if "--beta" in o:
            beta = float(o["--beta"])
            v = beta * C_LIGHT
        else:
            v = orbits.propagate(s.orbit_spec(), 0.0).speed
            beta = v / C_LIGHT
        th, ph = math.radians(float(o["--theta"])), math.radians(float(o["--phi"]))
        tb, pb = math.radians(float(o["--theta-b"])), math.radians(float(o["--phi-b"]))
        khat = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
        nhat = np.array([math.sin(tb) * math.cos(pb), math.sin(tb) * math.sin(pb), math.cos(tb)])
        exact = wigner.wigner_angle(wigner.LorentzMatrix.boost(tuple(beta * nhat)),
                                    wigner.FourMomentum(1.0, tuple(khat)))
        return [("wigner.beta", beta), ("wigner.exact_angle", exact),
                ("wigner.first_order_phase", wigner.first_order_boost_phase(th, ph, tb, pb, v)),
                ("wigner.diffraction_ratio", wigner.diffraction_transform(1.0, s.relative_speed))]
    if sub == "orbit":
        spec = s.orbit_spec()
        duration = float(o["--duration"]) if "--duration" in o else spec.period()
        rows = []
        for t in np.linspace(0.0, duration, int(o["--samples"])):
            st = orbits.propagate(spec, float(t))
            row = [st.time, *st.position, *st.velocity]
            if s.stations:
                gs = orbits.station_state(s.stations[0], float(t))
                row += list(orbits.relative_geometry(st, gs)[:2])
            rows.append(row)
        return rows
    if sub == "curves":
        points = int(o["--points"])
        if o["--which"] == "photons":
            vs = np.linspace(float(o["--v-min"]), float(o["--v-max"]), points)
            return [[float(v), float(bell.required_photons(float(v)))] for v in vs]
        model = qft_effects.EventOperatorModel(detector_resolution=s.detector_resolution)
        ds = np.linspace(0.0, float(o["--delta-max"]), points)
        return [[float(d), qft_effects.ralph_correlation(model, float(d))] for d in ds]
    raise ValueError(sub)


def _parse(argv, text):
    """Printed rows as (name, cells) for effect tables, else lists of cells."""
    csv_mode = _opts(argv).get("--format") == "csv"
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = [ln.split(",") if csv_mode else ln.split() for ln in lines[1:]]
    if argv[0] in ("orbit", "curves"):
        return rows
    return [(r[0], [r[1]]) for r in rows]


def compare(argv, text, expected):
    digits = ".17g" if _opts(argv).get("--format") == "csv" else ".9g"
    problems = []
    got = _parse(argv, text)
    effect_rows = argv[0] not in ("orbit", "curves")
    if effect_rows:
        printed = dict(got)
        want = dict(expected)
        for name in want.keys() - printed.keys():
            problems.append(f"row {name} missing")
        cells = [(name, printed[name][0], want.get(name)) for name in printed]
    else:
        if len(got) != len(expected):
            return [f"{len(got)} rows printed, library gives {len(expected)}"]
        cells = [(f"row {i} col {j}", c, w[j] if j < len(w) else None)
                 for i, (g, w) in enumerate(zip(got, expected)) for j, c in enumerate(g)]
    for where, cell, want in cells:
        try:
            value = float(cell)
        except ValueError:
            problems.append(f"{where}: not a number: {cell!r}")
            continue
        if not math.isfinite(value):
            problems.append(f"{where}: non-finite {cell}")
        elif want is not None and cell != format(float(want), digits):
            problems.append(f"{where}: printed {cell}, library {format(float(want), digits)}")
    return problems
