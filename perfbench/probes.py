"""Per-layer probes: each layer's public entry points on fixed inputs.

Every traced run measures all of them, whatever its workload, so each
per-layer number means the same thing in every run.  The inputs are fixed
(not seeded) for the same reason.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
import time

import relqopt.cli
from relqopt import bell, diffusion, gravitomagnetism, orbits, wigner
from relqopt import scenario as scen
from relqopt.errors import ConfigurationError, DomainError

import common
import diffusion_witness
import pass_sweep
import scenario_gen

SUBCOMMAND_ARGV = {
    "report": ["report"],
    "bell_sim": ["bell-sim"],
    "wigner": ["wigner", "--theta", "60", "--phi", "45", "--beta", "1e-4"],
    "orbit": ["orbit", "--samples", "16"],
    "diffusion": ["diffusion"],
    "curves": ["curves", "--points", "16"],
}
VALID_SECTIONS = {
    "mission": {"preset": "leo500"},
    "orbit": {"semi_major_axis": "7378137", "eccentricity": "0.01", "inclination": "51.6"},
    "stations": {"station1": "47.3 8.5 500", "station2": "28.3 -16.5 2400"},
    "link": {"wavelength": "800e-9", "fibre_delay": "20e-6"},
    "geometry": {"relative_speed": "15e3"},
    "bell": {"visibility": "0.95", "photon_budget": "1000000", "seed": "1"},
    "qft": {"retroreflector": "on"},
}


def _children(argv, pinned, reps, cal):
    """Run a child reps times; (wall s, CPU s, stdout) of each, scaled to
    the reference speed by the kernel timed just before and after it."""
    runs = []
    for _ in range(reps):
        cal.maybe_sample()
        t0 = time.perf_counter()
        r = common.run_child([sys.executable, *argv], common.child_env(pinned))
        runs.append((r, t0, time.perf_counter()))
        if r.returncode != 0:
            raise RuntimeError(f"{argv} exited {r.returncode}: {r.stderr[-200:]}")
    cal.sample()
    out = []
    for r, t0, t1 in runs:
        scale = cal.scale(t0, t1)
        out.append((r.wall_s * scale, r.cpu_s * scale, r.stdout, scale))
    return out


def _wall_ms(argv, pinned, reps, cal):
    return 1e3 * common.median([w for w, _, _, _ in _children(argv, pinned, reps, cal)])


def _import_ms(module, reps, cal):
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return 1e3 * common.median(
        [float(out) * scale for _, _, out, scale in _children(["-c", code], True, reps, cal)])


def floors(reps, cal):
    """Wall time of `python -c pass` and of `import numpy`, unpinned and pinned."""
    return {
        "cli.floor_python_ms": _wall_ms(["-c", "pass"], True, reps, cal),
        "cli.floor_numpy_ms": _wall_ms(["-c", "import numpy"], False, reps, cal),
        "cli.floor_numpy_pinned_ms": _wall_ms(["-c", "import numpy"], True, reps, cal),
    }


def cli_probes(quick, cal, in_process_cal):
    reps = 1 if quick else 3
    out = floors(reps, cal)
    out["cli.import_relqopt_ms"] = _import_ms("relqopt", reps, cal)
    out["cli.import_cli_ms"] = _import_ms("relqopt.cli", reps, cal)
    cpu = []
    for name, argv in SUBCOMMAND_ARGV.items():
        runs = _children(["-m", "relqopt", *argv, "--format", "csv"], True, reps, cal)
        out[f"cli.{name}_ms"] = 1e3 * common.median([w for w, _, _, _ in runs])
        cpu += [c for _, c, _, _ in runs]
    out["cli.child_cpu_ms"] = 1e3 * common.median(cpu)

    def main_report():
        with contextlib.redirect_stdout(io.StringIO()):
            if relqopt.cli.main(["report", "--format", "csv"]) != 0:
                raise RuntimeError("cli.main report failed")

    out["cli.main_report_us"] = 1e6 * common.time_call(main_report, in_process_cal,
                                                         *_budget(quick))
    return out


def _budget(quick):
    return (1, 0.0) if quick else (5, 0.05)


def library_probes(quick, workdir, cal):
    b = _budget(quick)
    us = lambda fn: 1e6 * common.time_call(fn, cal, *b)  # noqa: E731
    out = {}

    valid = workdir / "probe_valid.ini"
    valid.write_text(scenario_gen.render(VALID_SECTIONS))
    out["scenario.load_us"] = us(lambda: scen.load_scenario(str(valid)))
    rejects = []
    for i, kind in enumerate(scenario_gen.INVALID_KINDS):
        path = workdir / f"probe_reject_{i}.ini"
        sections = {k: dict(v) for k, v in VALID_SECTIONS.items()}
        path.write_text(scenario_gen.render(
            scenario_gen.break_sections(random.Random(i), sections, kind)))

        def reject(p=str(path)):
            try:
                scen.load_scenario(p)
            except (ConfigurationError, DomainError):
                return
            raise RuntimeError(f"{p} was accepted")

        rejects.append(us(reject))
    out["scenario.reject_us"] = sum(rejects) / len(rejects)
    default = scen.Scenario()
    out["scenario.run_report_us"] = us(lambda: scen.run_report(default))
    for g in scen.EFFECT_GROUPS:
        out[f"scenario.group_{g}_us"] = us(lambda g=g: scen.run_report(default, effects={g}))

    out["bell.simulate_w1_us"] = us(lambda: bell.simulate_coincidences(0.95, 1_000_000, seed=1))
    out["bell.simulate_w64_us"] = us(
        lambda: bell.simulate_coincidences(0.95, 1_000_000, seed=1, workers=64))
    out["bell.required_photons_us"] = us(lambda: bell.required_photons(0.9))

    beta = (1.2e-5, -2.1e-5, 0.4e-5)
    boost = wigner.LorentzMatrix.boost(beta)
    photon = wigner.FourMomentum(1.0, (0.5, 0.5, math.sqrt(0.5)))
    out["wigner.angle_us"] = us(lambda: wigner.wigner_angle(boost, photon))
    out["wigner.boost_us"] = us(lambda: wigner.LorentzMatrix.boost(beta))

    start = gravitomagnetism.RayState((7.0e6, 0.0, -1.0e6), (-0.8, 0.0, 0.6), (0.6, 0.0, 0.8))
    steps = pass_sweep.S_STEPS
    out["gravitomagnetism.transport_step_us"] = us(lambda: gravitomagnetism.transport_ray(
        start, pass_sweep.lense_thirring, 1.0e6, steps)) / steps

    leo = orbits.preset_orbit("leo1000")
    station = orbits.GroundStation(math.radians(47.3), math.radians(8.5), 500.0)
    out["orbits.propagate_us"] = us(lambda: orbits.propagate(leo, 1234.5))
    out["orbits.station_state_us"] = us(lambda: orbits.station_state(station, 1234.5))

    model = diffusion_witness.model_for(random.Random(0), 0.01, 0.1)
    rho0 = diffusion.CircleDensity.wrapped_gaussian(1.0, 0.5, modes=64)
    out["diffusion.equivariance_check_ms"] = 1e3 * common.time_call(
        lambda: diffusion.equivariance_check(model, rho0, 0.9, 5.0), cal, 1 if quick else 3, 0.0)
    params = model.equator_params()
    out["diffusion.evolve_equator_us"] = us(lambda: diffusion.evolve_equator(rho0, params, 5.0))
    return out
