"""Command-line front end.

Subcommands: `report` (full effect table for a scenario), `bell-sim`
(CHSH Monte Carlo), `diffusion` and `wigner` (single-group evaluations),
`orbit` (ephemeris samples), `curves` (plot-ready data).  Exit codes:
0 success, 2 configuration problem, 3 numeric failure.

Output is an aligned table by default or RFC-4180-style CSV (LF line
endings, '.' decimal separator, 17 significant digits) with --format csv.
Angles are degrees on the command line, matching scenario files.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace

import numpy as np

from . import bell, diffusion, orbits, qft_effects, wigner
from . import scenario as scen
from .constants import C_LIGHT
from .errors import ConfigurationError, DomainError, EffectError, NumericFailure

# largest `orbit --samples` and `curves --points`: each subcommand builds its
# whole row list before printing (an orbit row costs ~75 us)
ROW_CAP = 100_000


def _fmt_full(x) -> str:
    # an int (seed, count) prints exactly; a float prints its 17 digits
    return str(x) if isinstance(x, int) else format(float(x), ".17g")


def _write_rows(rows, header, fmt: str, stream) -> None:
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt_full(c) for c in row])
        return
    cells = [list(header)]
    for row in rows:
        cells.append([c if isinstance(c, str) else format(float(c), ".9g") for c in row])
    widths = [max(len(r[j]) for r in cells) for j in range(len(header))]
    for r in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        stream.write("\n")


def _write_entries(entries, fmt: str, stream) -> int:
    _write_rows(entries, scen.ReportEntry._fields, fmt, stream)
    return 0


def _require(ok: bool, flag: str, rule: str) -> None:
    if not ok:
        raise ConfigurationError(f"{flag} must be {rule}")


def _load_scenario(args) -> scen.Scenario:
    s = scen.load_scenario(args.scenario) if args.scenario else scen.Scenario()
    return scen.with_overrides(s, seed=args.seed, workers=args.workers)


def _parse_effects(raw: str | None):
    if raw is None:
        return None
    groups = [g.strip() for g in raw.split(",") if g.strip()]
    if not groups:
        raise ConfigurationError("--effects list is empty")
    return frozenset(groups)


def _cmd_report(args, stream) -> int:
    s = _load_scenario(args)
    report = scen.run_report(s, effects=_parse_effects(args.effects))
    return _write_entries(report.entries, args.format, stream)


def _cmd_bell_sim(args, stream) -> int:
    s = _load_scenario(args)
    if args.photons is not None:
        s = replace(s, photon_budget=args.photons)
    rows = [scen.ReportEntry("bell.visibility", s.visibility, "dimensionless", "§8.1"),
            scen.ReportEntry("bell.photon_budget", s.photon_budget, "count", "§8.1")]
    for e in scen.run_report(s, effects={"bell"}).entries:
        rows.append(e)
        if e.effect == "bell.seed":
            rows.append(scen.ReportEntry("bell.workers", s.workers, "dimensionless", "§8.1"))
    _write_entries(rows, args.format, stream)
    if args.counts_out:
        counts = scen.bell_counts(s)
        with open(args.counts_out, "w", encoding="utf-8", newline="") as fh:
            _write_rows([(*pair, *row) for pair, row in zip(counts.settings, counts.counts)],
                        ("alpha", "beta", "n_pp", "n_pm", "n_mp", "n_mm"), "csv", fh)
    return 0


def _affine_parameter(s: scen.Scenario, sat) -> list:
    lam = diffusion.affine_parameter(s.light_time_s(), s.frequency_hz())
    return [scen.ReportEntry("diffusion.affine_parameter", lam, "s/J", "§5.2")]


def _cmd_diffusion(args, stream) -> int:
    s = _load_scenario(args)
    report = scen.evaluate(s, [("diffusion", _affine_parameter),
                               ("diffusion", scen.GROUPS["diffusion"])])
    return _write_entries(report.entries, args.format, stream)


def _direction(theta: float, phi: float) -> np.ndarray:
    return np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])


def _cmd_wigner(args, stream) -> int:
    _require(0.0 <= args.theta <= 90.0, "--theta", "in [0, 90]")
    for flag, x in (("--phi", args.phi), ("--theta-b", args.theta_b), ("--phi-b", args.phi_b)):
        _require(math.isfinite(x), flag, "finite")
    if args.beta is not None:
        _require(0.0 <= args.beta < 1.0, "--beta", "in [0, 1)")
    s = _load_scenario(args)
    theta, phi, theta_b, phi_b = map(math.radians, (args.theta, args.phi, args.theta_b, args.phi_b))

    def angles(s, sat) -> list:
        v = sat.speed if args.beta is None else args.beta * C_LIGHT
        beta = v / C_LIGHT if args.beta is None else args.beta
        lam = wigner.LorentzMatrix.boost(tuple(beta * _direction(theta_b, phi_b)))
        exact = wigner.wigner_angle(lam, wigner.FourMomentum(1.0, tuple(_direction(theta, phi))))
        return [
            scen.ReportEntry("wigner.beta", beta, "dimensionless", "§3.1.1"),
            scen.ReportEntry("wigner.exact_angle", exact, "rad", "§3.1.1"),
            scen.ReportEntry("wigner.first_order_phase",
                             wigner.first_order_boost_phase(theta, phi, theta_b, phi_b, v),
                             "rad", "§3.1.1 Eq. (13)"),
        ]

    report = scen.evaluate(s, [("wigner", angles), ("wigner", scen.GROUPS["wigner"])])
    # a row given here replaces the report group's row of the same name, which
    # is taken at the report's fixed geometry
    rows = {}
    for e in report.entries:
        rows.setdefault(e.effect, e)
    return _write_entries(rows.values(), args.format, stream)


def _cmd_orbit(args, stream) -> int:
    _require(2 <= args.samples <= ROW_CAP, "--samples", f"in [2, {ROW_CAP}]")
    if args.duration is not None:
        _require(0.0 < args.duration < math.inf, "--duration", "finite and > 0")
    s = _load_scenario(args)
    spec = s.orbit_spec()
    header = ["t", "x", "y", "z", "vx", "vy", "vz"]
    track_station = bool(s.stations)
    if track_station:
        header += ["range", "range_rate"]
    rows = []
    with scen.effect_errors("orbit"):
        duration = args.duration if args.duration is not None else spec.period()
        for t in np.linspace(0.0, duration, args.samples):
            state = orbits.propagate(spec, float(t))
            row = [state.time, *state.position, *state.velocity]
            if track_station:
                gs = orbits.station_state(s.stations[0], float(t))
                rng, rate, _ = orbits.relative_geometry(state, gs)
                row += [rng, rate]
            rows.append(tuple(row))
    _write_rows(rows, header, args.format, stream)
    return 0


def _cmd_curves(args, stream) -> int:
    _require(2 <= args.points <= ROW_CAP, "--points", f"in [2, {ROW_CAP}]")
    s = _load_scenario(args)
    if args.which == "photons":
        _require(args.v_min > bell.V_MIN, "--v-min", "> 1/sqrt(2)")
        _require(args.v_min <= args.v_max <= 1.0, "--v-max", "in [--v-min, 1]")
        with scen.effect_errors("bell"):
            rows = [(float(v), bell.required_photons(float(v)))
                    for v in np.linspace(args.v_min, args.v_max, args.points)]
        _write_rows(rows, ("V", "N"), args.format, stream)
        return 0
    # Ralph correlation vs proper-time differential
    if args.delta_max is not None:
        _require(0.0 < args.delta_max < math.inf, "--delta-max", "finite and > 0")
    model = qft_effects.EventOperatorModel(detector_resolution=s.detector_resolution)
    d_max = args.delta_max if args.delta_max is not None else 6.0 * s.detector_resolution
    with scen.effect_errors("qft"):
        rows = [(float(delta), qft_effects.ralph_correlation(model, float(delta)))
                for delta in np.linspace(0.0, d_max, args.points)]
    _write_rows(rows, ("delta", "C"), args.format, stream)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", metavar="PATH", default=None,
                        help="scenario file (defaults apply when omitted)")
    common.add_argument("--format", choices=("table", "csv"), default="table")
    common.add_argument("--seed", type=int, default=None,
                        help="override the Monte Carlo seed (unsigned 64-bit)")
    common.add_argument("--workers", type=int, default=None,
                        help="override the number of Monte Carlo streams")

    parser = argparse.ArgumentParser(
        prog="relqopt",
        description="Quantitative effect estimates for satellite quantum links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", parents=[common],
                       help="evaluate every enabled effect group")
    p.add_argument("--effects", default=None,
                   help="comma-separated group filter (e.g. geometry,bell)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("bell-sim", parents=[common],
                       help="CHSH Monte Carlo with Poisson error propagation")
    p.add_argument("--photons", type=int, default=None,
                   help="total pair budget (default: scenario photon_budget)")
    p.add_argument("--counts-out", metavar="PATH", default=None,
                   help="also write the per-setting counts table as CSV")
    p.set_defaults(func=_cmd_bell_sim)

    p = sub.add_parser("diffusion", parents=[common],
                       help="polarization-diffusion forecasts")
    p.set_defaults(func=_cmd_diffusion)

    p = sub.add_parser("wigner", parents=[common],
                       help="exact and first-order little-group angles")
    p.add_argument("--theta", type=float, default=90.0,
                   help="photon polar angle, degrees (default 90)")
    p.add_argument("--phi", type=float, default=90.0,
                   help="photon azimuth, degrees (default 90)")
    p.add_argument("--theta-b", type=float, default=90.0,
                   help="boost polar angle, degrees (default 90)")
    p.add_argument("--phi-b", type=float, default=0.0,
                   help="boost azimuth, degrees (default 0)")
    p.add_argument("--beta", type=float, default=None,
                   help="boost speed v/c (default: orbital speed at epoch)")
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("orbit", parents=[common],
                       help="sampled satellite ephemeris (and station range)")
    p.add_argument("--duration", type=float, default=None,
                   help="time span in seconds (default: one period)")
    p.add_argument("--samples", type=int, default=101)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("curves", parents=[common], help="plot-ready data tables")
    p.add_argument("--which", choices=("photons", "ralph"), default="photons")
    p.add_argument("--points", type=int, default=57)
    p.add_argument("--v-min", type=float, default=0.72)
    p.add_argument("--v-max", type=float, default=1.0)
    p.add_argument("--delta-max", type=float, default=None,
                   help="largest proper-time differential, seconds")
    p.set_defaults(func=_cmd_curves)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args, sys.stdout)
    except EffectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, OverflowError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
