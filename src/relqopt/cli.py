"""Command-line front end.

Subcommands: `report` (full effect table for a scenario), `bell-sim`
(CHSH Monte Carlo), `diffusion` and `wigner` (one group each, rows as
`scenario` defines them), `orbit` (ephemeris samples), `curves` (plot-ready
data).  Exit codes: 0 success, 2 configuration problem, 3 numeric failure.

Output is an aligned table by default or RFC-4180-style CSV (LF line
endings, '.' decimal separator, 17 significant digits) with --format csv.
Angles are degrees on the command line, matching scenario files.

No subcommand loads numpy.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import bell, orbits, qft_effects
from . import scenario as scen
from .errors import ConfigurationError, DomainError, EffectError, NumericFailure

# largest `orbit --samples` and `curves --points`: each subcommand builds its
# whole row list before printing (an orbit row costs ~75 us)
ROW_CAP = 100_000


def _fmt_full(x) -> str:
    # an int (seed, count) prints exactly; a float prints its 17 digits
    return str(x) if isinstance(x, int) else format(float(x), ".17g")


def _linspace(start: float, stop: float, num: int) -> list:
    """numpy.linspace(start, stop, num) as floats, equal bit for bit (num >= 2)."""
    div, delta = num - 1, stop - start
    step = delta / div
    # numpy scales i / div by delta instead when the step underflows to 0
    points = [i * step + start if step else i / div * delta + start for i in range(num)]
    points[-1] = stop
    return points


def _write_rows(rows, header, fmt: str, stream) -> None:
    if fmt == "csv":
        import csv
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


def _load_scenario(args, **flags) -> scen.Scenario:
    s = scen.load_scenario(args.scenario) if args.scenario else scen.Scenario()
    return scen.with_overrides(s, **flags)


def _finite(rows, header) -> list:
    """`rows`, unless a value is NaN or infinite; inside `scen.effect_errors` that fails
    the group, as `scen.evaluate` fails a report group."""
    for row in rows:
        for name, x in zip(header, row):
            if not math.isfinite(x):
                raise NumericFailure(f"{name} is {x}")
    return rows


def _parse_effects(raw: str | None):
    if raw is None:
        return None
    groups = [g.strip() for g in raw.split(",") if g.strip()]
    if not groups:
        raise ConfigurationError("--effects list is empty")
    return frozenset(groups)


def _cmd_report(args, stream) -> int:
    s = _load_scenario(args, seed=args.seed, workers=args.workers)
    report = scen.run_report(s, effects=_parse_effects(args.effects))
    return _write_entries(report.entries, args.format, stream)


def _cmd_bell_sim(args, stream) -> int:
    s = _load_scenario(args, seed=args.seed, workers=args.workers, photon_budget=args.photons)
    with scen.effect_errors("bell"):
        counts = scen.bell_counts(s)
    report = scen.evaluate(s, [("bell", functools.partial(scen.GROUPS["bell"], counts=counts))])
    if args.counts_out:
        try:
            with open(args.counts_out, "w", encoding="utf-8", newline="") as fh:
                _write_rows([(*pair, *row) for pair, row in zip(counts.settings, counts.counts)],
                            ("alpha", "beta", "n_pp", "n_pm", "n_mp", "n_mm"), "csv", fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot write --counts-out file: {exc}") from None
    return _write_entries(report.entries, args.format, stream)


def _cmd_wigner(args, stream) -> int:
    _require(0.0 <= args.theta <= 90.0, "--theta", "in [0, 90]")
    for flag, x in (("--phi", args.phi), ("--theta-b", args.theta_b), ("--phi-b", args.phi_b)):
        _require(math.isfinite(x), flag, "finite")
    if args.beta is not None:
        _require(0.0 <= args.beta < 1.0, "--beta", "in [0, 1)")
    s = _load_scenario(args)
    theta, phi, theta_b, phi_b = map(math.radians, (args.theta, args.phi, args.theta_b, args.phi_b))
    geometry = dict(theta=theta, phi=phi, theta_b=theta_b, phi_b=phi_b, beta=args.beta)
    report = scen.evaluate(s, [("wigner", functools.partial(fn, **geometry))
                               for fn in (scen.wigner_exact, scen.GROUPS["wigner"])])
    return _write_entries(report.entries, args.format, stream)


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
        for t in _linspace(0.0, duration, args.samples):
            state = orbits.propagate(spec, t)
            row = [state.time, *state.position, *state.velocity]
            if track_station:
                gs = orbits.station_state(s.stations[0], t)
                rng, rate, _ = orbits.relative_geometry(state, gs)
                row += [rng, rate]
            rows.append(tuple(row))
        _finite(rows, header)
    _write_rows(rows, header, args.format, stream)
    return 0


def _cmd_curves(args, stream) -> int:
    _require(2 <= args.points <= ROW_CAP, "--points", f"in [2, {ROW_CAP}]")
    s = _load_scenario(args)
    if args.which == "photons":
        _require(args.v_min > bell.V_MIN, "--v-min", "> 1/sqrt(2)")
        _require(args.v_min <= args.v_max <= 1.0, "--v-max", "in [--v-min, 1]")
        header = ("V", "N")
        with scen.effect_errors("bell"):
            rows = _finite([(v, bell.required_photons(v))
                            for v in _linspace(args.v_min, args.v_max, args.points)], header)
        _write_rows(rows, header, args.format, stream)
        return 0
    # Ralph correlation vs proper-time differential
    if args.delta_max is not None:
        _require(0.0 < args.delta_max < math.inf, "--delta-max", "finite and > 0")
    model = qft_effects.EventOperatorModel(detector_resolution=s.detector_resolution)
    d_max = args.delta_max if args.delta_max is not None else 6.0 * s.detector_resolution
    header = ("delta", "C")
    with scen.effect_errors("qft"):
        rows = _finite([(delta, qft_effects.ralph_correlation(model, delta))
                        for delta in _linspace(0.0, d_max, args.points)], header)
    _write_rows(rows, header, args.format, stream)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", metavar="PATH", default=None,
                        help="scenario file (defaults apply when omitted)")
    common.add_argument("--format", choices=("table", "csv"), default="table")
    # the two subcommands that run the Monte Carlo
    monte_carlo = argparse.ArgumentParser(add_help=False, parents=[common])
    monte_carlo.add_argument("--seed", type=int, default=None,
                             help="override the Monte Carlo seed (unsigned 64-bit)")
    monte_carlo.add_argument("--workers", type=int, default=None,
                             help="override the number of Monte Carlo streams")

    parser = argparse.ArgumentParser(
        prog="relqopt",
        description="Quantitative effect estimates for satellite quantum links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", parents=[monte_carlo],
                       help="evaluate every enabled effect group")
    p.add_argument("--effects", default=None,
                   help="comma-separated group filter (e.g. geometry,bell)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("bell-sim", parents=[monte_carlo],
                       help="CHSH Monte Carlo with Poisson error propagation")
    p.add_argument("--photons", type=int, default=None,
                   help="total pair budget (default: scenario photon_budget)")
    p.add_argument("--counts-out", metavar="PATH", default=None,
                   help="also write the per-setting counts table as CSV")
    p.set_defaults(func=_cmd_bell_sim)

    p = sub.add_parser("diffusion", parents=[common],
                       help="polarization-diffusion forecasts")
    p.set_defaults(func=_cmd_report, effects="diffusion", seed=None, workers=None)

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


def run() -> None:
    sys.exit(main())
