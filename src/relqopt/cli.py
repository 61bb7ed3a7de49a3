"""Command-line front end.

Subcommands: `report` (full effect table for a scenario), `bell-sim`
(CHSH Monte Carlo), `diffusion` and `wigner` (one group each, rows as
`scenario` defines them), `orbit` (ephemeris samples), `curves` (plot-ready
data).  Exit codes: 0 success, 2 configuration problem, 3 numeric failure.

Output is an aligned table by default or RFC-4180-style CSV (LF line
endings, '.' decimal separator, 17 significant digits) with --format csv.
Angles are degrees on the command line, matching scenario files.

No subcommand loads numpy.  Each imports only the relqopt modules it runs:
`cli`, `scenario`, `orbits`, `constants` and `errors`, and then `wigner` for
wigner, `diffusion` and `kinematics` for diffusion, `bell` and `_philox` for
bell-sim, `bell` or `qft_effects` for curves photons or ralph, and all for the
default report.  A child with no bytecode to read compiles only those.
"""

from __future__ import annotations

import functools
import math
import sys
import types

from . import scenario as scen
from .errors import ConfigurationError, DomainError, EffectError, NumericFailure

# largest `orbit --samples` and `curves --points`: each subcommand builds its
# whole row list before printing (an orbit row costs ~75 us)
ROW_CAP = 100_000


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
        # unquoted: no text cell holds a comma, a quote or a line break (test_cli checks)
        for row in [header, *rows]:
            cells = (str(c) if isinstance(c, (str, int)) else format(c, ".17g") for c in row)
            stream.write(",".join(cells) + "\n")
        return
    cells = [[c if isinstance(c, str) else format(float(c), ".9g") for c in row]
             for row in [header, *rows]]
    widths = [max(len(r[j]) for r in cells) for j in range(len(header))]
    for r in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        stream.write("\n")


def _write_table(group: str, header, rows, fmt: str, stream) -> None:
    """Write the rows that the iterable `rows` yields, built inside
    `scen.effect_errors(group)`; a NaN or infinite value fails the group, as
    `scen.evaluate` fails a report group."""
    with scen.effect_errors(group):
        rows = list(rows)
        for row in rows:
            for name, x in zip(header, row):
                if not math.isfinite(x):
                    raise NumericFailure(f"{name} is {x}")
    _write_rows(rows, header, fmt, stream)


def _require(ok: bool, flag: str, rule: str) -> None:
    if not ok:
        raise ConfigurationError(f"{flag} must be {rule}")


def _load_scenario(args, **flags) -> scen.Scenario:
    s = scen.load_scenario(args.scenario) if args.scenario else scen.Scenario()
    return scen.with_overrides(s, **flags)


def _parse_effects(raw: str | None):
    if raw is None:
        return None
    groups = [g.strip() for g in raw.split(",") if g.strip()]
    if not groups:
        raise ConfigurationError("--effects list is empty")
    return frozenset(groups)


def _cmd_report(args, stream) -> None:
    s = _load_scenario(args, seed=args.seed, workers=args.workers)
    report = scen.run_report(s, effects=_parse_effects(args.effects))
    _write_rows(report.entries, scen.ReportEntry._fields, args.format, stream)


def _cmd_bell_sim(args, stream) -> None:
    from . import bell
    s = _load_scenario(args, seed=args.seed, workers=args.workers, photon_budget=args.photons)
    with scen.effect_errors("bell"):
        counts = scen.bell_counts(s)
    report = scen.evaluate(s, [("bell", functools.partial(scen.GROUPS["bell"], counts=counts))])
    if args.counts_out:
        try:
            with open(args.counts_out, "w", encoding="utf-8", newline="") as fh:
                _write_rows([(*pair, *row) for pair, row in zip(bell.CHSH_SETTINGS, counts.counts)],
                            ("alpha", "beta", "n_pp", "n_pm", "n_mp", "n_mm"), "csv", fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot write --counts-out file: {exc}") from None
    _write_rows(report.entries, scen.ReportEntry._fields, args.format, stream)


def _cmd_wigner(args, stream) -> None:
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
    _write_rows(report.entries, scen.ReportEntry._fields, args.format, stream)


def _cmd_orbit(args, stream) -> None:
    from . import orbits
    _require(2 <= args.samples <= ROW_CAP, "--samples", f"in [2, {ROW_CAP}]")
    if args.duration is not None:
        _require(0.0 < args.duration < math.inf, "--duration", "finite and > 0")
    s = _load_scenario(args)
    spec = s.orbit_spec()
    header = ["t", "x", "y", "z", "vx", "vy", "vz"]
    if s.stations:
        header += ["range", "range_rate"]

    def rows():
        duration = args.duration if args.duration is not None else spec.period()
        for t in _linspace(0.0, duration, args.samples):
            state = orbits.propagate(spec, t)
            row = (state.time, *state.position, *state.velocity)
            if s.stations:
                row += orbits.relative_geometry(state, orbits.station_state(s.stations[0], t))
            yield row

    _write_table("orbit", header, rows(), args.format, stream)


def _cmd_curves(args, stream) -> None:
    _require(2 <= args.points <= ROW_CAP, "--points", f"in [2, {ROW_CAP}]")
    s = _load_scenario(args)
    if args.which == "photons":
        from . import bell
        _require(args.v_min > bell.V_MIN, "--v-min", "> 1/sqrt(2)")
        _require(args.v_min <= args.v_max <= 1.0, "--v-max", "in [--v-min, 1]")
        return _write_table("bell", ("V", "N"), (
            (v, bell.required_photons(v)) for v in _linspace(args.v_min, args.v_max, args.points)),
            args.format, stream)
    # Ralph correlation vs proper-time differential
    from . import qft_effects
    if args.delta_max is not None:
        _require(0.0 < args.delta_max < math.inf, "--delta-max", "finite and > 0")
    model = qft_effects.EventOperatorModel(detector_resolution=s.detector_resolution)
    d_max = args.delta_max if args.delta_max is not None else 6.0 * s.detector_resolution
    _write_table("qft", ("delta", "C"), (
        (delta, qft_effects.ralph_correlation(model, delta))
        for delta in _linspace(0.0, d_max, args.points)), args.format, stream)


# flag: (type, default, choices, help); every subcommand takes _COMMON
_COMMON = {"--scenario": (str, None, None, "scenario file (defaults apply when omitted)"),
           "--format": (str, "table", ("table", "csv"), "aligned table or CSV")}
_MONTE_CARLO = {**_COMMON,  # the two subcommands that run the Monte Carlo
                "--seed": (int, None, None, "override the Monte Carlo seed (unsigned 64-bit)"),
                "--workers": (int, None, None, "override the number of Monte Carlo streams")}
# subcommand: (runner, help, flags, fixed attributes of the namespace that the runner reads)
COMMANDS = {
    "report": (_cmd_report, "evaluate every enabled effect group", {
        **_MONTE_CARLO, "--effects": (str, None, None, "comma-separated group filter")}, {}),
    "bell-sim": (_cmd_bell_sim, "CHSH Monte Carlo with Poisson error propagation", {
        **_MONTE_CARLO, "--photons": (int, None, None, "total pair budget (default: scenario's)"),
        "--counts-out": (str, None, None, "also write the per-setting counts table as CSV")}, {}),
    "diffusion": (_cmd_report, "polarization-diffusion forecasts", _COMMON,
                  {"effects": "diffusion", "seed": None, "workers": None}),
    "wigner": (_cmd_wigner, "exact and first-order little-group angles", {
        **_COMMON, "--theta": (float, 90.0, None, "photon polar angle, degrees"),
        "--phi": (float, 90.0, None, "photon azimuth, degrees"),
        "--theta-b": (float, 90.0, None, "boost polar angle, degrees"),
        "--phi-b": (float, 0.0, None, "boost azimuth, degrees"),
        "--beta": (float, None, None, "boost speed v/c (default: orbital speed at epoch)")}, {}),
    "orbit": (_cmd_orbit, "sampled satellite ephemeris (and station range)", {
        **_COMMON, "--duration": (float, None, None, "time span in seconds (default: one period)"),
        "--samples": (int, 101, None, "number of sample times")}, {}),
    "curves": (_cmd_curves, "plot-ready data tables", {
        **_COMMON, "--which": (str, "photons", ("photons", "ralph"), "N(V) or C(delta) table"),
        "--points": (int, 57, None, "number of rows"),
        "--v-min": (float, 0.72, None, "smallest visibility (photons)"),
        "--v-max": (float, 1.0, None, "largest visibility (photons)"),
        "--delta-max": (float, None, None, "largest proper-time differential, s (ralph)")}, {})}


def _help(name=None) -> str:
    rows = [(n, entry[1]) for n, entry in COMMANDS.items()] if name is None else [
        (f"{flag} {'{' + ','.join(choices) + '}' if choices else kind.__name__.upper()}",
         text if default is None else f"{text} (default {default})")
        for flag, (kind, default, choices, text) in COMMANDS[name][2].items()]
    return "\n".join([f"usage: relqopt {name or 'COMMAND'} [--FLAG VALUE | --FLAG=VALUE ...]",
                      COMMANDS[name][1] if name else "relqopt COMMAND --help lists its flags",
                      *(f"  {a:<25}{b}" for a, b in rows)])


def _parse_args(argv):
    """The namespace that the subcommand's runner `func` reads, or None after help."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        return print(_help())
    if name not in COMMANDS:
        raise ConfigurationError(f"unknown subcommand {name!r}; choose from {', '.join(COMMANDS)}"
                                 if argv else f"a subcommand is required: {', '.join(COMMANDS)}")
    func, _, flags, fixed = COMMANDS[name]
    values, extras, rest = {flag: spec[1] for flag, spec in flags.items()}, [], iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            return print(_help(name))
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            extras.append(arg)
            continue
        if not eq:  # a negative number is a value; a missing one reads as "--"
            value = next(rest, "--")
            _require(value[:1] != "-" or value[1:2] in "0123456789.", flag, "followed by a value")
        kind, _, choices, _ = flags[flag]
        try:
            values[flag] = kind(value)
        except ValueError:
            raise ConfigurationError(f"{flag} must be {kind.__name__}, not {value!r}") from None
        _require(not choices or values[flag] in choices, flag,
                 f"one of {', '.join(choices or ())}, not {value!r}")
    if extras:
        raise ConfigurationError("unrecognized arguments: " + " ".join(extras))
    return types.SimpleNamespace(**{flag[2:].replace("-", "_"): x for flag, x in values.items()},
                                 **fixed, func=func)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args:
            args.func(args, sys.stdout)
        return 0
    except (EffectError, ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EffectError) else 2


def run() -> None:
    sys.exit(main())
