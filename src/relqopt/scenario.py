"""Mission scenarios: strict INI-style config files and the unified effect report.

File format: `key = value` lines under bracketed section headers.  SI base
units throughout; angles are degrees in files and radians internally.
Each scalar key is one `Scenario` field made by `_key` (section, default,
parser, domain rule), from which the known-key check, parsing, validation
and `[section] key` error text all derive; `[orbit]`, `[stations]` and
`[effects]` are special cases.  Each effect group is one function in
`GROUPS`; every report value is the result of a library call.
"""

from __future__ import annotations

import configparser
import contextlib
import math
import numbers
import operator
import re
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from . import bell, diffusion, gravitomagnetism, interferometry, kinematics, orbits, qft_effects, wigner
from .constants import C_LIGHT, EARTH, G0, ROUNDED_EARTH
from .errors import ConfigurationError, DomainError, EffectError
from .orbits import GroundStation, OrbitSpec, preset_orbit


class ReportEntry(NamedTuple):
    """One report row; integer counts and seeds stay `int`."""

    effect: str
    value: float
    unit: str
    paper_ref: str


class EffectReport(NamedTuple):
    entries: tuple


# -- effect groups: fn(scenario, satellite state at epoch) -> entries ---------


def _geometry(s: Scenario, sat) -> list:
    light_time = s.light_time_s()
    ground = kinematics.Event(t=s.delay_s(), x=0.0, y=0.0, z=0.0)
    remote = kinematics.Event(t=light_time, x=s.separation_m(), y=0.0, z=0.0)
    interval = kinematics.invariant_interval(ground, remote)
    kind_unit = "s" if interval.kind == "timelike" else "m"
    out = [ReportEntry(f"geometry.invariant_{interval.kind}_separation",
                       interval.magnitude, kind_unit, "§2.2")]
    if interval.kind == "spacelike":
        boost = kinematics.simultaneity_boost_speed(ground, remote)
        out.append(ReportEntry("geometry.simultaneity_beta", boost.beta,
                               "dimensionless", "§2.2"))
        out.append(ReportEntry("geometry.simultaneity_gamma", boost.gamma,
                               "dimensionless", "§2.2"))
    out.extend([
        ReportEntry("geometry.timing_shift",
                    kinematics.timing_shift_per_distance(s.relative_speed),
                    "s/m", "§2.4"),
        ReportEntry("geometry.min_switch_separation",
                    kinematics.min_separation_for_switching(
                        s.relative_speed, s.analyzer_switch_time),
                    "m", "§2.4"),
        ReportEntry("geometry.light_time", light_time, "s", "§2.5 Table 2"),
        ReportEntry("geometry.causally_connected",
                    float(kinematics.causally_connected(ground, remote, s.kappa)),
                    "dimensionless", "§2.2"),
    ])
    return out


def _wigner(s: Scenario, sat) -> list:
    return [
        ReportEntry("wigner.first_order_phase",
                    wigner.first_order_boost_phase(
                        0.5 * math.pi, 0.5 * math.pi, 0.5 * math.pi, 0.0, sat.speed),
                    "rad", "§3.1.1 Eq. (13)"),
        ReportEntry("wigner.diffraction_ratio",
                    wigner.diffraction_transform(1.0, s.relative_speed),
                    "dimensionless", "§3.1.1"),
    ]


def _gravitomagnetic(s: Scenario, sat) -> list:
    body = gravitomagnetism.SpinningBody(
        mass=ROUNDED_EARTH.mass, angular_momentum=ROUNDED_EARTH.angular_momentum)
    r_orbit = sat.radius
    return [
        ReportEntry("gravitomagnetic.kerr_rotation",
                    gravitomagnetism.kerr_principal_null_rotation(
                        body, r_orbit, math.inf, 0.25 * math.pi),
                    "rad", "§3.2.1 Eq. (17)"),
        ReportEntry("gravitomagnetic.axial_rotation",
                    gravitomagnetism.axial_impact_rotation(body, EARTH.radius),
                    "rad", "§3.2.1 Eq. (chi1)"),
        ReportEntry("gravitomagnetic.closed_path_rotation",
                    gravitomagnetism.closed_path_rotation(body, EARTH.radius, r_orbit),
                    "rad", "§3.2.1 Eq. (18)"),
    ]


def _interferometry(s: Scenario, sat) -> list:
    altitude = s.orbit_spec().semi_major_axis - EARTH.radius
    link = interferometry.OpticalLink(
        wavelength=s.wavelength,
        fibre_length=C_LIGHT * s.fibre_delay / s.fibre_index,
        altitude=altitude,
        g=G0,
    )
    return [
        ReportEntry("interferometry.optical_cow_phase",
                    interferometry.optical_cow_phase(link), "rad", "§3.5 Eq. (21)"),
        ReportEntry("interferometry.grav_redshift",
                    interferometry.grav_redshift_weak_field(altitude),
                    "dimensionless", "§3.5 Eq. (20)"),
        ReportEntry("interferometry.displacement",
                    interferometry.displacement_during_delay(sat.speed, s.fibre_delay),
                    "m", "§3.5"),
    ]


def _qft(s: Scenario, sat) -> list:
    phi_low = orbits.newtonian_potential(EARTH.radius)
    phi_high = orbits.newtonian_potential(sat.radius)
    delta = qft_effects.proper_time_differential(
        phi_low, phi_high, s.overlap_s(), retroreflector=s.retroreflector)
    model = qft_effects.EventOperatorModel(detector_resolution=s.detector_resolution)
    return [
        ReportEntry("qft.unruh_temperature", qft_effects.unruh_temperature(G0),
                    "K", "§4.1 Eq. (22)"),
        ReportEntry("qft.required_acceleration",
                    qft_effects.required_acceleration(s.berry_gap),
                    "m/s^2", "§4.1 Eq. (23)"),
        ReportEntry("qft.berry_phase",
                    qft_effects.berry_phase_difference(s.berry_gap, s.berry_a(), s.berry_g),
                    "rad", "§4.1 Eq. (24)"),
        ReportEntry("qft.negativity_bound", qft_effects.negativity_bound(
                        s.separation_m(), s.interaction_s()),
                    "dimensionless", "§3.3"),
        ReportEntry("qft.spacelike_window",
                    qft_effects.spacelike_window(s.separation_m()),
                    "s", "§3.3 Table 2"),
        ReportEntry("qft.proper_time_delta", delta, "s", "§4.2"),
        ReportEntry("qft.ralph_correlation",
                    qft_effects.ralph_correlation(model, delta),
                    "dimensionless", "§4.2"),
    ]


def _diffusion(s: Scenario, sat) -> list:
    t, nu = s.light_time_s(), s.frequency_hz()
    return [
        ReportEntry("diffusion.angle_shift", diffusion.angle_shift(t, nu, s.drift_d),
                    "dimensionless", "§5.2"),
        ReportEntry("diffusion.polarization_decay",
                    diffusion.polarization_decay(t, nu, s.diffusion_c),
                    "dimensionless", "§5.2"),
        ReportEntry("diffusion.cmb_drift_bound",
                    diffusion.drift_bound_from_angle(s.cmb_chi, s.cmb_time, s.cmb_frequency),
                    "1/s^2", "§5.2"),
        ReportEntry("diffusion.cmb_diffusion_bound",
                    diffusion.diffusion_bound_from_decay(s.cmb_mu, s.cmb_time, s.cmb_frequency),
                    "1/s^2", "§5.2"),
    ]


def bell_counts(s: Scenario) -> bell.CoincidenceCounts:
    """The scenario's simulated CHSH coincidence counts."""
    return bell.simulate_coincidences(
        s.visibility, s.photon_budget, bell.CHSH_SETTINGS, seed=s.seed, workers=s.workers)


def _bell(s: Scenario, sat) -> list:
    n_req = bell.required_photons(s.visibility)
    result = bell.chsh_estimate(bell_counts(s))
    return [
        ReportEntry("bell.required_photons", n_req, "count", "§8.1 Eq. (29)"),
        ReportEntry("bell.seed", s.seed, "dimensionless", "§8.1"),
        ReportEntry("bell.simulated_s", result.s_value, "dimensionless", "§8.1"),
        ReportEntry("bell.sigma", result.sigma, "dimensionless", "§8.1"),
        ReportEntry("bell.n_sigma_violation", result.n_sigma_violation,
                    "dimensionless", "§8.1"),
    ]


# in report order
GROUPS = {
    "geometry": _geometry,
    "wigner": _wigner,
    "gravitomagnetic": _gravitomagnetic,
    "interferometry": _interferometry,
    "qft": _qft,
    "diffusion": _diffusion,
    "bell": _bell,
}
EFFECT_GROUPS = tuple(GROUPS)


# -- the key table ------------------------------------------------------------

_BOOL = {"on": True, "true": True, "yes": True, "1": True,
         "off": False, "false": False, "no": False, "0": False}
# a decimal integer, which may be written with a fraction or an exponent: 7, 1e6, 2.50e3
_INT_TEXT = re.compile(r"([+-]?)(\d+)(?:\.(\d*))?(?:[eE]([+-]?\d{1,9}))?")
# Python's own limit on the digits of an int read from text
_INT_DIGITS = 4300
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
        "in": lambda x, choices: x in choices}


def _float(where: str, raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ConfigurationError(f"{where} is not a number: {raw!r}") from None
    if not math.isfinite(x):
        raise ConfigurationError(f"{where} must be finite")
    return x


def _int(where: str, raw: str) -> int:
    """The exact integer `raw` names, also in exponent form; never via float."""
    m = _INT_TEXT.fullmatch(raw)
    if m is None:
        raise ConfigurationError(f"{where} must be an integer: {raw!r}")
    sign, whole, frac, exp = m.groups("")
    digits = (whole + frac).lstrip("0")
    shift = int(exp or 0) - len(frac)
    if shift < 0:
        digits, dropped = digits[:shift], digits[shift:]
        if dropped.strip("0"):
            raise ConfigurationError(f"{where} must be an integer: {raw!r}")
        shift = 0
    if not digits:
        return 0
    if len(digits) + shift > _INT_DIGITS:
        raise ConfigurationError(f"{where} is out of range: {raw!r}")
    return int(sign + digits + "0" * shift)


def _bool(where: str, raw: str) -> bool:
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ConfigurationError(f"{where} must be on/off") from None


def _text(where: str, raw: str) -> str:
    return raw


def _key(section: str, default, *rule, parse=_float):
    """A scalar key: a `Scenario` field with its `[section]`, file parser and
    domain rule, given as (op, bound) pairs that must all hold."""
    return field(default=default, metadata={"section": section, "parse": parse, "rule": rule})


def _rule_text(rule) -> str:
    return " and ".join(
        f"one of {', '.join(bound)}" if op == "in"
        else f"{op} {format(bound, '.17g') if isinstance(bound, float) else bound}"
        for op, bound in rule)


def _reject(f, reason: str):
    raise ConfigurationError(f"[{f.metadata['section']}] {f.name} {reason}")


@dataclass(frozen=True)
class Scenario:
    preset: str = _key("mission", "leo1000", ("in", orbits.PRESETS), parse=_text)
    orbit: OrbitSpec | None = None
    stations: tuple = ()
    source: str = _key("mission", "ground", ("in", ("ground", "satellite")), parse=_text)
    wavelength: float = _key("link", 800e-9, (">", 0))
    fibre_delay: float = _key("link", 20e-6, (">=", 0))
    fibre_index: float = _key("link", 1.0, (">=", 1))
    detector_resolution: float = _key("link", 500e-15, (">", 0))
    analyzer_switch_time: float = _key("link", 10e-9, (">=", 0))
    visibility: float = _key("bell", 0.95, (">", 0), ("<=", 1))
    photon_budget: int = _key("bell", 1_000_000, (">=", 1), ("<=", bell.PHOTON_CAP), parse=_int)
    seed: int = _key("bell", 1, (">=", 0), ("<", 2**64), parse=_int)
    workers: int = _key("bell", 1, (">=", 1), ("<=", bell.WORKER_CAP), parse=_int)
    separation: float | None = _key("geometry", None, (">", 0))
    delay: float | None = _key("geometry", None, (">=", 0))
    relative_speed: float = _key("geometry", 15e3, (">", 0), ("<", C_LIGHT))
    kappa: float = _key("geometry", 1.0, (">=", 1))
    drift_d: float = _key("diffusion", 4e-8)
    diffusion_c: float = _key("diffusion", 2e-9, (">=", 0))
    cmb_time: float = _key("diffusion", 4.35e17, (">", 0))
    cmb_frequency: float = _key("diffusion", 1.6e11, (">", 0))
    cmb_chi: float = _key("diffusion", 0.1)
    cmb_mu: float = _key("diffusion", 0.025)
    berry_gap: float = _key("qft", 1e6, (">=", 0))
    berry_acceleration: float | None = _key("qft", None, (">", 0))
    berry_g: float = _key("qft", 0.25)
    overlap_time: float | None = _key("qft", None, (">=", 0))
    retroreflector: bool = _key("qft", False, parse=_bool)
    interaction_time: float | None = _key("qft", None, (">", 0))
    effects: frozenset = frozenset(EFFECT_GROUPS)

    def __post_init__(self):
        for f, parse, tests in _CHECKS:
            x = getattr(self, f.name)
            if x is None and f.default is None:
                continue
            if parse is _int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
                _reject(f, "must be an integer")
            if parse is _float and not math.isfinite(x):
                _reject(f, "must be finite")
            for test, bound in tests:
                if not test(x, bound):
                    _reject(f, f"must be {_rule_text(f.metadata['rule'])}")
        if len(self.stations) > 2:
            raise ConfigurationError("[stations] at most 2 stations are supported")
        _known_groups(self.effects)

    # -- derived geometry ---------------------------------------------------

    def orbit_spec(self) -> OrbitSpec:
        return self.orbit if self.orbit is not None else preset_orbit(self.preset)

    def separation_m(self) -> float:
        if self.separation is not None:
            return self.separation
        return self.orbit_spec().semi_major_axis - EARTH.radius

    def light_time_s(self) -> float:
        return kinematics.light_travel_time(self.separation_m())

    def frequency_hz(self) -> float:
        return C_LIGHT / self.wavelength

    def delay_s(self) -> float:
        return self.delay if self.delay is not None else self.fibre_delay

    def overlap_s(self) -> float:
        return self.overlap_time if self.overlap_time is not None else self.light_time_s()

    def interaction_s(self) -> float:
        t = self.interaction_time
        return t if t is not None else qft_effects.spacelike_window(self.separation_m())

    def berry_a(self) -> float:
        a = self.berry_acceleration
        return a if a is not None else qft_effects.required_acceleration(self.berry_gap)


def _known_groups(groups) -> frozenset:
    unknown = set(groups) - set(EFFECT_GROUPS)
    if unknown:
        raise ConfigurationError(f"unknown effect group(s): {sorted(unknown)}")
    return frozenset(groups)


_KEYS = tuple(f for f in fields(Scenario) if f.metadata)
# per key: its field, its parser and its rule as (test, bound) pairs
_CHECKS = tuple((f, f.metadata["parse"], tuple((_OPS[op], b) for op, b in f.metadata["rule"]))
                for f in _KEYS)
# [orbit] keys in OrbitSpec field order; the four angles between the
# eccentricity and the epoch are degrees in files
_ORBIT_KEYS = ("semi_major_axis", "eccentricity", "inclination", "raan",
               "arg_perigee", "mean_anomaly", "epoch")
# section -> key -> its Scenario field, or None for the special-case sections
SECTIONS = {"orbit": dict.fromkeys(_ORBIT_KEYS),
            "stations": dict.fromkeys(("station1", "station2")),
            "effects": dict.fromkeys(EFFECT_GROUPS)}
for _f in _KEYS:
    SECTIONS.setdefault(_f.metadata["section"], {})[_f.name] = _f
del _f


def _orbit(section) -> OrbitSpec:
    if "semi_major_axis" not in section:
        raise ConfigurationError("[orbit] semi_major_axis is required for a custom orbit")
    a, e, *angles, epoch = (_float(f"[orbit] {key}", section.get(key, "0"))
                            for key in _ORBIT_KEYS)
    try:
        return OrbitSpec(a, e, *map(math.radians, angles), epoch)
    except DomainError as exc:
        # OrbitSpec's messages start with the [orbit] key they reject
        raise ConfigurationError(f"[orbit] {exc}") from None


def _station(key: str, raw: str) -> GroundStation:
    where = f"[stations] {key}"
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigurationError(f"{where} needs 'lat_deg lon_deg alt_m'")
    lat, lon, alt = (_float(where, p) for p in parts)
    try:
        return GroundStation(latitude=math.radians(lat), longitude=math.radians(lon),
                             altitude=alt)
    except DomainError as exc:
        raise ConfigurationError(f"{where} {exc}") from None


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file (strict: unknown keys are errors)."""
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigurationError(f"scenario parse error: {exc}") from None

    kwargs = {}
    for name in parser.sections():
        known = SECTIONS.get(name)
        if known is None:
            raise ConfigurationError(f"unknown section [{name}]")
        section = dict(parser.items(name, raw=True))
        for key, raw in section.items():
            if key not in known:
                raise ConfigurationError(f"[{name}] {key} is not a known key")
            f = known[key]
            if f is not None:
                kwargs[key] = f.metadata["parse"](f"[{name}] {key}", raw)
        if name == "orbit":
            kwargs["orbit"] = _orbit(section)
        elif name == "stations":
            kwargs["stations"] = tuple(_station(key, section[key])
                                       for key in known if key in section)
        elif name == "effects":
            kwargs["effects"] = frozenset(
                g for g in EFFECT_GROUPS
                if g not in section or _bool(f"[effects] {g}", section[g]))
    return Scenario(**kwargs)


# -- reports ------------------------------------------------------------------


@contextlib.contextmanager
def effect_errors(group: str):
    """Raise an ArithmeticError or ValueError inside the block as EffectError(group)."""
    try:
        yield
    except (ArithmeticError, ValueError) as exc:
        raise EffectError(group, str(exc)) from exc


def evaluate(s: Scenario, groups) -> EffectReport:
    """Run (group, fn) pairs in order on one satellite state at epoch.

    A failure inside fn(s, sat), or a non-finite value among its entries,
    is an EffectError naming the group; a satellite state that cannot be
    computed is an EffectError naming "orbit", as in the `orbit` subcommand.
    """
    with effect_errors("orbit"):
        sat = orbits.propagate(s.orbit_spec(), 0.0)
    entries = []
    for group, fn in groups:
        with effect_errors(group):
            out = fn(s, sat)
        for e in out:
            if not math.isfinite(e.value):
                raise EffectError(group, f"{e.effect} is {e.value}")
        entries.extend(out)
    return EffectReport(entries=tuple(entries))


def run_report(s: Scenario, effects=None) -> EffectReport:
    """Evaluate every enabled effect group for the scenario."""
    enabled = _known_groups(s.effects if effects is None else effects)
    return evaluate(s, [(g, fn) for g, fn in GROUPS.items() if g in enabled])


def with_overrides(s: Scenario, seed=None, workers=None) -> Scenario:
    """CLI flag overrides for the Monte Carlo stream controls."""
    changes = {k: v for k, v in (("seed", seed), ("workers", workers)) if v is not None}
    return replace(s, **changes) if changes else s
