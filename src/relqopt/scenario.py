"""Mission scenarios: strict INI-style config files and the unified effect report.

File format: `key = value` lines under bracketed section headers.  SI base
units throughout; angles are degrees in files and radians internally.
Each scalar key is one `Key` record in `KEYS` (section, name, default, parser,
domain rule) and one `Scenario` field; the known-key check, parsing,
validation, `[section] key` error text and `Scenario.replace` all read it.
`Scenario(...)` also checks and stores each value as the type its key's parser gives.
`[orbit]`, `[stations]` and `[effects]` are special cases.  Each effect group
is one function in `GROUPS`, the one source of every row the report, `bell-sim`,
`diffusion` and `wigner` print; every value is the result of a library call.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from collections import namedtuple
from typing import NamedTuple

# each effect group imports its own module where it runs
from . import orbits
from .constants import C_LIGHT, EARTH, G0, PHOTON_CAP, ROUNDED_EARTH, WORKER_CAP
from .errors import ConfigurationError, DomainError, EffectError, Record, check_finite, is_finite
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
    from . import kinematics
    light_time = s.light_time_s()
    delay = s.delay if s.delay is not None else s.fibre_delay
    ground = kinematics.Event(t=delay, x=0.0, y=0.0, z=0.0)
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


def _direction(theta: float, phi: float) -> tuple:
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def _wigner(s: Scenario, sat, *, theta=0.5 * math.pi, phi=0.5 * math.pi, theta_b=0.5 * math.pi,
            phi_b=0.0, beta=None) -> list:
    """Photon direction (theta, phi) and boost direction (theta_b, phi_b) in radians; the
    boost speed is `beta` c, or the satellite's speed at epoch when `beta` is None.  The
    defaults, the report's fixed geometry, equal the `wigner` flag defaults bit for bit."""
    from . import wigner
    v = sat.speed if beta is None else beta * C_LIGHT
    return [
        ReportEntry("wigner.first_order_phase",
                    wigner.first_order_boost_phase(theta, phi, theta_b, phi_b, v),
                    "rad", "§3.1.1 Eq. (13)"),
        ReportEntry("wigner.diffraction_ratio",
                    wigner.diffraction_transform(1.0, s.relative_speed),
                    "dimensionless", "§3.1.1"),
    ]


def wigner_exact(s: Scenario, sat, *, theta: float, phi: float, theta_b: float,
                 phi_b: float, beta=None) -> list:
    """The boost speed and the exact little-group angle for `_wigner`'s geometry; at the
    report's fixed geometry that angle is zero up to rounding, so only the `wigner`
    subcommand prints these rows."""
    from . import wigner
    theta, phi = check_finite("theta", theta), check_finite("phi", phi)
    theta_b, phi_b = check_finite("theta_b", theta_b), check_finite("phi_b", phi_b)
    beta = sat.speed / C_LIGHT if beta is None else check_finite("beta", beta)
    lam = wigner.LorentzMatrix.boost(tuple(beta * x for x in _direction(theta_b, phi_b)))
    return [
        ReportEntry("wigner.beta", beta, "dimensionless", "§3.1.1"),
        ReportEntry("wigner.exact_angle",
                    wigner.wigner_angle(lam, wigner.FourMomentum(1.0, _direction(theta, phi))),
                    "rad", "§3.1.1"),
    ]


def _gravitomagnetic(s: Scenario, sat) -> list:
    from . import gravitomagnetism
    r_orbit = sat.radius
    return [
        ReportEntry("gravitomagnetic.kerr_rotation",
                    gravitomagnetism.kerr_principal_null_rotation(
                        ROUNDED_EARTH, r_orbit, math.inf, 0.25 * math.pi),
                    "rad", "§3.2.1 Eq. (17)"),
        ReportEntry("gravitomagnetic.axial_rotation",
                    gravitomagnetism.axial_impact_rotation(ROUNDED_EARTH, EARTH.radius),
                    "rad", "§3.2.1 Eq. (chi1)"),
        ReportEntry("gravitomagnetic.closed_path_rotation",
                    gravitomagnetism.closed_path_rotation(ROUNDED_EARTH, EARTH.radius, r_orbit),
                    "rad", "§3.2.1 Eq. (18)"),
    ]


def _interferometry(s: Scenario, sat) -> list:
    from . import interferometry
    altitude = s.orbit_spec().semi_major_axis - EARTH.radius
    fibre_length = C_LIGHT * s.fibre_delay / s.fibre_index
    return [
        ReportEntry("interferometry.optical_cow_phase",
                    interferometry.optical_cow_phase(s.wavelength, fibre_length, altitude),
                    "rad", "§3.5 Eq. (21)"),
        ReportEntry("interferometry.grav_redshift",
                    interferometry.grav_redshift_weak_field(altitude),
                    "dimensionless", "§3.5 Eq. (20)"),
        ReportEntry("interferometry.displacement",
                    interferometry.displacement_during_delay(sat.speed, s.fibre_delay),
                    "m", "§3.5"),
    ]


def _qft(s: Scenario, sat) -> list:
    from . import qft_effects
    phi_low = orbits.newtonian_potential(EARTH.radius)
    phi_high = orbits.newtonian_potential(sat.radius)
    separation = s.separation_m()
    window = qft_effects.spacelike_window(separation)
    required = qft_effects.required_acceleration(s.berry_gap)
    overlap = s.overlap_time if s.overlap_time is not None else s.light_time_s()
    interaction = s.interaction_time if s.interaction_time is not None else window
    a = s.berry_acceleration if s.berry_acceleration is not None else required
    delta = qft_effects.proper_time_differential(
        phi_low, phi_high, overlap, retroreflector=s.retroreflector)
    model = qft_effects.EventOperatorModel(detector_resolution=s.detector_resolution)
    return [
        ReportEntry("qft.unruh_temperature", qft_effects.unruh_temperature(G0),
                    "K", "§4.1 Eq. (22)"),
        ReportEntry("qft.required_acceleration", required, "m/s^2", "§4.1 Eq. (23)"),
        ReportEntry("qft.berry_phase",
                    qft_effects.berry_phase_difference(s.berry_gap, a, s.berry_g),
                    "rad", "§4.1 Eq. (24)"),
        ReportEntry("qft.negativity_bound",
                    qft_effects.negativity_bound(separation, interaction),
                    "dimensionless", "§3.3"),
        ReportEntry("qft.spacelike_window", window, "s", "§3.3 Table 2"),
        ReportEntry("qft.proper_time_delta", delta, "s", "§4.2"),
        ReportEntry("qft.ralph_correlation",
                    qft_effects.ralph_correlation(model, delta),
                    "dimensionless", "§4.2"),
    ]


def _diffusion(s: Scenario, sat) -> list:
    from . import diffusion
    t, nu = s.light_time_s(), C_LIGHT / s.wavelength
    return [
        ReportEntry("diffusion.affine_parameter", diffusion.affine_parameter(t, nu),
                    "s/J", "§5.2"),
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


def bell_counts(s: Scenario):
    """The scenario's simulated CHSH coincidence counts, a `bell.CoincidenceCounts`."""
    from . import bell
    return bell.simulate_coincidences(
        s.visibility, s.photon_budget, seed=s.seed, workers=s.workers)


def _bell(s: Scenario, sat, counts=None) -> list:
    """`counts` are the scenario's simulated counts, simulated here when None."""
    from . import bell
    n_req = bell.required_photons(s.visibility)
    result = bell.chsh_estimate(bell_counts(s) if counts is None else counts)
    return [
        ReportEntry("bell.visibility", s.visibility, "dimensionless", "§8.1"),
        ReportEntry("bell.photon_budget", s.photon_budget, "count", "§8.1"),
        ReportEntry("bell.required_photons", n_req, "count", "§8.1 Eq. (29)"),
        ReportEntry("bell.seed", s.seed, "dimensionless", "§8.1"),
        ReportEntry("bell.workers", s.workers, "dimensionless", "§8.1"),
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


# the type of the values each parser gives, which a value passed to Scenario() must have;
# the built-in types come first because an isinstance check on an ABC is ~10x slower
_KINDS = {_float: ((float, int, numbers.Real), "a number"), _bool: (bool, "on/off"),
          _int: ((int, numbers.Integral), "an integer"), _text: (str, "text")}
Key = namedtuple("Key", "section name default parse rule")


def _key(section: str, name: str, default, *rule, parse=_float) -> Key:
    """One `Scenario` field; `rule` holds (op in `_OPS`, bound) pairs, all true of the default."""
    return Key(section, name, default, parse, rule)


def _rule_text(rule) -> str:
    return " and ".join(
        f"one of {', '.join(bound)}" if op == "in"
        else f"{op} {format(bound, '.17g') if isinstance(bound, float) else bound}"
        for op, bound in rule)


KEYS = (_key("mission", "preset", "leo1000", ("in", orbits.PRESETS), parse=_text),
        _key("mission", "source", "ground", ("in", ("ground", "satellite")), parse=_text),
        _key("link", "wavelength", 800e-9, (">", 0)),
        _key("link", "fibre_delay", 20e-6, (">=", 0)),
        _key("link", "fibre_index", 1.0, (">=", 1)),
        _key("link", "detector_resolution", 500e-15, (">", 0)),
        _key("link", "analyzer_switch_time", 10e-9, (">=", 0)),
        _key("bell", "visibility", 0.95, (">", 0), ("<=", 1)),
        _key("bell", "photon_budget", 1_000_000, (">=", 1), ("<=", PHOTON_CAP), parse=_int),
        _key("bell", "seed", 1, (">=", 0), ("<", 2**64), parse=_int),
        _key("bell", "workers", 1, (">=", 1), ("<=", WORKER_CAP), parse=_int),
        _key("geometry", "separation", None, (">", 0)),
        _key("geometry", "delay", None, (">=", 0)),
        _key("geometry", "relative_speed", 15e3, (">", 0), ("<", C_LIGHT)),
        _key("geometry", "kappa", 1.0, (">=", 1)),
        _key("diffusion", "drift_d", 4e-8),
        _key("diffusion", "diffusion_c", 2e-9, (">=", 0)),
        _key("diffusion", "cmb_time", 4.35e17, (">", 0)),
        _key("diffusion", "cmb_frequency", 1.6e11, (">", 0)),
        _key("diffusion", "cmb_chi", 0.1),
        _key("diffusion", "cmb_mu", 0.025),
        _key("qft", "berry_gap", 1e6, (">=", 0)),
        _key("qft", "berry_acceleration", None, (">", 0)),
        _key("qft", "berry_g", 0.25),
        _key("qft", "overlap_time", None, (">=", 0)),
        _key("qft", "retroreflector", False, parse=_bool),
        _key("qft", "interaction_time", None, (">", 0)))


class Scenario(Record):
    """A field per `KEYS` entry, and `orbit` (None: the preset), `stations`, `effects`."""

    __slots__ = (*(key.name for key in KEYS), "orbit", "stations", "effects")

    def __init__(self, *, orbit=None, stations=(), effects=frozenset(EFFECT_GROUPS), **values):
        for section, name, default, parse, rule in KEYS:
            x = values.pop(name, default)
            if x is not default:  # a default obeys its rule; tests hold it to that
                kind, what = _KINDS[parse]
                if not isinstance(x, kind) or (isinstance(x, bool) and kind is not bool):
                    raise ConfigurationError(f"[{section}] {name} must be {what}")
                if parse is _float and not is_finite(x):  # NaN, inf or an int past the float range
                    raise ConfigurationError(f"[{section}] {name} must be finite")
                x = float(x) if parse is _float else int(x) if parse is _int else x
                for op, bound in rule:
                    if not _OPS[op](x, bound):
                        raise ConfigurationError(f"[{section}] {name} must be {_rule_text(rule)}")
            object.__setattr__(self, name, x)
        if values:
            raise TypeError(f"Scenario has no field(s) {sorted(values)}")
        if orbit is not None and not isinstance(orbit, OrbitSpec):
            raise ConfigurationError("[orbit] orbit must be an OrbitSpec or None")
        if not (isinstance(stations, tuple) and all(isinstance(g, GroundStation) for g in stations)):
            raise ConfigurationError("[stations] stations must be a tuple of GroundStations")
        if len(stations) > 2:
            raise ConfigurationError("[stations] at most 2 stations are supported")
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "effects", _known_groups(effects))

    def replace(self, **changes) -> Scenario:
        """A new Scenario with `changes` applied, validated like any other."""
        return Scenario(**(dict(zip(self.__slots__, self._values())) | changes))

    # -- derived geometry ---------------------------------------------------

    def orbit_spec(self) -> OrbitSpec:
        return self.orbit if self.orbit is not None else preset_orbit(self.preset)

    def separation_m(self) -> float:
        if self.separation is not None:
            return self.separation
        return self.orbit_spec().semi_major_axis - EARTH.radius

    def light_time_s(self) -> float:
        from . import kinematics
        return kinematics.light_travel_time(self.separation_m())


def _known_groups(groups) -> frozenset:
    unknown = set(groups) - set(EFFECT_GROUPS)
    if unknown:
        raise ConfigurationError(f"unknown effect group(s): {sorted(unknown)}")
    return frozenset(groups)


# [orbit] keys in OrbitSpec field order; the four angles between the
# eccentricity and the epoch are degrees in files
_ORBIT_KEYS = ("semi_major_axis", "eccentricity", "inclination", "raan",
               "arg_perigee", "mean_anomaly", "epoch")
# section -> name -> its Key, or None for the special-case sections
SECTIONS = {"orbit": dict.fromkeys(_ORBIT_KEYS),
            "stations": dict.fromkeys(("station1", "station2")),
            "effects": dict.fromkeys(EFFECT_GROUPS)}
for _k in KEYS:
    SECTIONS.setdefault(_k.section, {})[_k.name] = _k
del _k


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


# an inline comment: `#` or `;` at the start of a line or after whitespace
_COMMENT = re.compile(r"(?<!\S)[#;]")


def _read_sections(lines) -> dict:
    """{section: {key: raw value}} from a scenario file's lines, parsed before any is
    validated: `[section]` headers and `key = value` lines, keys lower-cased.  A repeated
    section or key, a key before any section, an indented line or any other line is a
    parse error naming its line."""
    sections, section = {}, None
    for n, line in enumerate(lines, 1):
        text = (_COMMENT.split(line, 1)[0] if "#" in line or ";" in line else line).strip()
        if not text:
            continue
        if line[0].isspace():
            problem = "indented lines (continued values) are not supported"
        elif text[0] == "[" and text[-1] == "]" and len(text) > 2:
            name = text[1:-1]
            if name not in sections:
                section = sections[name] = {}
                continue
            problem = f"section [{name}] is repeated"
        elif section is None:
            problem = "a key before any [section] header"
        else:
            key, eq, raw = text.partition("=")
            key = key.rstrip().lower()
            if not (eq and key) or ":" in key or key[0] == "[":
                problem = f"expected 'key = value', not {text!r}"
            elif key in section:
                problem = f"[{name}] {key} is repeated"
            else:
                section[key] = raw.strip()
                continue
        raise ConfigurationError(f"scenario parse error: line {n}: {problem}")
    return sections


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file (strict: unknown keys are errors)."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read scenario file: {exc}") from None
    # text mode's line ends, `\r\n`, `\r` and `\n`; str.splitlines would also break at `\v`
    sections = _read_sections(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))

    kwargs = {}
    for name, section in sections.items():
        known = SECTIONS.get(name)
        if known is None:
            raise ConfigurationError(f"unknown section [{name}]")
        for key, raw in section.items():
            if key not in known:
                raise ConfigurationError(f"[{name}] {key} is not a known key")
            if known[key] is not None:
                kwargs[key] = known[key].parse(f"[{name}] {key}", raw)
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


class effect_errors:
    """Raise an ArithmeticError or ValueError inside the block as EffectError(group)."""

    def __init__(self, group: str):
        self.group = group

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, OverflowError):
            # math and float ** raise OverflowError(errno, text), whose str() is the tuple
            raise EffectError(self.group, f"numeric overflow: {(exc.args or [exc])[-1]}") from exc
        if isinstance(exc, (ArithmeticError, ValueError)):
            raise EffectError(self.group, str(exc)) from exc


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
    enabled = s.effects if effects is None else _known_groups(effects)
    return evaluate(s, [(g, fn) for g, fn in GROUPS.items() if g in enabled])


def with_overrides(s: Scenario, **flags) -> Scenario:
    """CLI flag overrides: `s` with each field whose flag was given (not None) replaced."""
    changes = {k: v for k, v in flags.items() if v is not None}
    return s.replace(**changes) if changes else s
