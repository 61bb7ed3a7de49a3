"""Two-body Keplerian propagation and ground-station geometry.

Earth-centered inertial frame, spherical Earth for stations, no
perturbations (two-body numbers are good to ~0.1% position over hours,
well inside every downstream tolerance).
"""

from __future__ import annotations

import math

from .constants import EARTH, LUNAR_DISTANCE, ASTRONOMICAL_UNIT
from .errors import DomainError, NumericFailure, Record

_KEPLER_TOL = 1e-12
_KEPLER_MAX_ITER = 50


class OrbitSpec(Record):
    __slots__ = ("semi_major_axis", "eccentricity", "inclination", "raan", "arg_perigee",
                 "mean_anomaly_epoch", "epoch")

    def __init__(self, semi_major_axis, eccentricity=0.0, inclination=0.0, raan=0.0,
                 arg_perigee=0.0, mean_anomaly_epoch=0.0, epoch=0.0):
        if not 0.0 <= eccentricity < 1.0:
            raise DomainError("eccentricity must lie in [0, 1)")
        if semi_major_axis * (1.0 - eccentricity) <= EARTH.radius:
            raise DomainError("semi_major_axis must put the perigee above the Earth's surface")
        object.__setattr__(self, "semi_major_axis", semi_major_axis)
        object.__setattr__(self, "eccentricity", eccentricity)
        object.__setattr__(self, "inclination", inclination)
        object.__setattr__(self, "raan", raan)
        object.__setattr__(self, "arg_perigee", arg_perigee)
        object.__setattr__(self, "mean_anomaly_epoch", mean_anomaly_epoch)
        object.__setattr__(self, "epoch", epoch)

    def period(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.semi_major_axis**3 / EARTH.mu)


class StateVector(Record):
    __slots__ = ("time", "position", "velocity")

    def __init__(self, time, position, velocity):
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "velocity", velocity)

    @property
    def radius(self) -> float:
        return math.hypot(*self.position)

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


class GroundStation(Record):
    __slots__ = ("latitude", "longitude", "altitude")

    def __init__(self, latitude, longitude, altitude=0.0):
        if abs(latitude) > 0.5 * math.pi:
            raise DomainError("|latitude| must be <= pi/2")
        if altitude < 0:
            raise DomainError("altitude must be nonnegative")
        object.__setattr__(self, "latitude", latitude)
        object.__setattr__(self, "longitude", longitude)
        object.__setattr__(self, "altitude", altitude)


def solve_kepler(mean_anomaly: float, eccentricity: float) -> float:
    """Eccentric anomaly from M = E - e sin E, Newton iteration to 1e-12."""
    m = math.remainder(mean_anomaly, 2.0 * math.pi)
    e = eccentricity
    ecc_anom = m if e < 0.8 else math.pi
    for _ in range(_KEPLER_MAX_ITER):
        delta = (ecc_anom - e * math.sin(ecc_anom) - m) / (1.0 - e * math.cos(ecc_anom))
        ecc_anom -= delta
        if abs(delta) < _KEPLER_TOL:
            return ecc_anom
    raise NumericFailure("Kepler iteration did not converge in 50 steps")


def propagate(orbit: OrbitSpec, t: float) -> StateVector:
    """Two-body state at time t (inertial frame)."""
    a, e = orbit.semi_major_axis, orbit.eccentricity
    mu = EARTH.mu
    n = math.sqrt(mu / a**3)
    m_anom = orbit.mean_anomaly_epoch + n * (t - orbit.epoch)
    big_e = solve_kepler(m_anom, e)
    cos_e, sin_e = math.cos(big_e), math.sin(big_e)
    r = a * (1.0 - e * cos_e)
    root = math.sqrt(1.0 - e * e)
    # perifocal coordinates (the third component is zero)
    px, py = a * (cos_e - e), a * root * sin_e
    speed = math.sqrt(mu * a) / r
    vx, vy = -speed * sin_e, speed * (root * cos_e)
    # the perifocal x and y axes: columns of Rz(raan) Rx(inclination) Rz(arg_perigee)
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
    cw, sw = math.cos(orbit.arg_perigee), math.sin(orbit.arg_perigee)
    p_axis = (co * cw - so * ci * sw, so * cw + co * ci * sw, si * sw)
    q_axis = (-co * sw - so * ci * cw, -so * sw + co * ci * cw, si * cw)
    # "+ 0.0" turns a -0.0 sum (say z on an equatorial orbit) into 0.0
    pos = tuple(px * p + py * q + 0.0 for p, q in zip(p_axis, q_axis))
    vel = tuple(vx * p + vy * q + 0.0 for p, q in zip(p_axis, q_axis))
    return StateVector(t, pos, vel)


def station_state(gs: GroundStation, t: float) -> StateVector:
    """Inertial state of an Earth-fixed station (spin about +z at rotation_rate)."""
    r = EARTH.radius + gs.altitude
    bx = r * (math.cos(gs.latitude) * math.cos(gs.longitude))
    by = r * (math.cos(gs.latitude) * math.sin(gs.longitude))
    w = EARTH.rotation_rate
    c, s = math.cos(w * t), math.sin(w * t)
    x, y = c * bx - s * by, s * bx + c * by
    # velocity omega x position with omega = (0, 0, w)
    return StateVector(time=t, position=(x, y, r * math.sin(gs.latitude)),
                       velocity=(-w * y, w * x, 0.0))


def relative_geometry(a: StateVector, b: StateVector) -> tuple[float, float, float]:
    """(range, range rate, relative speed) between two simultaneous states."""
    if a.time != b.time:
        raise DomainError("states must share the same time")
    dr = [q - p for p, q in zip(a.position, b.position)]
    dv = [q - p for p, q in zip(a.velocity, b.velocity)]
    rng = math.hypot(*dr)
    rate = (dr[0] * dv[0] + dr[1] * dv[1] + dr[2] * dv[2]) / rng if rng > 0.0 else 0.0
    return rng, rate, math.hypot(*dv)


def newtonian_potential(r: float) -> float:
    """Potential -mu/r (J/kg), negative and increasing with altitude."""
    if r <= 0:
        raise DomainError("r must be positive")
    return -EARTH.mu / r


def preset_orbit(name: str) -> OrbitSpec:
    """Named circular/transfer presets used by scenario files."""
    try:
        return PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown orbit preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


PRESETS = {
    "leo500": OrbitSpec(semi_major_axis=EARTH.radius + 500e3),
    "leo1000": OrbitSpec(semi_major_axis=EARTH.radius + 1000e3),
    # 250 km x GEO-radius transfer ellipse
    "gto": OrbitSpec(
        semi_major_axis=0.5 * (EARTH.radius + 250e3 + 42164e3),
        eccentricity=(42164e3 - (EARTH.radius + 250e3)) / (42164e3 + EARTH.radius + 250e3),
    ),
    "geo": OrbitSpec(semi_major_axis=42164e3),
    "lunar-distance": OrbitSpec(semi_major_axis=LUNAR_DISTANCE),
    # heliocentric range treated as a fixed-radius Earth-centered circle
    "au": OrbitSpec(semi_major_axis=ASTRONOMICAL_UNIT),
}
