"""Two-body Keplerian propagation and ground-station geometry.

Earth-centered inertial frame, spherical Earth for stations, no
perturbations (two-body numbers are good to ~0.1% position over hours,
well inside every downstream tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH, LUNAR_DISTANCE, ASTRONOMICAL_UNIT, EarthParams
from .errors import DomainError, NumericFailure

_KEPLER_TOL = 1e-12
_KEPLER_MAX_ITER = 50


@dataclass(frozen=True)
class OrbitSpec:
    semi_major_axis: float
    eccentricity: float = 0.0
    inclination: float = 0.0
    raan: float = 0.0
    arg_perigee: float = 0.0
    mean_anomaly_epoch: float = 0.0
    epoch: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eccentricity < 1.0:
            raise DomainError("eccentricity must lie in [0, 1)")
        if self.semi_major_axis * (1.0 - self.eccentricity) <= EARTH.radius:
            raise DomainError("perigee must clear the Earth's surface")

    def period(self, earth: EarthParams = EARTH) -> float:
        return 2.0 * math.pi * math.sqrt(self.semi_major_axis**3 / earth.mu)


@dataclass(frozen=True)
class StateVector:
    time: float
    position: tuple
    velocity: tuple

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        v = np.asarray(self.velocity, dtype=float)
        if p.shape != (3,) or v.shape != (3,):
            raise DomainError("position and velocity must be 3-vectors")
        object.__setattr__(self, "position", tuple(float(x) for x in p))
        object.__setattr__(self, "velocity", tuple(float(x) for x in v))

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.position))

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))


@dataclass(frozen=True)
class GroundStation:
    latitude: float
    longitude: float
    altitude: float = 0.0

    def __post_init__(self):
        if abs(self.latitude) > 0.5 * math.pi:
            raise DomainError("|latitude| must be <= pi/2")
        if self.altitude < 0:
            raise DomainError("altitude must be nonnegative")


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


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def propagate(orbit: OrbitSpec, t: float, earth: EarthParams = EARTH) -> StateVector:
    """Two-body state at time t (inertial frame)."""
    a, e = orbit.semi_major_axis, orbit.eccentricity
    n = math.sqrt(earth.mu / a**3)
    m_anom = orbit.mean_anomaly_epoch + n * (t - orbit.epoch)
    big_e = solve_kepler(m_anom, e)
    cos_e, sin_e = math.cos(big_e), math.sin(big_e)
    r = a * (1.0 - e * cos_e)
    # perifocal coordinates
    pos_pf = np.array([a * (cos_e - e), a * math.sqrt(1.0 - e * e) * sin_e, 0.0])
    vel_pf = (math.sqrt(earth.mu * a) / r) * np.array(
        [-sin_e, math.sqrt(1.0 - e * e) * cos_e, 0.0]
    )
    rot = _rot_z(orbit.raan) @ _rot_x(orbit.inclination) @ _rot_z(orbit.arg_perigee)
    return StateVector(time=t, position=tuple(rot @ pos_pf), velocity=tuple(rot @ vel_pf))


def station_state(gs: GroundStation, t: float, earth: EarthParams = EARTH) -> StateVector:
    """Inertial state of an Earth-fixed station (spin about +z at rotation_rate)."""
    r = earth.radius + gs.altitude
    body_fixed = r * np.array(
        [
            math.cos(gs.latitude) * math.cos(gs.longitude),
            math.cos(gs.latitude) * math.sin(gs.longitude),
            math.sin(gs.latitude),
        ]
    )
    pos = _rot_z(earth.rotation_rate * t) @ body_fixed
    omega = np.array([0.0, 0.0, earth.rotation_rate])
    return StateVector(time=t, position=tuple(pos), velocity=tuple(np.cross(omega, pos)))


def relative_geometry(a: StateVector, b: StateVector) -> tuple[float, float, float]:
    """(range, range rate, relative speed) between two simultaneous states."""
    if a.time != b.time:
        raise DomainError("states must share the same time")
    dr = np.asarray(b.position) - np.asarray(a.position)
    dv = np.asarray(b.velocity) - np.asarray(a.velocity)
    rng = float(np.linalg.norm(dr))
    rate = float(dr @ dv) / rng if rng > 0.0 else 0.0
    return rng, rate, float(np.linalg.norm(dv))


def newtonian_potential(r: float, earth: EarthParams = EARTH) -> float:
    """Potential -mu/r (J/kg), negative and increasing with altitude."""
    if r <= 0:
        raise DomainError("r must be positive")
    return -earth.mu / r


def circular_speed(r: float, earth: EarthParams = EARTH) -> float:
    """Circular-orbit speed sqrt(mu/r)."""
    if r <= 0:
        raise DomainError("r must be positive")
    return math.sqrt(earth.mu / r)


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
