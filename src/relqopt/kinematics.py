"""Flat-spacetime event geometry for two-station links.

Events are (t, x, y, z) in SI. Conventions: the invariant interval is
reported as a magnitude plus a kind tag (spacelike separations in meters,
timelike ones as proper time in seconds); lightlike means the quadratic
form vanishes within a relative epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import C_LIGHT
from .errors import DomainError

INTERVAL_EPS = 1e-12


@dataclass(frozen=True)
class Event:
    t: float
    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"event coordinate {name} must be finite")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


class IntervalResult(NamedTuple):
    """kind is 'spacelike' (magnitude in m), 'timelike' (s) or 'lightlike' (0)."""

    kind: str
    magnitude: float


class SimultaneityBoost(NamedTuple):
    """Boost speed (fraction of c) that makes a spacelike pair simultaneous."""

    beta: float
    gamma: float


def _quadratic_form(e1: Event, e2: Event) -> tuple[float, float, float]:
    # float arithmetic: an overflow gives inf without a numpy RuntimeWarning
    dx, dy, dz = e2.x - e1.x, e2.y - e1.y, e2.z - e1.z
    dx2 = dx * dx + dy * dy + dz * dz
    cdt = C_LIGHT * (e2.t - e1.t)
    return dx2 - cdt * cdt, dx2, cdt


def invariant_interval(e1: Event, e2: Event) -> IntervalResult:
    """Classify the pair and return sqrt(|dx^2 - (c dt)^2|) in natural units.

    Spacelike magnitude is the proper distance in meters; timelike magnitude
    is the proper time in seconds.
    """
    q, dx2, cdt = _quadratic_form(e1, e2)
    scale = max(dx2, cdt * cdt)
    if abs(q) <= INTERVAL_EPS * scale:
        return IntervalResult("lightlike", 0.0)
    if q > 0:
        return IntervalResult("spacelike", math.sqrt(q))
    return IntervalResult("timelike", math.sqrt(-q) / C_LIGHT)


def simultaneity_boost_speed(e1: Event, e2: Event) -> SimultaneityBoost:
    """Speed fraction beta = c|dt|/|dx| that zeroes dt for a spacelike pair."""
    q, dx2, cdt = _quadratic_form(e1, e2)
    scale = max(dx2, cdt * cdt)
    if q <= INTERVAL_EPS * scale:
        raise DomainError("pair is not spacelike; no simultaneity frame exists")
    beta = abs(cdt) / math.sqrt(dx2)
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return SimultaneityBoost(beta=beta, gamma=gamma)


def timing_shift_per_distance(v0: float) -> float:
    """Leading-order clock offset per unit baseline, v0/c^2 (s/m)."""
    if not (0.0 <= v0 < C_LIGHT):
        raise DomainError("v0 must satisfy 0 <= v0 < c")
    return v0 / (C_LIGHT * C_LIGHT)


def min_separation_for_switching(v0: float, switch_time: float) -> float:
    """Baseline (m) at which the v0/c^2 offset reaches switch_time seconds."""
    if not (v0 > 0.0):
        raise DomainError("v0 must be positive")
    if switch_time < 0.0:
        raise DomainError("switch_time must be nonnegative")
    return switch_time * C_LIGHT * C_LIGHT / v0


def light_travel_time(distance: float) -> float:
    """One-way vacuum light time for a baseline in meters."""
    if distance < 0.0:
        raise DomainError("distance must be nonnegative")
    return distance / C_LIGHT


def causally_connected(e1: Event, e2: Event, kappa: float = 1.0) -> bool:
    """|dx| <= kappa * c * |dt| with a speed budget kappa >= 1."""
    if kappa < 1.0:
        raise DomainError("kappa must be >= 1")
    _, dx2, cdt = _quadratic_form(e1, e2)
    return math.sqrt(dx2) <= kappa * abs(cdt)


def boost_event(e: Event, beta_vec) -> Event:
    """Apply a pure boost with velocity beta_vec (fractions of c) to an event."""
    b = np.asarray(beta_vec, dtype=float)
    b2 = float(b @ b)
    if b2 >= 1.0:
        raise DomainError("|beta| must be < 1")
    if b2 == 0.0:
        return e
    gamma = 1.0 / math.sqrt(1.0 - b2)
    x = e.position
    bx = float(b @ x)
    ct = C_LIGHT * e.t
    ct_new = gamma * (ct - bx)
    x_new = x + ((gamma - 1.0) * bx / b2 - gamma * ct) * b
    return Event(ct_new / C_LIGHT, *x_new)
