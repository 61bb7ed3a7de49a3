"""Flat-spacetime event geometry for two-station links.

Events are (t, x, y, z) in SI. Conventions: the invariant interval is
reported as a magnitude plus a kind tag (spacelike separations in meters,
timelike ones as proper time in seconds); lightlike means the quadratic
form vanishes within a relative epsilon.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import C_LIGHT
from .errors import (DomainError, NumericFailure, Record, check_finite, check_nonnegative,
                     check_vector, set_finite_fields)

INTERVAL_EPS = 1e-12


class Event(Record):
    __slots__ = ("t", "x", "y", "z")

    def __init__(self, t, x, y, z=0.0):
        set_finite_fields(self, t, x, y, z)


class IntervalResult(NamedTuple):
    """kind is 'spacelike' (magnitude in m), 'timelike' (s) or 'lightlike' (0)."""

    kind: str
    magnitude: float


class SimultaneityBoost(NamedTuple):
    """Boost speed (fraction of c) that makes a spacelike pair simultaneous."""

    beta: float
    gamma: float


def _quadratic_form(e1: Event, e2: Event) -> tuple[float, float, float]:
    # float arithmetic: an overflow gives inf without a numpy RuntimeWarning, refused here
    dx, dy, dz = e2.x - e1.x, e2.y - e1.y, e2.z - e1.z
    dx2 = dx * dx + dy * dy + dz * dz
    cdt = C_LIGHT * (e2.t - e1.t)
    cdt2 = cdt * cdt
    if not (math.isfinite(dx2) and math.isfinite(cdt2)):
        raise NumericFailure("the interval overflows: dx^2 or (c dt)^2 is not finite")
    return dx2 - cdt2, dx2, cdt


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
    v0 = check_finite("v0", v0)
    if not (0.0 <= v0 < C_LIGHT):
        raise DomainError("v0 must satisfy 0 <= v0 < c")
    return v0 / (C_LIGHT * C_LIGHT)


def min_separation_for_switching(v0: float, switch_time: float) -> float:
    """Baseline (m) at which the v0/c^2 offset reaches switch_time seconds."""
    v0 = check_finite("v0", v0)
    if not 0.0 < v0 < C_LIGHT:
        raise DomainError("v0 must satisfy 0 < v0 < c")
    return check_nonnegative("switch_time", switch_time) * C_LIGHT * C_LIGHT / v0


def light_travel_time(distance: float) -> float:
    """One-way vacuum light time for a baseline in meters."""
    return check_nonnegative("distance", distance) / C_LIGHT


def causally_connected(e1: Event, e2: Event, kappa: float = 1.0) -> bool:
    """|dx| <= kappa * c * |dt| with a speed budget kappa >= 1."""
    kappa = check_finite("kappa", kappa)
    if not 1.0 <= kappa:
        raise DomainError("kappa must be >= 1 and finite")
    _, dx2, cdt = _quadratic_form(e1, e2)
    return math.sqrt(dx2) <= kappa * abs(cdt)


def boost_event(e: Event, beta_vec) -> Event:
    """The event seen from a frame moving with velocity beta_vec (fractions of c): the
    passive boost, `wigner.LorentzMatrix.boost(-beta_vec)` applied to (c t, x, y, z)."""
    from . import wigner
    b1, b2, b3 = check_vector("beta_vec", beta_vec)
    ct = C_LIGHT * e.t
    ct_new, x, y, z = [r0 * ct + r1 * e.x + r2 * e.y + r3 * e.z
                       for r0, r1, r2, r3 in wigner.LorentzMatrix.boost((-b1, -b2, -b3)).matrix]
    return Event(e.t + (ct_new - ct) / C_LIGHT, x, y, z)  # not ct_new / c: exact at beta = 0
