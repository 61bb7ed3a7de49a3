"""Magnitudes of quantum-field effects tied to acceleration and clock rate.

Unruh bath temperature, the acceleration needed to excite a given mode,
the inertial/accelerated Berry-phase difference, vacuum-entanglement
negativity bounds with their spacelike windows, and the event-operator
decorrelation model for detectors on different clock rates.
"""

from __future__ import annotations

import cmath
import math

from .constants import BOLTZMANN_K, C_LIGHT, HBAR
from .errors import Record, check_finite, check_nonnegative, check_positive


class EventOperatorModel(Record):
    """Detector timing resolution d_t (s)."""

    __slots__ = ("detector_resolution",)

    def __init__(self, detector_resolution):
        object.__setattr__(self, "detector_resolution",
                           check_positive("detector_resolution", detector_resolution))


def unruh_temperature(a: float) -> float:
    """Thermal bath temperature T = hbar a / (2 pi c k_B) for proper acceleration a."""
    return HBAR * check_nonnegative("a", a) / (2.0 * math.pi * C_LIGHT * BOLTZMANN_K)


def required_acceleration(omega: float) -> float:
    """Acceleration a = omega c that brings a mode of angular frequency omega to resonance."""
    return check_nonnegative("omega", omega) * C_LIGHT


def berry_phase_difference(omega_a: float, a: float, big_g: float) -> float:
    """Phase difference acquired between inertial and uniformly accelerated paths.

    q_a = arctan(exp(-pi omega_a c / a)) as printed.  Returns
    arg(cosh^2 q - exp(2 pi i G) sinh^2 q) on the principal branch.  G is
    reduced mod 1 first, making period-1 invariance exact.  a = 0 returns the
    0 limit.
    """
    omega_a = check_nonnegative("omega_a", omega_a)
    a = check_nonnegative("a", a)
    big_g = check_finite("big_g", big_g)
    if a == 0.0:
        return 0.0
    q = math.atan(math.exp(-math.pi * omega_a * C_LIGHT / a))
    g_frac = big_g - math.floor(big_g)
    return cmath.phase(math.cosh(q) ** 2 - cmath.exp(2j * math.pi * g_frac) * math.sinh(q) ** 2)


def negativity_bound(separation: float, interaction_time: float) -> float:
    """Vacuum-entanglement negativity scale N = exp(-(R/(cT))^3) for two
    detectors at separation R that interact for a time T."""
    separation = check_positive("separation", separation)
    interaction_time = check_positive("interaction_time", interaction_time)
    ratio = separation / (C_LIGHT * interaction_time)
    return math.exp(-(ratio**3))


def spacelike_window(separation: float) -> float:
    """Longest interaction time R/c that keeps two detectors spacelike."""
    return check_nonnegative("separation", separation) / C_LIGHT


def ralph_correlation(model: EventOperatorModel, delta: float) -> float:
    """Event-operator decorrelation C = exp(-delta^2 / (4 d_t^2))."""
    x = check_finite("delta", delta) / (2.0 * model.detector_resolution)
    return math.exp(-(x * x))


def proper_time_differential(
    potential_low: float,
    potential_high: float,
    overlap_time: float,
    retroreflector: bool = False,
) -> float:
    """Accumulated clock-rate difference over an overlap window.

    delta = ((phi_high - phi_low)/c^2) * overlap, with phi the (negative)
    Newtonian potential, larger at higher altitude.  A retroreflector doubles
    the path overlap.
    """
    potential_low = check_finite("potential_low", potential_low)
    potential_high = check_finite("potential_high", potential_high)
    overlap_time = check_nonnegative("overlap_time", overlap_time)
    overlap = 2.0 * overlap_time if retroreflector else overlap_time
    return (potential_high - potential_low) / (C_LIGHT * C_LIGHT) * overlap
