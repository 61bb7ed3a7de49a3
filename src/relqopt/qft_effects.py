"""Magnitudes of quantum-field effects tied to acceleration and clock rate.

Unruh bath temperature, the acceleration needed to excite a given mode,
the inertial/accelerated Berry-phase difference, vacuum-entanglement
negativity bounds with their spacelike windows, and the event-operator
decorrelation model for detectors on different clock rates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .constants import BOLTZMANN_K, C_LIGHT, HBAR
from .errors import DomainError


@dataclass(frozen=True)
class DetectorPair:
    """Two spacelike-separated detectors: separation R, interaction time T."""

    separation: float
    interaction_time: float

    def __post_init__(self):
        if self.separation <= 0 or self.interaction_time <= 0:
            raise DomainError("separation and interaction_time must be positive")


@dataclass(frozen=True)
class EventOperatorModel:
    """Detector timing resolution d_t and maximum correlation C_max."""

    detector_resolution: float
    max_correlation: float = 1.0

    def __post_init__(self):
        if self.detector_resolution <= 0:
            raise DomainError("detector_resolution must be positive")
        if not 0.0 < self.max_correlation <= 1.0:
            raise DomainError("max_correlation must lie in (0, 1]")


def unruh_temperature(a: float) -> float:
    """Thermal bath temperature T = hbar a / (2 pi c k_B) for proper acceleration a."""
    if a < 0:
        raise DomainError("acceleration must be nonnegative")
    return HBAR * a / (2.0 * math.pi * C_LIGHT * BOLTZMANN_K)


def acceleration_for_temperature(t: float) -> float:
    """Inverse of unruh_temperature: a = 2 pi c k_B T / hbar."""
    if t < 0:
        raise DomainError("temperature must be nonnegative")
    return 2.0 * math.pi * C_LIGHT * BOLTZMANN_K * t / HBAR


def required_acceleration(omega: float) -> float:
    """Acceleration a = omega c that brings a mode of angular frequency omega to resonance."""
    if omega < 0:
        raise DomainError("omega must be nonnegative")
    return omega * C_LIGHT


def berry_phase_difference(
    omega_a: float, a: float, big_g: float, squeezing_convention: bool = False
) -> float:
    """Phase difference acquired between inertial and uniformly accelerated paths.

    q_a = arctan(exp(-pi omega_a c / a)) as printed; squeezing_convention=True
    switches to arctanh.  Returns arg(cosh^2 q - exp(2 pi i G) sinh^2 q) on the
    principal branch.  G is reduced mod 1 first, making period-1 invariance
    exact.  a = 0 returns the 0 limit.
    """
    if a < 0 or omega_a < 0:
        raise DomainError("omega_a and a must be nonnegative")
    if a == 0.0:
        return 0.0
    x = math.exp(-math.pi * omega_a * C_LIGHT / a)
    if squeezing_convention:
        if x >= 1.0:
            raise DomainError("arctanh convention requires omega_a > 0")
        q = math.atanh(x)
    else:
        q = math.atan(x)
    g_frac = big_g - math.floor(big_g)
    return cmath.phase(math.cosh(q) ** 2 - cmath.exp(2j * math.pi * g_frac) * math.sinh(q) ** 2)


def negativity_bound(pair: DetectorPair) -> float:
    """Vacuum-entanglement negativity scale N = exp(-(R/(cT))^3)."""
    ratio = pair.separation / (C_LIGHT * pair.interaction_time)
    return math.exp(-(ratio**3))


def spacelike_window(separation: float) -> float:
    """Longest interaction time R/c that keeps two detectors spacelike."""
    if separation < 0:
        raise DomainError("separation must be nonnegative")
    return separation / C_LIGHT


def ralph_correlation(model: EventOperatorModel, delta: float) -> float:
    """Event-operator decorrelation C = C_max exp(-delta^2 / (4 d_t^2))."""
    x = delta / (2.0 * model.detector_resolution)
    return model.max_correlation * math.exp(-(x * x))


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
    if overlap_time < 0:
        raise DomainError("overlap_time must be nonnegative")
    overlap = 2.0 * overlap_time if retroreflector else overlap_time
    return (potential_high - potential_low) / (C_LIGHT * C_LIGHT) * overlap
