"""Physical constants (CODATA 2018), Earth parameters and unit helpers.

All SI. Angles are radians everywhere inside the library; conversion to
display units (deg, arcsec, arc-millisecond) happens at the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError, DomainError

# CODATA 2018. The first three are exact by SI definition.
C_LIGHT = 299792458.0            # m / s
PLANCK_H = 6.62607015e-34        # J s
BOLTZMANN_K = 1.380649e-23       # J / K
HBAR = PLANCK_H / (2.0 * math.pi)  # J s
GRAVITATIONAL_G = 6.67430e-11    # m^3 / (kg s^2)
G0 = 9.81                        # m / s^2, surface gravity used in phase formulas
NEUTRON_MASS = 1.67492749804e-27  # kg

ASTRONOMICAL_UNIT = 1.496e11     # m
LUNAR_DISTANCE = 3.84e8          # m

_ANGLE_FACTORS = {
    "rad": 1.0,
    "deg": 180.0 / math.pi,
    "arcsec": 180.0 * 3600.0 / math.pi,
    "arcmsec": 180.0 * 3600.0 * 1000.0 / math.pi,
}
# tolerated spelling for the milliarcsecond tag
_ANGLE_ALIASES = {"arc msec": "arcmsec", "mas": "arcmsec"}


def convert_angle(x: float, target: str) -> float:
    """Convert an angle in radians to rad / deg / arcsec / arcmsec."""
    tag = _ANGLE_ALIASES.get(target, target)
    try:
        return x * _ANGLE_FACTORS[tag]
    except KeyError:
        raise ConfigurationError(f"unknown angle unit tag {target!r}") from None


def cgs_angular_momentum_to_si(j_cgs: float) -> float:
    """g cm^2/s -> kg m^2/s (factor 1e-7)."""
    return j_cgs * 1.0e-7


@dataclass(frozen=True)
class EarthParams:
    """Earth model: mass, spin angular momentum, GM, radius, spin rate."""

    mass: float = 5.972e24                 # kg
    angular_momentum: float = 5.86e33      # kg m^2/s
    radius: float = 6378137.0              # equatorial radius, m
    rotation_rate: float = 7.2921159e-5    # rad/s, sidereal
    mu: float = field(default=0.0)         # m^3/s^2, filled from G*mass if 0

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise DomainError("mass must be positive")
        if not (math.isfinite(self.angular_momentum) and self.angular_momentum > 0):
            raise DomainError("angular_momentum must be positive")
        if self.mu == 0.0:
            object.__setattr__(self, "mu", GRAVITATIONAL_G * self.mass)
        rel = abs(self.mu - GRAVITATIONAL_G * self.mass) / self.mu
        if rel > 1e-10:
            raise DomainError("mu must equal G*mass")

    @classmethod
    def from_cgs(cls, mass_g: float, angular_momentum_cgs: float,
                 radius: float = 6378137.0,
                 rotation_rate: float = 7.2921159e-5) -> "EarthParams":
        """Build from cgs inputs (g, g cm^2/s)."""
        return cls(
            mass=mass_g * 1.0e-3,
            angular_momentum=cgs_angular_momentum_to_si(angular_momentum_cgs),
            radius=radius,
            rotation_rate=rotation_rate,
        )


EARTH = EarthParams()
# Rounded textbook cgs values (M = 5.98e27 g, J = 5.86e40 g cm^2/s); these feed
# the frame-dragging magnitudes so they stay reproducible independent of EARTH.
ROUNDED_EARTH = EarthParams.from_cgs(mass_g=5.98e27, angular_momentum_cgs=5.86e40)
