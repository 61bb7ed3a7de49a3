"""Physical constants (CODATA 2018), Earth parameters and unit helpers.

All SI. Angles are radians everywhere inside the library; conversion to
display units (deg, arcsec, arc-millisecond) happens at the edges.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError, Record, check_finite, check_positive

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

# largest Bell pair budget, and the most Monte Carlo streams: with numpy, each stream
# builds its generator (~13 us) below 8 streams, and from 8 re-keys a shared one (~1 us,
# after a ~90 us key pass); ~37 us each without numpy (2-core x86-64), so the count is bounded
PHOTON_CAP = 1.0e12
WORKER_CAP = 1024

_ANGLE_FACTORS = {
    "rad": 1.0,
    "deg": 180.0 / math.pi,
    "arcsec": 180.0 * 3600.0 / math.pi,
    "arcmsec": 180.0 * 3600.0 * 1000.0 / math.pi,
}


def convert_angle(x: float, target: str) -> float:
    """Convert an angle in radians to rad / deg / arcsec / arcmsec."""
    try:
        return check_finite("x", x) * _ANGLE_FACTORS[target]
    except KeyError:
        raise ConfigurationError(f"unknown angle unit tag {target!r}") from None


class EarthParams(Record):
    """Earth: mass (kg) and spin J (kg m^2/s); every instance shares the radius and rate."""

    __slots__ = ("mass", "angular_momentum")
    radius = 6378137.0  # equatorial, m
    rotation_rate = 7.2921159e-5  # sidereal, rad/s

    def __init__(self, mass=5.972e24, angular_momentum=5.86e33):
        object.__setattr__(self, "mass", check_positive("mass", mass))
        object.__setattr__(self, "angular_momentum",
                           check_positive("angular_momentum", angular_momentum))

    @property
    def mu(self) -> float:
        """GM, m^3/s^2."""
        return GRAVITATIONAL_G * self.mass


EARTH = EarthParams()
# Rounded textbook values (M = 5.98e27 g, J = 5.86e40 g cm^2/s, here in SI); these
# feed the frame-dragging magnitudes so they stay reproducible independent of EARTH.
ROUNDED_EARTH = EarthParams(mass=5.98e24, angular_momentum=5.86e33)
