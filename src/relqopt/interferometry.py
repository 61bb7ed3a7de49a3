"""Gravitationally induced interferometer phases (neutron and optical).

The neutron result carries a known 0.6-0.8% discrepancy between measured and
computed phase in the classic experiments; no model for it is included, the
formulas below are the ideal ones.
"""

from __future__ import annotations

import math

from .constants import C_LIGHT, G0, HBAR, NEUTRON_MASS
from .errors import check_finite, check_nonnegative, check_positive


def cow_neutron_phase(wavelength: float, area: float, tilt: float) -> float:
    """Neutron interferometer phase, -lambda m^2 g A sin(alpha) / (2 pi hbar^2), g = G0,
    for de Broglie wavelength lambda (m).

    Algebraically equal to -2 pi g A sin(alpha) / (lambda v^2) with
    v = h/(m lambda); only this form is evaluated, as v^2 can overflow.
    """
    lam, m, g = check_positive("wavelength", wavelength), NEUTRON_MASS, G0
    area = check_nonnegative("area", area)
    s = math.sin(check_finite("tilt", tilt))
    return -lam * m * m * g * area * s / (2.0 * math.pi * HBAR * HBAR)


def grav_redshift_weak_field(height: float) -> float:
    """Fractional frequency shift G0 h / c^2 between levels separated by height."""
    return G0 * check_nonnegative("height", height) / (C_LIGHT * C_LIGHT)


def optical_cow_phase(wavelength: float, fibre_length: float, altitude: float) -> float:
    """Fibre-delay phase (2 pi l / lambda) (g h / c^2) of a ground interferometer with a
    storage fibre of length l, fed from a source at altitude h."""
    wavelength = check_positive("wavelength", wavelength)
    fibre_length = check_nonnegative("fibre_length", fibre_length)
    altitude = check_nonnegative("altitude", altitude)
    return 2.0 * math.pi * fibre_length / wavelength * grav_redshift_weak_field(altitude)


def displacement_during_delay(speed: float, delay: float) -> float:
    """Transverse displacement of a moving platform over a storage delay."""
    return check_nonnegative("speed", speed) * check_nonnegative("delay", delay)
