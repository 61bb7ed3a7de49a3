"""Gravitationally induced interferometer phases (neutron and optical).

The neutron result carries a known 0.6-0.8% discrepancy between measured and
computed phase in the classic experiments; no model for it is included, the
formulas below are the ideal ones.
"""

from __future__ import annotations

import math

from .constants import C_LIGHT, G0, HBAR, NEUTRON_MASS, PLANCK_H
from .errors import Record, check_finite, check_nonnegative, check_positive


class NeutronBeam(Record):
    """Neutron beam: de Broglie wavelength (m) and derived speed h/(m lambda)."""

    __slots__ = ("wavelength",)

    def __init__(self, wavelength):
        object.__setattr__(self, "wavelength", check_positive("wavelength", wavelength))

    @property
    def speed(self) -> float:
        return PLANCK_H / (NEUTRON_MASS * self.wavelength)


class OpticalLink(Record):
    """Ground fibre-delay interferometer fed from altitude h.

    fibre_length is the length of the storage fibre; a scenario derives it
    from the storage delay and the fibre index as c * delay / index.
    """

    __slots__ = ("wavelength", "fibre_length", "altitude")

    def __init__(self, wavelength, fibre_length, altitude):
        object.__setattr__(self, "wavelength", check_positive("wavelength", wavelength))
        object.__setattr__(self, "fibre_length", check_nonnegative("fibre_length", fibre_length))
        object.__setattr__(self, "altitude", check_nonnegative("altitude", altitude))


def cow_neutron_phase(beam: NeutronBeam, area: float, tilt: float) -> float:
    """Neutron interferometer phase, -lambda m^2 g A sin(alpha) / (2 pi hbar^2), g = G0.

    Algebraically equal to -2 pi g A sin(alpha) / (lambda v^2) with
    v = h/(m lambda); only this form is evaluated, as v^2 can overflow.
    """
    check_nonnegative("area", area)
    lam, m, g = beam.wavelength, NEUTRON_MASS, G0
    s = math.sin(check_finite("tilt", tilt))
    return -lam * m * m * g * area * s / (2.0 * math.pi * HBAR * HBAR)


def grav_redshift_weak_field(height: float) -> float:
    """Fractional frequency shift G0 h / c^2 between levels separated by height."""
    return G0 * check_nonnegative("height", height) / (C_LIGHT * C_LIGHT)


def optical_cow_phase(link: OpticalLink) -> float:
    """Fibre-delay phase (2 pi l / lambda) (g h / c^2) for a source at altitude h."""
    return (
        2.0 * math.pi * link.fibre_length / link.wavelength
        * grav_redshift_weak_field(link.altitude)
    )


def displacement_during_delay(speed: float, delay: float) -> float:
    """Transverse displacement of a moving platform over a storage delay."""
    return check_nonnegative("speed", speed) * check_nonnegative("delay", delay)
