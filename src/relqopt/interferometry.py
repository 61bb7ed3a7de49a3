"""Gravitationally induced interferometer phases (neutron and optical).

The neutron result carries a known 0.6-0.8% discrepancy between measured and
computed phase in the classic experiments; no model for it is included, the
formulas below are the ideal ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, G0, HBAR, NEUTRON_MASS, PLANCK_H
from .errors import DomainError


@dataclass(frozen=True)
class NeutronBeam:
    """Neutron beam: de Broglie wavelength (m) and derived speed h/(m lambda)."""

    wavelength: float

    def __post_init__(self):
        if self.wavelength <= 0:
            raise DomainError("wavelength must be positive")

    @property
    def speed(self) -> float:
        return PLANCK_H / (NEUTRON_MASS * self.wavelength)


@dataclass(frozen=True)
class OpticalLink:
    """Ground fibre-delay interferometer fed from altitude h.

    fibre_length is the length of the storage fibre; a scenario derives it
    from the storage delay and the fibre index as c * delay / index.
    """

    wavelength: float
    fibre_length: float
    altitude: float
    g: float = G0

    def __post_init__(self):
        if self.wavelength <= 0 or self.g <= 0:
            raise DomainError("wavelength and g must be positive")
        if self.fibre_length < 0 or self.altitude < 0:
            raise DomainError("fibre_length and altitude must be nonnegative")


def cow_neutron_phase(beam: NeutronBeam, area: float, tilt: float, g: float = G0) -> float:
    """Neutron interferometer phase, -lambda m^2 g A sin(alpha) / (2 pi hbar^2).

    Algebraically equal to -2 pi g A sin(alpha) / (lambda v^2) with
    v = h/(m lambda); both forms are evaluated and cross-checked.  Odd in g.
    """
    if area < 0:
        raise DomainError("area must be nonnegative")
    lam, m = beam.wavelength, NEUTRON_MASS
    s = math.sin(tilt)
    phase = -lam * m * m * g * area * s / (2.0 * math.pi * HBAR * HBAR)
    alt = -2.0 * math.pi * g * area * s / (lam * beam.speed**2)
    if abs(phase - alt) > 1e-10 * max(1.0, abs(phase)):
        raise DomainError("wavelength/velocity forms disagree; inputs inconsistent")
    return phase


def grav_redshift_weak_field(height: float, g: float = G0) -> float:
    """Fractional frequency shift g h / c^2 between levels separated by height."""
    if height < 0:
        raise DomainError("height must be nonnegative")
    return g * height / (C_LIGHT * C_LIGHT)


def optical_cow_phase(link: OpticalLink) -> float:
    """Fibre-delay phase (2 pi l / lambda) (g h / c^2) for a source at altitude h."""
    return (
        2.0 * math.pi * link.fibre_length / link.wavelength
        * grav_redshift_weak_field(link.altitude, link.g)
    )


def displacement_during_delay(speed: float, delay: float) -> float:
    """Transverse displacement of a moving platform over a storage delay."""
    if speed < 0 or delay < 0:
        raise DomainError("speed and delay must be nonnegative")
    return speed * delay
