"""Gravitationally induced interferometer phases (neutron and optical).

The neutron result carries a known 0.6-0.8% discrepancy between measured and
computed phase in the classic experiments; no model for it is included, the
formulas below are the ideal ones.
"""

from __future__ import annotations

import math

from .constants import C_LIGHT, G0, HBAR, NEUTRON_MASS, PLANCK_H
from .errors import DomainError, Record


class NeutronBeam(Record):
    """Neutron beam: de Broglie wavelength (m) and derived speed h/(m lambda)."""

    __slots__ = ("wavelength",)

    def __init__(self, wavelength):
        if not 0.0 < wavelength < math.inf:
            raise DomainError("wavelength must be positive and finite")
        object.__setattr__(self, "wavelength", wavelength)

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
        if not 0.0 < wavelength < math.inf:
            raise DomainError("wavelength must be positive and finite")
        for name, x in (("fibre_length", fibre_length), ("altitude", altitude)):
            if not 0.0 <= x < math.inf:
                raise DomainError(f"{name} must be nonnegative and finite")
        object.__setattr__(self, "wavelength", wavelength)
        object.__setattr__(self, "fibre_length", fibre_length)
        object.__setattr__(self, "altitude", altitude)


def cow_neutron_phase(beam: NeutronBeam, area: float, tilt: float) -> float:
    """Neutron interferometer phase, -lambda m^2 g A sin(alpha) / (2 pi hbar^2), g = G0.

    Algebraically equal to -2 pi g A sin(alpha) / (lambda v^2) with
    v = h/(m lambda); both forms are evaluated and cross-checked.
    """
    if area < 0:
        raise DomainError("area must be nonnegative")
    lam, m, g = beam.wavelength, NEUTRON_MASS, G0
    s = math.sin(tilt)
    phase = -lam * m * m * g * area * s / (2.0 * math.pi * HBAR * HBAR)
    alt = -2.0 * math.pi * g * area * s / (lam * beam.speed**2)
    if abs(phase - alt) > 1e-10 * max(1.0, abs(phase)):
        raise DomainError("wavelength/velocity forms disagree; inputs inconsistent")
    return phase


def grav_redshift_weak_field(height: float) -> float:
    """Fractional frequency shift G0 h / c^2 between levels separated by height."""
    if not 0.0 <= height < math.inf:
        raise DomainError("height must be nonnegative and finite")
    return G0 * height / (C_LIGHT * C_LIGHT)


def optical_cow_phase(link: OpticalLink) -> float:
    """Fibre-delay phase (2 pi l / lambda) (g h / c^2) for a source at altitude h."""
    return (
        2.0 * math.pi * link.fibre_length / link.wavelength
        * grav_redshift_weak_field(link.altitude)
    )


def displacement_during_delay(speed: float, delay: float) -> float:
    """Transverse displacement of a moving platform over a storage delay."""
    if not (0.0 <= speed < math.inf and 0.0 <= delay < math.inf):
        raise DomainError("speed and delay must be nonnegative and finite")
    return speed * delay
