import math

import numpy as np
import pytest

from relqopt.constants import C_LIGHT, EARTH, G0, GRAVITATIONAL_G, PLANCK_H, NEUTRON_MASS
from relqopt.errors import DomainError
from relqopt.interferometry import (
    NeutronBeam,
    OpticalLink,
    cow_neutron_phase,
    displacement_during_delay,
    grav_redshift_weak_field,
    optical_cow_phase,
)

THERMAL = NeutronBeam(wavelength=1.8e-10)


def test_beam_speed_is_de_broglie():
    assert THERMAL.speed == pytest.approx(PLANCK_H / (NEUTRON_MASS * 1.8e-10), rel=1e-15)
    assert THERMAL.speed == pytest.approx(2197.8, rel=1e-3)


def test_cow_phase_zero_tilt():
    assert cow_neutron_phase(THERMAL, area=8e-4, tilt=0.0) == 0.0


def test_cow_phase_two_forms_agree():
    # the wavelength form against the independent v = h/(m lambda) form
    rng = np.random.default_rng(41)
    for _ in range(50):
        beam = NeutronBeam(wavelength=rng.uniform(0.5e-10, 20e-10))
        area = rng.uniform(1e-5, 1e-2)
        tilt = rng.uniform(-math.pi, math.pi)
        g = rng.uniform(-20.0, 20.0)
        if g == 0.0:
            continue
        phase = cow_neutron_phase(beam, area, tilt, g)
        alt = -2.0 * math.pi * g * area * math.sin(tilt) / (beam.wavelength * beam.speed**2)
        assert phase == pytest.approx(alt, rel=1e-10)


def test_cow_phase_linear_in_area_and_odd_in_g():
    base = cow_neutron_phase(THERMAL, 8e-4, 0.5 * math.pi)
    assert cow_neutron_phase(THERMAL, 16e-4, 0.5 * math.pi) == pytest.approx(2.0 * base, rel=1e-12)
    assert cow_neutron_phase(THERMAL, 8e-4, 0.5 * math.pi, g=-G0) == pytest.approx(-base, rel=1e-12)


def test_cow_phase_magnitude_is_large():
    # thermal neutrons over ~cm^2 loops accumulate tens of radians
    assert abs(cow_neutron_phase(THERMAL, 8e-4, 0.5 * math.pi)) > 10.0


def test_redshift_values():
    assert grav_redshift_weak_field(0.0) == 0.0
    assert grav_redshift_weak_field(400e3) == pytest.approx(4.36e-11, rel=1e-2)
    assert grav_redshift_weak_field(100.0, g=-G0) == -grav_redshift_weak_field(100.0)


def test_redshift_exact_potential_comparison():
    r1, r2 = EARTH.radius, EARTH.radius + 400e3
    exact = GRAVITATIONAL_G * EARTH.mass * (1.0 / r1 - 1.0 / r2) / C_LIGHT**2
    assert exact == pytest.approx(4.1e-11, rel=0.02)
    weak = grav_redshift_weak_field(400e3)
    assert abs(weak - exact) / exact < 0.07


def test_optical_cow_phase_compositional_identity():
    rng = np.random.default_rng(43)
    for _ in range(30):
        link = OpticalLink(
            wavelength=rng.uniform(400e-9, 1600e-9),
            fibre_length=rng.uniform(0.0, 1e4),
            altitude=rng.uniform(0.0, 1e6),
        )
        expected = (2.0 * math.pi * link.fibre_length / link.wavelength
                    * grav_redshift_weak_field(link.altitude, link.g))
        assert optical_cow_phase(link) == expected


def test_optical_cow_phase_zero_fibre():
    assert optical_cow_phase(OpticalLink(800e-9, 0.0, 400e3)) == 0.0


def test_optical_cow_phase_halves_with_doubled_wavelength():
    a = optical_cow_phase(OpticalLink(800e-9, 6e3, 400e3))
    b = optical_cow_phase(OpticalLink(1600e-9, 6e3, 400e3))
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_optical_cow_phase_benchmark():
    assert optical_cow_phase(OpticalLink(800e-9, 6e3, 400e3)) == pytest.approx(2.05, rel=0.05)


def test_displacement():
    assert displacement_during_delay(7.5e3, 0.0) == 0.0
    assert displacement_during_delay(7.5e3, 20e-6) == pytest.approx(0.15, rel=1e-12)
    with pytest.raises(DomainError):
        displacement_during_delay(-1.0, 1.0)


def test_link_validation():
    with pytest.raises(DomainError):
        OpticalLink(-1.0, 6e3, 400e3)
    with pytest.raises(DomainError):
        OpticalLink(800e-9, -6e3, 400e3)
    OpticalLink(800e-9, 6e3, 400e3)
