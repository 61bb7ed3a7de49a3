import math

import numpy as np
import pytest

from relqopt.constants import C_LIGHT, EARTH, G0, GRAVITATIONAL_G, PLANCK_H, NEUTRON_MASS
from relqopt.errors import DomainError
from relqopt.interferometry import (
    cow_neutron_phase,
    displacement_during_delay,
    grav_redshift_weak_field,
    optical_cow_phase,
)
from test_records import NOT_NUMBERS

THERMAL = 1.8e-10  # m, a thermal neutron's de Broglie wavelength


def _speed(wavelength):
    """The de Broglie speed h/(m lambda)."""
    return PLANCK_H / (NEUTRON_MASS * wavelength)


def test_cow_phase_zero_tilt():
    assert cow_neutron_phase(THERMAL, area=8e-4, tilt=0.0) == 0.0


def test_cow_phase_two_forms_agree():
    # the wavelength form against the independent v = h/(m lambda) form
    rng = np.random.default_rng(41)
    for _ in range(50):
        wavelength = rng.uniform(0.5e-10, 20e-10)
        area = rng.uniform(1e-5, 1e-2)
        tilt = rng.uniform(-math.pi, math.pi)
        phase = cow_neutron_phase(wavelength, area, tilt)
        alt = -2.0 * math.pi * G0 * area * math.sin(tilt) / (wavelength * _speed(wavelength)**2)
        assert phase == pytest.approx(alt, rel=1e-10)


def test_cow_phase_is_finite_where_the_velocity_form_overflows():
    # v = h/(m lambda) is ~4e156 m/s here, and v^2 overflows
    with pytest.raises(OverflowError):
        _speed(1e-162)**2
    phase = cow_neutron_phase(1e-162, 1e100, 0.4)
    expected = -1e-162 * NEUTRON_MASS**2 * G0 * 1e100 * math.sin(0.4) / (
        2.0 * math.pi * (PLANCK_H / (2.0 * math.pi)) ** 2)
    assert math.isfinite(phase) and phase == pytest.approx(expected, rel=1e-12)


def test_cow_phase_linear_in_area_and_odd_in_g():
    base = cow_neutron_phase(THERMAL, 8e-4, 0.5 * math.pi)
    assert cow_neutron_phase(THERMAL, 16e-4, 0.5 * math.pi) == pytest.approx(2.0 * base, rel=1e-12)
    # g enters through g sin(tilt): a reversed tilt reverses the loop's height
    # gain, as a reversed g would
    assert cow_neutron_phase(THERMAL, 8e-4, -0.5 * math.pi) == pytest.approx(-base, rel=1e-12)


def test_cow_phase_magnitude_is_large():
    # thermal neutrons over ~cm^2 loops accumulate tens of radians
    assert abs(cow_neutron_phase(THERMAL, 8e-4, 0.5 * math.pi)) > 10.0


def test_redshift_values():
    assert grav_redshift_weak_field(0.0) == 0.0
    assert grav_redshift_weak_field(400e3) == pytest.approx(4.36e-11, rel=1e-2)
    assert grav_redshift_weak_field(100.0) == G0 * 100.0 / (C_LIGHT * C_LIGHT)


def test_redshift_exact_potential_comparison():
    r1, r2 = EARTH.radius, EARTH.radius + 400e3
    exact = GRAVITATIONAL_G * EARTH.mass * (1.0 / r1 - 1.0 / r2) / C_LIGHT**2
    assert exact == pytest.approx(4.1e-11, rel=0.02)
    weak = grav_redshift_weak_field(400e3)
    assert abs(weak - exact) / exact < 0.07


def test_optical_cow_phase_compositional_identity():
    rng = np.random.default_rng(43)
    for _ in range(30):
        wavelength = rng.uniform(400e-9, 1600e-9)
        fibre_length = rng.uniform(0.0, 1e4)
        altitude = rng.uniform(0.0, 1e6)
        expected = (2.0 * math.pi * fibre_length / wavelength
                    * grav_redshift_weak_field(altitude))
        assert optical_cow_phase(wavelength, fibre_length, altitude) == expected


def test_optical_cow_phase_zero_fibre():
    assert optical_cow_phase(800e-9, 0.0, 400e3) == 0.0


def test_optical_cow_phase_halves_with_doubled_wavelength():
    a = optical_cow_phase(800e-9, 6e3, 400e3)
    b = optical_cow_phase(1600e-9, 6e3, 400e3)
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_optical_cow_phase_benchmark():
    assert optical_cow_phase(800e-9, 6e3, 400e3) == pytest.approx(2.05, rel=0.05)


def test_displacement():
    assert displacement_during_delay(7.5e3, 0.0) == 0.0
    assert displacement_during_delay(7.5e3, 20e-6) == pytest.approx(0.15, rel=1e-12)
    with pytest.raises(DomainError):
        displacement_during_delay(-1.0, 1.0)


OPTICAL = dict(wavelength=8e-7, fibre_length=4e3, altitude=5e5)


# each argument that was a field of the deleted beam and link records keeps that field's
# check: it refuses a negative value and what `errors.is_finite` refuses, by its own name
@pytest.mark.parametrize("bad", [pytest.param(bad, id=label) for label, bad
                                 in sorted({**NOT_NUMBERS, "negative": -1.0}.items())])
@pytest.mark.parametrize("fn, kwargs, name, rule", [
    (cow_neutron_phase, dict(wavelength=1.4e-10, area=1e-3, tilt=0.5), "wavelength", "positive"),
    (optical_cow_phase, OPTICAL, "wavelength", "positive"),
    (optical_cow_phase, OPTICAL, "fibre_length", "nonnegative"),
    (optical_cow_phase, OPTICAL, "altitude", "nonnegative"),
], ids=["neutron-wavelength", "optical-wavelength", "fibre_length", "altitude"])
def test_former_record_fields_keep_their_checks(fn, kwargs, name, rule, bad):
    assert math.isfinite(fn(**kwargs))
    message = rf"^{name} must be {rule} and finite$"
    with pytest.raises(DomainError, match=message):
        fn(**{**kwargs, name: bad})
    if rule == "positive":
        with pytest.raises(DomainError, match=message):
            fn(**{**kwargs, name: 0.0})
