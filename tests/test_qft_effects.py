import cmath
import math

import numpy as np
import pytest

from relqopt.constants import C_LIGHT, EARTH, G0
from relqopt.errors import DomainError
from relqopt.orbits import newtonian_potential
from relqopt.qft_effects import (
    EventOperatorModel,
    berry_phase_difference,
    negativity_bound,
    proper_time_differential,
    ralph_correlation,
    required_acceleration,
    spacelike_window,
    unruh_temperature,
)


# ------------------------------------------------------------------- unruh


def test_unruh_temperature_at_rest_and_surface_gravity():
    assert unruh_temperature(0.0) == 0.0
    assert unruh_temperature(G0) == pytest.approx(4.0e-20, rel=0.05)
    assert unruh_temperature(6.7e20) == pytest.approx(2.7, rel=0.01)


def test_unruh_linearity():
    a = 123.0
    assert unruh_temperature(2.0 * a) == pytest.approx(2.0 * unruh_temperature(a), rel=1e-15)
    with pytest.raises(DomainError):
        unruh_temperature(-1.0)


def test_required_acceleration():
    assert required_acceleration(0.0) == 0.0
    assert required_acceleration(2.0 * math.pi * 1e6) == pytest.approx(1.9e15, rel=0.01)
    assert required_acceleration(1e6) / G0 == pytest.approx(3.1e13, rel=0.02)
    assert required_acceleration(2.0) == 2.0 * required_acceleration(1.0)


# ------------------------------------------------------------------- berry


def test_berry_phase_trivial_cases():
    assert berry_phase_difference(1e6, 1e14, big_g=3.0) == 0.0
    assert berry_phase_difference(1e6, 0.0, big_g=0.25) == 0.0


def test_berry_phase_reference_point():
    # omega c / a = 1, G = 1/4: q = arctan(e^-pi), answer from direct complex arithmetic
    a = required_acceleration(1e6)
    q = math.atan(math.exp(-math.pi))
    expected = cmath.phase(math.cosh(q) ** 2 - 1j * math.sinh(q) ** 2)
    got = berry_phase_difference(1e6, a, big_g=0.25)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(-math.tanh(q) ** 2, rel=1e-5)  # small-angle check


def test_berry_phase_periodic_in_g():
    rng = np.random.default_rng(53)
    for _ in range(40):
        g = rng.uniform(-5.0, 5.0)
        base = berry_phase_difference(1e6, 3e14, g)
        for shift in (-2, 1, 3):
            assert berry_phase_difference(1e6, 3e14, g + shift) == base


# -------------------------------------------------------------- negativity


def test_negativity_bound_values():
    t = 1e-3
    assert negativity_bound(C_LIGHT * t, t) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert negativity_bound(1.0, t) == pytest.approx(1.0, abs=1e-9)
    assert negativity_bound(2.0 * C_LIGHT * t, t) == pytest.approx(math.exp(-8.0), rel=1e-12)


def test_negativity_monotone_in_separation():
    t = 1e-3
    seps = np.linspace(1.0, 3.0 * C_LIGHT * t, 60)
    vals = [negativity_bound(float(r), t) for r in seps]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_spacelike_window():
    assert spacelike_window(0.0) == 0.0
    r = 1234.5
    assert spacelike_window(r) * C_LIGHT == r
    with pytest.raises(DomainError):
        spacelike_window(-1.0)


# ----------------------------------------------------------- event operator


def test_ralph_correlation_values():
    model = EventOperatorModel(detector_resolution=500e-15)
    assert ralph_correlation(model, 0.0) == 1.0
    assert ralph_correlation(model, 2.0 * 500e-15) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert ralph_correlation(model, 5e-12) == pytest.approx(math.exp(-25.0), rel=1e-10)


def test_ralph_correlation_monotone_even():
    model = EventOperatorModel(detector_resolution=1e-12)
    deltas = np.linspace(0.0, 1e-11, 50)
    vals = [ralph_correlation(model, float(d)) for d in deltas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0 and all(0.0 < v <= 1.0 for v in vals)
    assert ralph_correlation(model, -3e-12) == ralph_correlation(model, 3e-12)


def test_proper_time_differential():
    assert proper_time_differential(-5.0, -5.0, 1.3e-3) == 0.0
    lo = newtonian_potential(EARTH.radius)
    hi = newtonian_potential(EARTH.radius + 400e3)
    delta = proper_time_differential(lo, hi, 1.3e-3)
    assert delta == pytest.approx(5.4e-14, rel=0.1)
    assert proper_time_differential(lo, hi, 2.6e-3) == pytest.approx(2.0 * delta, rel=1e-12)
    assert proper_time_differential(lo, hi, 1.3e-3, retroreflector=True) == pytest.approx(2.0 * delta, rel=1e-12)
    with pytest.raises(DomainError):
        proper_time_differential(lo, hi, -1.0)


def test_model_validation():
    with pytest.raises(DomainError):
        negativity_bound(0.0, 1.0)
    with pytest.raises(DomainError):
        negativity_bound(1.0, 0.0)
    with pytest.raises(DomainError):
        EventOperatorModel(detector_resolution=0.0)
