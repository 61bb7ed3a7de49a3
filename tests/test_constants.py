import math

import pytest

from relqopt.constants import (
    EARTH,
    ROUNDED_EARTH,
    EarthParams,
    cgs_angular_momentum_to_si,
    convert_angle,
)
from relqopt.errors import ConfigurationError, DomainError


def test_radian_to_arcmsec():
    assert convert_angle(1.0, "arcmsec") == pytest.approx(2.062648e8, rel=1e-6)


def test_zero_is_zero_in_every_unit():
    for unit in ("rad", "deg", "arcsec", "arcmsec"):
        assert convert_angle(0.0, unit) == 0.0


def test_pi_is_180_degrees():
    assert convert_angle(math.pi, "deg") == pytest.approx(180.0, rel=1e-15)


def test_angle_aliases():
    assert convert_angle(1.0, "arc msec") == convert_angle(1.0, "arcmsec")
    assert convert_angle(1.0, "mas") == convert_angle(1.0, "arcmsec")


def test_unknown_angle_unit_rejected():
    with pytest.raises(ConfigurationError):
        convert_angle(1.0, "furlong")


def test_cgs_angular_momentum():
    assert cgs_angular_momentum_to_si(0.0) == 0.0
    assert cgs_angular_momentum_to_si(1.0e7) == 1.0


def test_earth_mu_from_cgs_construction():
    assert ROUNDED_EARTH.mu == pytest.approx(3.986e14, rel=5e-3)
    assert EARTH.mu == pytest.approx(3.986e14, rel=5e-3)


def test_earth_params_validation():
    with pytest.raises(DomainError):
        EarthParams(mass=-1.0)
    with pytest.raises(DomainError):
        EarthParams(mu=1.0)  # inconsistent with G*mass


def test_rounded_earth_unit_conversion():
    assert ROUNDED_EARTH.mass == pytest.approx(5.98e24)
    assert ROUNDED_EARTH.angular_momentum == pytest.approx(5.86e33)
