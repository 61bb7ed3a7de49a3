"""The scalar closed forms that the report calls refuse NaN and ±inf by name.

Each domain check is written so that NaN fails it (`not 0.0 < x < math.inf`),
as in `diffusion`'s closed forms, whose own cases are in
`test_diffusion::test_closed_forms_refuse_non_finite_arguments`.
"""

import math

import pytest

from relqopt.constants import EARTH, G0, ROUNDED_EARTH
from relqopt.errors import DomainError
from relqopt.gravitomagnetism import (
    axial_impact_rotation,
    closed_path_rotation,
    kerr_principal_null_rotation,
)
from relqopt.interferometry import displacement_during_delay, grav_redshift_weak_field
from relqopt.orbits import newtonian_potential
from relqopt.qft_effects import (
    berry_phase_difference,
    negativity_bound,
    required_acceleration,
    spacelike_window,
    unruh_temperature,
)

# Each closed form with valid values of all its float arguments.
_CALLS = {
    kerr_principal_null_rotation: dict(r1=EARTH.radius, r2=2.0 * EARTH.radius,
                                       theta=0.25 * math.pi),
    axial_impact_rotation: dict(s=EARTH.radius),
    closed_path_rotation: dict(s1=EARTH.radius, s2=2.0 * EARTH.radius),
    unruh_temperature: dict(a=G0),
    required_acceleration: dict(omega=1e6),
    berry_phase_difference: dict(omega_a=1e6, a=3e14, big_g=0.25),
    negativity_bound: dict(separation=1e6, interaction_time=1e-3),
    spacelike_window: dict(separation=1e6),
    grav_redshift_weak_field: dict(height=1e6),
    displacement_during_delay: dict(speed=7e3, delay=20e-6),
    newtonian_potential: dict(r=7e6),
}
_BODY = {kerr_principal_null_rotation, axial_impact_rotation, closed_path_rotation}
# documented exceptions: a ray that runs out to infinity, and the potential's zero there
_ACCEPTED = {(kerr_principal_null_rotation, "r2", math.inf), (newtonian_potential, "r", math.inf)}


def _call(fn, **kwargs):
    return fn(ROUNDED_EARTH, **kwargs) if fn in _BODY else fn(**kwargs)


@pytest.mark.parametrize("fn, name, bad", [
    pytest.param(fn, name, bad, id=f"{fn.__name__}-{name}-{bad}")
    for fn, kwargs in _CALLS.items() for name in kwargs
    for bad in (math.nan, math.inf, -math.inf) if (fn, name, bad) not in _ACCEPTED
])
def test_closed_forms_refuse_non_finite_arguments(fn, name, bad):
    kwargs = dict(_CALLS[fn])
    assert math.isfinite(_call(fn, **kwargs))
    kwargs[name] = bad
    with pytest.raises(DomainError):
        _call(fn, **kwargs)


def test_kerr_rotation_accepts_a_ray_to_infinity():
    near = kerr_principal_null_rotation(ROUNDED_EARTH, EARTH.radius, 1e30, 0.25 * math.pi)
    assert kerr_principal_null_rotation(
        ROUNDED_EARTH, EARTH.radius, math.inf, 0.25 * math.pi) == pytest.approx(near, rel=1e-12)
