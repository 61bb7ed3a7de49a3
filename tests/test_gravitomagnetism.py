import math

import numpy as np
import pytest

from relqopt.constants import C_LIGHT, EARTH, GRAVITATIONAL_G, ROUNDED_EARTH, convert_angle
from relqopt.errors import DomainError
from relqopt.gravitomagnetism import (
    GravField,
    RayState,
    axial_impact_rotation,
    closed_path_rotation,
    kerr_principal_null_rotation,
    _rotation_rate,
    transport_ray,
)

EARTH_BODY = ROUNDED_EARTH


# ------------------------------------------------------------ local rates


def test_rotation_rate_vanishes_without_field():
    field = GravField(omega=(0.0, 0.0, 0.0), eg=(0.0, 0.0, 0.0))
    out = _rotation_rate(field.omega, field.eg, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert np.allclose(out, 0.0)


def test_rotation_rate_along_khat():
    w = 0.37
    field = GravField(omega=(0.0, 0.0, w), eg=(0.0, 0.0, 0.0))
    out = _rotation_rate(field.omega, field.eg, (0.0, 0.0, 1.0), (0.0, 0.0, 2.0))
    assert np.allclose(out, [0.0, 0.0, w])


def test_rotation_rate_transverse_with_parallel_eg():
    w, e = 0.2, 0.5
    field = GravField(omega=(0.0, 0.0, w), eg=(e, 0.0, 0.0))
    out = _rotation_rate(field.omega, field.eg, (1.0, 0.0, 0.0), (3.0, 0.0, 0.0))
    assert np.allclose(out, [0.0, 0.0, 2.0 * w])


# --------------------------------------------------------------- transport


def _uniform_field(omega):
    return lambda pos: GravField(omega=omega, eg=(0.0, 0.0, 0.0))


def test_transport_in_zero_field_keeps_orientations():
    start = RayState(position=(0.0, 0.0, 0.0), khat=(1.0, 0.0, 0.0), fhat=(0.0, 1.0, 0.0))
    out = transport_ray(start, _uniform_field((0.0, 0.0, 0.0)), lam_end=10.0, steps=100)
    assert np.allclose(out.khat, start.khat, atol=1e-14)
    assert np.allclose(out.fhat, start.fhat, atol=1e-14)
    assert np.allclose(out.position, (10.0, 0.0, 0.0), atol=1e-9)


def test_transport_constant_field_is_rigid_rotation():
    w = 0.05
    lam = 7.0
    start = RayState(position=(0.0, 0.0, 0.0), khat=(1.0, 0.0, 0.0), fhat=(0.0, 0.0, 1.0))
    # khat orthogonal to spin axis: Omega = 2w zhat - 0 = const, rotation angle 2w*lam
    out = transport_ray(start, _uniform_field((0.0, 0.0, w)), lam_end=lam, steps=400)
    ang = 2.0 * w * lam
    assert np.allclose(out.khat, (math.cos(ang), math.sin(ang), 0.0), atol=1e-8)
    assert np.allclose(out.fhat, (0.0, 0.0, 1.0), atol=1e-8)


def test_transport_step_halving_converges_at_fourth_order():
    start = RayState(position=(0.0, 0.0, 0.0), khat=(1.0, 0.0, 0.0), fhat=(0.0, 1.0, 0.0))

    def sampler(pos):
        return GravField(omega=(0.01 * math.sin(0.1 * pos[0]), 0.0, 0.02), eg=(0.0, 0.0, 0.0))

    fine = transport_ray(start, sampler, 5.0, 640)
    mid = transport_ray(start, sampler, 5.0, 160)
    coarse = transport_ray(start, sampler, 5.0, 80)
    err_mid = np.linalg.norm(np.array(mid.fhat) - np.array(fine.fhat))
    err_coarse = np.linalg.norm(np.array(coarse.fhat) - np.array(fine.fhat))
    assert err_coarse > 8.0 * err_mid  # ~16x for a 4th-order scheme


def test_transport_preserves_orthonormality_over_many_steps():
    rng = np.random.default_rng(21)
    k = rng.normal(size=3)
    k /= np.linalg.norm(k)
    f = np.cross(k, rng.normal(size=3))
    f /= np.linalg.norm(f)
    start = RayState(position=(0.0, 0.0, 0.0), khat=tuple(k), fhat=tuple(f))

    def sampler(pos):
        return GravField(
            omega=(0.03 * math.cos(0.05 * pos[1]), 0.01, 0.02 * math.sin(0.04 * pos[0])),
            eg=(1e-4, 0.0, -2e-4),
        )

    out = transport_ray(start, sampler, 50.0, 10_000)
    ko, fo = np.array(out.khat), np.array(out.fhat)
    assert abs(np.linalg.norm(ko) - 1.0) < 1e-9
    assert abs(np.linalg.norm(fo) - 1.0) < 1e-9
    assert abs(float(ko @ fo)) < 1e-9


@pytest.mark.parametrize("position, khat, fhat", [
    ((0.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, math.nan, 1.0)),
    ((math.inf, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((0.0, math.nan, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
], ids=["nan_khat", "nan_fhat", "inf_position", "nan_position"])
def test_ray_state_rejects_non_finite_vectors(position, khat, fhat):
    with pytest.raises(DomainError):
        RayState(position=position, khat=khat, fhat=fhat)


def test_ray_state_refuses_a_non_unit_khat():
    with pytest.raises(DomainError, match=r"^khat must be a unit vector$"):
        RayState(position=(0.0, 0.0, 0.0), khat=(2.0, 0.0, 0.0), fhat=(0.0, 1.0, 0.0))


_X_START = RayState(position=(0.0, 0.0, 0.0), khat=(1.0, 0.0, 0.0), fhat=(0.0, 1.0, 0.0))


@pytest.mark.parametrize("lam_end", [math.nan, math.inf, -math.inf])
def test_transport_rejects_non_finite_end(lam_end):
    with pytest.raises(DomainError):
        transport_ray(_X_START, _uniform_field((0.0, 0.0, 0.1)), lam_end, 4)


@pytest.mark.parametrize("steps", [4.0, True, "4", 0, -3],
                         ids=["float", "bool", "str", "zero", "negative"])
def test_transport_requires_a_positive_integer_step_count(steps):
    with pytest.raises(DomainError):
        transport_ray(_X_START, _uniform_field((0.0, 0.0, 0.1)), 1.0, steps)


def test_transport_accepts_numpy_integer_steps():
    field = _uniform_field((0.0, 0.0, 0.1))
    assert transport_ray(_X_START, field, 1.0, np.int64(4)) == transport_ray(_X_START, field, 1.0, 4)


# ------------------------------------------------------------ closed forms


def test_kerr_rotation_zero_cases():
    assert kerr_principal_null_rotation(EARTH_BODY, 7e6, 7e6, 0.3) == 0.0
    assert kerr_principal_null_rotation(EARTH_BODY, 7e6, 9e6, 0.5 * math.pi) == pytest.approx(0.0, abs=1e-20)


def test_kerr_rotation_orbit_to_infinity():
    chi = kerr_principal_null_rotation(EARTH_BODY, 12270e3, math.inf, 0.25 * math.pi)
    assert abs(convert_angle(chi, "arcmsec")) == pytest.approx(39.0, rel=0.05)


def test_kerr_rotation_refuses_an_arcsin_argument_above_one():
    # J/(M c) is ~3.3 m for the Earth, so a ray from r1 = 1 m has |x| > 1
    with pytest.raises(DomainError, match=r"^rotation argument exceeds 1; formula out of range$"):
        kerr_principal_null_rotation(EARTH_BODY, 1.0, math.inf, 0.0)


def test_kerr_rotation_symmetries():
    rng = np.random.default_rng(31)
    for _ in range(40):
        r1, r2 = rng.uniform(6.4e6, 5e7, 2)
        th = rng.uniform(-math.pi, math.pi)
        a = kerr_principal_null_rotation(EARTH_BODY, r1, r2, th)
        b = kerr_principal_null_rotation(EARTH_BODY, r2, r1, th)
        c = kerr_principal_null_rotation(EARTH_BODY, r1, r2, -th)
        assert a == pytest.approx(-b, rel=1e-12, abs=1e-30)
        assert a == pytest.approx(c, rel=1e-12, abs=1e-30)


def test_ground_emission_nearly_doubles_the_rotation():
    orbit = kerr_principal_null_rotation(EARTH_BODY, 12270e3, math.inf, 0.25 * math.pi)
    ground = kerr_principal_null_rotation(EARTH_BODY, 6371e3, math.inf, 0.25 * math.pi)
    assert ground / orbit == pytest.approx(1.93, abs=0.01)


def test_axial_impact_rotation_value():
    chi = axial_impact_rotation(EARTH_BODY, 6371e3)
    assert convert_angle(chi, "arcmsec") == pytest.approx(3e-7, rel=0.1)


def test_axial_impact_scales_inverse_square():
    base = axial_impact_rotation(EARTH_BODY, EARTH.radius)
    far = axial_impact_rotation(EARTH_BODY, 10.0 * EARTH.radius)
    assert far == pytest.approx(base / 100.0, rel=1e-6)


def test_axial_impact_domain():
    tiny = math.sqrt(4.0 * GRAVITATIONAL_G * EARTH_BODY.angular_momentum / C_LIGHT**3) * 0.5
    with pytest.raises(DomainError):
        axial_impact_rotation(EARTH_BODY, tiny)
    with pytest.raises(DomainError):
        axial_impact_rotation(EARTH_BODY, -1.0)


def test_closed_path_rotation():
    assert closed_path_rotation(EARTH_BODY, 7e6, 7e6) == 0.0
    r = EARTH.radius
    got = closed_path_rotation(EARTH_BODY, r, 2.0 * r)
    single = 4.0 * GRAVITATIONAL_G * EARTH_BODY.angular_momentum / (r * r * C_LIGHT**3)
    assert got == pytest.approx(0.75 * single, rel=1e-12)
    assert convert_angle(got, "arcmsec") == pytest.approx(2.2e-7, rel=0.05)
    assert closed_path_rotation(EARTH_BODY, 2.0 * r, r) == -got
