import math

import numpy as np
import pytest

from relqopt.constants import C_LIGHT, EARTH, GRAVITATIONAL_G, ROUNDED_EARTH, convert_angle
from relqopt.errors import DomainError, NumericFailure
from relqopt.gravitomagnetism import (
    GravField,
    RayState,
    axial_impact_rotation,
    closed_path_rotation,
    kerr_principal_null_rotation,
    transport_ray,
)

EARTH_BODY = ROUNDED_EARTH


# --------------------------------------------------------------- transport


def _uniform_field(omega, eg=(0.0, 0.0, 0.0)):
    return lambda pos: GravField(omega=omega, eg=eg)


# an oblique unit khat and a unit fhat normal to it
_KHAT = (2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0)
_FHAT = (-1.0 / math.sqrt(5.0), -2.0 / math.sqrt(5.0), 0.0)


def test_transport_without_field_advances_the_position_along_khat():
    # Omega = 0: khat and fhat keep their values, and x moves by (lam_end - lam) khat
    start = RayState(position=(1.0, 2.0, 3.0), khat=_KHAT, fhat=_FHAT, lam=2.5)
    out = transport_ray(start, _uniform_field((0.0, 0.0, 0.0)), lam_end=12.5, steps=16)
    assert np.max(np.abs(np.subtract(out.khat, _KHAT))) <= 1e-15
    assert np.max(np.abs(np.subtract(out.fhat, _FHAT))) <= 1e-15
    want = np.add((1.0, 2.0, 3.0), 10.0 * np.array(_KHAT))
    assert np.max(np.abs(np.subtract(out.position, want))) <= 1e-13
    assert out.lam == 12.5


def test_transport_with_omega_along_khat_turns_fhat_about_khat():
    # omega = w khat: Omega = 2 omega - (omega . khat) khat = omega, so khat stays put and
    # fhat turns about it by w L.  RK4 advances the phase by arg(T4(i h w)), T4 the
    # exponential's Taylor polynomial to 4th order, off from e^(i h w) by at most
    # (h w)^5 / 5! e^(h w) a step; fhat is normal to khat, so renormalizing keeps its direction.
    w, length, steps = 0.3, 10.0, 40
    k, f = np.array(_KHAT), np.array(_FHAT)
    start = RayState(position=(0.0, 0.0, 0.0), khat=_KHAT, fhat=_FHAT)
    out = transport_ray(start, _uniform_field(tuple(w * k)), lam_end=length, steps=steps)
    assert np.max(np.abs(np.subtract(out.khat, _KHAT))) <= 1e-15
    angle, hw = w * length, w * length / steps
    want = math.cos(angle) * f + math.sin(angle) * np.cross(k, f)
    bound = steps * hw**5 / math.factorial(5) * math.exp(hw)
    assert np.linalg.norm(np.subtract(out.fhat, want)) <= bound + 1e-14


def test_transport_with_eg_along_k_does_not_rotate():
    # omega = 0 and E_g parallel to k: Omega = -E_g x k = 0
    start = RayState(position=(0.0, 0.0, 0.0), khat=_KHAT, fhat=_FHAT)
    out = transport_ray(start, _uniform_field((0.0, 0.0, 0.0), tuple(0.5 * np.array(_KHAT))),
                        lam_end=10.0, steps=10)
    assert np.max(np.abs(np.subtract(out.khat, _KHAT))) <= 1e-15
    assert np.max(np.abs(np.subtract(out.fhat, _FHAT))) <= 1e-15


def test_transport_renormalizes_khat_and_fhat_every_step():
    # h |Omega| ~ 0.5: an RK4 step of a rotation shrinks the part of a vector normal to
    # Omega by ~(h |Omega|)^6 / 144, ~1e-4 here, and khat and fhat make different angles
    # with Omega (cosines ~0.2 and ~0.9), so each needs its own norm
    omega = (0.01, 0.02, 0.015)  # Omega = (0.01, 0.04, 0.03) at the start, |Omega| h = 0.51
    start = RayState(position=(0.0, 0.0, 0.0), khat=(1.0, 0.0, 0.0), fhat=(0.0, 0.6, 0.8))
    out = transport_ray(start, _uniform_field(omega), lam_end=40.0, steps=4)
    assert abs(math.hypot(*out.khat) - 1.0) <= 1e-15
    assert abs(math.hypot(*out.fhat) - 1.0) <= 1e-15


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


def _field_by_point(rates):
    """A sampler of omega = (0, 0, w / 2) at each listed point: in the xy plane, Omega = w z."""
    return lambda pos: GravField((0.0, 0.0, rates[pos] / 2.0), (0.0, 0.0, 0.0))


# one step of h = 2 from the origin along y, through fields that differ at the four stage
# points; every product and sum is exact, so the lengths below are exactly zero
_COLLAPSE_START = RayState((0, 0, 0), (0, 1, 0), (0, 0, 1))


def test_transport_raises_numeric_failure_when_khat_collapses():
    # the fourth stage's k = k + h c is (0, 0, 0), and its khat = k / |k| divided by zero
    rates = {(0.0, 0.0, 0.0): 1.0, (0.0, 1.0, 0.0): 1.0, (-1.0, 1.0, 0.0): 0.5,
             (-2.0, 0.0, 0.0): 0.0}
    with pytest.raises(NumericFailure, match=r"^khat or fhat collapsed to zero length"):
        transport_ray(_COLLAPSE_START, _field_by_point(rates), 2.0, 1)


def test_transport_raises_numeric_failure_when_a_step_sum_collapses():
    # every stage keeps a nonzero k, but the step's RK4 sum is k = (0, 0, 0), and the
    # renormalization after the step divided by zero
    rates = {(0.0, 0.0, 0.0): -3.5, (0.0, 1.0, 0.0): 0.0, (3.5, 1.0, 0.0): 1.0,
             (0.0, 2.0, 0.0): 1.5}
    with pytest.raises(NumericFailure, match=r"^khat or fhat collapsed to zero length"):
        transport_ray(_COLLAPSE_START, _field_by_point(rates), 2.0, 1)


_OVERFLOW_START = RayState((7e6, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("start, field, lam_end, steps, what", [
    (_OVERFLOW_START, _uniform_field((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), 1e100, 1,
     "position must be a finite"),
    (_OVERFLOW_START, _uniform_field((0.0, 0.0, 1.0)), 1e50, 1, "khat must be a unit vector"),
    # |k|^2 overflows in the first of two steps: renormalized, k would be zero, and the
    # second step would report a collapse instead
    (_OVERFLOW_START, _uniform_field((0.0, 0.0, 1.0)), 1e50, 2, "khat must be a unit vector"),
    # h |Omega| ~ 1.7e22 per step: |k|^2 overflows in the first of eight steps
    (RayState((7e6, 0, 0), (0, 1, 0), (0, 0, 1), 5.97e24),
     _uniform_field((0.01, 0.0, 0.02), (0.0, 1e-3, 0.0)), 10.0, 8, "khat must be a unit vector"),
    # |f|^2 overflows in the first of eight steps, and k stays finite
    (_OVERFLOW_START, _uniform_field((0.0, -10.0, 0.0), (-0.001, 5.0, 0.0)), 1e13, 8,
     "fhat must be a unit vector"),
], ids=["position", "khat", "khat_before_the_last_step", "khat_of_eight", "fhat_of_eight"])
def test_transport_raises_numeric_failure_when_a_step_sum_overflows(start, field, lam_end, steps,
                                                                      what):
    # a step so long that its RK4 sum overflows: the arguments were valid, the state is not
    with pytest.raises(NumericFailure, match=rf"^the ray state overflowed \({what}"):
        transport_ray(start, field, lam_end, steps)


def test_a_zero_division_in_the_sampler_is_the_sampler_s_own_error():
    # the field model divides by y, which is 0 at the start: not a collapse of khat or fhat
    def sampler(pos):
        return GravField((1.0 / pos[1], 0.0, 0.0), (0.0, 0.0, 0.0))

    with pytest.raises(ZeroDivisionError) as info:
        transport_ray(_X_START, sampler, 1.0, 2)
    assert info.traceback[-1].name == "sampler"


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


def test_an_impact_parameter_whose_square_underflows_is_too_small():
    with pytest.raises(DomainError, match="impact parameter too small"):
        axial_impact_rotation(EARTH_BODY, 1e-200)
    for s1, s2 in [(1e-200, 1.0), (1.0, 1e-200)]:
        with pytest.raises(NumericFailure, match="square underflows to 0"):
            closed_path_rotation(EARTH_BODY, s1, s2)


def test_closed_path_rotation():
    assert closed_path_rotation(EARTH_BODY, 7e6, 7e6) == 0.0
    r = EARTH.radius
    got = closed_path_rotation(EARTH_BODY, r, 2.0 * r)
    single = 4.0 * GRAVITATIONAL_G * EARTH_BODY.angular_momentum / (r * r * C_LIGHT**3)
    assert got == pytest.approx(0.75 * single, rel=1e-12)
    assert convert_angle(got, "arcmsec") == pytest.approx(2.2e-7, rel=0.05)
    assert closed_path_rotation(EARTH_BODY, 2.0 * r, r) == -got
