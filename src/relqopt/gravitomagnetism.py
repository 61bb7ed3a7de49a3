"""Polarization transport in stationary gravitomagnetic fields.

The field enters through omega = B_g/2 (units 1/m when the affine parameter
is metres along the ray) and the gravitoelectric acceleration E_g.  A ray
carries a unit propagation direction khat and a unit linear-polarization
vector fhat; both precess with angular velocity Omega per unit affine
parameter:

    Omega = 2 omega - (omega . khat) khat - E_g x k

Closed-form rotation angles for rays through a spinning mass, given as a
`constants.EarthParams`, are provided for the principal-null (radial) and
transverse (impact-parameter) cases.
"""

from __future__ import annotations

import math
from typing import Callable

from .constants import C_LIGHT, GRAVITATIONAL_G, EarthParams
from .errors import (DomainError, NumericFailure, Record, check_finite, check_integer,
                     check_positive, check_vector)


def _unit_vector(name: str, value) -> tuple:
    v = check_vector(name, value)
    if not abs(math.hypot(*v) - 1.0) <= 1e-9:
        raise DomainError(f"{name} must be a unit vector")
    return v


class GravField(Record):
    """Field sample at a point: rotation vector omega (1/m) and E_g (1/m^2 scale)."""

    __slots__ = ("omega", "eg")

    def __init__(self, omega, eg):
        object.__setattr__(self, "omega", check_vector("omega", omega))
        object.__setattr__(self, "eg", check_vector("eg", eg))


class RayState(Record):
    """Ray snapshot: position (m), unit khat, unit fhat, affine parameter (m)."""

    __slots__ = ("position", "khat", "fhat", "lam")

    def __init__(self, position, khat, fhat, lam=0.0):
        object.__setattr__(self, "position", check_vector("position", position))
        object.__setattr__(self, "khat", _unit_vector("khat", khat))
        object.__setattr__(self, "fhat", _unit_vector("fhat", fhat))
        object.__setattr__(self, "lam", check_finite("lam", lam))


def transport_ray(
    state: RayState,
    sampler: Callable[[tuple], GravField],
    lam_end: float,
    steps: int,
) -> RayState:
    """RK4-transport khat and fhat along the ray from state.lam to lam_end.

    The position advances with dx/dlambda = khat so the sampler sees the
    spatial point, a tuple of three floats; khat and fhat are renormalized
    after every step.  The state y is a tuple of nine floats; each RK4 stage's
    argument and the update are written out, as a list or a helper per stage
    cost ~15% more, and a `zip` over the four stages ~10%.
    """
    steps = check_integer("steps", steps)
    if steps < 1:
        raise DomainError("steps must be >= 1")
    h = (check_finite("lam_end", lam_end) - state.lam) / steps

    def deriv(px, py, pz, kx, ky, kz, fx, fy, fz):
        field = sampler((px, py, pz))
        wx, wy, wz = field.omega
        ex, ey, ez = field.eg
        n = math.sqrt(kx * kx + ky * ky + kz * kz)
        try:  # a step too long for the field can shrink a stage's k to zero length
            nx, ny, nz = kx / n, ky / n, kz / n
        except ZeroDivisionError:
            raise NumericFailure("khat or fhat collapsed to zero length; step too long") from None
        d = wx * nx + wy * ny + wz * nz  # Omega = 2 omega - (omega . khat) khat - E_g x k
        ox = 2.0 * wx - d * nx - (ey * kz - ez * ky)
        oy = 2.0 * wy - d * ny - (ez * kx - ex * kz)
        oz = 2.0 * wz - d * nz - (ex * ky - ey * kx)
        return (
            kx, ky, kz,
            oy * kz - oz * ky, oz * kx - ox * kz, ox * ky - oy * kx,
            oy * fz - oz * fy, oz * fx - ox * fz, ox * fy - oy * fx,
        )

    y = (*state.position, *state.khat, *state.fhat)
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(steps):
        px, py, pz, kx, ky, kz, fx, fy, fz = y
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = deriv(*y)
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = deriv(
            px + half * a0, py + half * a1, pz + half * a2, kx + half * a3, ky + half * a4,
            kz + half * a5, fx + half * a6, fy + half * a7, fz + half * a8)
        c0, c1, c2, c3, c4, c5, c6, c7, c8 = deriv(
            px + half * b0, py + half * b1, pz + half * b2, kx + half * b3, ky + half * b4,
            kz + half * b5, fx + half * b6, fy + half * b7, fz + half * b8)
        d0, d1, d2, d3, d4, d5, d6, d7, d8 = deriv(
            px + h * c0, py + h * c1, pz + h * c2, kx + h * c3, ky + h * c4, kz + h * c5,
            fx + h * c6, fy + h * c7, fz + h * c8)
        px += sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        py += sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        pz += sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        kx += sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        ky += sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        kz += sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
        fx += sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
        fy += sixth * (a7 + 2.0 * b7 + 2.0 * c7 + d7)
        fz += sixth * (a8 + 2.0 * b8 + 2.0 * c8 + d8)
        nk = math.sqrt(kx * kx + ky * ky + kz * kz)
        nf = math.sqrt(fx * fx + fy * fy + fz * fz)
        try:  # so can the step's sum, for k or for f
            y = (px, py, pz, kx / nk, ky / nk, kz / nk, fx / nf, fy / nf, fz / nf)
        except ZeroDivisionError:
            raise NumericFailure("khat or fhat collapsed to zero length; step too long") from None
        if not nk + nf < math.inf:  # |k|^2 or |f|^2 overflowed: RayState refuses its zero vector
            break
    try:  # a step's sum can overflow, which RayState would report as a bad argument
        return RayState(y[0:3], y[3:6], y[6:9], lam_end)
    except DomainError as e:
        raise NumericFailure(f"the ray state overflowed ({e}); step too long") from None


def kerr_principal_null_rotation(
    body: EarthParams, r1: float, r2: float, theta: float
) -> float:
    """Polarization rotation along a radial ray between radii r1 and r2.

    delta_chi = arcsin(-(J/(M c)) (1/r1 - 1/r2) cos(theta)); r2 may be inf.
    """
    r1 = check_positive("r1", r1)
    r2 = math.inf if r2 == math.inf else check_positive("r2", r2)  # a ray out to infinity
    theta = check_finite("theta", theta)
    x = -(body.angular_momentum / (body.mass * C_LIGHT)) * (1.0 / r1 - 1.0 / r2) * math.cos(theta)
    if abs(x) > 1.0:
        raise DomainError("rotation argument exceeds 1; formula out of range")
    return math.asin(x)


def axial_impact_rotation(body: EarthParams, s: float) -> float:
    """Rotation for a ray passing a spinning mass at impact parameter s.

    chi = arcsin(4 G J / (s^2 c^3)) for propagation parallel to the spin.
    """
    s = check_positive("s", s)
    x = 4.0 * GRAVITATIONAL_G * body.angular_momentum / (s * s * C_LIGHT**3)
    if x >= 1.0:
        raise DomainError("impact parameter too small; arcsin argument >= 1")
    return math.asin(x)


def closed_path_rotation(body: EarthParams, s1: float, s2: float) -> float:
    """Net rotation around a closed loop with legs at impact parameters s1, s2.

    delta_chi = (4 G J / c^3)(1/s1^2 - 1/s2^2); equal legs cancel exactly.
    """
    s1 = check_positive("s1", s1)
    s2 = check_positive("s2", s2)
    coef = 4.0 * GRAVITATIONAL_G * body.angular_momentum / C_LIGHT**3
    return coef * (1.0 / (s1 * s1) - 1.0 / (s2 * s2))
