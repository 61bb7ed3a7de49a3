"""Polarization transport in stationary gravitomagnetic fields.

The field enters through omega = B_g/2 (units 1/m when the affine parameter
is metres along the ray) and the gravitoelectric acceleration E_g.  A ray
carries a unit propagation direction khat and a unit linear-polarization
vector fhat; both precess with angular velocity Omega per unit affine
parameter:

    Omega = 2 omega - (omega . khat) khat - E_g x k

Closed-form rotation angles for rays through a spinning mass are provided
for the principal-null (radial) and transverse (impact-parameter) cases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import C_LIGHT, GRAVITATIONAL_G
from .errors import DomainError

Vector = np.ndarray


def _finite_vector(value, name: str) -> tuple:
    """The three components of `value` as floats; DomainError unless finite."""
    try:
        x, y, z = (float(v) for v in value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a finite 3-vector") from None
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DomainError(f"{name} must be a finite 3-vector")
    return x, y, z


def _unit_vector(value, name: str) -> tuple:
    v = _finite_vector(value, name)
    if not abs(math.hypot(*v) - 1.0) <= 1e-9:
        raise DomainError(f"{name} must be a unit vector")
    return v


@dataclass(frozen=True)
class GravField:
    """Field sample at a point: rotation vector omega (1/m) and E_g (1/m^2 scale)."""

    omega: tuple
    eg: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega", _finite_vector(self.omega, "omega"))
        object.__setattr__(self, "eg", _finite_vector(self.eg, "eg"))


@dataclass(frozen=True)
class RayState:
    """Ray snapshot: position (m), unit khat, unit fhat, affine parameter (m)."""

    position: tuple
    khat: tuple
    fhat: tuple
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", _finite_vector(self.position, "position"))
        object.__setattr__(self, "khat", _unit_vector(self.khat, "khat"))
        object.__setattr__(self, "fhat", _unit_vector(self.fhat, "fhat"))
        if not math.isfinite(self.lam):
            raise DomainError("lam must be finite")


@dataclass(frozen=True)
class SpinningBody:
    """Point spinning mass: M (kg), angular momentum J (kg m^2/s)."""

    mass: float
    angular_momentum: float

    def __post_init__(self):
        if self.mass <= 0 or self.angular_momentum <= 0:
            raise DomainError("mass and angular momentum must be positive")


def _rotation_rate(omega, eg, khat, k) -> tuple:
    """Omega = 2 omega - (omega . khat) khat - E_g x k on float 3-tuples."""
    wx, wy, wz = omega
    ex, ey, ez = eg
    nx, ny, nz = khat
    kx, ky, kz = k
    d = wx * nx + wy * ny + wz * nz
    return (
        2.0 * wx - d * nx - (ey * kz - ez * ky),
        2.0 * wy - d * ny - (ez * kx - ex * kz),
        2.0 * wz - d * nz - (ex * ky - ey * kx),
    )


def transport_ray(
    state: RayState,
    sampler: Callable[[Vector], GravField],
    lam_end: float,
    steps: int,
) -> RayState:
    """RK4-transport khat and fhat along the ray from state.lam to lam_end.

    The position advances with dx/dlambda = khat so the sampler sees the
    spatial point; khat and fhat are renormalized after every step.  The
    state is y = (position, khat, fhat) as nine floats.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise DomainError("steps must be an integer")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not math.isfinite(lam_end):
        raise DomainError("lam_end must be finite")
    h = (lam_end - state.lam) / steps

    def deriv(y):
        px, py, pz, kx, ky, kz, fx, fy, fz = y
        field = sampler(np.array((px, py, pz)))
        n = math.sqrt(kx * kx + ky * ky + kz * kz)
        ox, oy, oz = _rotation_rate(field.omega, field.eg, (kx / n, ky / n, kz / n), (kx, ky, kz))
        return (
            kx, ky, kz,
            oy * kz - oz * ky, oz * kx - ox * kz, ox * ky - oy * kx,
            oy * fz - oz * fy, oz * fx - ox * fz, ox * fy - oy * fx,
        )

    def shift(y, c, dy):
        return [a + c * b for a, b in zip(y, dy)]

    y = [*state.position, *state.khat, *state.fhat]
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(shift(y, half, k1))
        k3 = deriv(shift(y, half, k2))
        k4 = deriv(shift(y, h, k3))
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        for i in (3, 6):
            n = math.sqrt(y[i] * y[i] + y[i + 1] * y[i + 1] + y[i + 2] * y[i + 2])
            y[i], y[i + 1], y[i + 2] = y[i] / n, y[i + 1] / n, y[i + 2] / n
    return RayState(tuple(y[0:3]), tuple(y[3:6]), tuple(y[6:9]), lam_end)


def kerr_principal_null_rotation(
    body: SpinningBody, r1: float, r2: float, theta: float
) -> float:
    """Polarization rotation along a radial ray between radii r1 and r2.

    delta_chi = arcsin(-(J/(M c)) (1/r1 - 1/r2) cos(theta)); r2 may be inf.
    """
    if r1 <= 0 or r2 <= 0:
        raise DomainError("radii must be positive")
    inv1 = 1.0 / r1
    inv2 = 0.0 if math.isinf(r2) else 1.0 / r2
    x = -(body.angular_momentum / (body.mass * C_LIGHT)) * (inv1 - inv2) * math.cos(theta)
    if abs(x) > 1.0:
        raise DomainError("rotation argument exceeds 1; formula out of range")
    return math.asin(x)


def axial_impact_rotation(body: SpinningBody, s: float) -> float:
    """Rotation for a ray passing a spinning mass at impact parameter s.

    chi = arcsin(4 G J / (s^2 c^3)) for propagation parallel to the spin.
    """
    if s <= 0:
        raise DomainError("impact parameter must be positive")
    x = 4.0 * GRAVITATIONAL_G * body.angular_momentum / (s * s * C_LIGHT**3)
    if x >= 1.0:
        raise DomainError("impact parameter too small; arcsin argument >= 1")
    return math.asin(x)


def closed_path_rotation(body: SpinningBody, s1: float, s2: float) -> float:
    """Net rotation around a closed loop with legs at impact parameters s1, s2.

    delta_chi = (4 G J / c^3)(1/s1^2 - 1/s2^2); equal legs cancel exactly.
    """
    if s1 <= 0 or s2 <= 0:
        raise DomainError("impact parameters must be positive")
    coef = 4.0 * GRAVITATIONAL_G * body.angular_momentum / C_LIGHT**3
    return coef * (1.0 / (s1 * s1) - 1.0 / (s2 * s2))
