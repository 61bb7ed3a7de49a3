"""Photon little-group machinery: standard frames, Wigner angles, helicity phases.

Conventions
-----------
Four-vectors are (t, x, y, z) with metric diag(1, -1, -1, -1); photon momenta
are dimensionless, measured in units of a reference energy so the reference
null vector is k_R = (1, 0, 0, 1).  The standard frame for a direction
khat(theta, phi) is R(khat) = Rz(phi) Ry(theta), and the standard momentum
transform is L(k) = R(khat) Bz(u) with rapidity u = ln(energy).

For a transformation Lam, the little-group element W = L(Lam p)^-1 Lam L(p)
fixes k_R and factors uniquely as a null translation times a z-rotation,
W = S(a, b) Rz(xi); helicity amplitudes pick up exp(+/- i xi).  That
factorisation sends e_x to (s, cos xi, sin xi, s), so xi is read from one
column of W, which needs one 3x3 product and the two frames, not W itself.

Each input is checked once, where it enters.  LorentzMatrix checks the
metric, M00 >= 1 and the sign of its spatial determinant, which needs no
tolerance (see the class); FourMomentum checks that p is null.  wigner_angle
trusts both: it checks only that Lam p has positive energy and is finite.

All boost constructors here are active: boost(beta) maps a particle at rest
to one moving with velocity beta.  For the passive picture (new frame moving
with +v nhat) use boost(-v nhat / c).
"""

from __future__ import annotations

import math

from .constants import C_LIGHT
from .errors import (DomainError, Record, check_finite, check_nonnegative, check_positive,
                     check_vector, is_finite)

_LORENTZ_TOL = 1e-10


class LorentzMatrix(Record):
    """A proper orthochronous Lorentz transformation; `matrix` is four row tuples of floats.

    Three checks, in this order.  The metric: eta(c_i, c_j) = eta_ij for the
    columns, over the 10 pairs i <= j, within tol * max(1, |c_i| |c_j|), the
    rounding of the 4-term sum.  Orthochronous: M00 >= 1 - tol.  Proper: a
    positive spatial 3x3 determinant.  Once the first two hold, M = B(v) diag(1, O)
    and that determinant is M00 det O = +-M00, at least 1 in size, so its sign
    needs no tolerance.  The inversion -1 has a negative one too, so M00 goes first.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        try:
            (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = matrix
        except (TypeError, ValueError):  # not iterable, or not four rows of four
            raise DomainError("Lorentz matrix must be 4x4") from None
        entries = (a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p)
        if not all(map(is_finite, entries)):
            raise DomainError("Lorentz matrix must be finite")
        a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p = map(float, entries)
        n0, n1 = math.hypot(a, e, i, m), math.hypot(b, f, j, n)
        n2, n3 = math.hypot(c, g, k, o), math.hypot(d, h, l, p)
        # eta(c_i, c_j) - eta_ij over the column norms; divided, so that an
        # overflowed sum (inf / inf) fails too
        if not (abs(a * a - e * e - i * i - m * m - 1.0) / max(1.0, n0 * n0) <= _LORENTZ_TOL
                and abs(a * b - e * f - i * j - m * n) / max(1.0, n0 * n1) <= _LORENTZ_TOL
                and abs(a * c - e * g - i * k - m * o) / max(1.0, n0 * n2) <= _LORENTZ_TOL
                and abs(a * d - e * h - i * l - m * p) / max(1.0, n0 * n3) <= _LORENTZ_TOL
                and abs(b * b - f * f - j * j - n * n + 1.0) / max(1.0, n1 * n1) <= _LORENTZ_TOL
                and abs(b * c - f * g - j * k - n * o) / max(1.0, n1 * n2) <= _LORENTZ_TOL
                and abs(b * d - f * h - j * l - n * p) / max(1.0, n1 * n3) <= _LORENTZ_TOL
                and abs(c * c - g * g - k * k - o * o + 1.0) / max(1.0, n2 * n2) <= _LORENTZ_TOL
                and abs(c * d - g * h - k * l - o * p) / max(1.0, n2 * n3) <= _LORENTZ_TOL
                and abs(d * d - h * h - l * l - p * p + 1.0) / max(1.0, n3 * n3) <= _LORENTZ_TOL):
            raise DomainError("matrix does not preserve the metric")
        if a < 1.0 - _LORENTZ_TOL:
            raise DomainError("matrix must be orthochronous")
        if f * (k * p - l * o) - g * (j * p - l * n) + h * (j * o - k * n) < 0.0:
            raise DomainError("matrix must have determinant +1")
        object.__setattr__(self, "matrix", ((a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p)))

    @classmethod
    def rotation(cls, axis, angle: float) -> "LorentzMatrix":
        """Active rotation by `angle` about the unit 3-vector `axis` (Rodrigues)."""
        x, y, z = check_vector("axis", axis)
        norm = math.hypot(x, y, z)
        if norm == 0.0:
            raise DomainError("rotation axis must be nonzero")
        x, y, z = x / norm, y / norm, z / norm
        angle = check_finite("angle", angle)
        c, s, t = math.cos(angle), math.sin(angle), 1.0 - math.cos(angle)
        return cls(((1.0, 0.0, 0.0, 0.0),
                    (0.0, c + t * x * x, t * x * y - s * z, t * x * z + s * y),
                    (0.0, t * x * y + s * z, c + t * y * y, t * y * z - s * x),
                    (0.0, t * x * z - s * y, t * y * z + s * x, c + t * z * z)))

    @classmethod
    def boost(cls, beta_vec) -> "LorentzMatrix":
        """Active pure boost with velocity beta_vec (fractions of c)."""
        x, y, z = check_vector("beta_vec", beta_vec)
        b2 = x * x + y * y + z * z
        if not b2 < 1.0:
            raise DomainError("|beta| must be < 1")
        gamma = 1.0 / math.sqrt(1.0 - b2)
        k = gamma * gamma / (1.0 + gamma)  # (gamma - 1) / beta^2, also at beta = 0
        gx, gy, gz, kxy, kxz, kyz = gamma * x, gamma * y, gamma * z, k * x * y, k * x * z, k * y * z
        return cls(((gamma, gx, gy, gz), (gx, 1.0 + k * x * x, kxy, kxz),
                    (gy, kxy, 1.0 + k * y * y, kyz), (gz, kxz, kyz, 1.0 + k * z * z)))


class FourMomentum(Record):
    """Null four-momentum (energy, 3-vector k) in reference-energy units."""

    __slots__ = ("energy", "k")

    def __init__(self, energy, k):
        x, y, z = check_vector("k", k)
        energy = check_positive("energy", energy)
        if not abs(energy - math.hypot(x, y, z)) <= 1e-12 * energy:
            raise DomainError("momentum is not null")
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "k", (x, y, z))

    @property
    def khat(self) -> tuple:
        x, y, z = self.k
        norm = math.hypot(x, y, z)
        return x / norm, y / norm, z / norm


def direction_angles(khat) -> tuple[float, float]:
    """Polar/azimuth (theta, phi) of a unit direction; phi = 0 on the z-axis."""
    x, y, z = khat
    theta = math.atan2(math.hypot(x, y), z)
    return theta, (math.atan2(y, x) if theta > 0.0 else 0.0)


def _polar_frame(khat) -> tuple:
    """Columns 1 and 2 of R(khat) = Rz(phi) Ry(theta): the unit vectors (e_theta, e_phi)."""
    theta, phi = direction_angles(khat)
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return (cp * ct, sp * ct, -st), (-sp, cp, 0.0)


def wigner_angle(lam: LorentzMatrix, p: FourMomentum) -> float:
    """Little-group angle xi of W = L(Lam p)^-1 Lam L(p), in (-pi, pi].

    W = S(a, b) Rz(xi) sends e_x to (s, cos xi, sin xi, s), so one column of W
    gives xi.  L(p) e_x = (0, e_theta(khat)), and Bz(-u') in L(Lam p)^-1
    leaves x and y alone, so xi = atan2(e_phi' . a, e_theta' . a) with
    a = Lam_3x3 e_theta(khat) and e_theta', e_phi' the frame of
    khat' = dir(Lam p).  The photon energy drops out.  Helicity amplitudes
    transform as alpha_{+/-} -> exp(+/- i xi) alpha_{+/-}.
    """
    (m00, m01, m02, m03), *rest = lam.matrix
    (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = rest
    e, (x, y, z) = p.energy, p.k
    if not m00 * e + m01 * x + m02 * y + m03 * z > 0.0:
        raise DomainError("transformed momentum must have positive energy")
    kx = m10 * e + m11 * x + m12 * y + m13 * z
    ky = m20 * e + m21 * x + m22 * y + m23 * z
    kz = m30 * e + m31 * x + m32 * y + m33 * z
    norm = math.hypot(kx, ky, kz)
    if not norm < math.inf:
        raise DomainError("transformed momentum must be finite")
    (e1, e2, e3), _ = _polar_frame(p.khat)
    a1 = m11 * e1 + m12 * e2 + m13 * e3
    a2 = m21 * e1 + m22 * e2 + m23 * e3
    a3 = m31 * e1 + m32 * e2 + m33 * e3
    (t1, t2, t3), (f1, f2, _) = _polar_frame((kx / norm, ky / norm, kz / norm))
    xi = math.atan2(f1 * a1 + f2 * a2, t1 * a1 + t2 * a2 + t3 * a3)
    if xi <= -math.pi:
        xi = math.pi
    return xi


def first_order_boost_phase(
    theta: float, phi: float, theta_b: float, phi_b: float, v: float
) -> float:
    """First-order polarization rotation for a slow boost.

    chi = -tan(theta/2) sin(theta_b) sin(phi - phi_b) (v/c) for a photon
    direction (theta, phi) and boost direction (theta_b, phi_b); valid for
    0 <= theta <= pi/2 (the upper edge is the finite tan(pi/4) limit).

    chi is the little-group angle in the standard frames
    Rz(phi) Ry(theta) Rz(-phi), which are regular at the pole, not in the
    frames Rz(phi) Ry(theta) of `wigner_angle`.  The two angles are related
    exactly by chi = xi + phi(Lam khat) - phi(khat), wrapped to (-pi, pi];
    at first order xi = (v/c) cot(theta) sin(theta_b) sin(phi - phi_b).
    The coefficient is -1, not -1/2: a change of standard frames cannot
    alter the little group's curvature, and helicity amplitudes pick up
    exp(+/- i chi), so chi itself is the rotation of the polarization.
    """
    theta, v = check_finite("theta", theta), check_finite("v", v)
    if not 0.0 <= theta <= 0.5 * math.pi:
        raise DomainError("theta must lie in [0, pi/2]")
    if not 0.0 <= v < C_LIGHT:
        raise DomainError("v must satisfy 0 <= v < c")
    phi, theta_b = check_finite("phi", phi), check_finite("theta_b", theta_b)
    phi_b = check_finite("phi_b", phi_b)
    return -math.tan(0.5 * theta) * math.sin(theta_b) * math.sin(phi - phi_b) * (v / C_LIGHT)


def diffraction_transform(theta: float, v: float) -> float:
    """Aberrated small diffraction angle theta' = theta sqrt((1+b)/(1-b)).

    b = v/c is signed: positive for emitter and detector approaching along
    the beam.  b = 0.6 doubles the angle.
    """
    beta = check_finite("v", v) / C_LIGHT
    if not -1.0 < beta < 1.0:
        raise DomainError("|v| must be < c")
    theta = check_nonnegative("theta", theta)
    return theta * math.sqrt((1.0 + beta) / (1.0 - beta))


class TwoPhotonState(Record):
    """Amplitudes over the helicity product basis (++, +-, -+, --), unit norm."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        try:  # a non-finite amplitude becomes NaN, which the norm test refuses
            a = tuple([complex(x) if is_finite(abs(x)) else math.nan for x in amplitudes])
        except TypeError:  # not iterable, or an entry with no abs(): text, None
            raise DomainError("need 4 amplitudes (++, +-, -+, --)") from None
        if len(a) != 4:
            raise DomainError("need 4 amplitudes (++, +-, -+, --)")
        if not abs(sum(abs(x) * abs(x) for x in a) - 1.0) <= 1e-12:  # ** 2 can overflow
            raise DomainError("two-photon state must be normalized")
        object.__setattr__(self, "amplitudes", a)


def apply_helicity_phase(state, chi: float, photon: int):
    """Multiply one photon's helicity amplitudes by exp(+/- i chi).

    `photon` selects which photon (0 or 1) of the TwoPhotonState acquired the
    phase; call once per photon for a collective rotation.
    """
    if not isinstance(state, TwoPhotonState):
        raise DomainError("state must be a TwoPhotonState")
    if photon not in (0, 1):
        raise DomainError("photon index must be 0 or 1")
    chi = check_finite("chi", chi)
    ph = complex(math.cos(chi), math.sin(chi))
    pp, pm, mp, mm = state.amplitudes
    if photon == 0:
        return TwoPhotonState((pp * ph, pm * ph, mp * ph.conjugate(), mm * ph.conjugate()))
    return TwoPhotonState((pp * ph, pm * ph.conjugate(), mp * ph, mm * ph.conjugate()))


def concurrence(state: TwoPhotonState) -> float:
    """C = 2 |a_pp a_mm - a_pm a_mp| for a pure two-photon state."""
    pp, pm, mp, mm = state.amplitudes
    return 2.0 * abs(pp * mm - pm * mp)
