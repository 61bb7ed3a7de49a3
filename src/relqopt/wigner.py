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
W = S(a, b) Rz(xi); helicity amplitudes pick up exp(+/- i xi).

All boost constructors here are active: boost(beta) maps a particle at rest
to one moving with velocity beta.  For the passive picture (new frame moving
with +v nhat) use boost(-v nhat / c).
"""

from __future__ import annotations

import math

import numpy as np

from .constants import C_LIGHT
from .errors import DomainError, Record

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
K_REF = np.array([1.0, 0.0, 0.0, 1.0])
_LORENTZ_TOL = 1e-10
# eta_i eta_j: (eta M^T eta)[i, j] = eta_i eta_j M[j, i]
_METRIC_SIGNS = np.outer(np.diag(ETA), np.diag(ETA))


class LorentzMatrix:
    """A proper orthochronous Lorentz transformation as a validated 4x4 array."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise DomainError("Lorentz matrix must be 4x4")
        if not np.all(np.isfinite(m)):
            raise DomainError("Lorentz matrix must be finite")
        # rounding in (M^T eta M)_ij grows as |M[:, i]| |M[:, j]| eps, so each entry
        # has its own bound: a boost's unit transverse entries keep an absolute one
        norms = np.sqrt(np.einsum("ij,ij->j", m, m))
        bound = _LORENTZ_TOL * np.maximum(1.0, np.outer(norms, norms))
        if not (np.abs(m.T @ ETA @ m - ETA) <= bound).all():
            raise DomainError("matrix does not preserve the metric")
        # rounding in det M grows as max|M_ij|^2 eps (gamma^2 eps for a boost)
        tol = _LORENTZ_TOL * max(1.0, float(np.abs(m).max()) ** 2)
        if abs(np.linalg.det(m) - 1.0) > tol:
            raise DomainError("matrix must have determinant +1")
        if m[0, 0] < 1.0 - _LORENTZ_TOL:
            raise DomainError("matrix must be orthochronous")
        self.matrix = m

    @classmethod
    def rotation(cls, axis, angle: float) -> "LorentzMatrix":
        """Active rotation by `angle` about the unit 3-vector `axis`."""
        n = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise DomainError("rotation axis must be nonzero")
        n = n / norm
        k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
        m = np.eye(4)
        m[1:, 1:] = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        return cls(m)

    @classmethod
    def rotation_z(cls, angle: float) -> "LorentzMatrix":
        return cls.rotation([0.0, 0.0, 1.0], angle)

    @classmethod
    def boost(cls, beta_vec) -> "LorentzMatrix":
        """Active pure boost with velocity beta_vec (fractions of c)."""
        b = np.asarray(beta_vec, dtype=float)
        b2 = float(b @ b)
        if b2 >= 1.0:
            raise DomainError("|beta| must be < 1")
        if b2 == 0.0:
            return cls(np.eye(4))
        gamma = 1.0 / math.sqrt(1.0 - b2)
        m = np.eye(4)
        m[0, 0] = gamma
        m[0, 1:] = m[1:, 0] = gamma * b
        m[1:, 1:] += (gamma - 1.0) * np.outer(b, b) / b2
        return cls(m)

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        return LorentzMatrix(self.matrix @ other.matrix)

    def apply(self, fourvec) -> np.ndarray:
        return self.matrix @ np.asarray(fourvec, dtype=float)


class FourMomentum(Record):
    """Null four-momentum (energy, 3-vector k) in reference-energy units."""

    __slots__ = ("energy", "k")

    def __init__(self, energy, k):
        try:
            x, y, z = (float(v) for v in k)
        except (TypeError, ValueError):
            raise DomainError("k must be a 3-vector") from None
        if not (math.isfinite(energy) and energy > 0.0):
            raise DomainError("energy must be positive and finite")
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise DomainError("k must be finite")
        if not abs(energy - math.hypot(x, y, z)) <= 1e-12 * energy:
            raise DomainError("momentum is not null")
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "k", (x, y, z))

    def as_array(self) -> np.ndarray:
        return np.array([self.energy, *self.k])

    @property
    def khat(self) -> np.ndarray:
        kv = np.asarray(self.k)
        return kv / np.linalg.norm(kv)


def direction_angles(khat) -> tuple[float, float]:
    """Polar/azimuth (theta, phi) of a unit direction; phi = 0 on the z-axis."""
    n = np.asarray(khat, dtype=float)
    theta = math.atan2(math.hypot(n[0], n[1]), n[2])
    phi = math.atan2(n[1], n[0]) if theta > 0.0 else 0.0
    return theta, phi


def _standard_matrix(khat, energy: float) -> np.ndarray:
    """Raw L(k) = Rz(phi) Ry(theta) Bz(ln energy) for a unit direction khat."""
    theta, phi = direction_angles(khat)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    u = math.log(energy)
    ch, sh = math.cosh(u), math.sinh(u)
    return np.array(
        [
            [ch, 0.0, 0.0, sh],
            [cp * st * sh, cp * ct, -sp, cp * st * ch],
            [sp * st * sh, sp * ct, cp, sp * st * ch],
            [ct * sh, -st, 0.0, ct * ch],
        ]
    )


def _little_group_element(a: float, b: float, xi: float) -> np.ndarray:
    """S(a, b) Rz(xi), where S = exp(a A + b B) for the null generators A, B."""
    c, s = math.cos(xi), math.sin(xi)
    z = 0.5 * (a * a + b * b)
    u, v = a * c + b * s, b * c - a * s
    return np.array(
        [
            [1.0 + z, u, v, -z],
            [a, c, -s, -a],
            [b, s, c, -b],
            [z, u, v, 1.0 - z],
        ]
    )


def wigner_angle(lam: LorentzMatrix, p: FourMomentum) -> float:
    """Little-group angle xi of W = L(Lam p)^-1 Lam L(p), in (-pi, pi].

    W is factored as S(a, b) Rz(xi); the null-translation part S is computed
    for the consistency check but not returned.  Helicity amplitudes
    transform as alpha_{+/-} -> exp(+/- i xi) alpha_{+/-}.

    Both arguments were validated when they were built, so the products
    here run on raw arrays; L^-1 is the metric transpose eta L^T eta.
    """
    m = lam.matrix
    p_out = m @ p.as_array()
    energy = float(p_out[0])
    if not energy > 0.0:
        raise DomainError("transformed momentum must have positive energy")
    k_out = p_out[1:]
    norm = math.hypot(*k_out)
    if not (math.isfinite(energy) and abs(energy - norm) <= 1e-12 * energy):
        raise DomainError("transformed momentum is not null")
    l_out = _standard_matrix(k_out / norm, energy)
    w = (_METRIC_SIGNS * l_out.T) @ m @ _standard_matrix(p.khat, p.energy)
    if not np.abs(w @ K_REF - K_REF).max() <= _LORENTZ_TOL:
        raise DomainError("decomposition is singular: W does not fix k_R")
    xi = math.atan2(w[2, 1], w[1, 1])
    if xi <= -math.pi:
        xi = math.pi
    residual = np.abs(w - _little_group_element(w[1, 0], w[2, 0], xi)).max()
    if not residual <= _LORENTZ_TOL:
        raise DomainError("decomposition is singular: residual too large")
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
    if not 0.0 <= theta <= 0.5 * math.pi:
        raise DomainError("theta must lie in [0, pi/2]")
    if not 0.0 <= v < C_LIGHT:
        raise DomainError("v must satisfy 0 <= v < c")
    return (
        -math.tan(0.5 * theta) * math.sin(theta_b)
        * math.sin(phi - phi_b) * (v / C_LIGHT)
    )


def diffraction_transform(theta: float, v: float) -> float:
    """Aberrated small diffraction angle theta' = theta sqrt((1+b)/(1-b)).

    b = v/c is signed: positive for emitter and detector approaching along
    the beam.  b = 0.6 doubles the angle.
    """
    beta = v / C_LIGHT
    if not -1.0 < beta < 1.0:
        raise DomainError("|v| must be < c")
    if theta < 0.0:
        raise DomainError("theta must be nonnegative")
    return theta * math.sqrt((1.0 + beta) / (1.0 - beta))


class TwoPhotonState(Record):
    """Amplitudes over the helicity product basis (++, +-, -+, --), unit norm."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        a = np.asarray(amplitudes, dtype=complex)
        if a.shape != (4,):
            raise DomainError("need 4 amplitudes (++, +-, -+, --)")
        if abs(float(np.sum(np.abs(a) ** 2)) - 1.0) > 1e-12:
            raise DomainError("two-photon state must be normalized")
        object.__setattr__(self, "amplitudes", tuple(complex(v) for v in a))


def apply_helicity_phase(state, chi: float, photon: int):
    """Multiply one photon's helicity amplitudes by exp(+/- i chi).

    `photon` selects which photon (0 or 1) of the TwoPhotonState acquired the
    phase; call once per photon for a collective rotation.
    """
    if not isinstance(state, TwoPhotonState):
        raise DomainError("state must be a TwoPhotonState")
    if photon not in (0, 1):
        raise DomainError("photon index must be 0 or 1")
    ph = complex(math.cos(chi), math.sin(chi))
    pp, pm, mp, mm = state.amplitudes
    if photon == 0:
        return TwoPhotonState((pp * ph, pm * ph, mp * ph.conjugate(), mm * ph.conjugate()))
    return TwoPhotonState((pp * ph, pm * ph.conjugate(), mp * ph, mm * ph.conjugate()))


def concurrence(state: TwoPhotonState) -> float:
    """C = 2 |a_pp a_mm - a_pm a_mp| for a pure two-photon state."""
    pp, pm, mp, mm = state.amplitudes
    return 2.0 * abs(pp * mm - pm * mp)
