"""Reference copies of the Wigner-angle and transport kernels.

These are the straightforward formulations the library kernels were first
written in: the little-group decomposition as a product of validated
`LorentzMatrix` objects, and the RK4 transport on a numpy state vector with
`np.cross`.  The library now computes the same quantities on raw arrays and
floats; `test_reference_equivalence.py` holds the two to agreement.
"""

import math

import numpy as np

from relqopt.gravitomagnetism import RayState
from relqopt.wigner import K_REF, FourMomentum, LorentzMatrix, direction_angles

_TOL = 1e-10


def _standard_transform(k: FourMomentum) -> LorentzMatrix:
    theta, phi = direction_angles(k.khat)
    rotation = LorentzMatrix.rotation_z(phi) @ LorentzMatrix.rotation_y(theta)
    return rotation @ LorentzMatrix.boost_z(math.log(k.energy))


def wigner_angle(lam: LorentzMatrix, p: FourMomentum) -> float:
    p_out = lam.apply(p.as_array())
    assert p_out[0] > 0.0
    l_in = _standard_transform(p)
    l_out = _standard_transform(FourMomentum.from_array(p_out))
    w = l_out.inverse().matrix @ lam.matrix @ l_in.matrix
    assert np.max(np.abs(w @ K_REF - K_REF)) <= _TOL
    xi = math.atan2(w[2, 1], w[1, 1])
    if xi <= -math.pi:
        xi = math.pi
    a, b = w[1, 0], w[2, 0]
    z = 0.5 * (a * a + b * b)
    null_translation = np.array(
        [[1.0 + z, a, b, -z], [a, 1.0, 0.0, -a], [b, 0.0, 1.0, -b], [z, a, b, 1.0 - z]])
    rz = LorentzMatrix.rotation_z(xi).matrix
    assert np.max(np.abs(w - null_translation @ rz)) <= _TOL
    return xi


def transport_ray(state: RayState, sampler, lam_end: float, steps: int) -> RayState:
    h = (lam_end - state.lam) / steps

    def deriv(y):
        p, kh, fh = y[0:3], y[3:6], y[6:9]
        field = sampler(p)
        khat = kh / np.linalg.norm(kh)
        om, eg = np.asarray(field.omega), np.asarray(field.eg)
        rate = 2.0 * om - float(om @ khat) * khat - np.cross(eg, kh)
        return np.concatenate([kh, np.cross(rate, kh), np.cross(rate, fh)])

    y = np.concatenate([state.position, state.khat, state.fhat])
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[3:6] /= np.linalg.norm(y[3:6])
        y[6:9] /= np.linalg.norm(y[6:9])
    return RayState(tuple(y[0:3]), tuple(y[3:6]), tuple(y[6:9]), lam_end)
