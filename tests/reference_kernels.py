"""Reference copies of the Wigner-angle, transport and diffusion-witness RK4 kernels.

These are the straightforward formulations the library kernels were first
written in: the little-group decomposition as a product of validated
`LorentzMatrix` objects, the RK4 transport on a numpy state vector with
`np.cross`, and the witness's RK4 with each stage a fresh array.  The library
now computes the angle and the transport on raw arrays and floats, and runs
the witness's stages, in the same order, in reused buffers;
`test_reference_equivalence.py` holds the first two pairs to agreement and
the third to equality bit for bit.  The Lorentz helpers below build each
transform as a validated `LorentzMatrix` and form every product and
matrix-vector product in numpy, apart from the library's float path.  The
metric `ETA`, the reference null vector `K_REF` and `as_array` are the numpy
forms the tests use.
"""

import math

import numpy as np

from relqopt.gravitomagnetism import RayState
from relqopt.wigner import FourMomentum, LorentzMatrix, direction_angles

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
K_REF = np.array([1.0, 0.0, 0.0, 1.0])
_TOL = 1e-10


def array(lam: LorentzMatrix) -> np.ndarray:
    return np.array(lam.matrix)


def as_array(p: FourMomentum) -> np.ndarray:
    """The (t, x, y, z) components of a four-momentum."""
    return np.array([p.energy, *p.k])


def rotation_y(angle: float) -> LorentzMatrix:
    return LorentzMatrix.rotation((0.0, 1.0, 0.0), angle)


def rotation_z(angle: float) -> LorentzMatrix:
    return LorentzMatrix.rotation((0.0, 0.0, 1.0), angle)


def product(a: LorentzMatrix, b: LorentzMatrix) -> LorentzMatrix:
    return LorentzMatrix(array(a) @ array(b))


def boost_z(rapidity: float) -> LorentzMatrix:
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return LorentzMatrix(np.array(
        [[ch, 0.0, 0.0, sh], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [sh, 0.0, 0.0, ch]]))


def inverse(lam: LorentzMatrix) -> LorentzMatrix:
    # metric transpose: exact inverse for any Lorentz matrix
    return LorentzMatrix(ETA @ array(lam).T @ ETA)


def momentum(arr) -> FourMomentum:
    """The null four-momentum whose (t, x, y, z) components are `arr`."""
    return FourMomentum(float(arr[0]), tuple(float(x) for x in arr[1:4]))


def _standard_transform(k: FourMomentum) -> LorentzMatrix:
    theta, phi = direction_angles(k.khat)
    return product(product(rotation_z(phi), rotation_y(theta)), boost_z(math.log(k.energy)))


def wigner_angle(lam: LorentzMatrix, p: FourMomentum) -> float:
    p_out = array(lam) @ as_array(p)
    assert p_out[0] > 0.0
    l_in = _standard_transform(p)
    l_out = _standard_transform(momentum(p_out))
    w = array(inverse(l_out)) @ array(lam) @ array(l_in)
    assert np.max(np.abs(w @ K_REF - K_REF)) <= _TOL
    xi = math.atan2(w[2, 1], w[1, 1])
    if xi <= -math.pi:
        xi = math.pi
    a, b = w[1, 0], w[2, 0]
    z = 0.5 * (a * a + b * b)
    null_translation = np.array(
        [[1.0 + z, a, b, -z], [a, 1.0, 0.0, -a], [b, 0.0, 1.0, -b], [z, a, b, 1.0 - z]])
    rz = array(rotation_z(xi))
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


def rk4_rfft(spec, c_diff, d_drift, lambda_span, grid_n):
    """`diffusion._rk4_rfft` with each stage and the update written as one expression."""
    m_max = grid_n // 2
    m = np.arange(m_max + 1, dtype=float)
    lam = -c_diff * m**2 - 1j * d_drift * m
    if grid_n % 2 == 0:
        lam[-1] = 0.0
    stiff = c_diff * m_max**2 + abs(d_drift) * m_max
    n_steps = max(64, int(lambda_span * stiff / 2.0) + 1)
    dt = lambda_span / n_steps
    for _ in range(n_steps):
        k1 = lam * spec
        k2 = lam * (spec + 0.5 * dt * k1)
        k3 = lam * (spec + 0.5 * dt * k2)
        k4 = lam * (spec + dt * k3)
        spec = spec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return spec, n_steps
