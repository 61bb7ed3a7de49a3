"""Reference copies of the Wigner-angle, transport and equivariance kernels.

These are the straightforward formulations the library kernels were first
written in: the little-group decomposition as a product of validated
`LorentzMatrix` objects, the RK4 transport on a numpy state vector with
`np.cross`, and the diffusion equivariance witness as two separate RK4 solves
on the grid.  The library now computes the same quantities on raw arrays and
floats, and advances both witness paths as one spectral state;
`test_reference_equivalence.py` holds the two to agreement.  The Lorentz
helpers below build each transform as a validated `LorentzMatrix` from a raw
array, apart from the library's raw-array path.
"""

import math

import numpy as np

from relqopt.gravitomagnetism import RayState
from relqopt.wigner import ETA, K_REF, FourMomentum, LorentzMatrix, direction_angles

_TOL = 1e-10


def rotation_y(angle: float) -> LorentzMatrix:
    return LorentzMatrix.rotation((0.0, 1.0, 0.0), angle)


def boost_z(rapidity: float) -> LorentzMatrix:
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return LorentzMatrix(np.array(
        [[ch, 0.0, 0.0, sh], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [sh, 0.0, 0.0, ch]]))


def inverse(lam: LorentzMatrix) -> LorentzMatrix:
    # metric transpose: exact inverse for any Lorentz matrix
    return LorentzMatrix(ETA @ lam.matrix.T @ ETA)


def momentum(arr) -> FourMomentum:
    """The null four-momentum whose (t, x, y, z) components are `arr`."""
    return FourMomentum(float(arr[0]), tuple(float(x) for x in arr[1:4]))


def _standard_transform(k: FourMomentum) -> LorentzMatrix:
    theta, phi = direction_angles(k.khat)
    rotation = LorentzMatrix.rotation_z(phi) @ rotation_y(theta)
    return rotation @ boost_z(math.log(k.energy))


def wigner_angle(lam: LorentzMatrix, p: FourMomentum) -> float:
    p_out = lam.apply(p.as_array())
    assert p_out[0] > 0.0
    l_in = _standard_transform(p)
    l_out = _standard_transform(momentum(p_out))
    w = inverse(l_out).matrix @ lam.matrix @ l_in.matrix
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


def _rotate_grid(values, angle):
    n = values.size
    spec = np.fft.rfft(values)
    m = np.arange(spec.size)
    return np.fft.irfft(spec * np.exp(-1j * m * angle), n=n)


def equivariance_check(model, rho0, rotation, lambda_span, grid_n=256,
                       coefficient_samplers=None):
    """Evolve-then-rotate against rotate-then-evolve, one grid RK4 solve each."""
    model.validate()
    v0 = rho0.to_grid(grid_n)
    h = 2.0 * math.pi / grid_n
    if lambda_span == 0.0:
        return 0.0
    beta = np.arange(grid_n) * h
    if coefficient_samplers is None:
        params = model.equator_params()
        c_arr = np.full(grid_n, params.c_diff)
        d_arr = np.full(grid_n, params.d_drift)
    else:
        c_fn, d_fn = coefficient_samplers
        c_arr = np.asarray([float(c_fn(b)) for b in beta])
        d_arr = np.asarray([float(d_fn(b)) for b in beta])

    m_max = grid_n // 2
    ik = 1j * np.arange(m_max + 1)

    def d_beta(v):
        return np.fft.irfft(ik * np.fft.rfft(v), n=grid_n)

    def rhs(v):
        return d_beta(c_arr * d_beta(v) - d_arr * v)

    stiff = float(c_arr.max()) * m_max**2 + abs(d_arr).max() * m_max
    n_steps = max(64, int(lambda_span * stiff / 2.0) + 1)
    dt = lambda_span / n_steps

    def evolve(v):
        v = v.copy()
        for _ in range(n_steps):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * dt * k1)
            k3 = rhs(v + 0.5 * dt * k2)
            k4 = rhs(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return v

    path_a = _rotate_grid(evolve(v0), rotation)
    path_b = evolve(_rotate_grid(v0, rotation))
    return float(np.sum(np.abs(path_a - path_b)) * h)
