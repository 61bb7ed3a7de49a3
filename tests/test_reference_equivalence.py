"""The library kernels agree with the reference formulations in reference_kernels.py."""

import math

import numpy as np
import pytest

import reference_kernels as ref
from relqopt.constants import C_LIGHT, EARTH, GRAVITATIONAL_G
from relqopt.diffusion import BlochTensorModel, CircleDensity, equivariance_check
from relqopt.gravitomagnetism import GravField, RayState, transport_ray
from relqopt.wigner import FourMomentum, LorentzMatrix, wigner_angle

TOL = 1e-12


def _unit(v):
    return v / np.linalg.norm(v)


def _criterion_4_geometries():
    """The 1000 boosts and photons of test_criterion_04, drawn in the same order."""
    rng = np.random.default_rng(20260815)
    for _ in range(1000):
        theta = rng.uniform(0.0, 0.5 * math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        theta_b = rng.uniform(0.0, math.pi)
        phi_b = rng.uniform(0.0, 2.0 * math.pi)
        beta = rng.uniform(1e-4, 1e-3)
        khat = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                math.cos(theta))
        bvec = (beta * math.sin(theta_b) * math.cos(phi_b),
                beta * math.sin(theta_b) * math.sin(phi_b), beta * math.cos(theta_b))
        yield LorentzMatrix.boost(bvec), FourMomentum(1.0, khat)


def _fast_boost_geometries(n=500):
    """Boosts up to |beta| = 0.99 composed with rotations, photons of energy 0.5 to 2."""
    rng = np.random.default_rng(4417)
    for _ in range(n):
        boost = LorentzMatrix.boost(_unit(rng.normal(size=3)) * rng.uniform(0.0, 0.99))
        rotation = LorentzMatrix.rotation(rng.normal(size=3), rng.uniform(-math.pi, math.pi))
        energy = rng.uniform(0.5, 2.0)
        yield ref.product(boost, rotation), FourMomentum(
            energy, tuple(energy * _unit(rng.normal(size=3))))


@pytest.mark.parametrize("geometries", [_criterion_4_geometries, _fast_boost_geometries],
                         ids=["criterion_4", "fast_boosts"])
def test_wigner_angle_matches_reference(geometries):
    worst = max(abs(wigner_angle(lam, p) - ref.wigner_angle(lam, p))
                for lam, p in geometries())
    assert worst <= TOL


_LT = GRAVITATIONAL_G / C_LIGHT**3
_EG = GRAVITATIONAL_G * EARTH.mass / C_LIGHT**2


def _lense_thirring(pos):
    """Earth's gravitomagnetic dipole (spin along +z) and Newtonian E_g."""
    x, y, z = (float(v) for v in pos)
    r2 = x * x + y * y + z * z
    r = math.sqrt(r2)
    w = _LT / (r2 * r)
    jr = 3.0 * EARTH.angular_momentum * z / r2
    g = -_EG / (r2 * r)
    return GravField(omega=(w * jr * x, w * jr * y, w * (jr * z - EARTH.angular_momentum)),
                     eg=(g * x, g * y, g * z))


def _strong_field(pos):
    return GravField(omega=(0.03 * math.cos(0.05 * pos[1]), 0.01, 0.02 * math.sin(0.04 * pos[0])),
                     eg=(1e-4, 0.0, -2e-4))


def _rays(rng, n, radius):
    for _ in range(n):
        k = _unit(rng.normal(size=3))
        f = _unit(np.cross(k, rng.normal(size=3)))
        yield RayState(tuple(radius * _unit(rng.normal(size=3))), tuple(k), tuple(f))


@pytest.mark.parametrize("sampler, radius, length, steps", [
    (_lense_thirring, EARTH.radius + 800e3, 1.5e6, 8),
    (_strong_field, 0.0, 50.0, 50),
], ids=["lense_thirring", "strong_field"])
def test_transport_ray_matches_reference(sampler, radius, length, steps):
    rng = np.random.default_rng(907)
    for start in _rays(rng, 40, radius):
        got = transport_ray(start, sampler, length, steps)
        want = ref.transport_ray(start, sampler, length, steps)
        assert np.max(np.abs(np.subtract(got.khat, want.khat))) <= TOL
        assert np.max(np.abs(np.subtract(got.fhat, want.fhat))) <= TOL
        scale = max(np.linalg.norm(want.position), length)
        assert np.linalg.norm(np.subtract(got.position, want.position)) <= TOL * scale
        assert got.lam == want.lam


def _constant(value):
    return lambda theta: value


def _witness_cases(n=50, grid_n=256):
    """Constant-coefficient models over the diffusion_witness ranges: c in [0.004, 0.02],
    d in [-0.4, 0.4], 32 to 126 modes, lambda giving log-uniform 100 to 1000 RK4 steps."""
    rng = np.random.default_rng(5203)
    m_max = grid_n // 2
    for _ in range(n):
        c = rng.uniform(0.004, 0.02)
        d = rng.uniform(-0.4, 0.4)
        k_aa = c * rng.uniform(0.5, 2.0)
        k_ab = rng.uniform(-0.5, 0.5) * math.sqrt(k_aa * c)
        model = BlochTensorModel(
            k_tensor=_constant(np.array([[k_aa, k_ab], [k_ab, c]])),
            u_vector=_constant(np.array([rng.uniform(-0.5, 0.5), d])),
            density_of_states=lambda theta: math.sin(theta) + 1e-2,
        )
        rho0 = CircleDensity.wrapped_gaussian(rng.uniform(0.0, 2.0 * math.pi),
                                              rng.uniform(0.3, 1.2),
                                              modes=int(rng.integers(32, 127)))
        steps = 10 ** rng.uniform(2.0, 3.0)
        lam = 2.0 * steps / (c * m_max**2 + abs(d) * m_max)
        yield model, rho0, rng.uniform(0.0, 2.0 * math.pi), lam


def test_equivariance_check_matches_reference_on_constant_models():
    devs = [(equivariance_check(*case), ref.equivariance_check(*case))
            for case in _witness_cases()]
    assert len(devs) >= 50
    assert max(abs(got - want) for got, want in devs) <= TOL
    assert max(want for _, want in devs) <= 1e-9


@pytest.mark.parametrize("grid_n", [256, 255, 130])
def test_equivariance_check_matches_reference_with_azimuth_dependent_coefficients(grid_n):
    model, _, _, _ = next(_witness_cases(1))
    rho0 = CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.5, modes=60)
    samplers = (lambda b: 0.05 * (1.0 + 0.5 * math.cos(b)),
                lambda b: 0.3 + 0.1 * math.sin(2.0 * b))
    got = equivariance_check(model, rho0, 0.9, 0.5, grid_n=grid_n,
                             coefficient_samplers=samplers)
    want = ref.equivariance_check(model, rho0, 0.9, 0.5, grid_n=grid_n,
                                  coefficient_samplers=samplers)
    assert want > 1e-4
    assert abs(got - want) <= TOL
