"""The library kernels agree with the reference formulations in reference_kernels.py,
the diffusion witness's RK4 bit for bit, and that RK4 with the exact solution."""

import math

import numpy as np
import pytest

import reference_kernels as ref
from relqopt.constants import C_LIGHT, EARTH, GRAVITATIONAL_G
from relqopt.diffusion import BlochTensorModel, CircleDensity, _rk4_rfft
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


# The witness's RK4 helper against the exact solution.  On rfft states it
# multiplies mode m by R(z)^n, n steps of z = dt lambda_m, where
# lambda_m = -c m^2 - i d m (0 at the Nyquist mode of an even grid, which the
# helper holds fixed) and R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  The exact
# factor is e^{nz}, and each mode's error is bounded by two terms:
# - truncation: |e^z - R(z)| <= |z|^5/120 e^|z| (the tail of the exponential
#   series), and |R(z)|, |e^z| <= 1 on the half-disc |z| <= 2, Re z <= 0 that
#   the step rule keeps every z in, so |e^{nz} - R(z)^n| <= n |e^z - R(z)|;
# - rounding, with ||.|| the l2 norm over all N modes of the full spectrum and
#   u = 2^-53.  A stage dt*rhs(W) = dt lambda_m W_m is diagonal.  Per mode it
#   rounds lambda_m (each part once, u), the complex product lambda_m W_m
#   (sqrt(2) gamma_2 < 3u; Higham, Accuracy and Stability of Numerical
#   Algorithms, 2nd ed., Lemma 3.5), the scale by dt or dt/2 (u) and the sum
#   that forms W (u), each under a gain |dt lambda_m| <= 2, so it errs by at
#   most 2 * 6u |W_m|, and by at most 2 * 6u ||W|| in l2.  The bound below
#   keeps the term of a stage made with one irfft and one rfft instead,
#   2 (2 log2(N) eta + 6u) ||W||, where one FFT of length N errs by at most
#   log2(N) eta relative in l2, eta = 6.7u (Higham, Thm 24.2).  It is larger,
#   so it remains a valid upper bound.  For |z| <= 2 the four stage inputs
#   have ||W|| <= (1, 2, 3, 7) ||V||, and a stage error reaches the step with
#   weight (7, 6, 4, 1)/6, 38/6 in all.  With 30u ||V|| for the
#   update's own sums, to first order a step errs by at most kappa(N) u ||V||,
#   kappa(N) = 38/6 * 2 (2 log2(N) eta/u + 6) + 30 (1464 at N = 256).  Since
#   |R(z)| <= 1 these errors do not grow, and ||V0|| <= sqrt(N) max|V0_m|, so
#   each mode is off by at most n kappa(N) u sqrt(N) max|V0_m|.
# The bound holds for the state as a complex spectrum, the Nyquist mode
# included; a grid comparison would hide that mode, as irfft drops its
# imaginary part.


def _kappa(grid_n):
    return 38.0 / 6.0 * 2.0 * (2.0 * math.log2(grid_n) * 6.7 + 6.0) + 30.0


def _rk4_error_over_bound(v0, c_diff, d_drift, lambda_span, grid_n):
    """Largest |RK4 - exact| / bound over the modes of rfft states v0."""
    got, n = _rk4_rfft(v0, c_diff, d_drift, lambda_span, grid_n)
    m = np.arange(grid_n // 2 + 1)
    lam = -c_diff * m.astype(float) ** 2 - 1j * d_drift * m
    if grid_n % 2 == 0:
        lam[-1] = 0.0
    z = (lambda_span / n) * lam
    assert np.abs(z).max() <= 2.0 and z.real.max() <= 0.0
    truncation = n * np.abs(z) ** 5 / 120.0 * np.exp(np.abs(z)) * np.abs(v0)
    rounding = (n * _kappa(grid_n) * 2.0**-53 * math.sqrt(grid_n)
                * np.abs(v0).max(axis=-1, keepdims=True))
    return float(np.max(np.abs(got - v0 * np.exp(n * z)) / (truncation + rounding)))


def _witness_states():
    """The 50 witness cases as the witness hands them to its RK4: the (2, 129) rfft state
    of its two paths, c, d and lambda."""
    for model, rho0, rotation, lambda_span in _witness_cases():
        params = model.equator_params()
        v = np.fft.rfft(rho0.to_grid(256))
        v0 = np.stack([v, v * np.exp(-1j * np.arange(v.size) * rotation)])
        yield v0, params.c_diff, params.d_drift, lambda_span


def _top_mode_state(grid_n):
    """A 1-d rfft state of white noise, its top mode excited, with the first witness model."""
    model, _, _, lambda_span = next(_witness_cases(1, grid_n))
    params = model.equator_params()
    v0 = np.fft.rfft(np.random.default_rng(grid_n).standard_normal(grid_n))
    return v0, params.c_diff, params.d_drift, lambda_span


def test_witness_rk4_meets_exact_solution_on_witness_models():
    ratios = [_rk4_error_over_bound(v0, c, d, lam, 256) for v0, c, d, lam in _witness_states()]
    assert len(ratios) == 50
    assert max(ratios) <= 1.0


@pytest.mark.parametrize("grid_n", [256, 255])
def test_witness_rk4_meets_exact_solution_with_top_mode_excited(grid_n):
    v0, c_diff, d_drift, lambda_span = _top_mode_state(grid_n)
    assert abs(v0[-1]) >= 1.0
    assert _rk4_error_over_bound(v0, c_diff, d_drift, lambda_span, grid_n) <= 1.0


def _stage_form_cases(name):
    if name == "witness_models":
        return [(*state, 256) for state in _witness_states()]
    if name == "step_floor":  # a hundredth of the first span: the step rule asks for < 64
        v0, c_diff, d_drift, lambda_span = next(_witness_states())
        return [(v0, c_diff, d_drift, lambda_span / 100.0, 256)]
    grid_n = int(name.removeprefix("top_mode_"))
    return [(*_top_mode_state(grid_n), grid_n)]


# The rounding bound above counts the roundings of the stage form in reference_kernels.py,
# in its order; the library's RK4 must stay that form bit for bit.  It runs in buffers
# of its own: the caller's state is copied once, never written, and may be read-only.
@pytest.mark.parametrize("name", ["witness_models", "top_mode_256", "top_mode_255", "step_floor"])
def test_witness_rk4_equals_its_stage_form_bit_for_bit(name):
    for v0, c_diff, d_drift, lambda_span, grid_n in _stage_form_cases(name):
        before = v0.copy()
        got, n = _rk4_rfft(v0, c_diff, d_drift, lambda_span, grid_n)
        assert np.array_equal(v0.view(np.uint64), before.view(np.uint64))
        v0.flags.writeable = False
        again, _ = _rk4_rfft(v0, c_diff, d_drift, lambda_span, grid_n)
        assert np.array_equal(again.view(np.uint64), got.view(np.uint64))
        want, want_n = ref.rk4_rfft(v0, c_diff, d_drift, lambda_span, grid_n)
        assert n == want_n
        assert (n == 64) == (name == "step_floor")
        assert got.shape == want.shape
        # as raw 64-bit words, so that a moved sign of zero or NaN payload fails too
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
