import math

import numpy as np
import pytest

from fd_oracle import evolve_fd, gaussian_l1_difference
from relqopt.constants import C_LIGHT, PLANCK_H
from relqopt.diffusion import (
    BlochTensorModel,
    CircleDensity,
    DiffusionParams,
    affine_parameter,
    angle_shift,
    diffusion_bound_from_decay,
    drift_bound_from_angle,
    equivariance_check,
    evolve_equator,
    polarization_decay,
)
from relqopt.errors import DomainError

LEO_T = 400e3 / C_LIGHT
LEO_NU = 3.75e14


def _constant_model(c_diff=0.05, d_drift=0.3):
    return BlochTensorModel(
        k_tensor=lambda th: np.diag([c_diff, c_diff]),
        u_vector=lambda th: np.array([0.0, d_drift]),
        density_of_states=lambda th: math.sin(th) + 1e-3,
    )


# ----------------------------------------------------------- circle density


def _uniform(modes):
    return CircleDensity(np.r_[1.0 / (2.0 * math.pi), np.zeros(modes)])


def test_uniform_density_is_stationary():
    rho = _uniform(32)
    for c, d in ((0.0, 0.0), (0.5, 0.0), (0.0, 2.0), (0.3, -1.0)):
        out = evolve_equator(rho, DiffusionParams(c, d), 5.0)
        assert np.allclose(out.coefficients, rho.coefficients, atol=1e-15)


def test_density_refuses_empty_coefficients_and_a_coarse_grid():
    with pytest.raises(DomainError, match=r"^coefficients must be a 1-d array$"):
        CircleDensity([])
    rho = _uniform(8)
    rho.to_grid(18)
    with pytest.raises(DomainError, match=r"^grid too coarse for the spectral content$"):
        rho.to_grid(17)


def test_density_normalization_enforced():
    bad = np.zeros(5, dtype=complex)
    bad[0] = 1.0  # should be 1/(2 pi)
    with pytest.raises(DomainError):
        CircleDensity(bad)


def test_negative_density_rejected():
    c = np.zeros(3, dtype=complex)
    c[0] = 1.0 / (2.0 * math.pi)
    c[1] = 0.6 / (2.0 * math.pi)  # |rho_1| too large: density dips negative
    with pytest.raises(DomainError):
        CircleDensity(c)


def test_density_rejects_non_finite_coefficients():
    c = CircleDensity.wrapped_gaussian(mean=0.3, sigma=0.5, modes=32).coefficients
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        c_bad = c.copy()
        c_bad[3] = bad
        with pytest.raises(DomainError):
            CircleDensity(c_bad)
    c_bad = c.copy()
    c_bad[0] = math.nan
    with pytest.raises(DomainError):
        CircleDensity(c_bad)
    # text, None and an int past the float range are not numbers either
    for coefficients in ([repr(1.0 / (2.0 * math.pi)), "0"], [c[0], None], [c[0], 10**400]):
        with pytest.raises(DomainError, match=r"^coefficients must be finite$"):
            CircleDensity(coefficients)


def test_a_validated_density_cannot_be_changed():
    given = CircleDensity.wrapped_gaussian(mean=0.3, sigma=0.5, modes=16).coefficients.copy()
    rho = CircleDensity(given)
    with pytest.raises(ValueError, match="read-only"):
        rho.coefficients[0] = 5.0
    for change in (lambda: setattr(rho, "coefficients", "text"),
                   lambda: delattr(rho, "coefficients"), lambda: setattr(rho, "modes", 3)):
        with pytest.raises(AttributeError, match="^CircleDensity is immutable"):
            change()
    assert np.array_equal(rho.coefficients, given) and rho.modes == 16
    # densities compare by identity; the caller's array is copied, not frozen
    assert rho == rho and rho != CircleDensity(given)
    given[0] = 5.0
    assert rho.coefficients[0] != 5.0


@pytest.mark.parametrize("mean, sigma", [
    (math.nan, 0.5), (math.inf, 0.5), (0.0, math.nan), (0.0, math.inf), (0.0, 0.0),
])
def test_wrapped_gaussian_rejects_non_finite_parameters(mean, sigma):
    with pytest.raises(DomainError):
        CircleDensity.wrapped_gaussian(mean=mean, sigma=sigma, modes=8)


@pytest.mark.parametrize("modes", [8.5, 8.0, np.float64(8.0), True, "8"],
                         ids=["fraction", "float", "numpy_float", "bool", "str"])
def test_wrapped_gaussian_requires_an_integer_mode_count(modes):
    with pytest.raises(DomainError):
        CircleDensity.wrapped_gaussian(mean=0.0, sigma=1.0, modes=modes)


@pytest.mark.parametrize("n", [64.0, np.float64(64.0), True, "64"],
                         ids=["float", "numpy_float", "bool", "str"])
def test_to_grid_requires_an_integer_point_count(n):
    rho = CircleDensity.wrapped_gaussian(mean=0.0, sigma=1.0, modes=8)
    assert rho.to_grid(np.int64(64)).shape == (64,)
    with pytest.raises(DomainError):
        rho.to_grid(n)


def test_wrapped_gaussian_accepts_numpy_integer_mode_count():
    rho = CircleDensity.wrapped_gaussian(mean=0.3, sigma=1.0, modes=np.int64(8))
    assert rho.modes == 8
    assert np.array_equal(
        rho.coefficients, CircleDensity.wrapped_gaussian(mean=0.3, sigma=1.0, modes=8).coefficients)


def test_grid_round_trip():
    rho = CircleDensity.wrapped_gaussian(mean=-0.7, sigma=0.5, modes=64)
    grid = rho.to_grid(512)
    back = np.fft.rfft(grid)[:65] / grid.size
    assert np.allclose(back, rho.coefficients, atol=1e-12)
    assert grid.mean() * 2.0 * math.pi == pytest.approx(1.0, abs=1e-12)


def _mean_resultant(rho):
    """<e^{i beta}> = 2 pi conj(rho_1): the circular mean and resultant length."""
    r = 2.0 * math.pi * complex(rho.coefficients[1]).conjugate()
    return math.atan2(r.imag, r.real), abs(r)


def test_circular_mean_and_resultant():
    rho = CircleDensity.wrapped_gaussian(mean=1.1, sigma=0.4, modes=64)
    mean, resultant = _mean_resultant(rho)
    assert mean == pytest.approx(1.1, abs=1e-10)
    assert resultant == pytest.approx(math.exp(-0.5 * 0.4**2), rel=1e-10)
    assert _mean_resultant(_uniform(8))[1] == 0.0


# -------------------------------------------------------------- evolution


def test_pure_drift_is_rigid_rotation():
    rho = CircleDensity.wrapped_gaussian(mean=0.4, sigma=0.3, modes=128)
    d, lam = 0.8, 2.5
    out = evolve_equator(rho, DiffusionParams(0.0, d), lam)
    expected = CircleDensity.wrapped_gaussian(mean=0.4 + d * lam, sigma=0.3, modes=128)
    assert np.allclose(out.coefficients, expected.coefficients, atol=1e-14)
    # moments preserved under pure drift
    assert _mean_resultant(out)[1] == pytest.approx(_mean_resultant(rho)[1], rel=1e-14)


def test_probability_is_conserved():
    rho = CircleDensity.wrapped_gaussian(mean=0.0, sigma=0.25, modes=128)
    out = evolve_equator(rho, DiffusionParams(0.7, -0.4), 3.0)
    assert out.coefficients[0] == rho.coefficients[0]
    assert abs(2.0 * math.pi * out.coefficients[0] - 1.0) < 1e-12
    grid = out.to_grid(1024)
    assert grid.mean() * 2.0 * math.pi == pytest.approx(1.0, abs=1e-12)


def test_mode_magnitudes_non_increasing():
    rho = CircleDensity.wrapped_gaussian(mean=0.2, sigma=0.3, modes=64)
    params = DiffusionParams(0.05, 1.3)
    lams = [0.0, 0.1, 0.5, 2.0]
    evolved = [evolve_equator(rho, params, lam) for lam in lams]
    for earlier, later in zip(evolved, evolved[1:]):
        assert np.all(np.abs(later.coefficients) <= np.abs(earlier.coefficients) + 1e-15)


def test_mean_drifts_at_drift_rate():
    rho = CircleDensity.wrapped_gaussian(mean=0.15, sigma=0.2, modes=128)
    d, lam = 0.6, 1.7
    out = evolve_equator(rho, DiffusionParams(0.01, d), lam)
    shift = (_mean_resultant(out)[0] - _mean_resultant(rho)[0]) % (2.0 * math.pi)
    assert shift == pytest.approx((d * lam) % (2.0 * math.pi), abs=1e-8)


def test_resultant_decay_matches_depolarization_exponent():
    rho = CircleDensity.wrapped_gaussian(mean=0.0, sigma=0.3, modes=64)
    c_diff = 0.12
    t, nu = 1.3e-3, 3.75e14
    # reduced-time convention: lambda = 4t/nu makes exp(-c lambda) = exp(-mu)
    lam = 4.0 * t / nu
    out = evolve_equator(rho, DiffusionParams(c_diff, 0.0), lam)
    mu = polarization_decay(t, nu, c_diff)
    ratio = _mean_resultant(out)[1] / _mean_resultant(rho)[1]
    assert ratio == pytest.approx(math.exp(-mu), rel=1e-12)


def test_spectral_solution_matches_finite_difference_oracle():
    assert gaussian_l1_difference() <= 1e-4


def test_oracle_itself_handles_pure_drift():
    # sanity on the oracle: pure drift rigidly translates the profile
    rho = CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.5, modes=128)
    n = 2048
    v0 = rho.to_grid(n)
    d, lam = 0.5, 0.2
    fd = evolve_fd(v0, 0.0, d, lam)
    expected = CircleDensity.wrapped_gaussian(mean=1.0 + d * lam, sigma=0.5, modes=128).to_grid(n)
    h = 2.0 * math.pi / n
    assert float(np.sum(np.abs(fd - expected)) * h) < 5e-3  # first-order upwind


# ---------------------------------------------------------- reduced forms


def test_affine_parameter():
    assert affine_parameter(0.0, 1e14) == 0.0
    assert affine_parameter(1.0, 1e14) == pytest.approx(1.0 / (PLANCK_H * 1e14), rel=1e-15)
    with pytest.raises(DomainError):
        affine_parameter(1.0, 0.0)


def test_effective_exposure_leo():
    # t/nu exposure for a 400 km light time at 800 nm
    assert angle_shift(LEO_T, LEO_NU, 1.0) == pytest.approx(3.56e-18, rel=1e-2)
    assert angle_shift(0.0, LEO_NU, 4e-8) == 0.0


def test_doubling_frequency_halves_rates():
    t, d, c = 2.0, 3e-8, 2e-9
    assert angle_shift(t, 2 * LEO_NU, d) == pytest.approx(0.5 * angle_shift(t, LEO_NU, d), rel=1e-15)
    assert polarization_decay(t, 2 * LEO_NU, c) == pytest.approx(0.5 * polarization_decay(t, LEO_NU, c), rel=1e-15)


def test_leo_forecasts():
    assert angle_shift(LEO_T, LEO_NU, 4e-8) == pytest.approx(1.4e-25, rel=0.05)
    assert polarization_decay(LEO_T, LEO_NU, 2e-9) == pytest.approx(2.8e-26, rel=0.05)
    assert polarization_decay(0.0, LEO_NU, 2e-9) == 0.0


def test_cmb_inversions():
    t, nu = 4.35e17, 1.6e11
    d = drift_bound_from_angle(0.1, t, nu)
    c = diffusion_bound_from_decay(0.025, t, nu)
    assert d == pytest.approx(3.7e-8, rel=0.01)
    assert c == pytest.approx(2.3e-9, rel=0.01)


def test_bounds_invert_forecasts():
    rng = np.random.default_rng(61)
    for _ in range(40):
        t = rng.uniform(1e-3, 1e18)
        nu = rng.uniform(1e9, 1e15)
        d = rng.uniform(1e-30, 1e-7)
        c = rng.uniform(1e-30, 1e-8)
        assert drift_bound_from_angle(angle_shift(t, nu, d), t, nu) == pytest.approx(d, rel=1e-12)
        assert diffusion_bound_from_decay(polarization_decay(t, nu, c), t, nu) == pytest.approx(c, rel=1e-12)


# ------------------------------------------------------------ equivariance


def test_valid_model_is_rotation_equivariant():
    model = _constant_model()
    rho0 = CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.5, modes=64)
    dev = equivariance_check(model, rho0, rotation=0.9, lambda_span=0.5)
    assert dev <= 1e-9


def test_zero_span_gives_zero_deviation():
    model = _constant_model()
    rho0 = CircleDensity.wrapped_gaussian(mean=0.0, sigma=0.5, modes=64)
    assert equivariance_check(model, rho0, rotation=1.2, lambda_span=0.0) == 0.0


def test_model_validation_rejects_bad_tensors():
    with pytest.raises(DomainError):
        BlochTensorModel(
            k_tensor=lambda th: np.array([[1.0, 0.2], [0.0, 1.0]]),  # asymmetric
            u_vector=lambda th: np.zeros(2),
            density_of_states=lambda th: 1.0,
        ).validate()
    with pytest.raises(DomainError):
        BlochTensorModel(
            k_tensor=lambda th: np.diag([1.0, -0.5]),  # not PSD
            u_vector=lambda th: np.zeros(2),
            density_of_states=lambda th: 1.0,
        ).validate()
    with pytest.raises(DomainError, match="positive semidefinite"):
        BlochTensorModel(
            k_tensor=lambda th: [[1, 2], [2, 1]],  # positive diagonal, eigenvalues 3 and -1
            u_vector=lambda th: np.zeros(2),
            density_of_states=lambda th: 1.0,
        ).validate()
    with pytest.raises(DomainError):
        BlochTensorModel(
            k_tensor=lambda th, phi: np.eye(2),  # azimuth argument: not polar-only
            u_vector=lambda th: np.zeros(2),
            density_of_states=lambda th: 1.0,
        ).validate()


_K_MESSAGE = r"^k_tensor must return a finite symmetric 2x2 tensor$"
_U_MESSAGE = r"^u_vector must return a finite 2-vector$"
_N_MESSAGE = r"^density_of_states must be positive and finite$"


@pytest.mark.parametrize("k, u, n, message", [
    ([[1.0, 0.0], [0.0]], [0.0, 0.0], 1.0, _K_MESSAGE),
    ([["a", 0.0], [0.0, 1.0]], [0.0, 0.0], 1.0, _K_MESSAGE),
    ([[1j, 0.0], [0.0, 1.0]], [0.0, 0.0], 1.0, _K_MESSAGE),
    ([["1", "0"], ["0", "1"]], [0.0, 0.0], 1.0, _K_MESSAGE),
    ([[10**400, 0], [0, 1]], [0.0, 0.0], 1.0, _K_MESSAGE),
    (np.eye(2), [0.0, [1]], 1.0, _U_MESSAGE),
    (np.eye(2), ("x", 1), 1.0, _U_MESSAGE),
    (np.eye(2), ("0", "0.5"), 1.0, _U_MESSAGE),
    (np.eye(2), (0, 10**400), 1.0, _U_MESSAGE),
    (np.eye(2), [0.0, 0.0], None, _N_MESSAGE),
    (np.eye(2), [0.0, 0.0], [1.0], _N_MESSAGE),
    (np.eye(2), [0.0, 0.0], "1", _N_MESSAGE),
], ids=["ragged_k", "text_k", "complex_k", "numeric_text_k", "huge_int_k", "ragged_u", "text_u",
        "numeric_text_u", "huge_int_u", "none_n", "list_n", "text_n"])
def test_model_validation_names_the_sampler_of_malformed_output(k, u, n, message):
    model = BlochTensorModel(k_tensor=lambda th: k, u_vector=lambda th: u,
                             density_of_states=lambda th: n)
    with pytest.raises(DomainError, match=message):
        model.validate()


def test_equator_params_extraction():
    params = _constant_model(c_diff=0.07, d_drift=-0.2).equator_params()
    assert params.c_diff == 0.07
    assert params.d_drift == -0.2
    with pytest.raises(DomainError):
        DiffusionParams(-1.0, 0.0)


def test_equator_params_read_no_text_as_a_number():
    # equator_params does not run validate; DiffusionParams holds each value to the rule
    model = BlochTensorModel(k_tensor=lambda th: [["0", "0"], ["0", "0.07"]],
                             u_vector=lambda th: ["0", "-0.2"], density_of_states=lambda th: 1.0)
    with pytest.raises(DomainError, match=r"^c_diff must be nonnegative and finite$"):
        model.equator_params()
    params = _constant_model(c_diff=0.07, d_drift=-0.2).equator_params()
    assert type(params.c_diff) is float and type(params.d_drift) is float


@pytest.mark.parametrize("c_diff, d_drift", [
    (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf), (0.1, -math.inf),
])
def test_diffusion_params_reject_non_finite(c_diff, d_drift):
    with pytest.raises(DomainError):
        DiffusionParams(c_diff, d_drift)


@pytest.mark.parametrize("span", [math.nan, math.inf, -1.0])
def test_evolve_rejects_non_finite_or_negative_span(span):
    rho = CircleDensity.wrapped_gaussian(mean=0.0, sigma=0.5, modes=16)
    with pytest.raises(DomainError):
        evolve_equator(rho, DiffusionParams(0.1, 0.2), span)


@pytest.mark.parametrize("rotation, span", [
    (0.9, math.nan), (0.9, math.inf), (0.9, -0.5), (math.nan, 0.5), (math.inf, 0.5),
])
def test_equivariance_check_rejects_non_finite_rotation_or_span(rotation, span):
    rho0 = CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.5, modes=16)
    with pytest.raises(DomainError):
        equivariance_check(_constant_model(), rho0, rotation=rotation, lambda_span=span)


@pytest.mark.parametrize("grid_n", [256.0, np.float64(256.0), True, "256"],
                         ids=["float", "numpy_float", "bool", "str"])
def test_equivariance_check_requires_an_integer_grid(grid_n):
    rho0 = CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.5, modes=16)
    with pytest.raises(DomainError):
        equivariance_check(_constant_model(), rho0, rotation=0.9, lambda_span=0.01,
                           grid_n=grid_n)


def test_equivariance_check_accepts_numpy_integer_grid():
    rho0 = CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.5, modes=16)
    args = (_constant_model(), rho0, 0.9, 0.01)
    assert (equivariance_check(*args, grid_n=np.int64(64))
            == equivariance_check(*args, grid_n=64))


@pytest.mark.parametrize("model", [
    BlochTensorModel(k_tensor=lambda th: np.diag([math.inf, math.inf]),
                     u_vector=lambda th: np.array([0.0, 0.3]),
                     density_of_states=lambda th: 1.0),
    BlochTensorModel(k_tensor=lambda th: np.diag([0.05, math.nan]),
                     u_vector=lambda th: np.array([0.0, 0.3]),
                     density_of_states=lambda th: 1.0),
    BlochTensorModel(k_tensor=lambda th: np.diag([0.05, 0.05]),
                     u_vector=lambda th: np.array([0.0, math.nan]),
                     density_of_states=lambda th: 1.0),
    BlochTensorModel(k_tensor=lambda th: np.diag([0.05, 0.05]),
                     u_vector=lambda th: np.array([0.0, math.inf]),
                     density_of_states=lambda th: 1.0),
    BlochTensorModel(k_tensor=lambda th: np.diag([0.05, 0.05]),
                     u_vector=lambda th: np.array([0.0, 0.3]),
                     density_of_states=lambda th: math.inf),
], ids=["k_inf", "k_bb_nan", "u_b_nan", "u_b_inf", "density_inf"])
def test_equivariance_check_rejects_non_finite_equator_coefficients(model):
    rho0 = CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.5, modes=16)
    with pytest.raises(DomainError):
        equivariance_check(model, rho0, rotation=0.9, lambda_span=0.5)
