import cmath
import math

import numpy as np
import pytest

from reference_kernels import boost_z, inverse, momentum, rotation_y
from relqopt.constants import C_LIGHT
from relqopt.errors import DomainError
from relqopt.wigner import (
    ETA,
    K_REF,
    FourMomentum,
    LorentzMatrix,
    TwoPhotonState,
    apply_helicity_phase,
    concurrence,
    diffraction_transform,
    direction_angles,
    _standard_matrix,
    first_order_boost_phase,
    wigner_angle,
)


def _frame(khat, energy=1.0):
    """The standard transform L(k) = Rz(phi) Ry(theta) Bz(ln energy), validated;
    at energy 1 it is the standard rotation R(khat)."""
    return LorentzMatrix(_standard_matrix(np.asarray(khat, dtype=float), energy))


def _transform(p):
    return _frame(p.khat, p.energy)


def _random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_rotation(rng):
    return LorentzMatrix.rotation(_random_direction(rng), rng.uniform(-math.pi, math.pi))


def _random_boost(rng, beta_max=0.9):
    return LorentzMatrix.boost(_random_direction(rng) * rng.uniform(0.0, beta_max))


# ---------------------------------------------------------------- rotations


def test_standard_rotation_of_z_axis_is_identity():
    assert np.allclose(_frame([0.0, 0.0, 1.0]).matrix, np.eye(4), atol=1e-15)


def test_standard_rotation_of_x_axis():
    expected = rotation_y(0.5 * math.pi)
    assert np.allclose(_frame([1.0, 0.0, 0.0]).matrix, expected.matrix, atol=1e-15)


def test_standard_rotation_carries_z_onto_direction():
    k = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    r = _frame(k)
    assert np.allclose(r.matrix[1:, 3], k, atol=1e-14)
    # explicit Rz(phi) Ry(theta) product
    theta, phi = direction_angles(k)
    explicit = LorentzMatrix.rotation_z(phi) @ rotation_y(theta)
    assert np.allclose(r.matrix, explicit.matrix, atol=1e-14)


def test_standard_transform_examples():
    assert np.allclose(_transform(momentum(K_REF)).matrix,
                       np.eye(4), atol=1e-12)
    doubled = _transform(FourMomentum(2.0, (0.0, 0.0, 2.0)))
    assert np.allclose(doubled.matrix, boost_z(math.log(2.0)).matrix, atol=1e-12)
    along_x = _transform(FourMomentum(1.0, (1.0, 0.0, 0.0)))
    assert np.allclose(along_x.matrix, _frame([1.0, 0.0, 0.0]).matrix, atol=1e-12)


def test_standard_transform_maps_reference_momentum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = _random_direction(rng) * rng.uniform(0.1, 10.0)
        p = FourMomentum(float(np.linalg.norm(k)), tuple(k))
        assert np.allclose(_transform(p).apply(K_REF), p.as_array(), rtol=1e-12, atol=1e-12)


def test_metric_preservation_of_generated_matrices():
    rng = np.random.default_rng(4)
    for _ in range(60):
        lam = (_random_rotation(rng) @ _random_boost(rng) @ _random_rotation(rng))
        m = lam.matrix
        assert np.allclose(m.T @ ETA @ m, ETA, atol=1e-9)
        assert abs(np.linalg.det(m) - 1.0) < 1e-9
        assert m[0, 0] >= 1.0 - 1e-12


def test_non_lorentz_matrix_rejected():
    with pytest.raises(DomainError):
        LorentzMatrix(np.diag([1.0, 2.0, 1.0, 1.0]))


def _boost_with_gamma(gamma, direction=(1.0, 2.0, -0.5)):
    n = np.asarray(direction) / np.linalg.norm(direction)
    return LorentzMatrix.boost(math.sqrt(1.0 - 1.0 / gamma**2) * n)


@pytest.mark.parametrize("gamma", [1e3, 1e4])
def test_high_gamma_boosts_are_accepted(gamma):
    # rounding in M^T eta M and det M grows as gamma^2 eps, past an absolute 1e-10 at gamma ~ 1000;
    # beta^2 itself carries a relative gamma^2 eps, hence the loose check on gamma
    for direction in ((1.0, 0.0, 0.0), (1.0, 2.0, -0.5)):
        m = _boost_with_gamma(gamma, direction).matrix
        assert m[0, 0] == pytest.approx(gamma, rel=1e-6)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
def test_perturbed_high_gamma_boost_is_rejected(entry):
    m = _boost_with_gamma(1e3).matrix.copy()
    m[entry] *= 1.0 + 1e-6
    with pytest.raises(DomainError):
        LorentzMatrix(m)


def test_perturbed_transverse_entry_of_high_gamma_boost_is_rejected():
    # a unit-size entry keeps an absolute bound next to the gamma^2-size ones:
    # a 1e-5 relative error in M[2, 2] of an x-boost at gamma = 1000 is caught
    m = _boost_with_gamma(1e3, (1.0, 0.0, 0.0)).matrix.copy()
    m[2, 2] *= 1.0 + 1e-5
    with pytest.raises(DomainError):
        LorentzMatrix(m)


@pytest.mark.parametrize("k", [(math.nan, 0.0, 0.0), (0.0, math.inf, 1.0), (1.0, 0.0)],
                         ids=["nan", "inf", "two_components"])
def test_four_momentum_rejects_non_finite_or_malformed_k(k):
    with pytest.raises(DomainError):
        FourMomentum(1.0, k)


# ------------------------------------------------------------- wigner angle


def test_rotation_about_momentum_axis_is_the_little_group_angle():
    p = FourMomentum(1.0, (0.0, 0.0, 1.0))
    assert wigner_angle(LorentzMatrix.rotation_z(0.3), p) == pytest.approx(0.3, abs=1e-12)


def test_pure_rotation_recomposition_oracle():
    # Lam R(p) = R(Lam p) Rz(chi) must hold as a full matrix identity
    rng = np.random.default_rng(8)
    for _ in range(50):
        lam = _random_rotation(rng)
        khat = _random_direction(rng)
        p = FourMomentum(1.0, tuple(khat))
        chi = wigner_angle(lam, p)
        out_dir = lam.apply(p.as_array())[1:]
        out_dir /= np.linalg.norm(out_dir)
        lhs = lam.matrix @ _frame(khat).matrix
        rhs = _frame(out_dir).matrix @ LorentzMatrix.rotation_z(chi).matrix
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_little_group_element_fixes_reference_momentum():
    rng = np.random.default_rng(9)
    for _ in range(50):
        lam = _random_boost(rng) @ _random_rotation(rng)
        k = _random_direction(rng) * rng.uniform(0.2, 5.0)
        p = FourMomentum(float(np.linalg.norm(k)), tuple(k))
        w = inverse(_transform(momentum(lam.apply(p.as_array())))) @ lam @ _transform(p)
        assert np.max(np.abs(w.apply(K_REF) - K_REF)) < 1e-10
        wigner_angle(lam, p)  # decomposition must not be singular


def test_rotation_composition_law():
    rng = np.random.default_rng(10)
    for _ in range(40):
        l1, l2 = _random_rotation(rng), _random_rotation(rng)
        k = _random_direction(rng)
        p = FourMomentum(1.0, tuple(k))
        p1 = momentum(l1.apply(p.as_array()))
        total = wigner_angle(l2 @ l1, p)
        parts = wigner_angle(l2, p1) + wigner_angle(l1, p)
        diff = (total - parts + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(diff) < 1e-9


def test_small_boost_angle_scales_linearly():
    # halving beta halves the exact little-group angle (first-order regime)
    rng = np.random.default_rng(12)
    for _ in range(20):
        khat = _random_direction(rng)
        nhat = _random_direction(rng)
        p = FourMomentum(1.0, tuple(khat))
        beta = 1e-5
        x1 = wigner_angle(LorentzMatrix.boost(nhat * beta), p)
        x2 = wigner_angle(LorentzMatrix.boost(nhat * 0.5 * beta), p)
        assert x1 == pytest.approx(2.0 * x2, abs=40.0 * beta**2)


def test_exact_angle_matches_derived_first_order_connection():
    # exact little-group angle at small beta: beta cot(theta) sin(theta_b) sin(phi - phi_b)
    rng = np.random.default_rng(13)
    beta = 1e-4
    worst = 0.0
    for _ in range(300):
        theta = rng.uniform(0.25, 0.5 * math.pi - 0.05)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        theta_b = rng.uniform(0.0, math.pi)
        phi_b = rng.uniform(0.0, 2.0 * math.pi)
        khat = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        nhat = np.array([math.sin(theta_b) * math.cos(phi_b),
                         math.sin(theta_b) * math.sin(phi_b), math.cos(theta_b)])
        exact = wigner_angle(LorentzMatrix.boost(nhat * beta), FourMomentum(1.0, khat))
        predicted = beta / math.tan(theta) * math.sin(theta_b) * math.sin(phi - phi_b)
        worst = max(worst, abs(exact - predicted))
    assert worst <= 30.0 * beta**2


def test_first_order_boost_phase_examples():
    assert first_order_boost_phase(0.8, 1.1, 0.4, 1.1, 7.5e3) == 0.0
    v = 7500.0
    expected = -math.tan(math.pi / 6.0) * (math.sqrt(2.0) / 2.0) * 0.5 * (v / C_LIGHT)
    got = first_order_boost_phase(math.pi / 3.0, math.pi / 6.0, math.pi / 4.0, 0.0, v)
    assert got == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DomainError):
        first_order_boost_phase(0.6 * math.pi, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        first_order_boost_phase(0.3, 0.0, 0.0, 0.0, C_LIGHT)


def test_closed_form_magnitude_peaks_at_half_beta():
    # The name dates from a factor 1/2 the closed form once carried; the
    # little-group angle in the pole-regular frame peaks at v/c.
    v = 7500.0
    chi = first_order_boost_phase(0.5 * math.pi, 0.5 * math.pi, 0.5 * math.pi, 0.0, v)
    assert abs(chi) == pytest.approx(v / C_LIGHT, rel=1e-12)


def test_diffraction_transform():
    assert diffraction_transform(0.3, 0.0) == 0.3
    assert diffraction_transform(0.3, 0.6 * C_LIGHT) == pytest.approx(0.6, rel=1e-12)
    beta = 2.5e-5
    assert diffraction_transform(1.0, beta * C_LIGHT) == pytest.approx(1.0 + beta, abs=1e-9)
    with pytest.raises(DomainError):
        diffraction_transform(0.3, -C_LIGHT)


# ------------------------------------------------------- polarization states


def test_helicity_phase_identity_and_global_phase():
    s = TwoPhotonState((1.0, 0.0, 0.0, 0.0))
    assert apply_helicity_phase(s, 0.0, photon=0) == s
    flipped = apply_helicity_phase(s, math.pi, photon=1)
    assert flipped.amplitudes[0] == pytest.approx(cmath.exp(1j * math.pi), abs=1e-15)
    assert flipped.amplitudes[1:] == (0.0, 0.0, 0.0)


def test_singlet_state_is_invariant_under_common_rotation():
    a = 1.0 / math.sqrt(2.0)
    singlet = TwoPhotonState((0.0, a, -a, 0.0))
    chi = 0.7321
    rotated = apply_helicity_phase(apply_helicity_phase(singlet, chi, photon=0), chi, photon=1)
    amps = np.array(rotated.amplitudes)
    ref = np.array(singlet.amplitudes)
    phase = amps[1] / ref[1]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.allclose(amps, phase * ref, atol=1e-12)


def test_two_photon_phase_requires_photon_index():
    state = TwoPhotonState((1.0, 0.0, 0.0, 0.0))
    with pytest.raises(TypeError):
        apply_helicity_phase(state, 0.1)
    for photon in (None, -1, 2):
        with pytest.raises(DomainError):
            apply_helicity_phase(state, 0.1, photon)


def test_concurrence_values():
    a = 1.0 / math.sqrt(2.0)
    assert concurrence(TwoPhotonState((1.0, 0.0, 0.0, 0.0))) == 0.0
    assert concurrence(TwoPhotonState((0.0, a, -a, 0.0))) == pytest.approx(1.0, rel=1e-12)
    assert concurrence(TwoPhotonState((math.sqrt(0.8), 0.0, 0.0, math.sqrt(0.2)))) == pytest.approx(0.8, rel=1e-12)


def test_concurrence_invariant_under_helicity_phases():
    rng = np.random.default_rng(15)
    for _ in range(50):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = TwoPhotonState(tuple(amps))
        ref = concurrence(state)
        out = apply_helicity_phase(state, rng.uniform(-4, 4), photon=0)
        out = apply_helicity_phase(out, rng.uniform(-4, 4), photon=1)
        assert concurrence(out) == pytest.approx(ref, abs=1e-12)
