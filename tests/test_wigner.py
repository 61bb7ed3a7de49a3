import cmath
import math

import numpy as np
import pytest
from mpmath import mp

from reference_kernels import (ETA, K_REF, _standard_transform, array, as_array, boost_z,
                               inverse, momentum, product, rotation_y, rotation_z)
from relqopt.constants import C_LIGHT
from relqopt.errors import DomainError
from relqopt.wigner import (
    FourMomentum,
    LorentzMatrix,
    TwoPhotonState,
    apply_helicity_phase,
    concurrence,
    diffraction_transform,
    direction_angles,
    _polar_frame,
    first_order_boost_phase,
    wigner_angle,
)


def _frame(khat, energy=1.0):
    """The standard transform L(k) = Rz(phi) Ry(theta) Bz(ln energy), validated;
    at energy 1 it is the standard rotation R(khat)."""
    return _standard_transform(FourMomentum(energy, tuple(energy * np.asarray(khat, dtype=float))))


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
    assert np.allclose(array(r)[1:, 3], k, atol=1e-14)
    # explicit Rz(phi) Ry(theta) product
    theta, phi = direction_angles(k)
    explicit = product(rotation_z(phi), rotation_y(theta))
    assert np.allclose(r.matrix, explicit.matrix, atol=1e-14)


@pytest.mark.parametrize("khat", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                                  (0.0, -0.6, 0.8), (-0.48, 0.64, -0.6), (1e-9, 0.0, 1.0)],
                         ids=["north_pole", "south_pole", "x_axis", "yz_plane", "generic",
                              "near_pole"])
def test_polar_frame_is_columns_1_and_2_of_the_standard_transform(khat):
    khat = tuple(np.asarray(khat) / np.linalg.norm(khat))
    e_theta, e_phi = _polar_frame(khat)
    columns = array(_frame(khat))[1:, 1:3]
    assert np.allclose(e_theta, columns[:, 0], rtol=0.0, atol=1e-15)
    assert np.allclose(e_phi, columns[:, 1], rtol=0.0, atol=1e-15)


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
        assert np.allclose(array(_transform(p)) @ K_REF, as_array(p), rtol=1e-12, atol=1e-12)


def test_metric_preservation_of_generated_matrices():
    rng = np.random.default_rng(4)
    for _ in range(60):
        lam = product(product(_random_rotation(rng), _random_boost(rng)), _random_rotation(rng))
        m = array(lam)
        assert np.allclose(m.T @ ETA @ m, ETA, atol=1e-9)
        assert abs(np.linalg.det(m) - 1.0) < 1e-9
        assert m[0, 0] >= 1.0 - 1e-12


def test_non_lorentz_matrix_rejected():
    with pytest.raises(DomainError):
        LorentzMatrix(np.diag([1.0, 2.0, 1.0, 1.0]))


@pytest.mark.parametrize("matrix, message", [
    (np.diag([1.0, -1.0, 1.0, 1.0]), "determinant"),
    (np.diag([-1.0, -1.0, -1.0, -1.0]), "orthochronous"),
    ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, math.nan, 0.0], [0.0, 0.0, 1.0, 0.0],
      [0.0, 0.0, 0.0, 1.0]], "finite"),
    (np.eye(3), "4x4"),
    (np.diag([1e200, 1.0, 1.0, 1.0]), "metric"),
], ids=["parity", "time_reversal", "nan", "3x3", "overflowing_metric"])
def test_each_validator_check_rejects_its_case(matrix, message):
    # parity and -1 both preserve the metric, so only the later checks catch them
    with pytest.raises(DomainError, match=message):
        LorentzMatrix(matrix)


@pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(i, 4)])
def test_each_metric_pair_is_checked(i, j):
    # identity with one entry off by 1e-6: eta(c_i, c_j) moves by ~1e-6, every other
    # pair by 0 or 1e-12, so only the condition on the pair (i, j) can refuse it
    m = np.eye(4)
    if i == j:
        m[i, i] *= 1.0 + 1e-6
    else:
        m[i, j] = 1e-6
    assert np.argwhere(np.triu(np.abs(m.T @ ETA @ m - ETA) > 1e-10)).tolist() == [[i, j]]
    with pytest.raises(DomainError, match=r"^matrix does not preserve the metric$"):
        LorentzMatrix(m)


@pytest.mark.parametrize("make, message", [
    (lambda: LorentzMatrix(5.0), r"^Lorentz matrix must be 4x4$"),
    (lambda: LorentzMatrix.rotation((0.0, 0.0, 0.0), 0.3), r"^rotation axis must be nonzero$"),
    (lambda: LorentzMatrix.boost((1.0, 0.0, 0.0)), r"^\|beta\| must be < 1$"),
    (lambda: LorentzMatrix.boost((0.0, 0.8, 0.7)), r"^\|beta\| must be < 1$"),
    (lambda: FourMomentum(1.0, (0.0, 0.0, 0.5)), r"^momentum is not null$"),
    # the null tolerance is relative, 1e-12 * energy, at any energy
    (lambda: FourMomentum(1e-6, (0.0, 0.0, 1e-6 * (1 + 1e-11))), r"^momentum is not null$"),
], ids=["not_iterable", "zero_axis", "boost_at_c", "boost_above_c", "not_null",
        "not_null_at_low_energy"])
def test_constructors_refuse_naming_the_rule(make, message):
    with pytest.raises(DomainError, match=message):
        make()


def _boost_with_gamma(gamma, direction=(1.0, 2.0, -0.5)):
    n = np.asarray(direction) / np.linalg.norm(direction)
    return LorentzMatrix.boost(math.sqrt(1.0 - 1.0 / gamma**2) * n)


@pytest.mark.parametrize("gamma", [1e3, 1e4])
def test_high_gamma_boosts_are_accepted(gamma):
    # rounding in M^T eta M grows as gamma^2 eps, past an absolute 1e-10 at gamma ~ 1000;
    # beta^2 itself carries a relative gamma^2 eps, hence the loose check on gamma
    for direction in ((1.0, 0.0, 0.0), (1.0, 2.0, -0.5)):
        m = _boost_with_gamma(gamma, direction).matrix
        assert m[0][0] == pytest.approx(gamma, rel=1e-6)


def test_boosts_at_the_largest_float_speed_are_accepted():
    # gamma of 1e7 and more: the spatial determinant +-M00 keeps its sign with no tolerance
    rng = np.random.default_rng(22)
    for _ in range(200):
        lam = LorentzMatrix.boost(_random_direction(rng) * (1.0 - 2.0**-51))
        assert lam.matrix[0][0] > 1e7


@pytest.mark.parametrize("gamma", [1e3, 1e6])
def test_improper_high_gamma_boost_is_rejected(gamma):
    m = array(_boost_with_gamma(gamma)) @ np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(DomainError, match="determinant"):
        LorentzMatrix(m)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
def test_perturbed_high_gamma_boost_is_rejected(entry):
    m = array(_boost_with_gamma(1e3))
    m[entry] *= 1.0 + 1e-6
    with pytest.raises(DomainError):
        LorentzMatrix(m)


def test_perturbed_transverse_entry_of_high_gamma_boost_is_rejected():
    # a unit-size entry keeps an absolute bound next to the gamma^2-size ones:
    # a 1e-5 relative error in M[2, 2] of an x-boost at gamma = 1000 is caught
    m = array(_boost_with_gamma(1e3, (1.0, 0.0, 0.0)))
    m[2, 2] *= 1.0 + 1e-5
    with pytest.raises(DomainError):
        LorentzMatrix(m)


@pytest.mark.parametrize("k", [(math.nan, 0.0, 0.0), (0.0, math.inf, 1.0), (1.0, 0.0)],
                         ids=["nan", "inf", "two_components"])
def test_four_momentum_rejects_non_finite_or_malformed_k(k):
    with pytest.raises(DomainError):
        FourMomentum(1.0, k)


def test_four_momentum_null_tolerance_scales_with_energy():
    p = FourMomentum(1e6, (0.0, 0.0, 1e6 * (1 + 1e-14)))
    assert p.energy == 1e6


# ------------------------------------------------------------- wigner angle


def test_rotation_about_momentum_axis_is_the_little_group_angle():
    p = FourMomentum(1.0, (0.0, 0.0, 1.0))
    assert wigner_angle(rotation_z(0.3), p) == pytest.approx(0.3, abs=1e-12)


def test_pure_rotation_recomposition_oracle():
    # Lam R(p) = R(Lam p) Rz(chi) must hold as a full matrix identity
    rng = np.random.default_rng(8)
    for _ in range(50):
        lam = _random_rotation(rng)
        khat = _random_direction(rng)
        p = FourMomentum(1.0, tuple(khat))
        chi = wigner_angle(lam, p)
        out_dir = (array(lam) @ as_array(p))[1:]
        out_dir /= np.linalg.norm(out_dir)
        lhs = array(lam) @ array(_frame(khat))
        rhs = array(_frame(out_dir)) @ array(rotation_z(chi))
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_wigner_angle_refuses_a_transformed_momentum_that_overflows():
    p = FourMomentum(1e308, (6e307, 8e307, 0.0))
    with pytest.raises(DomainError, match="^transformed momentum must be finite$"):
        wigner_angle(LorentzMatrix.boost((0.9999, 0.0, 0.0)), p)


def test_little_group_element_fixes_reference_momentum():
    rng = np.random.default_rng(9)
    for _ in range(50):
        lam = product(_random_boost(rng), _random_rotation(rng))
        k = _random_direction(rng) * rng.uniform(0.2, 5.0)
        p = FourMomentum(float(np.linalg.norm(k)), tuple(k))
        w = product(product(inverse(_transform(momentum(array(lam) @ as_array(p)))), lam),
                    _transform(p))
        assert np.max(np.abs(array(w) @ K_REF - K_REF)) < 1e-10
        wigner_angle(lam, p)  # and the library answers the same input


def _mp_standard_transform(k):
    """L(k) = Rz(phi) Ry(theta) Bz(ln |k|) in mpmath for a 3-vector k; phi = 0 on the axis."""
    energy = mp.norm(k)
    theta = mp.atan2(mp.hypot(k[0], k[1]), k[2])
    phi = mp.atan2(k[1], k[0]) if theta > 0 else mp.mpf(0)
    ct, st, cp, sp = mp.cos(theta), mp.sin(theta), mp.cos(phi), mp.sin(phi)
    ch, sh = mp.cosh(mp.log(energy)), mp.sinh(mp.log(energy))
    return mp.matrix([[ch, 0, 0, sh], [cp * st * sh, cp * ct, -sp, cp * st * ch],
                      [sp * st * sh, sp * ct, cp, sp * st * ch], [ct * sh, -st, 0, ct * ch]]), st


@pytest.mark.parametrize("gamma", [1.0, 10.0, 1e3, 1e4, 1e6])
def test_wigner_angle_matches_50_digit_little_group_decomposition(gamma):
    """The angle against W = L(Lam p)^-1 Lam L(p) formed in full at 50 digits.

    The oracle reads the float entries of Lam and p as exact, so the
    difference is the library's rounding alone.  The bound is its first-order
    rounding estimate with u = 2^-53, term by term:
    - frames: a direction off by d turns e_theta and e_phi by d (1 + 1/sin theta);
      atan2, cos and sin add at most 16u;
    - a = Lam_3x3 e_theta(khat): 3-term sums over entries of size up to gamma;
    - khat' = dir(Lam p): the 4-term sums err by 4u max_i sum_j |Lam_ij p_j|, which
      for a photon nearly opposed to the boost is ~2 gamma^2 times |k'|;
    - each projection of a onto e_theta', e_phi' carries |a| times the frame error.
    Dividing by |(W11, W21)| = 1 gives the angle; the worst case is ~gamma^2 u.
    """
    u = 2.0**-53
    rng = np.random.default_rng(int(round(math.log10(gamma))) + 40)
    beta = math.sqrt(1.0 - 1.0 / gamma**2)
    cases = []
    for _ in range(200):
        lam = product(LorentzMatrix.boost(_random_direction(rng) * beta), _random_rotation(rng))
        energy = float(np.exp(rng.uniform(-2.3, 2.3)))
        cases.append((lam, FourMomentum(energy, tuple(energy * _random_direction(rng)))))
    if gamma >= 1e3:
        # photons that the rotation turns to -nhat cos(alpha) + ahat sin(alpha), nearly
        # opposed to the boost nhat: Lam p has energy ~ E / (2 gamma) and rounding ~ gamma eps E
        for alpha in (1e-4, 1e-3, 1e-2, 1e-1):
            for _ in range(50):
                nhat, rot = _random_direction(rng), _random_rotation(rng)
                ahat = np.cross(nhat, _random_direction(rng))
                ahat /= np.linalg.norm(ahat)
                k = array(rot)[1:, 1:].T @ (-nhat * math.cos(alpha) + ahat * math.sin(alpha))
                energy = float(np.exp(rng.uniform(-2.3, 2.3)))
                cases.append((product(LorentzMatrix.boost(nhat * beta), rot),
                              FourMomentum(energy, tuple(energy * k))))
    with mp.workdps(50):
        eta = mp.diag([1, -1, -1, -1])
        for lam, p in cases:
            xi = wigner_angle(lam, p)

            m = mp.matrix(lam.matrix)
            k_out = [sum(m[i, j] * c for j, c in enumerate((p.energy, *p.k))) for i in (1, 2, 3)]
            l_in, sin_in = _mp_standard_transform([mp.mpf(c) for c in p.k])
            l_out, sin_out = _mp_standard_transform(k_out)
            w = eta * l_out.T * eta * m * l_in
            want = mp.atan2(w[2, 1], w[1, 1])
            a = [sum(m[i, j] * l_in[j, 1] for j in (1, 2, 3)) for i in (1, 2, 3)]

            rows = [[abs(x) for x in row] for row in lam.matrix[1:]]
            spread = max(sum(r * abs(c) for r, c in zip(row, (p.energy, *p.k))) for row in rows)
            d_in = (1.0 + 1.0 / float(sin_in)) * 4.0 * u + 16.0 * u
            d_a = math.sqrt(3.0) * max(sum(row[1:]) for row in rows) * (3.0 * u + d_in)
            d_khat = 7.0 * u * spread / float(mp.norm(k_out)) + 4.0 * u
            d_out = (1.0 + 1.0 / float(sin_out)) * d_khat + 16.0 * u
            d_t = math.sqrt(2.0) * (float(mp.norm(a)) * (d_out + 3.0 * u) + d_a)
            bound = d_t / float(mp.hypot(w[1, 1], w[2, 1])) + 7.0 * u
            err = abs(float((xi - want + mp.pi) % (2 * mp.pi) - mp.pi))
            assert err <= bound, (gamma, err, bound)


def test_rotation_composition_law():
    rng = np.random.default_rng(10)
    for _ in range(40):
        l1, l2 = _random_rotation(rng), _random_rotation(rng)
        k = _random_direction(rng)
        p = FourMomentum(1.0, tuple(k))
        p1 = momentum(array(l1) @ as_array(p))
        total = wigner_angle(product(l2, l1), p)
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
    with pytest.raises(DomainError, match=r"^state must be a TwoPhotonState$"):
        apply_helicity_phase(state.amplitudes, 0.1, 0)


@pytest.mark.parametrize("amplitudes, message", [
    ((1.0, 0.0, 0.0), "need 4"), ((1.0, 0.0, 0.0, 0.0, 0.0), "need 4"), (1.0, "need 4"),
    ((0.6, 0.6, 0.0, 0.0), "normalized"), ((math.nan, 0.0, 0.0, 0.0), "normalized"),
    (("1", 0.0, 0.0, 0.0), "need 4"), ((None, 0.0, 0.0, 0.0), "need 4"),
    ((10**400, 0.0, 0.0, 0.0), "normalized"), ((1e200, 0.0, 0.0, 0.0), "normalized"),
], ids=["three", "five", "scalar", "unnormalized", "nan", "text", "none", "huge_int",
        "overflowing_square"])
def test_two_photon_state_rejects_malformed_or_unnormalized_amplitudes(amplitudes, message):
    with pytest.raises(DomainError, match=message):
        TwoPhotonState(amplitudes)


def test_two_photon_state_takes_complex_and_numpy_amplitudes():
    state = TwoPhotonState((1j, 0, np.float64(0.0), np.complex128(0.0)))
    assert state.amplitudes == (1j, 0j, 0j, 0j)
    assert all(type(a) is complex for a in state.amplitudes)


def test_concurrence_values():
    a = 1.0 / math.sqrt(2.0)
    assert concurrence(TwoPhotonState((1.0, 0.0, 0.0, 0.0))) == 0.0
    # a product state with both products a_pp a_mm and a_pm a_mp nonzero
    assert concurrence(TwoPhotonState((0.5, 0.5, 0.5, 0.5))) == 0.0
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
