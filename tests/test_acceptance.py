"""End-to-end checks of the toolkit's headline numbers.

Each test covers one numbered claim and records a verdict; the conftest
summary hook prints one PASS/FAIL line per item at the end of the run, so a
plain `pytest -v` leaves an auditable line for every criterion.
"""
import math
import time

import numpy as np
import pytest

from acceptance_reporting import criterion
from fd_oracle import gaussian_l1_difference
from relqopt import (bell, diffusion, gravitomagnetism, interferometry,
                     kinematics, orbits, qft_effects, wigner)
from relqopt.constants import (ASTRONOMICAL_UNIT, C_LIGHT, EARTH, G0, LUNAR_DISTANCE,
                               NEUTRON_MASS, PLANCK_H, ROUNDED_EARTH, convert_angle)
from relqopt.errors import DomainError

EARTH_BODY = ROUNDED_EARTH


def _link(distance: float, t1: float):
    # detection at the near station at t1 vs. light arrival at the far one
    return (kinematics.Event(t1, 0.0, 0.0),
            kinematics.Event(distance / C_LIGHT, distance, 0.0))


def test_criterion_01_link_geometry():
    with criterion(1, "spacelike link: 1000 km/20 us -> 109 km at beta 0.994; 144 km -> 41 km"):
        e1, e2 = _link(1000e3, 20e-6)
        res = kinematics.invariant_interval(e1, e2)
        assert res.kind == "spacelike"
        assert res.magnitude == pytest.approx(109e3, abs=1e3)
        boost = kinematics.simultaneity_boost_speed(e1, e2)
        assert abs(boost.beta) == pytest.approx(0.994, abs=1e-3)
        short = kinematics.invariant_interval(*_link(144e3, 20e-6))
        assert short.magnitude == pytest.approx(41e3, abs=1e3)


def test_criterion_02_timing_margins():
    with criterion(2, "timing: 166 ps/km at 15 km/s; 60 km for 10 ns switching; 250 ns over 1500 km"):
        per_m = kinematics.timing_shift_per_distance(15e3)
        assert per_m * 1e3 == pytest.approx(166e-12, abs=1e-12)
        d_min = kinematics.min_separation_for_switching(15e3, 10e-9)
        assert d_min == pytest.approx(60e3, abs=1e3)
        assert per_m * 1500e3 == pytest.approx(250e-9, abs=2e-9)


def test_criterion_03_light_time_windows():
    geo_altitude = orbits.preset_orbit("geo").semi_major_axis - EARTH.radius
    rows = [
        (1.0, 3e-9, 0.15),          # one-figure rounding, same margin as 10 km
        (10e3, 30e-6, 0.15),
        (1000e3, 3e-3, 0.15),
        (geo_altitude, 0.1, 0.25),
        (LUNAR_DISTANCE, 1.0, 0.30),
        (ASTRONOMICAL_UNIT, 500.0, 0.01),
    ]
    with criterion(3, "light-time windows from 1 m (3 ns) to 1 a.u. (500 s)"):
        for distance, target, frac in rows:
            assert kinematics.light_travel_time(distance) == pytest.approx(target, rel=frac)


def test_criterion_04_little_group_first_order():
    with criterion(4, "little-group angle vs first-order closed form; maximal geometry v/c"):
        v = 7.5e3
        half = 0.5 * math.pi
        peak = wigner.first_order_boost_phase(half, half, half, 0.0, v)
        assert abs(peak) == pytest.approx(v / C_LIGHT, rel=1e-12)

        rng = np.random.default_rng(20260815)
        worst, worst_geom = -1.0, None
        for _ in range(1000):
            theta = rng.uniform(0.0, 0.5 * math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            theta_b = rng.uniform(0.0, math.pi)
            phi_b = rng.uniform(0.0, 2.0 * math.pi)
            beta = rng.uniform(1e-4, 1e-3)
            khat = (math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta))
            bvec = (beta * math.sin(theta_b) * math.cos(phi_b),
                    beta * math.sin(theta_b) * math.sin(phi_b),
                    beta * math.cos(theta_b))
            lam = wigner.LorentzMatrix.boost(bvec)
            p = wigner.FourMomentum(1.0, khat)
            xi = wigner.wigner_angle(lam, p)
            # wigner_angle uses the frames Rz(phi) Ry(theta); the closed form
            # uses Rz(phi) Ry(theta) Rz(-phi), regular at the pole.  The angles
            # differ exactly by the change in azimuth, wrapped to (-pi, pi].
            _, phi_out = wigner.direction_angles((np.array(lam.matrix) @ (p.energy, *p.k))[1:])
            _, phi_in = wigner.direction_angles(p.khat)
            exact = math.pi - (math.pi - (xi + phi_out - phi_in)) % (2.0 * math.pi)
            closed = wigner.first_order_boost_phase(theta, phi, theta_b, phi_b,
                                                    beta * C_LIGHT)
            ratio = abs(exact - closed) / beta**2
            if ratio > worst:
                worst, worst_geom = ratio, (theta, phi, theta_b, phi_b, beta)
        assert worst <= 10.0, (
            "the printed closed form disagrees with the exact little-group angle "
            f"at first order in beta: worst |exact - closed| / beta^2 "
            f"= {worst:.3g} (limit 10) at theta={worst_geom[0]:.4f}, phi={worst_geom[1]:.4f}, "
            f"theta_b={worst_geom[2]:.4f}, phi_b={worst_geom[3]:.4f}, beta={worst_geom[4]:.2e}; "
            "exact is wigner_angle converted to the pole-regular frame Rz(phi) Ry(theta) Rz(-phi) "
            "by xi + phi(Lam khat) - phi(khat), whose first-order coefficient is "
            "-beta*tan(theta/2)*sin(theta_b)*sin(phi - phi_b)"
        )


def test_criterion_05_frame_dragging():
    with criterion(5, "frame dragging: 39 arc msec from 12270 km; axial 3e-7 arc msec; ground ratio 1.93"):
        quarter = 0.25 * math.pi
        sat = gravitomagnetism.kerr_principal_null_rotation(
            EARTH_BODY, 12270e3, math.inf, quarter)
        assert abs(convert_angle(sat, "arcmsec")) == pytest.approx(39.0, rel=0.05)
        axial = gravitomagnetism.axial_impact_rotation(EARTH_BODY, EARTH.radius)
        assert convert_angle(axial, "arcmsec") == pytest.approx(3e-7, rel=0.10)
        ground = gravitomagnetism.kerr_principal_null_rotation(
            EARTH_BODY, 6371e3, math.inf, quarter)
        assert ground / sat == pytest.approx(1.93, abs=0.01)


def test_criterion_06_interferometry():
    with criterion(6, "optical COW 2.05 rad; 0.16 m drift during storage; neutron two-form identity"):
        phase = interferometry.optical_cow_phase(wavelength=800e-9, fibre_length=6e3,
                                                 altitude=400e3)
        assert phase == pytest.approx(2.05, rel=0.05)
        drift = interferometry.displacement_during_delay(8e3, 20e-6)
        assert drift == pytest.approx(0.16, abs=1e-3)
        wavelength, area, tilt = 1.8e-10, 8e-4, 0.4
        speed = PLANCK_H / (NEUTRON_MASS * wavelength)
        phase = interferometry.cow_neutron_phase(wavelength, area, tilt)
        velocity_form = (-2.0 * math.pi * G0 * area * math.sin(tilt)
                         / (wavelength * speed**2))
        assert phase == pytest.approx(velocity_form, rel=1e-10)


def test_criterion_07_detector_response():
    with criterion(7, "Unruh 4.0e-20 K at g0; a(1e6 rad/s)/g0 = 3.1e13; Berry phase trivial limits"):
        assert qft_effects.unruh_temperature(G0) == pytest.approx(4.0e-20, rel=0.05)
        ratio = qft_effects.required_acceleration(1e6) / G0
        assert ratio == pytest.approx(3.1e13, rel=0.02)
        assert qft_effects.berry_phase_difference(5e5, 1e15, 3.0) == 0.0
        assert qft_effects.berry_phase_difference(5e5, 0.0, 0.37) == 0.0


def test_criterion_08_event_operator():
    with criterion(8, "event-operator decorrelation: exp(-1) at 2 d_t; monotone; 5.4e-14 s clock lag"):
        d_t = 3.5e-13
        model = qft_effects.EventOperatorModel(detector_resolution=d_t)
        assert qft_effects.ralph_correlation(model, 2.0 * d_t) == math.exp(-1.0)
        values = [qft_effects.ralph_correlation(model, float(x))
                  for x in np.linspace(0.0, 6.0 * d_t, 41)]
        assert all(b < a for a, b in zip(values, values[1:]))
        pot_ground = orbits.newtonian_potential(EARTH.radius)
        pot_sat = orbits.newtonian_potential(EARTH.radius + 400e3)
        lag = qft_effects.proper_time_differential(pot_ground, pot_sat, 1.3e-3)
        oracle = (EARTH.mu / EARTH.radius
                  - EARTH.mu / (EARTH.radius + 400e3)) / C_LIGHT**2 * 1.3e-3
        assert lag == pytest.approx(oracle, rel=1e-12)
        assert lag == pytest.approx(5.4e-14, rel=0.10)


def test_criterion_09_polarization_diffusion():
    with criterion(9, "diffusion: spectral vs FD oracle; CMB inversions; LEO forecasts; equivariance"):
        assert gaussian_l1_difference() <= 1e-4
        d_bound = diffusion.drift_bound_from_angle(0.1, 4.35e17, 1.6e11)
        c_bound = diffusion.diffusion_bound_from_decay(0.025, 4.35e17, 1.6e11)
        assert 3e-8 <= d_bound <= 5e-8
        assert 1.5e-9 <= c_bound <= 3e-9
        t, nu = 400e3 / C_LIGHT, 3.75e14
        assert 1.2e-25 <= diffusion.angle_shift(t, nu, 4e-8) <= 1.5e-25
        assert 2.8e-26 <= diffusion.polarization_decay(t, nu, 2e-9) <= 3.5e-26
        model = diffusion.BlochTensorModel(
            k_tensor=lambda th: np.diag([0.05, 0.05]),
            u_vector=lambda th: np.array([0.0, 0.3]),
            density_of_states=lambda th: math.sin(th) + 1e-3,
        )
        rho0 = diffusion.CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.5, modes=64)
        dev = diffusion.equivariance_check(model, rho0, rotation=0.9, lambda_span=0.5)
        assert dev <= 1e-9


def test_criterion_10_bell_statistics():
    with criterion(10, "CHSH: N(1)=105; guard at V<=1/sqrt(2); >=3 sigma in >=50% of 1000 trials"):
        assert bell.required_photons(1.0) == 105
        for v in (bell.V_MIN, 0.5, 0.2):
            with pytest.raises(DomainError):
                bell.required_photons(v)
        start = time.perf_counter()
        for v in (0.85, 0.9, 0.95, 1.0):
            n = bell.required_photons(v)
            hits = sum(
                1 for trial in range(1000)
                if bell.chsh_estimate(
                    bell.simulate_coincidences(v, n, seed=5_000_000 + trial)
                ).n_sigma_violation >= 3.0
            )
            assert hits >= 500, f"V={v}: only {hits}/1000 trials reached 3 sigma"
        assert time.perf_counter() - start < 60.0


def test_criterion_11_property_suites():
    with criterion(11, "invariants: metric, intervals, concurrence, transport, probability, Kepler"):
        rng = np.random.default_rng(7)
        eta = np.diag([1.0, -1.0, -1.0, -1.0])

        # composed transforms still preserve the Minkowski metric
        for _ in range(25):
            b = rng.uniform(-0.9, 0.9, size=3)
            if b @ b >= 0.98:
                b = b * 0.5
            boost = wigner.LorentzMatrix.boost(tuple(b))
            rotation = wigner.LorentzMatrix.rotation((0.0, 0.0, 1.0),
                                                     rng.uniform(0.0, 2.0 * math.pi))
            m = np.array(wigner.LorentzMatrix(np.array(boost.matrix)
                                              @ np.array(rotation.matrix)).matrix)
            assert np.max(np.abs(m.T @ eta @ m - eta)) < 1e-9

        # interval magnitude survives a change of frame
        checked = 0
        while checked < 30:
            t1, t2 = rng.uniform(-2e-6, 2e-6, size=2)
            p1, p2 = rng.uniform(-1e3, 1e3, size=(2, 3))
            e1 = kinematics.Event(float(t1), *map(float, p1))
            e2 = kinematics.Event(float(t2), *map(float, p2))
            ref = kinematics.invariant_interval(e1, e2)
            if ref.kind == "lightlike" or ref.magnitude < 10.0:
                continue
            beta = rng.uniform(-0.8, 0.8, size=3)
            if beta @ beta >= 0.98:
                beta = beta * 0.5
            moved = kinematics.invariant_interval(kinematics.boost_event(e1, beta),
                                                  kinematics.boost_event(e2, beta))
            assert moved.magnitude == pytest.approx(ref.magnitude, rel=1e-9)
            checked += 1

        # helicity phases never change two-photon entanglement
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = wigner.TwoPhotonState(tuple(amps / np.linalg.norm(amps)))
        c0 = wigner.concurrence(state)
        for chi, photon in ((0.3, 0), (1.1, 1), (2.7, 0)):
            state = wigner.apply_helicity_phase(state, chi, photon)
        assert wigner.concurrence(state) == pytest.approx(c0, abs=1e-12)

        # long polarization transport keeps the frame orthonormal
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        f = np.cross(k, rng.normal(size=3))
        f /= np.linalg.norm(f)
        ray = gravitomagnetism.RayState(position=(0.0, 0.0, 0.0),
                                        khat=tuple(k), fhat=tuple(f))

        def sampler(pos):
            return gravitomagnetism.GravField(
                omega=(0.03 * math.cos(0.05 * pos[1]), 0.01,
                       0.02 * math.sin(0.04 * pos[0])),
                eg=(1e-4, 0.0, -2e-4))

        out = gravitomagnetism.transport_ray(ray, sampler, 50.0, 10_000)
        ko, fo = np.array(out.khat), np.array(out.fhat)
        assert abs(np.linalg.norm(ko) - 1.0) < 1e-9
        assert abs(np.linalg.norm(fo) - 1.0) < 1e-9
        assert abs(float(ko @ fo)) < 1e-9

        # diffusion never creates or destroys probability
        rho = diffusion.CircleDensity.wrapped_gaussian(mean=0.4, sigma=0.35, modes=128)
        evolved = diffusion.evolve_equator(
            rho, diffusion.DiffusionParams(c_diff=0.08, d_drift=0.15), 0.7)
        assert abs(evolved.coefficients[0] - rho.coefficients[0]) <= 1e-12
        assert abs(2.0 * math.pi * evolved.coefficients[0].real - 1.0) <= 1e-12

        # Kepler propagation conserves energy and angular momentum
        orbit = orbits.OrbitSpec(semi_major_axis=2.0e7, eccentricity=0.6,
                                 inclination=0.9, raan=0.4, arg_perigee=2.0,
                                 mean_anomaly_epoch=0.3)
        states = [orbits.propagate(orbit, float(t))
                  for t in np.linspace(0.0, orbit.period(), 60)]
        e0 = 0.5 * states[0].speed**2 - EARTH.mu / states[0].radius
        h0 = np.cross(states[0].position, states[0].velocity)
        for s in states[1:]:
            e_s = 0.5 * s.speed**2 - EARTH.mu / s.radius
            assert abs(e_s - e0) / abs(e0) < 1e-9
            h_s = np.cross(s.position, s.velocity)
            assert np.linalg.norm(h_s - h0) / np.linalg.norm(h0) < 1e-9
