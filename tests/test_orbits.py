import math

import numpy as np
import pytest

from relqopt.constants import C_LIGHT, EARTH, G0
from relqopt.errors import DomainError, NumericFailure
from relqopt.orbits import (
    GroundStation,
    OrbitSpec,
    newtonian_potential,
    preset_orbit,
    propagate,
    relative_geometry,
    solve_kepler,
    station_state,
)

SIDEREAL_DAY = 2.0 * math.pi / EARTH.rotation_rate


# ------------------------------------------------------------------ kepler


def test_kepler_trivial_cases():
    assert solve_kepler(0.0, 0.0) == 0.0
    for m in np.linspace(-3.0, 3.0, 13):
        assert solve_kepler(float(m), 0.0) == pytest.approx(math.remainder(m, 2 * math.pi), abs=1e-15)


def test_kepler_residual_over_eccentricity_range():
    rng = np.random.default_rng(71)
    for _ in range(500):
        m = rng.uniform(-20.0, 20.0)
        e = rng.uniform(0.0, 0.9)
        big_e = solve_kepler(m, e)
        resid = big_e - e * math.sin(big_e) - math.remainder(m, 2 * math.pi)
        assert abs(resid) < 1e-12


def test_kepler_high_eccentricity_near_perigee():
    big_e = solve_kepler(1e-4, 0.9)
    assert big_e - 0.9 * math.sin(big_e) == pytest.approx(1e-4, abs=1e-12)


@pytest.mark.parametrize("e", [0.8, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
def test_kepler_converges_for_every_mean_anomaly_at_high_eccentricity(e):
    # Newton from E0 = pi diverges for some m < 0 (m = -142.28 deg at e = 0.9);
    # E0 = copysign(pi, m) starts on the side of the root
    for m in np.linspace(-math.pi, math.pi, 36001)[1:-1].tolist():
        big_e = solve_kepler(m, e)
        assert abs(big_e - e * math.sin(big_e) - m) < 1e-12, (m, e)


# --------------------------------------------------------------- propagate


def test_orbit_validation():
    with pytest.raises(DomainError):
        OrbitSpec(semi_major_axis=6e6)  # below the surface
    with pytest.raises(DomainError):
        OrbitSpec(semi_major_axis=1e7, eccentricity=1.0)
    # a > R but the perigee a (1 - e) is below the surface
    with pytest.raises(DomainError, match="perigee"):
        OrbitSpec(semi_major_axis=1.5 * EARTH.radius, eccentricity=0.5)


def test_an_axis_whose_cube_overflows_raises_numeric_failure():
    for orbit in (OrbitSpec(5.7e102), OrbitSpec(1e200), OrbitSpec(10**200)):
        for call in (orbit.period, lambda: propagate(orbit, 0.0)):
            with pytest.raises(NumericFailure, match=r"^numeric overflow: semi_major_axis "):
                call()
    # 5.6e102 cubed is still finite
    assert math.isfinite(OrbitSpec(5.6e102).period())
    assert math.isfinite(propagate(OrbitSpec(5.6e102), 0.0).radius)


def test_kepler_refuses_an_eccentricity_of_one():
    with pytest.raises(DomainError, match=r"^eccentricity must lie in \[0, 1\)$"):
        solve_kepler(0.5, 1.0)


def test_circular_leo_speed():
    orbit = preset_orbit("leo500")
    state = propagate(orbit, 0.0)
    assert state.speed == pytest.approx(7.61e3, rel=1e-2)
    assert state.speed == pytest.approx(math.sqrt(EARTH.mu / orbit.semi_major_axis), rel=1e-12)
    assert state.radius == pytest.approx(orbit.semi_major_axis, rel=1e-12)


def test_circular_orbit_periodicity():
    orbit = OrbitSpec(semi_major_axis=7.2e6, inclination=0.7, raan=0.3, arg_perigee=1.1)
    period = orbit.period()
    a = propagate(orbit, 123.0)
    b = propagate(orbit, 123.0 + period)
    assert np.linalg.norm(np.array(a.position) - np.array(b.position)) < 1.0


def test_propagate_counts_time_from_the_epoch():
    # T + dt - T == dt exactly for these values, so the states agree bit for bit
    shape = dict(semi_major_axis=2.0e7, eccentricity=0.6, inclination=0.9, raan=0.4,
                 arg_perigee=2.0, mean_anomaly_epoch=0.3)
    at_zero, at_epoch = OrbitSpec(**shape), OrbitSpec(**shape, epoch=5000.0)
    for dt in (-750.0, 0.0, 1234.5, 20000.25):
        a, b = propagate(at_zero, dt), propagate(at_epoch, 5000.0 + dt)
        assert (b.position, b.velocity) == (a.position, a.velocity)


def test_geo_period():
    assert preset_orbit("geo").period() == pytest.approx(86164.0, abs=10.0)


def test_eccentric_orbit_radius_range():
    orbit = preset_orbit("gto")
    rp = orbit.semi_major_axis * (1.0 - orbit.eccentricity)
    ra = orbit.semi_major_axis * (1.0 + orbit.eccentricity)
    assert rp == pytest.approx(EARTH.radius + 250e3, rel=1e-9)
    assert ra == pytest.approx(42164e3, rel=1e-9)
    for t in np.linspace(0.0, orbit.period(), 17):
        r = propagate(orbit, float(t)).radius
        assert rp * (1.0 - 1e-9) <= r <= ra * (1.0 + 1e-9)


def test_energy_and_angular_momentum_conserved():
    orbit = OrbitSpec(semi_major_axis=2.0e7, eccentricity=0.6,
                      inclination=0.9, raan=0.4, arg_perigee=2.0, mean_anomaly_epoch=0.3)
    mu = EARTH.mu
    states = [propagate(orbit, float(t)) for t in np.linspace(0.0, orbit.period(), 200)]

    def energy(s):
        return 0.5 * s.speed**2 - mu / s.radius

    def ang_mom(s):
        return np.cross(s.position, s.velocity)

    e0 = energy(states[0])
    h0 = ang_mom(states[0])
    for s in states[1:]:
        assert abs(energy(s) - e0) / abs(e0) < 1e-9
        assert np.linalg.norm(ang_mom(s) - h0) / np.linalg.norm(h0) < 1e-9
    # vis-viva consistency with the closed form
    assert e0 == pytest.approx(-mu / (2.0 * orbit.semi_major_axis), rel=1e-12)


# ---------------------------------------------------------------- stations


def test_station_on_equator():
    st = station_state(GroundStation(0.0, 0.0), 0.0)
    assert np.allclose(st.position, (EARTH.radius, 0.0, 0.0))
    assert st.speed == pytest.approx(465.1, abs=0.5)


def test_station_at_pole_is_static():
    st = station_state(GroundStation(0.5 * math.pi, 1.0), 1234.5)
    assert st.speed == pytest.approx(0.0, abs=1e-9)
    assert st.position[2] == pytest.approx(EARTH.radius, rel=1e-12)


def test_station_sidereal_periodicity():
    gs = GroundStation(0.7, -1.2, altitude=300.0)
    a = station_state(gs, 0.0)
    b = station_state(gs, SIDEREAL_DAY)
    assert np.linalg.norm(np.array(a.position) - np.array(b.position)) < 1.0


def test_station_validation():
    with pytest.raises(DomainError):
        GroundStation(2.0, 0.0)
    with pytest.raises(DomainError):
        GroundStation(0.0, 0.0, altitude=-5.0)


# ---------------------------------------------------------------- geometry


def test_relative_geometry_identical_states():
    s = propagate(preset_orbit("leo1000"), 10.0)
    assert relative_geometry(s, s) == (0.0, 0.0)


def test_co_orbiting_pair_keeps_constant_range():
    orbit_a = OrbitSpec(semi_major_axis=7.4e6)
    orbit_b = OrbitSpec(semi_major_axis=7.4e6, mean_anomaly_epoch=0.01)
    for t in np.linspace(0.0, 3000.0, 7):
        sa, sb = propagate(orbit_a, float(t)), propagate(orbit_b, float(t))
        rng, rate = relative_geometry(sa, sb)
        assert rng == pytest.approx(2.0 * 7.4e6 * math.sin(0.005), rel=1e-6)
        assert abs(rate) < 1e-6 * math.dist(sa.velocity, sb.velocity) + 1e-9


def test_relative_geometry_needs_matching_times():
    orbit = preset_orbit("leo500")
    with pytest.raises(DomainError):
        relative_geometry(propagate(orbit, 0.0), propagate(orbit, 1.0))


# --------------------------------------------------------------- potential


def test_newtonian_potential_values():
    lo = newtonian_potential(EARTH.radius)
    hi = newtonian_potential(EARTH.radius + 400e3)
    assert (hi - lo) / C_LIGHT**2 == pytest.approx(4.1e-11, rel=0.02)
    assert newtonian_potential(math.inf) == 0.0
    assert hi - lo == pytest.approx(G0 * 400e3, rel=0.07)
    with pytest.raises(DomainError):
        newtonian_potential(0.0)


def test_presets():
    for name in ("leo500", "leo1000", "gto", "geo", "lunar-distance", "au"):
        preset_orbit(name)
    assert preset_orbit("leo1000").semi_major_axis == pytest.approx(EARTH.radius + 1000e3)
    with pytest.raises(DomainError):
        preset_orbit("molniya")
