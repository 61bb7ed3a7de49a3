import math

import numpy as np
import pytest

from relqopt.constants import C_LIGHT
from relqopt.errors import DomainError, NumericFailure
from relqopt.kinematics import (
    Event,
    boost_event,
    causally_connected,
    invariant_interval,
    light_travel_time,
    min_separation_for_switching,
    simultaneity_boost_speed,
    timing_shift_per_distance,
)

# detection events of the benchmark link: remote photon travels the full
# baseline, local photon sits in storage for the delay
LINK = (Event(t=2e-5, x=0.0, y=0.0), Event(t=1e6 / C_LIGHT, x=1e6, y=0.0))


def _random_events(rng, n):
    for _ in range(n):
        t1, t2 = rng.uniform(-1e-2, 1e-2, 2)
        p = rng.uniform(-1e6, 1e6, 6)
        yield Event(t1, *p[:3]), Event(t2, *p[3:])


def test_coincident_events_are_lightlike():
    e = Event(1.0, 2.0, 3.0, 4.0)
    res = invariant_interval(e, e)
    assert res.kind == "lightlike"
    assert res.magnitude == 0.0


def test_benchmark_pair_effective_separation():
    res = invariant_interval(*LINK)
    assert res.kind == "spacelike"
    assert res.magnitude == pytest.approx(109e3, abs=1e3)


def test_simultaneous_pair_needs_no_boost():
    b = simultaneity_boost_speed(Event(0.0, 0.0, 0.0), Event(0.0, 5.0, 0.0))
    assert b.beta == 0.0
    assert b.gamma == 1.0


def test_benchmark_pair_boost():
    b = simultaneity_boost_speed(*LINK)
    assert b.beta == pytest.approx(0.994, abs=1e-3)
    assert b.gamma == pytest.approx(1.0 / math.sqrt(1.0 - b.beta**2), rel=1e-14)


def test_timelike_pair_has_no_simultaneity_frame():
    with pytest.raises(DomainError):
        simultaneity_boost_speed(Event(0.0, 0.0, 0.0), Event(1.0, 3.0, 0.0))


def test_timing_shift_values():
    assert timing_shift_per_distance(0.0) == 0.0
    # per-kilometer offset at 7.5 km/s
    assert timing_shift_per_distance(7.5e3) * 1e3 == pytest.approx(83.4e-12, rel=1e-3)
    with pytest.raises(DomainError):
        timing_shift_per_distance(C_LIGHT)


def test_min_separation_for_switching():
    assert min_separation_for_switching(7.5e3, 0.0) == 0.0
    assert min_separation_for_switching(15e3, 10e-9) == pytest.approx(60e3, abs=1e3)
    with pytest.raises(DomainError):
        min_separation_for_switching(0.0, 1e-9)


@pytest.mark.parametrize("v0", [C_LIGHT, 4e8])
def test_min_separation_for_switching_refuses_light_speed_or_more(v0):
    # timing_shift_per_distance refuses the same speeds
    with pytest.raises(DomainError, match=r"^v0 must satisfy 0 < v0 < c$"):
        min_separation_for_switching(v0, 1e-8)


def test_shift_and_switching_are_algebraic_inverses():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.uniform(1.0, 1e7)
        tau = rng.uniform(0.0, 1e-3)
        assert timing_shift_per_distance(v) * min_separation_for_switching(v, tau) == pytest.approx(tau, rel=1e-12, abs=0.0)


def test_light_travel_time():
    assert light_travel_time(0.0) == 0.0
    # lunar distance exceeds the ~100 ms human reaction benchmark
    moon = light_travel_time(3.8e8)
    assert moon == pytest.approx(1.27, rel=1e-2)
    assert moon > 0.1


def test_causal_connection_against_interval_kind():
    assert not causally_connected(Event(0.0, 0.0, 0.0), Event(1e-6, 1e3, 0.0))
    assert causally_connected(Event(0.0, 0.0, 0.0), Event(1.0, 1e3, 0.0))
    rng = np.random.default_rng(7)
    for e1, e2 in _random_events(rng, 200):
        kind = invariant_interval(e1, e2).kind
        assert causally_connected(e1, e2, kappa=1.0) == (kind in ("timelike", "lightlike"))


# finite events whose dx^2 or (c dt)^2 is past the float range; 10**300 is stored as 1e300
@pytest.mark.parametrize("far", [Event(0.0, 1e300, 0.0), Event(0, 10**300, 0),
                                 Event(1e300, 0.0, 0.0), Event(0.0, 1.7e308, 0.0, -1.7e308)],
                         ids=["dx", "int_dx", "dt", "dz"])
@pytest.mark.parametrize("fn", [invariant_interval, simultaneity_boost_speed, causally_connected])
def test_overflowing_pair_is_a_numeric_failure(fn, far):
    with pytest.raises(NumericFailure, match=r"^the interval overflows"):
        fn(Event(0.0, 0.0, 0.0), far)
    with pytest.raises(NumericFailure):
        fn(far, Event(0.0, 0.0, 0.0))


def test_int_coordinates_are_stored_as_floats():
    e = Event(1, 2, 3)
    assert e == Event(1.0, 2.0, 3.0, 0.0) and all(type(x) is float for x in e._values())


def test_benchmark_pair_with_speed_budget():
    # |dx| = 1e6 m vs 1.5 * c * dt: a modest superluminal budget closes the gap
    assert causally_connected(*LINK, kappa=1.5)
    assert not causally_connected(*LINK, kappa=1.0)
    with pytest.raises(DomainError):
        causally_connected(*LINK, kappa=0.5)


def test_interval_is_frame_invariant():
    rng = np.random.default_rng(19)
    for e1, e2 in _random_events(rng, 60):
        ref = invariant_interval(e1, e2)
        beta = rng.uniform(-0.9, 0.9, 3)
        if (beta @ beta) >= 0.98:
            beta = beta / math.sqrt(beta @ beta) * 0.9
        moved = invariant_interval(boost_event(e1, beta), boost_event(e2, beta))
        assert moved.kind == ref.kind
        if ref.kind != "lightlike":
            assert moved.magnitude == pytest.approx(ref.magnitude, rel=1e-10)


def test_simultaneity_boost_zeroes_dt_and_preserves_separation():
    rng = np.random.default_rng(23)
    done = 0
    while done < 40:
        t1, t2 = rng.uniform(-1e-3, 1e-3, 2)
        x2 = rng.uniform(1e5, 1e6)
        e1, e2 = Event(t1, 0.0, 0.0), Event(t2, x2, 0.0)
        if invariant_interval(e1, e2).kind != "spacelike":
            continue
        done += 1
        boost = simultaneity_boost_speed(e1, e2)
        sign = math.copysign(1.0, (e2.t - e1.t) * (e2.x - e1.x))
        beta = np.array([sign * boost.beta, 0.0, 0.0])
        b1, b2 = boost_event(e1, beta), boost_event(e2, beta)
        dx = math.dist((b1.x, b1.y, b1.z), (b2.x, b2.y, b2.z))
        assert abs(b2.t - b1.t) <= 1e-10 * dx / C_LIGHT
        assert dx == pytest.approx(invariant_interval(e1, e2).magnitude, rel=1e-10)


def test_boost_event_at_zero_speed_returns_an_equal_event():
    rng = np.random.default_rng(29)
    for _ in range(200):
        e = Event(*rng.uniform(-1e-2, 1e-2, 1), *rng.uniform(-1e6, 1e6, 3))
        assert boost_event(e, (0.0, 0.0, 0.0)) == e


@pytest.mark.parametrize("beta, message", [
    ((1.0, 0.0, 0.0), r"^\|beta\| must be < 1$"),
    ((0.6, 0.8, 1e-9), r"^\|beta\| must be < 1$"),
    ((math.nan, 0.0, 0.0), r"^beta_vec must be a finite 3-vector$"),
    ((0.1, 0.2), r"^beta_vec must be a finite 3-vector$"),
], ids=["c", "faster_than_c", "nan", "two_components"])
def test_boost_event_refusals(beta, message):
    with pytest.raises(DomainError, match=message):
        boost_event(LINK[0], beta)
