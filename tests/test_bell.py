import math
import random

import numpy as np
import pytest

from relqopt import bell
from relqopt.bell import (
    CHSH_SETTINGS,
    PHOTON_CAP,
    V_MIN,
    WORKER_CAP,
    CoincidenceCounts,
    chsh_estimate,
    joint_probabilities,
    required_photons,
    simulate_coincidences,
    singlet_correlation,
)
from relqopt.cli import main
from relqopt.errors import DomainError

TSIRELSON = 2.0 * math.sqrt(2.0)


# ----------------------------------------------------------- probabilities


def test_singlet_correlation():
    assert singlet_correlation(1.0, 0.0, 0.0) == -1.0
    assert singlet_correlation(1.0, 0.0, 0.25 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert singlet_correlation(0.5, 0.0, 0.5 * math.pi) == pytest.approx(0.5)


def test_joint_probabilities_normalized_and_uniform_at_v0():
    rng = np.random.default_rng(81)
    for _ in range(40):
        a, b = rng.uniform(0.0, math.pi, 2)
        p = joint_probabilities(rng.uniform(0.0, 1.0), a, b)
        assert len(p) == 4
        assert all(x >= 0.0 for x in p)
        assert sum(p) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(joint_probabilities(0.0, 0.3, 1.1), 0.25)


def test_chsh_settings_are_the_standard_arrangement():
    assert tuple(CHSH_SETTINGS) == (
        (0.0, math.pi / 8.0),
        (0.0, 3.0 * math.pi / 8.0),
        (math.pi / 4.0, math.pi / 8.0),
        (math.pi / 4.0, 3.0 * math.pi / 8.0),
    )


# -------------------------------------------------------------- estimator


def _expected_counts(v, pairs_per_setting):
    """The exact expected (non-integer) counts at the CHSH settings."""
    return CoincidenceCounts(CHSH_SETTINGS, [
        [pairs_per_setting * p for p in joint_probabilities(v, a, b)] for a, b in CHSH_SETTINGS])


def test_ideal_singlet_reaches_tsirelson():
    counts = _expected_counts(1.0, 1e6)
    res = chsh_estimate(counts)
    assert res.s_value == pytest.approx(TSIRELSON, abs=1e-10)


def test_uniform_counts_give_zero():
    counts = CoincidenceCounts(CHSH_SETTINGS, np.full((4, 4), 250.0))
    assert chsh_estimate(counts).s_value == 0.0


def test_reduced_visibility_scales_s():
    res = chsh_estimate(_expected_counts(0.9, 1e6))
    assert res.s_value == pytest.approx(0.9 * TSIRELSON, abs=1e-10)
    assert res.s_value == pytest.approx(2.546, abs=1e-3)


def test_estimator_bounds_on_random_counts():
    rng = np.random.default_rng(83)
    for _ in range(200):
        counts = CoincidenceCounts(CHSH_SETTINGS, rng.uniform(1.0, 1000.0, size=(4, 4)))
        res = chsh_estimate(counts)
        assert res.s_value <= 4.0 + 1e-12
        assert res.sigma > 0.0


def test_estimator_rejects_degenerate_input():
    with pytest.raises(DomainError):
        chsh_estimate(CoincidenceCounts(CHSH_SETTINGS, np.zeros((4, 4))))
    perfect = np.array([[0.0, 50.0, 50.0, 0.0]] * 4)
    with pytest.raises(DomainError):
        chsh_estimate(CoincidenceCounts(CHSH_SETTINGS, perfect))
    with pytest.raises(DomainError):
        CoincidenceCounts(CHSH_SETTINGS[:3] + ((0.0, math.nan),), np.full((4, 4), 25.0))


# -------------------------------------------------------- required photons


def test_required_photons_reference_values():
    assert required_photons(1.0) == 105
    assert required_photons(0.9) == 288
    assert required_photons(0.95) == 168


def test_required_photons_domain():
    with pytest.raises(DomainError):
        required_photons(1.0 / math.sqrt(2.0))
    with pytest.raises(DomainError):
        required_photons(0.3)
    with pytest.raises(DomainError):
        required_photons(1.1)
    with pytest.raises(OverflowError):
        required_photons(1.0 / math.sqrt(2.0) + 1e-12)


def test_required_photons_decreasing_in_visibility():
    vs = np.linspace(0.72, 1.0, 29)
    ns = [required_photons(float(v)) for v in vs]
    assert all(a > b for a, b in zip(ns, ns[1:]))


# ------------------------------------------------------------- monte carlo


def test_simulation_is_deterministic_across_scheduling():
    a = simulate_coincidences(0.9, 10_000, seed=42, workers=1)
    b = simulate_coincidences(0.9, 10_000, seed=42, workers=1)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_coincidences(0.9, 10_000, seed=42, workers=7)
    d = simulate_coincidences(0.9, 10_000, seed=42, workers=7)
    assert np.array_equal(c.counts, d.counts)
    assert not np.array_equal(a.counts, c.counts)  # different stream split
    assert np.sum(a.counts) == np.sum(c.counts) == 10_000


def test_simulation_seed_changes_counts():
    a = simulate_coincidences(0.9, 10_000, seed=1)
    b = simulate_coincidences(0.9, 10_000, seed=2)
    assert not np.array_equal(a.counts, b.counts)


def test_uncorrelated_source_gives_small_s():
    n = 4_000_000
    res = chsh_estimate(simulate_coincidences(1e-12, n, seed=3))
    assert res.s_value < 5.0 * math.sqrt(16.0 / n)


def test_ideal_source_reaches_tsirelson_within_errors():
    res = chsh_estimate(simulate_coincidences(1.0, 1_000_000, seed=4))
    assert abs(res.s_value - TSIRELSON) < 5.0 * res.sigma
    assert res.s_value <= TSIRELSON + 5.0 * res.sigma


def test_simulated_correlations_are_bounded():
    counts = simulate_coincidences(0.95, 100_000, seed=5)
    c = np.array(counts.counts)
    e = (c[:, 0] + c[:, 3] - c[:, 1] - c[:, 2]) / c.sum(axis=1)
    assert np.all(np.abs(e) <= 1.0)


def _path_cases():
    """(v, n_pairs, settings, seed, workers): seeds past 2**53 (which a float would
    round), the budget and worker caps, budgets small enough that every binomial
    takes the inversion branch (n p <= 30) next to ones that take BTPE, and aligned
    analyzers, whose probabilities 0 and 1/2 reach p = 0 and the p > 1/2 reflection."""
    aligned = ((0.0, 0.0), (0.0, 0.5 * math.pi))
    cases = [
        (0.95, int(PHOTON_CAP), CHSH_SETTINGS, 9007199254740993, 1),
        (0.95, int(PHOTON_CAP), CHSH_SETTINGS, 2**64 - 1, WORKER_CAP),
        (1.0, 1_000_000, CHSH_SETTINGS, 2**53, WORKER_CAP),
        (0.0, 100, CHSH_SETTINGS, 2**64 - 1, 3),
        (1.0, 105, CHSH_SETTINGS, 5_000_000, 1),
        (1.0, 1_000_000, aligned, 7, 2),
        (1.0, 50, aligned, 2**64 - 1, 1),
    ]
    rng = random.Random(12)
    for _ in range(300):
        v = rng.choice((0.0, 1.0, V_MIN, rng.random(), rng.random()))
        n = rng.choice((rng.randint(1, 120), rng.randint(1, 480),
                        int(10 ** rng.uniform(0.0, 12.0))))
        seed = rng.choice((rng.randrange(2**16), rng.randrange(2**53, 2**64)))
        workers = rng.choice((1, 1, 2, 3, rng.randint(1, 64)))
        cases.append((v, n, CHSH_SETTINGS, seed, workers))
    return cases


def test_python_stream_matches_numpy_generator():
    # the Python stream stands in for numpy's wherever numpy is not loaded
    mismatched = [case for case in _path_cases()
                  if bell._simulate_numpy(*case) != bell._simulate_python(*case)]
    assert not mismatched, (
        "relqopt._philox no longer gives numpy's Generator(Philox(child)).multinomial "
        f"counts (a numpy release may have changed its streams, NEP 19): {mismatched[:5]}")


def test_invalid_simulation_inputs():
    with pytest.raises(DomainError):
        simulate_coincidences(0.9, 0)
    with pytest.raises(DomainError):
        simulate_coincidences(0.9, 100, workers=0)
    with pytest.raises(DomainError):
        simulate_coincidences(0.9, 100, workers=WORKER_CAP + 1)
    # a float budget is refused, not rounded to another budget
    for budget in (1000.5, 10.9, 1000.0):
        with pytest.raises(TypeError):
            simulate_coincidences(0.9, budget, seed=3)
    assert simulate_coincidences(0.9, np.int64(1000), seed=3) == simulate_coincidences(
        0.9, 1000, seed=3)


# ------------------------------------------------------------------- csv


def test_counts_csv_format(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    assert main(["bell-sim", "--photons", "1000", "--seed", "6", "--workers", "3",
                 "--counts-out", str(path)]) == 0
    text = path.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "alpha,beta,n_pp,n_pm,n_mp,n_mm"
    assert lines[-1] == ""
    assert len(lines) == 6  # header + 4 rows + trailing newline
    total = 0
    for row, (alpha, beta) in zip(lines[1:5], CHSH_SETTINGS):
        cells = row.split(",")
        assert len(cells) == 6
        assert (float(cells[0]), float(cells[1])) == (alpha, beta)
        total += sum(int(x) for x in cells[2:])
    assert total == 1000
    assert "\r" not in text


def test_photon_curve_csv(capsys):
    argv = ["curves", "--which", "photons", "--v-min", "0.85", "--v-max", "1.0", "--points", "7"]
    assert main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "V,N"
    rows = [row.split(",") for row in lines[1:]]
    assert [n for _, n in rows] == [str(required_photons(float(v))) for v, _ in rows]
    # 17 significant digits round-trip for the float column
    assert float(rows[0][0]) == 0.85
    # the table prints the same rows to 9 digits
    assert main(argv) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert table == [[format(float(v), ".9g"), format(float(n), ".9g")] for v, n in rows]
