import math

import numpy as np
import pytest

from relqopt.bell import (
    CHSH_SETTINGS,
    WORKER_CAP,
    CoincidenceCounts,
    analytic_counts,
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
        assert p.shape == (4,)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(joint_probabilities(0.0, 0.3, 1.1), 0.25)


def test_chsh_settings_are_the_standard_arrangement():
    assert tuple(CHSH_SETTINGS) == (
        (0.0, math.pi / 8.0),
        (0.0, 3.0 * math.pi / 8.0),
        (math.pi / 4.0, math.pi / 8.0),
        (math.pi / 4.0, 3.0 * math.pi / 8.0),
    )


# -------------------------------------------------------------- estimator


def test_ideal_singlet_reaches_tsirelson():
    counts = analytic_counts(1.0, 1e6)
    res = chsh_estimate(counts)
    assert res.s_value == pytest.approx(TSIRELSON, abs=1e-10)


def test_uniform_counts_give_zero():
    counts = CoincidenceCounts(CHSH_SETTINGS, np.full((4, 4), 250.0))
    assert chsh_estimate(counts).s_value == 0.0


def test_reduced_visibility_scales_s():
    res = chsh_estimate(analytic_counts(0.9, 1e6))
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
        analytic_counts(0.9, 100.0, settings=CHSH_SETTINGS[:3] + ((0.0, math.nan),))


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
    assert a.counts.sum() == c.counts.sum() == 10_000


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
    c = counts.counts
    e = (c[:, 0] + c[:, 3] - c[:, 1] - c[:, 2]) / c.sum(axis=1)
    assert np.all(np.abs(e) <= 1.0)


def test_invalid_simulation_inputs():
    with pytest.raises(DomainError):
        simulate_coincidences(0.9, 0)
    with pytest.raises(DomainError):
        simulate_coincidences(0.9, 100, workers=0)
    with pytest.raises(DomainError):
        simulate_coincidences(0.9, 100, workers=WORKER_CAP + 1)


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
