import math
import random

import numpy as np
import pytest

from relqopt import _philox, bell
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
from relqopt.errors import DomainError, NumericFailure

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
    return CoincidenceCounts([
        [pairs_per_setting * p for p in joint_probabilities(v, a, b)] for a, b in CHSH_SETTINGS])


def test_ideal_singlet_reaches_tsirelson():
    counts = _expected_counts(1.0, 1e6)
    res = chsh_estimate(counts)
    assert res.s_value == pytest.approx(TSIRELSON, abs=1e-10)


def test_uniform_counts_give_zero():
    counts = CoincidenceCounts(np.full((4, 4), 250.0))
    assert chsh_estimate(counts).s_value == 0.0


def test_reduced_visibility_scales_s():
    res = chsh_estimate(_expected_counts(0.9, 1e6))
    assert res.s_value == pytest.approx(0.9 * TSIRELSON, abs=1e-10)
    assert res.s_value == pytest.approx(2.546, abs=1e-3)


def test_estimator_bounds_on_random_counts():
    rng = np.random.default_rng(83)
    for _ in range(200):
        counts = CoincidenceCounts(rng.uniform(1.0, 1000.0, size=(4, 4)))
        res = chsh_estimate(counts)
        assert res.s_value <= 4.0 + 1e-12
        assert res.sigma > 0.0


def test_estimator_rejects_degenerate_input():
    with pytest.raises(DomainError):
        chsh_estimate(CoincidenceCounts(np.zeros((4, 4))))
    perfect = np.array([[0.0, 50.0, 50.0, 0.0]] * 4)
    with pytest.raises(DomainError):
        chsh_estimate(CoincidenceCounts(perfect))


@pytest.mark.parametrize("counts", [[[1e-300, 0, 0, 1e-300]] * 4, [[1e300] * 4] * 4],
                         ids=["cube_underflows", "cube_overflows"])
def test_estimator_reports_a_total_whose_cube_leaves_the_float_range(counts):
    with pytest.raises(NumericFailure, match="out of range for the Poisson error"):
        chsh_estimate(CoincidenceCounts(counts))


@pytest.mark.parametrize("shape", [(3, 4), (5, 4), (4, 3)])
def test_counts_must_be_one_row_of_four_per_chsh_setting(shape):
    with pytest.raises(DomainError, match=r"shape \(4, 4\)"):
        CoincidenceCounts(np.full(shape, 25.0))


@pytest.mark.parametrize("counts", [None, [1, 2, 3, 4], 25.0, [(25.0,) * 4] * 3 + [None]],
                         ids=["None", "flat", "scalar", "row_None"])
def test_counts_that_are_not_a_table_are_refused_by_shape(counts):
    with pytest.raises(DomainError, match=r"^counts must have shape \(4, 4\)$"):
        CoincidenceCounts(counts)


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
    """(v, n_pairs, seed, workers): seeds past 2**53 (which a float would round), the
    budget and worker caps, and budgets small enough that every binomial takes the
    inversion branch (n p <= 30) next to ones that take BTPE."""
    cases = [
        (0.95, int(PHOTON_CAP), 9007199254740993, 1),
        (0.95, int(PHOTON_CAP), 2**64 - 1, WORKER_CAP),
        (1.0, 1_000_000, 2**53, WORKER_CAP),
        (0.0, 100, 2**64 - 1, 3),
        (1.0, 105, 5_000_000, 1),
    ]
    rng = random.Random(12)
    for _ in range(300):
        v = rng.choice((0.0, 1.0, V_MIN, rng.random(), rng.random()))
        n = rng.choice((rng.randint(1, 120), rng.randint(1, 480),
                        int(10 ** rng.uniform(0.0, 12.0))))
        seed = rng.choice((rng.randrange(2**16), rng.randrange(2**53, 2**64)))
        workers = rng.choice((1, 1, 2, 3, rng.randint(1, 64)))
        cases.append((v, n, seed, workers))
    return cases


def _counting(calls, key, fn, when=lambda *args: True):
    def counted(*args):
        calls[key] += when(*args)
        return fn(*args)
    return counted


def test_python_stream_matches_numpy_generator(monkeypatch):
    # the Python stream stands in for numpy's wherever numpy is not loaded
    calls = dict.fromkeys(("inversion", "btpe", "reflection"), 0)
    monkeypatch.setattr(_philox, "_inversion", _counting(calls, "inversion", _philox._inversion))
    monkeypatch.setattr(_philox, "_btpe", _counting(calls, "btpe", _philox._btpe))
    monkeypatch.setattr(_philox, "_binomial", _counting(
        calls, "reflection", _philox._binomial, lambda rand, n, p: p > 0.5))
    mismatched = [case for case in _path_cases()
                  if bell._simulate_numpy(*case) != bell._simulate_python(*case)]
    assert not mismatched, (
        "relqopt._philox no longer gives numpy's Generator(Philox(child)).multinomial "
        f"counts (a numpy release may have changed its streams, NEP 19): {mismatched[:5]}")
    # the cases reach both binomial branches and the p > 1/2 reflection
    assert all(calls.values()), calls


# the seeds of one, two, three and five words: 2**130 + 5's words past the pool's four are
# mixed in before the spawn word
SPAWN_SEEDS = [0, 7, 2**32, 2**64 - 1, 2**130 + 5]


@pytest.mark.parametrize("seed", SPAWN_SEEDS)
def test_array_keys_are_the_spawned_children_s_states(seed):
    # one pass over an array of child indices gives every child's generate_state(2, uint64);
    # an int child gives the same key
    pool, h = _philox._seed_pool(seed)
    children = np.arange(WORKER_CAP, dtype=np.uint64)
    k0, k1 = _philox._child_key(pool, h, children)
    expected = np.array([c.generate_state(2, np.uint64)
                         for c in np.random.SeedSequence(seed).spawn(WORKER_CAP)])
    assert k0.tolist() == expected[:, 0].tolist() and k1.tolist() == expected[:, 1].tolist()
    assert children.tolist() == list(range(WORKER_CAP))  # the pass leaves its input as it was
    assert [_philox._child_key(pool, h, i) for i in (0, 1, WORKER_CAP - 1)] == [
        tuple(expected[i].tolist()) for i in (0, 1, WORKER_CAP - 1)]


@pytest.mark.parametrize("workers", [1, 2, 3, 7, 8, 64, WORKER_CAP])
@pytest.mark.parametrize("seed", SPAWN_SEEDS)
def test_numpy_streams_are_the_spawned_children(seed, workers):
    # each stream is built, or a Philox re-keyed, from its spawn key alone, without the
    # parent's pool
    def spawned(v, n_pairs, seed, workers):
        draws = (lambda n, p, m=np.random.Generator(np.random.Philox(s)).multinomial:
                 m(n, p).tolist() for s in np.random.SeedSequence(seed).spawn(workers))
        probs = [np.array(joint_probabilities(v, a, b)) for a, b in CHSH_SETTINGS]
        return bell._draw(draws, probs, n_pairs, workers)

    for v, n_pairs in ((0.9, 1_000_003), (0.5, 37)):
        assert bell._simulate_numpy(v, n_pairs, seed, workers) == spawned(v, n_pairs, seed, workers)


# (v, n_pairs, seed, workers) -> counts, fixed so that a fault that both streams
# share (the split into shares, or the sum over workers) fails a test
PINNED_COUNTS = {
    (0.95, 1_000_003, 2**64 - 1, 1): [[20387, 104305, 104703, 20606],
                                       [104546, 20655, 20600, 104200],
                                       [20651, 104174, 104562, 20614],
                                       [20507, 104706, 104143, 20644]],
    (0.95, 1_000_003, 2**64 - 1, 64): [[20504, 104452, 104536, 20509],
                                        [103952, 20555, 20773, 104721],
                                        [20562, 104325, 104404, 20710],
                                        [20472, 104084, 104731, 20713]],
    (0.9, 10_000, 42, 7): [[237, 1003, 1040, 220], [970, 224, 241, 1065],
                           [243, 1061, 983, 213], [228, 1025, 1029, 218]],
    # fewer pairs than 4 x workers: some streams draw nothing for some settings
    (0.8, 37, 5, 12): [[1, 4, 5, 0], [4, 0, 0, 5], [2, 5, 1, 1], [1, 2, 6, 0]],
    # fewer pairs than settings: the last setting keeps a row of zeros
    (0.9, 3, 7, 2): [[0, 1, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0]],
}


@pytest.mark.parametrize("case", list(PINNED_COUNTS))
@pytest.mark.parametrize("simulate", ["_simulate_numpy", "_simulate_python"])
def test_stream_counts_are_pinned(simulate, case, monkeypatch):
    expected = PINNED_COUNTS[case]
    assert getattr(bell, simulate)(*case) == expected
    # simulate_coincidences takes the numpy path while numpy is loaded
    monkeypatch.setattr(bell, "_simulate_numpy", getattr(bell, simulate))
    assert simulate_coincidences(*case) == CoincidenceCounts(expected)


@pytest.mark.parametrize("workers", [1, 2, 8, 64])
def test_numpy_streams_share_one_generator(workers, monkeypatch):
    # every later stream re-keys stream 0's generator, and one stream makes no key pass
    calls = {"Generator": 0}
    monkeypatch.setattr(np.random, "Generator",
                        _counting(calls, "Generator", np.random.Generator))
    if workers == 1:
        monkeypatch.setattr(_philox, "_seed_pool", lambda seed: pytest.fail("a key pass ran"))
    counts = bell._simulate_numpy(0.95, 1_000_003, 2**64 - 1, workers)
    assert calls["Generator"] == 1
    if workers == 1:
        assert counts == PINNED_COUNTS[(0.95, 1_000_003, 2**64 - 1, 1)]


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
    # so is a float seed or stream count (test_package checks the Python stream too)
    for kwargs in ({"seed": 1.0}, {"seed": 3.5}, {"workers": 2.0}):
        with pytest.raises(TypeError):
            simulate_coincidences(0.9, 1000, **kwargs)
    # and a bool, which operator.index would read as 0 or 1
    for kwargs in ({"n_pairs": True}, {"seed": False}, {"workers": True}):
        with pytest.raises(TypeError, match="not bool"):
            simulate_coincidences(0.9, **{"n_pairs": 1000, **kwargs})
    assert simulate_coincidences(0.9, 1000, seed=np.uint64(3), workers=np.int64(2)) == (
        simulate_coincidences(0.9, 1000, seed=3, workers=2))


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


def test_negative_seed_is_a_domain_error_naming_seed():
    # refused before either stream is chosen, so both give the same error
    with pytest.raises(DomainError, match=r"^seed must be nonnegative$"):
        simulate_coincidences(0.9, 1000, seed=-1)


def test_negative_count_is_refused():
    with pytest.raises(DomainError, match=r"^counts must be finite and nonnegative$"):
        CoincidenceCounts([[1.0, 2.0, 3.0, 4.0]] * 3 + [[1.0, -1.0, 3.0, 4.0]])
