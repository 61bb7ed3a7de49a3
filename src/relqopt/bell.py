"""CHSH statistics: correlation estimation, photon budgets, coincidence MC.

The quantum model is visibility-degraded singlet correlations
E(alpha, beta) = -v cos 2(alpha - beta) with uniform single-side marginals.
A 3-sigma violation is one-sided: (S - 2)/sigma >= 3.  Counts, the estimator
and the Monte Carlo all use the standard CHSH arrangement, `CHSH_SETTINGS`.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple

from .constants import PHOTON_CAP, WORKER_CAP
from .errors import DomainError, NumericFailure, Record, check_finite, is_finite

V_MIN = 1.0 / math.sqrt(2.0)

# standard CHSH arrangement (alpha, beta) per correlation slot; S uses
# E1 - E2 + E3 + E4
CHSH_SETTINGS = (
    (0.0, math.pi / 8.0),
    (0.0, 3.0 * math.pi / 8.0),
    (math.pi / 4.0, math.pi / 8.0),
    (math.pi / 4.0, 3.0 * math.pi / 8.0),
)


class CoincidenceCounts(Record):
    """Counts per row of `CHSH_SETTINGS`, in its order; outcome order ++, +-, -+, --.

    Counts are a 4x4 table of floats so exact analytic expectations can be fed
    to the estimator; the simulator always produces nonnegative integers.
    """

    __slots__ = ("counts",)

    def __init__(self, counts):
        try:
            rows = tuple(tuple(row) for row in counts)
        except TypeError:  # counts, or one of its rows, is not iterable
            rows = None
        if rows is None or len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise DomainError("counts must have shape (4, 4)")
        if not all(is_finite(x) and x >= 0.0 for r in rows for x in r):
            raise DomainError("counts must be finite and nonnegative")
        object.__setattr__(self, "counts", tuple(tuple(map(float, r)) for r in rows))


class ChshResult(NamedTuple):
    s_value: float
    sigma: float
    n_sigma_violation: float


def singlet_correlation(v: float, alpha: float, beta: float) -> float:
    """E = -v cos 2(alpha - beta)."""
    v = check_finite("visibility", v)
    if not 0.0 <= v <= 1.0:
        raise DomainError("visibility must lie in [0, 1]")
    alpha, beta = check_finite("alpha", alpha), check_finite("beta", beta)
    return -v * math.cos(2.0 * (alpha - beta))


def joint_probabilities(v: float, alpha: float, beta: float) -> tuple:
    """P(++, +-, -+, --) with uniform marginals and singlet correlation."""
    e = singlet_correlation(v, alpha, beta)
    return ((1.0 + e) / 4.0, (1.0 - e) / 4.0, (1.0 - e) / 4.0, (1.0 + e) / 4.0)


def required_photons(v: float) -> int:
    """Smallest integer N > 36 (1 - V^2/2) / (sqrt(2) V - 1)^2 for 3 sigma."""
    v = check_finite("visibility", v)
    if not v > V_MIN:
        raise DomainError("no violation possible for visibility <= 1/sqrt(2)")
    if v > 1.0:
        raise DomainError("visibility must be <= 1")
    x = 36.0 * (1.0 - 0.5 * v * v) / (math.sqrt(2.0) * v - 1.0) ** 2
    if x > PHOTON_CAP:
        raise OverflowError("required photon number exceeds cap near the visibility threshold")
    return int(math.floor(x)) + 1


def chsh_estimate(counts: CoincidenceCounts) -> ChshResult:
    """S and its Poisson-propagated standard error from coincidence counts.

    E_i = (N_pp + N_mm - N_pm - N_mp) / N_i; S = |E1 - E2 + E3 + E4|;
    each raw count is treated as Poisson (variance = count).
    """
    e, variance = [], 0.0
    # every sum runs left to right (Python >= 3.12's sum() compensates)
    for n_pp, n_pm, n_mp, n_mm in counts.counts:
        same, diff = n_pp + n_mm, n_pm + n_mp
        total = n_pp + n_pm + n_mp + n_mm
        if not total > 0.0:
            raise DomainError("every setting needs a positive total count")
        e.append((same - diff) / total)
        # var(E) = 4 A B / T^3 from Poisson propagation through (A - B)/(A + B)
        try:
            variance += 4.0 * same * diff / total**3
        except (OverflowError, ZeroDivisionError):  # total**3 leaves the float range
            raise NumericFailure("count totals out of range for the Poisson error") from None
    if variance <= 0.0:
        raise DomainError("degenerate counts: Poisson error estimate vanished")
    s = abs(e[0] - e[1] + e[2] + e[3])
    sigma = math.sqrt(variance)
    return ChshResult(s_value=s, sigma=sigma, n_sigma_violation=(s - 2.0) / sigma)


def simulate_coincidences(
    v: float,
    n_pairs: int,
    seed: int = 0,
    workers: int = 1,
) -> CoincidenceCounts:
    """Sample coincidence counts for n_pairs total pairs at the `CHSH_SETTINGS`.

    Pairs are split as evenly as possible across the four setting pairs, then
    across worker streams (SeedSequence spawn of `seed`).  Each stream draws
    its shares as numpy's Generator(Philox(child)).multinomial does
    (`_simulate_numpy` says how, and at what cost per stream), and each row sums
    its streams' draws, so counts are bitwise reproducible for a given (seed,
    workers).  The draws run in numpy when a caller has already imported it, and
    otherwise in `_philox`, which gives the same counts without numpy's import.
    `n_pairs`, `seed` and `workers` must be integers (numpy integers too); a
    float or a bool is a TypeError on both paths.
    """
    if any(isinstance(x, bool) for x in (n_pairs, seed, workers)):
        raise TypeError("n_pairs, seed and workers must be integers, not bool")
    n_pairs, seed, workers = map(operator.index, (n_pairs, seed, workers))
    if n_pairs <= 0:
        raise DomainError("n_pairs must be positive")
    if seed < 0:
        raise DomainError("seed must be nonnegative")
    if not 1 <= workers <= WORKER_CAP:
        raise DomainError(f"workers must lie in [1, {WORKER_CAP}]")
    simulate = _simulate_numpy if "numpy" in sys.modules else _simulate_python
    return CoincidenceCounts(simulate(v, n_pairs, seed, workers))


def _draw(multinomials, probs, n_pairs, workers) -> list:
    """Counts per setting pair: the column sums of the int lists its workers' multinomials draw."""
    per_setting = [n_pairs // 4 + (1 if i < n_pairs % 4 else 0) for i in range(4)]
    # a zero row keeps four columns for a setting that no stream draws (n_pairs < 4)
    draws = [[[0, 0, 0, 0]] for _ in range(4)]
    for w, multinomial in enumerate(multinomials):
        for d, p, n_i in zip(draws, probs, per_setting):
            share = n_i // workers + (1 if w < n_i % workers else 0)
            if share:
                d.append(multinomial(share, p))
    return [[sum(c) for c in zip(*d)] for d in draws]


def _simulate_numpy(v, n_pairs, seed, workers) -> list:
    """Counts per setting pair from numpy's spawned Philox generators.

    Stream 0 draws from Generator(Philox(child 0)), built as spawn builds it (~13 us).  A
    Philox stream is its key and counter, so each later stream re-keys that Philox to its
    child's key with stream 0's starting state, a zero counter and an empty buffer (~1 us
    each), after one `_philox` pass over child indices 1 to workers - 1 gives every key
    (~60 us; so 2 to 6 streams cost more than building each would).  Without numpy,
    `_simulate_python` takes ~37 us per stream (2-core x86-64).
    """
    import numpy as np
    probs = [np.array(joint_probabilities(v, a, b)) for a, b in CHSH_SETTINGS]
    bits = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,)))
    draw = lambda n, p, m=np.random.Generator(bits).multinomial: m(n, p).tolist()
    if workers == 1:
        return _draw([draw], probs, n_pairs, workers)
    from . import _philox
    state = bits.state  # read before stream 0 draws: a zero counter, buffer_pos 4 (empty)
    k0, k1 = _philox._child_key(*_philox._seed_pool(seed), np.arange(1, workers, dtype=np.uint64))

    def streams():
        yield draw
        for key in zip(k0.tolist(), k1.tolist()):
            state["state"]["key"] = key
            bits.state = state
            yield draw
    return _draw(streams(), probs, n_pairs, workers)


def _simulate_python(v, n_pairs, seed, workers) -> list:
    """`_simulate_numpy`'s counts, bit for bit, from `_philox` without numpy."""
    from . import _philox
    probs = [joint_probabilities(v, a, b) for a, b in CHSH_SETTINGS]
    return _draw(_philox.spawned_multinomials(seed, workers), probs, n_pairs, workers)
