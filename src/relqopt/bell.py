"""CHSH statistics: correlation estimation, photon budgets, coincidence MC.

The quantum model is visibility-degraded singlet correlations
E(alpha, beta) = -v cos 2(alpha - beta) with uniform single-side marginals.
A 3-sigma violation is one-sided: (S - 2)/sigma >= 3.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple

from . import _philox
from .errors import DomainError, Record

V_MIN = 1.0 / math.sqrt(2.0)
PHOTON_CAP = 1.0e12
# Monte Carlo streams: each one is a SeedSequence child and a Philox generator
# built in a Python loop, ~40 us with numpy and ~100 us without, so the count
# is bounded
WORKER_CAP = 1024

# standard CHSH arrangement (alpha, beta) per correlation slot; S uses
# E1 - E2 + E3 + E4
CHSH_SETTINGS = (
    (0.0, math.pi / 8.0),
    (0.0, 3.0 * math.pi / 8.0),
    (math.pi / 4.0, math.pi / 8.0),
    (math.pi / 4.0, 3.0 * math.pi / 8.0),
)


def _as_setting_pairs(settings) -> tuple[tuple[float, float], ...]:
    """Analyzer settings as (alpha, beta) float pairs; DomainError unless finite."""
    out = []
    for alpha, beta in settings:
        alpha, beta = float(alpha), float(beta)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise DomainError("analyzer angles must be finite")
        out.append((alpha, beta))
    return tuple(out)


class CoincidenceCounts(Record):
    """Counts per (setting pair, outcome pair), outcome order ++, +-, -+, --.

    Counts are rows of 4 floats so exact analytic expectations can be fed to
    the estimator; the simulator always produces nonnegative integers.
    """

    __slots__ = ("settings", "counts")

    def __init__(self, settings, counts):
        settings = _as_setting_pairs(settings)
        rows = tuple(tuple(map(float, row)) for row in counts)
        if len(rows) != len(settings) or any(len(r) != 4 for r in rows):
            raise DomainError("counts must have shape (n_settings, 4)")
        if not all(0.0 <= x < math.inf for r in rows for x in r):
            raise DomainError("counts must be finite and nonnegative")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", rows)


class ChshResult(NamedTuple):
    s_value: float
    sigma: float
    n_sigma_violation: float


def singlet_correlation(v: float, alpha: float, beta: float) -> float:
    """E = -v cos 2(alpha - beta)."""
    if not 0.0 <= v <= 1.0:
        raise DomainError("visibility must lie in [0, 1]")
    return -v * math.cos(2.0 * (alpha - beta))


def joint_probabilities(v: float, alpha: float, beta: float) -> tuple:
    """P(++, +-, -+, --) with uniform marginals and singlet correlation."""
    e = singlet_correlation(v, alpha, beta)
    return ((1.0 + e) / 4.0, (1.0 - e) / 4.0, (1.0 - e) / 4.0, (1.0 + e) / 4.0)


def required_photons(v: float) -> int:
    """Smallest integer N > 36 (1 - V^2/2) / (sqrt(2) V - 1)^2 for 3 sigma."""
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
    if len(counts.settings) != 4:
        raise DomainError("CHSH needs exactly 4 setting pairs")
    e, variance = [], 0.0
    # every sum runs left to right (Python >= 3.12's sum() compensates)
    for n_pp, n_pm, n_mp, n_mm in counts.counts:
        same, diff = n_pp + n_mm, n_pm + n_mp
        total = n_pp + n_pm + n_mp + n_mm
        if not total > 0.0:
            raise DomainError("every setting needs a positive total count")
        e.append((same - diff) / total)
        # var(E) = 4 A B / T^3 from Poisson propagation through (A - B)/(A + B)
        variance += 4.0 * same * diff / total**3
    if variance <= 0.0:
        raise DomainError("degenerate counts: Poisson error estimate vanished")
    s = abs(e[0] - e[1] + e[2] + e[3])
    sigma = math.sqrt(variance)
    return ChshResult(s_value=s, sigma=sigma, n_sigma_violation=(s - 2.0) / sigma)


def simulate_coincidences(
    v: float,
    n_pairs: int,
    settings=CHSH_SETTINGS,
    seed: int = 0,
    workers: int = 1,
) -> CoincidenceCounts:
    """Sample coincidence counts for n_pairs total pairs.

    Pairs are split as evenly as possible across settings, then across
    worker streams (SeedSequence spawn of `seed`); each worker's outcome
    draws are multinomial in its own stream, and worker results are summed,
    so counts are bitwise reproducible for a given (seed, workers) no matter
    how the workers are scheduled.  The draws are numpy's
    Generator(Philox(child)).multinomial; they run in numpy when a caller has
    already imported it, and otherwise in `_philox`, which gives the same
    counts without numpy's import.  `n_pairs` must be an integer (a numpy
    integer too); a float is a TypeError, not another budget.
    """
    settings = _as_setting_pairs(settings)
    n_pairs = operator.index(n_pairs)
    if n_pairs <= 0:
        raise DomainError("n_pairs must be positive")
    if not 1 <= workers <= WORKER_CAP:
        raise DomainError(f"workers must lie in [1, {WORKER_CAP}]")
    simulate = _simulate_numpy if "numpy" in sys.modules else _simulate_python
    return CoincidenceCounts(settings, simulate(v, n_pairs, settings, seed, workers))


def _draw(multinomials, v, n_pairs, settings, workers) -> list:
    """Integer counts per setting; worker w draws its shares with the w-th multinomial."""
    n_set = len(settings)
    per_setting = [n_pairs // n_set + (1 if i < n_pairs % n_set else 0) for i in range(n_set)]
    probs = [joint_probabilities(v, alpha, beta) for alpha, beta in settings]
    rows = [[0, 0, 0, 0] for _ in settings]
    for w, multinomial in enumerate(multinomials):
        for row, p, n_i in zip(rows, probs, per_setting):
            share = n_i // workers + (1 if w < n_i % workers else 0)
            if share:
                for k, x in enumerate(multinomial(share, p)):
                    row[k] += int(x)
    return rows


def _simulate_numpy(v, n_pairs, settings, seed, workers) -> list:
    """Counts per setting from numpy's spawned Philox generators."""
    import numpy as np
    streams = np.random.SeedSequence(seed).spawn(workers)
    return _draw((np.random.Generator(np.random.Philox(s)).multinomial for s in streams),
                 v, n_pairs, settings, workers)


def _simulate_python(v, n_pairs, settings, seed, workers) -> list:
    """`_simulate_numpy`'s counts, bit for bit, from `_philox` without numpy."""
    return _draw(_philox.spawned_multinomials(seed, workers), v, n_pairs, settings, workers)
