"""CHSH statistics: correlation estimation, photon budgets, coincidence MC.

The quantum model is visibility-degraded singlet correlations
E(alpha, beta) = -v cos 2(alpha - beta) with uniform single-side marginals.
A 3-sigma violation is one-sided: (S - 2)/sigma >= 3.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError

V_MIN = 1.0 / math.sqrt(2.0)
PHOTON_CAP = 1.0e12
# Monte Carlo streams: each one costs a SeedSequence child and a Philox
# generator built in a Python loop, so the count is bounded
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


class CoincidenceCounts:
    """Counts per (setting pair, outcome pair), outcome order ++, +-, -+, --.

    Counts are stored as floats so exact analytic expectations can be fed to
    the estimator; the simulator always produces nonnegative integers.
    """

    def __init__(self, settings, counts):
        self.settings = _as_setting_pairs(settings)
        c = np.asarray(counts, dtype=float)
        if c.shape != (len(self.settings), 4):
            raise DomainError("counts must have shape (n_settings, 4)")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise DomainError("counts must be finite and nonnegative")
        self.counts = c


class ChshResult(NamedTuple):
    s_value: float
    sigma: float
    n_sigma_violation: float


def singlet_correlation(v: float, alpha: float, beta: float) -> float:
    """E = -v cos 2(alpha - beta)."""
    if not 0.0 <= v <= 1.0:
        raise DomainError("visibility must lie in [0, 1]")
    return -v * math.cos(2.0 * (alpha - beta))


def joint_probabilities(v: float, alpha: float, beta: float) -> np.ndarray:
    """P(++, +-, -+, --) with uniform marginals and singlet correlation."""
    e = singlet_correlation(v, alpha, beta)
    return np.array([1.0 + e, 1.0 - e, 1.0 - e, 1.0 + e]) / 4.0


def analytic_counts(v: float, pairs_per_setting: float,
                    settings=CHSH_SETTINGS) -> CoincidenceCounts:
    """Exact expected counts (generally non-integer), for estimator checks."""
    settings = _as_setting_pairs(settings)
    rows = [pairs_per_setting * joint_probabilities(v, alpha, beta) for alpha, beta in settings]
    return CoincidenceCounts(settings, np.array(rows))


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
    c = counts.counts
    totals = c.sum(axis=1)
    if np.any(totals <= 0):
        raise DomainError("every setting needs a positive total count")
    same = c[:, 0] + c[:, 3]
    diff = c[:, 1] + c[:, 2]
    e = (same - diff) / totals
    s = abs(e[0] - e[1] + e[2] + e[3])
    # var(E) = 4 A B / T^3 from Poisson propagation through (A - B)/(A + B)
    variance = float(np.sum(4.0 * same * diff / totals**3))
    if variance <= 0.0:
        raise DomainError("degenerate counts: Poisson error estimate vanished")
    sigma = math.sqrt(variance)
    return ChshResult(s_value=float(s), sigma=sigma,
                      n_sigma_violation=(float(s) - 2.0) / sigma)


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
    how the workers are scheduled.
    """
    settings = _as_setting_pairs(settings)
    if n_pairs <= 0:
        raise DomainError("n_pairs must be positive")
    if not 1 <= workers <= WORKER_CAP:
        raise DomainError(f"workers must lie in [1, {WORKER_CAP}]")
    n_set = len(settings)
    per_setting = [n_pairs // n_set + (1 if i < n_pairs % n_set else 0) for i in range(n_set)]
    streams = np.random.SeedSequence(seed).spawn(workers)
    counts = np.zeros((n_set, 4))
    for w, stream in enumerate(streams):
        rng = np.random.Generator(np.random.Philox(stream))
        for i, (alpha, beta) in enumerate(settings):
            n_i = per_setting[i]
            share = n_i // workers + (1 if w < n_i % workers else 0)
            if share == 0:
                continue
            probs = joint_probabilities(v, alpha, beta)
            counts[i] += rng.multinomial(share, probs)
    return CoincidenceCounts(settings, counts)

