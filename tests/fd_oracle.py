"""Independent finite-difference oracle for the equator drift-diffusion equation.

Explicit Euler in lambda on a periodic grid: central second difference for
the diffusion term, first-order upwind difference for the drift term, with
a CFL-limited step.  Deliberately shares no code with the spectral solver.
"""

import functools

import numpy as np

from relqopt.diffusion import CircleDensity, DiffusionParams, evolve_equator


def evolve_fd(v0, c_diff, d_drift, lambda_span):
    v = np.asarray(v0, dtype=float).copy()
    n = v.size
    h = 2.0 * np.pi / n
    limits = []
    if c_diff > 0.0:
        limits.append(h * h / (2.0 * c_diff))
    if d_drift != 0.0:
        limits.append(h / abs(d_drift))
    if not limits:
        return v
    dt_max = 0.4 * min(limits)
    steps = max(1, int(np.ceil(lambda_span / dt_max)))
    dt = lambda_span / steps
    # v lives in buf[1:-1]; buf[0] and buf[-1] are the periodic neighbours, so
    # left/mid/right are v[i-1], v[i], v[i+1] and each step updates in place
    buf = np.empty(n + 2)
    buf[1:-1] = v
    left, mid, right = buf[:-2], buf[1:-1], buf[2:]
    lap = np.empty(n)
    adv = np.empty(n)
    for _ in range(steps):
        buf[0], buf[-1] = buf[-2], buf[1]
        # lap = (v[i+1] - 2 v[i] + v[i-1]) / h^2
        np.multiply(mid, 2.0, out=lap)
        np.subtract(right, lap, out=lap)
        np.add(lap, left, out=lap)
        np.divide(lap, h * h, out=lap)
        # upwind: adv = (v[i] - v[i-1]) / h for d >= 0, else (v[i+1] - v[i]) / h
        if d_drift >= 0.0:
            np.subtract(mid, left, out=adv)
        else:
            np.subtract(right, mid, out=adv)
        np.divide(adv, h, out=adv)
        # v += dt * (c lap - d adv)
        np.multiply(lap, c_diff, out=lap)
        np.multiply(adv, d_drift, out=adv)
        np.subtract(lap, adv, out=lap)
        np.multiply(lap, dt, out=lap)
        np.add(mid, lap, out=mid)
    return mid.copy()


@functools.lru_cache(maxsize=1)
def gaussian_l1_difference():
    """L1 distance between the spectral solution and the oracle (shared case)."""
    n = 4096
    c_diff, d_drift, lam = 0.1, 0.02, 0.3
    rho0 = CircleDensity.wrapped_gaussian(mean=1.0, sigma=0.35, modes=512)
    v0 = rho0.to_grid(n)
    spectral = evolve_equator(rho0, DiffusionParams(c_diff, d_drift), lam).to_grid(n)
    fd = evolve_fd(v0, c_diff, d_drift, lam)
    h = 2.0 * np.pi / n
    return float(np.sum(np.abs(spectral - fd)) * h)
