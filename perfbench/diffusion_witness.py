"""diffusion_witness: the spectral/RK4 rotation-equivariance witness.

Each op runs `diffusion.equivariance_check` and `diffusion.evolve_equator`
on one of 17 seeded constant-coefficient `BlochTensorModel`s.  Densities
carry 32 to 126 modes on a 256-point grid (127 is the most that grid resolves);
lambda is set so the RK4 step counts are log-spaced from about 100 to 1000,
the same for every seed, so the seed changes the models but not the cost
of the mix.  No other workload reaches this solver.

Checks: the deviation is at most 1e-9; evolution preserves rho_0 = 1/(2 pi)
to 1e-12.
"""

from __future__ import annotations

import math
import random

import numpy as np

from relqopt import diffusion

# An odd count puts the median and p90 inside one model's samples rather than
# on the boundary between two models of different cost.
N_MODELS = 17
GRID = 256
STEPS = (100, 1000)
DEVIATION_TOL = 1e-9
RHO0_TOL = 1e-12


def _constant(value):
    return lambda theta: value


def model_for(rng, c_diff, d_drift):
    """Constant PSD tensor with K^{bb} = c_diff and drift u^b = d_drift."""
    k_aa = c_diff * rng.uniform(0.5, 2.0)
    k_ab = rng.uniform(-0.5, 0.5) * math.sqrt(k_aa * c_diff)
    eps = rng.uniform(1e-3, 1e-1)
    return diffusion.BlochTensorModel(
        k_tensor=_constant(np.array([[k_aa, k_ab], [k_ab, c_diff]])),
        u_vector=_constant(np.array([rng.uniform(-0.5, 0.5), d_drift])),
        density_of_states=lambda theta: math.sin(theta) + eps,
    )


class Workload:
    min_ops = 0

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        items = []
        m_max = GRID // 2
        lo, hi = math.log10(STEPS[0]), math.log10(STEPS[1])
        for i in range(N_MODELS):
            c = rng.uniform(0.004, 0.02)
            d = rng.uniform(-0.4, 0.4)
            steps = 10 ** (lo + (hi - lo) * (i + 0.5) / N_MODELS)
            stiff = c * m_max**2 + abs(d) * m_max
            modes = 32 + (95 * i) // N_MODELS + rng.randrange(95 // N_MODELS + 1)
            rho0 = diffusion.CircleDensity.wrapped_gaussian(
                rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 1.2), modes=modes)
            items.append((model_for(rng, c, d), rho0, rng.uniform(0.0, 2.0 * math.pi),
                          2.0 * steps / stiff))
        rng.shuffle(items)
        return items

    def op(self, item):
        model, rho0, rotation, lam = item
        deviation = diffusion.equivariance_check(model, rho0, rotation, lam, grid_n=GRID)
        evolved = diffusion.evolve_equator(rho0, model.equator_params(), lam)
        return deviation, evolved

    def check(self, item, out):
        deviation, evolved = out
        problems = []
        if not deviation <= DEVIATION_TOL:
            problems.append(f"equivariance deviation {deviation!r}")
        rho_0 = complex(evolved.coefficients[0])
        if not abs(rho_0 - 1.0 / (2.0 * math.pi)) <= RHO0_TOL:
            problems.append(f"rho_0 drifted to {rho_0!r}")
        return problems
