"""Lorentz-invariant polarization diffusion restricted to the Bloch equator.

Linear polarization lives on the equator of the polarization sphere with
azimuth beta; boosts act there as rotations.  The invariant evolution is

    d rho / d lambda = cDiff d^2 rho / d beta^2 - dDrift d rho / d beta

solved spectrally: rho_m(lambda) = rho_m(0) exp(-cDiff m^2 lambda
- i m dDrift lambda).  Densities are stored as Fourier coefficients for
m >= 0 (negative m follow by conjugate symmetry).

The closed-form observables for a constant-frequency beam over coordinate
time t are the frame-angle shift chi = t dDrift / nu and the depolarization
exponent mu = 4 t cDiff / nu (degree of polarization P' = exp(-mu) P).
The factor bookkeeping between these reduced forms and the abstract affine
parameter lambda = t/(h nu) follows the printed conventions; only the
products c*lambda and d*lambda are ever used.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

from .constants import PLANCK_H
from .errors import DomainError, Record

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MODES = 256
_GRID_FLOOR = -1e-9


class CircleDensity:
    """Probability density on the circle, stored spectrally (m = 0..modes)."""

    def __init__(self, coefficients):
        import numpy as np
        c = np.asarray(coefficients, dtype=complex).copy()
        if c.ndim != 1 or c.size < 1:
            raise DomainError("coefficients must be a 1-d array")
        if not np.isfinite(c).all():
            raise DomainError("coefficients must be finite")
        if not (abs(c[0].imag) <= 1e-12 and abs(2.0 * math.pi * c[0].real - 1.0) <= 1e-9):
            raise DomainError("density must integrate to 1 (rho_0 = 1/2pi)")
        self.coefficients = c
        grid = self.to_grid(max(8, 4 * (c.size - 1)))
        if not grid.min() >= _GRID_FLOOR:
            raise DomainError("density is negative beyond tolerance")

    @property
    def modes(self) -> int:
        return self.coefficients.size - 1

    @classmethod
    def wrapped_gaussian(cls, mean: float, sigma: float,
                         modes: int = DEFAULT_MODES) -> "CircleDensity":
        if not math.isfinite(mean):
            raise DomainError("mean must be finite")
        if not 0.0 < sigma < math.inf:
            raise DomainError("sigma must be positive and finite")
        import numpy as np
        m = np.arange(modes + 1)
        c = np.exp(-0.5 * (m * sigma) ** 2) * np.exp(-1j * m * mean) / (2.0 * math.pi)
        return cls(c)

    def to_grid(self, n: int) -> np.ndarray:
        """Evaluate on n uniform points (small negative ringing is kept)."""
        if n < 2 * self.modes + 2:
            raise DomainError("grid too coarse for the spectral content")
        import numpy as np
        spec = np.zeros(n // 2 + 1, dtype=complex)
        spec[: self.modes + 1] = self.coefficients * n
        return np.fft.irfft(spec, n=n)


class DiffusionParams(Record):
    """Diffusion and drift constants of the invariant equator equation (s^-2)."""

    __slots__ = ("c_diff", "d_drift")

    def __init__(self, c_diff, d_drift):
        if not (math.isfinite(c_diff) and math.isfinite(d_drift)):
            raise DomainError("c_diff and d_drift must be finite")
        if c_diff < 0:
            raise DomainError("c_diff must be nonnegative (anti-diffusion)")
        object.__setattr__(self, "c_diff", c_diff)
        object.__setattr__(self, "d_drift", d_drift)


def _check_span(lambda_span: float) -> None:
    if not 0.0 <= lambda_span < math.inf:
        raise DomainError("lambda_span must be finite and nonnegative")


def evolve_equator(rho0: CircleDensity, params: DiffusionParams,
                   lambda_span: float) -> CircleDensity:
    """Spectral evolution rho_m -> rho_m exp(-c m^2 L - i m d L)."""
    _check_span(lambda_span)
    import numpy as np
    m = np.arange(rho0.modes + 1)
    factor = np.exp(
        -params.c_diff * m.astype(float) ** 2 * lambda_span
        - 1j * m * params.d_drift * lambda_span
    )
    return CircleDensity(rho0.coefficients * factor)


def affine_parameter(t: float, nu: float) -> float:
    """Invariant affine parameter lambda = t / (h nu) for coordinate time t."""
    if nu <= 0:
        raise DomainError("nu must be positive")
    return t / (PLANCK_H * nu)


def angle_shift(t: float, nu: float, d_drift: float) -> float:
    """Frame-angle drift chi = t dDrift / nu accumulated over time t."""
    if nu <= 0:
        raise DomainError("nu must be positive")
    return t * d_drift / nu


def polarization_decay(t: float, nu: float, c_diff: float) -> float:
    """Depolarization exponent mu = 4 t cDiff / nu (P' = exp(-mu) P)."""
    if nu <= 0:
        raise DomainError("nu must be positive")
    return 4.0 * t * c_diff / nu


def drift_bound_from_angle(chi: float, t: float, nu: float) -> float:
    """Invert chi = t d / nu: the drift constant saturating an angle bound."""
    if t <= 0 or nu <= 0:
        raise DomainError("t and nu must be positive")
    return chi * nu / t


def diffusion_bound_from_decay(mu: float, t: float, nu: float) -> float:
    """Invert mu = 4 t c / nu: the diffusion constant saturating a decay bound."""
    if t <= 0 or nu <= 0:
        raise DomainError("t and nu must be positive")
    return mu * nu / (4.0 * t)


class BlochTensorModel(Record):
    """Polar-angle samplers for the general sphere model: k_tensor(theta) is
    the 2x2 K^{AB}, u_vector(theta) the 2-vector u^A, density_of_states(theta) n.

    Validity demands symmetric PSD K, positive n, and polar-only dependence
    (samplers of a single argument) — azimuth dependence would break the
    rotational invariance the equivariance witness checks.
    """

    __slots__ = ("k_tensor", "u_vector", "density_of_states")

    def __init__(self, k_tensor, u_vector, density_of_states):
        object.__setattr__(self, "k_tensor", k_tensor)
        object.__setattr__(self, "u_vector", u_vector)
        object.__setattr__(self, "density_of_states", density_of_states)

    def validate(self) -> None:
        import inspect
        import numpy as np
        for name, fn in zip(self.__slots__, self._values()):
            params = [
                p for p in inspect.signature(fn).parameters.values()
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            if len(params) != 1:
                raise DomainError(f"{name} must take exactly one polar-angle argument")
        for th in np.linspace(0.05, math.pi - 0.05, 17):
            k = np.asarray(self.k_tensor(float(th)), dtype=float)
            if (k.shape != (2, 2) or not np.isfinite(k).all()
                    or np.max(np.abs(k - k.T)) > 1e-12):
                raise DomainError("k_tensor must return a finite symmetric 2x2 tensor")
            if np.linalg.eigvalsh(k).min() < -1e-12:
                raise DomainError("k_tensor must be positive semidefinite")
            u = np.asarray(self.u_vector(float(th)), dtype=float)
            if u.shape != (2,) or not np.isfinite(u).all():
                raise DomainError("u_vector must return a finite 2-vector")
            if not self.density_of_states(float(th)) > 0:
                raise DomainError("density_of_states must be positive")

    def equator_params(self) -> DiffusionParams:
        """Constant equator coefficients: c = K^{bb}(pi/2), d = u^b(pi/2)."""
        th = 0.5 * math.pi
        return DiffusionParams(c_diff=float(self.k_tensor(th)[1][1]),
                               d_drift=float(self.u_vector(th)[1]))


def _rotate_grid(values: np.ndarray, angle: float) -> np.ndarray:
    """rho(beta) -> rho(beta - angle) via spectral shift."""
    import numpy as np
    n = values.size
    spec = np.fft.rfft(values)
    m = np.arange(spec.size)
    return np.fft.irfft(spec * np.exp(-1j * m * angle), n=n)


def equivariance_check(
    model: BlochTensorModel,
    rho0: CircleDensity,
    rotation: float,
    lambda_span: float,
    grid_n: int = 256,
    coefficient_samplers=None,
) -> float:
    """L1 distance between rotate-then-evolve and evolve-then-rotate.

    For any valid (polar-only) model the equator dynamics has constant
    coefficients and commutes with rotations, so the deviation is numerical
    noise.  `coefficient_samplers` is a test hook: a pair of callables
    (c(beta), d(beta)) injecting azimuth-dependent coefficients, which breaks
    the symmetry and makes the deviation finite.

    Both paths advance together as one (2, grid_n // 2 + 1) state of rfft
    coefficients under classical RK4: each stage takes one batched irfft of
    [ik V, V] to the grid, forms c d_beta v - d v there, and returns ik times
    its rfft.
    """
    import numpy as np
    _check_span(lambda_span)
    if not math.isfinite(rotation):
        raise DomainError("rotation must be finite")
    if not isinstance(grid_n, numbers.Integral) or isinstance(grid_n, bool):
        raise DomainError("grid_n must be an integer")
    grid_n = int(grid_n)
    model.validate()
    v0 = rho0.to_grid(grid_n)
    h = 2.0 * math.pi / grid_n
    if lambda_span == 0.0:
        return 0.0
    beta = np.arange(grid_n) * h
    if coefficient_samplers is None:
        params = model.equator_params()
        c_arr = np.full(grid_n, params.c_diff)
        d_arr = np.full(grid_n, params.d_drift)
    else:
        c_fn, d_fn = coefficient_samplers
        c_arr = np.asarray([float(c_fn(b)) for b in beta])
        d_arr = np.asarray([float(d_fn(b)) for b in beta])
        if not (np.isfinite(c_arr).all() and np.isfinite(d_arr).all()):
            raise DomainError("injected coefficients must be finite")
        if c_arr.min() < 0:
            raise DomainError("injected diffusion coefficient must be nonnegative")

    m_max = grid_n // 2
    ik = 1j * np.arange(m_max + 1)
    if grid_n % 2 == 0:
        # irfft drops the imaginary Nyquist term that ik V would carry; a zero keeps
        # the state the rfft of a real grid
        ik[m_max] = 0.0
    coeffs = np.stack([c_arr, d_arr])
    pair = np.empty((2, 2, m_max + 1), dtype=complex)

    def rhs(spec):
        np.multiply(ik, spec, out=pair[:, 0])
        pair[:, 1] = spec
        grid = np.fft.irfft(pair, n=grid_n)
        grid *= coeffs
        out = np.fft.rfft(np.subtract(grid[:, 0], grid[:, 1]))
        out *= ik
        return out

    stiff = float(c_arr.max()) * m_max**2 + abs(d_arr).max() * m_max
    n_steps = max(64, int(lambda_span * stiff / 2.0) + 1)
    dt = lambda_span / n_steps

    spec = np.fft.rfft(np.stack([v0, _rotate_grid(v0, rotation)]))
    for _ in range(n_steps):
        k1 = rhs(spec)
        k2 = rhs(spec + 0.5 * dt * k1)
        k3 = rhs(spec + 0.5 * dt * k2)
        k4 = rhs(spec + dt * k3)
        spec = spec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    evolved, path_b = np.fft.irfft(spec, n=grid_n)
    path_a = _rotate_grid(evolved, rotation)
    return float(np.sum(np.abs(path_a - path_b)) * h)
