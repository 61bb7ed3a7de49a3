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
from typing import TYPE_CHECKING

from .constants import PLANCK_H
from .errors import (DomainError, Record, check_finite, check_integer, check_nonnegative,
                     check_positive, is_finite)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MODES = 256
_GRID_FLOOR = -1e-9


class CircleDensity:
    """Probability density on the circle, stored spectrally (m = 0..modes), read-only."""

    __setattr__ = __delattr__ = Record.__setattr__

    def __init__(self, coefficients):
        import numpy as np
        c = np.asarray(coefficients)
        if c.ndim != 1 or c.size < 1:
            raise DomainError("coefficients must be a 1-d array")
        if c.dtype.kind not in "biufc" or not np.isfinite(c).all():  # no text or object array
            raise DomainError("coefficients must be finite")
        c = c.astype(complex)
        if not (abs(c[0].imag) <= 1e-12 and abs(2.0 * math.pi * c[0].real - 1.0) <= 1e-9):
            raise DomainError("density must integrate to 1 (rho_0 = 1/2pi)")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)
        grid = self.to_grid(max(8, 4 * (c.size - 1)))
        if not grid.min() >= _GRID_FLOOR:
            raise DomainError("density is negative beyond tolerance")

    def __reduce__(self):  # a copy or an unpickled density is validated and frozen again
        return CircleDensity, (self.coefficients,)

    @property
    def modes(self) -> int:
        return self.coefficients.size - 1

    @classmethod
    def wrapped_gaussian(cls, mean: float, sigma: float,
                         modes: int = DEFAULT_MODES) -> "CircleDensity":
        check_finite("mean", mean)
        check_positive("sigma", sigma)
        modes = check_integer("modes", modes)
        import numpy as np
        m = np.arange(modes + 1)
        c = np.exp(-0.5 * (m * sigma) ** 2) * np.exp(-1j * m * mean) / (2.0 * math.pi)
        return cls(c)

    def to_grid(self, n: int) -> np.ndarray:
        """Evaluate on n uniform points (small negative ringing is kept)."""
        n = check_integer("n", n)
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
        object.__setattr__(self, "c_diff", float(check_nonnegative("c_diff", c_diff)))
        object.__setattr__(self, "d_drift", float(check_finite("d_drift", d_drift)))


def evolve_equator(rho0: CircleDensity, params: DiffusionParams,
                   lambda_span: float) -> CircleDensity:
    """Spectral evolution rho_m -> rho_m exp(-c m^2 L - i m d L)."""
    check_nonnegative("lambda_span", lambda_span)
    import numpy as np
    m = np.arange(rho0.modes + 1)
    factor = np.exp(
        -params.c_diff * m.astype(float) ** 2 * lambda_span
        - 1j * m * params.d_drift * lambda_span
    )
    return CircleDensity(rho0.coefficients * factor)


def affine_parameter(t: float, nu: float) -> float:
    """Invariant affine parameter lambda = t / (h nu) for coordinate time t."""
    check_finite("t", t)
    check_positive("nu", nu)
    return t / (PLANCK_H * nu)


def angle_shift(t: float, nu: float, d_drift: float) -> float:
    """Frame-angle drift chi = t dDrift / nu accumulated over time t."""
    check_finite("t", t)
    check_positive("nu", nu)
    check_finite("d_drift", d_drift)
    return t * d_drift / nu


def polarization_decay(t: float, nu: float, c_diff: float) -> float:
    """Depolarization exponent mu = 4 t cDiff / nu (P' = exp(-mu) P)."""
    check_finite("t", t)
    check_positive("nu", nu)
    check_finite("c_diff", c_diff)
    return 4.0 * t * c_diff / nu


def drift_bound_from_angle(chi: float, t: float, nu: float) -> float:
    """Invert chi = t d / nu: the drift constant saturating an angle bound."""
    check_finite("chi", chi)
    check_positive("t", t)
    check_positive("nu", nu)
    return chi * nu / t


def diffusion_bound_from_decay(mu: float, t: float, nu: float) -> float:
    """Invert mu = 4 t c / nu: the diffusion constant saturating a decay bound."""
    check_finite("mu", mu)
    check_positive("t", t)
    check_positive("nu", nu)
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
        for name, fn in zip(self.__slots__, self._values()):
            params = [
                p for p in inspect.signature(fn).parameters.values()
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            if len(params) != 1:
                raise DomainError(f"{name} must take exactly one polar-angle argument")
        for i in range(17):
            th = 0.05 + i * (math.pi - 0.1) / 16
            k = self.k_tensor(th)
            try:
                (kaa, kab), (kba, kbb) = k
            except (TypeError, ValueError):  # not iterable, or not 2x2
                kaa = kab = kba = kbb = None
            if not (all(map(is_finite, (kaa, kab, kba, kbb))) and abs(kab - kba) <= 1e-12):
                raise DomainError("k_tensor must return a finite symmetric 2x2 tensor")
            # the smaller eigenvalue of the symmetric 2x2 tensor
            if (kaa + kbb) / 2 - math.hypot((kaa - kbb) / 2, kab) < -1e-12:
                raise DomainError("k_tensor must be positive semidefinite")
            u = self.u_vector(th)
            try:
                ua, ub = u
            except (TypeError, ValueError):
                ua = ub = None
            if not (is_finite(ua) and is_finite(ub)):
                raise DomainError("u_vector must return a finite 2-vector")
            check_positive("density_of_states", self.density_of_states(th))

    def equator_params(self) -> DiffusionParams:
        """Constant equator coefficients: c = K^{bb}(pi/2), d = u^b(pi/2)."""
        th = 0.5 * math.pi
        return DiffusionParams(c_diff=self.k_tensor(th)[1][1], d_drift=self.u_vector(th)[1])


def _rk4_rfft(spec: np.ndarray, c_diff: float, d_drift: float, lambda_span: float,
              grid_n: int) -> tuple[np.ndarray, int]:
    """Advance rfft states (..., grid_n // 2 + 1) of real grids by lambda_span
    with classical RK4; return them and the step count, which keeps every
    |dt lambda_m| <= 2.  With constant coefficients the right-hand side is
    diagonal, rhs(V)_m = lambda_m V_m with lambda_m = -c m^2 - i d m, so each
    stage is one product with lambda.
    """
    import numpy as np
    m_max = grid_n // 2
    m = np.arange(m_max + 1, dtype=float)
    lam = -c_diff * m**2 - 1j * d_drift * m
    if grid_n % 2 == 0:
        # the Fourier derivative of a real grid zeroes its Nyquist mode
        lam[-1] = 0.0
    stiff = c_diff * m_max**2 + abs(d_drift) * m_max
    n_steps = max(64, int(lambda_span * stiff / 2.0) + 1)
    dt = lambda_span / n_steps
    for _ in range(n_steps):
        k1 = lam * spec
        k2 = lam * (spec + 0.5 * dt * k1)
        k3 = lam * (spec + 0.5 * dt * k2)
        k4 = lam * (spec + dt * k3)
        spec = spec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return spec, n_steps


def equivariance_check(
    model: BlochTensorModel,
    rho0: CircleDensity,
    rotation: float,
    lambda_span: float,
    grid_n: int = 256,
) -> float:
    """L1 distance between rotate-then-evolve and evolve-then-rotate.

    For any valid (polar-only) model the equator dynamics has constant
    coefficients and commutes with rotations, so the deviation is numerical
    noise.  Both paths stay in one (2, grid_n // 2 + 1) rfft state: the
    rotation is the phase exp(-i m rotation), applied before the evolution on
    one path and after it on the other, and one batched irfft gives the two grids.
    """
    import numpy as np
    check_nonnegative("lambda_span", lambda_span)
    check_finite("rotation", rotation)
    grid_n = check_integer("grid_n", grid_n)
    model.validate()
    v0 = np.fft.rfft(rho0.to_grid(grid_n))
    params = model.equator_params()
    shift = np.exp(-1j * rotation * np.arange(v0.size))
    spec, _ = _rk4_rfft(np.stack([v0, v0 * shift]), params.c_diff, params.d_drift,
                        lambda_span, grid_n)
    spec[0] *= shift
    path_a, path_b = np.fft.irfft(spec, n=grid_n)
    return float(np.sum(np.abs(path_a - path_b)) * (2.0 * math.pi / grid_n))
