"""Quantitative estimates for relativistic quantum-optics experiments in orbit.

Subpackage map: `kinematics` (intervals, simultaneity, timing), `wigner`
(little-group phases and helicity states), `gravitomagnetism` (frame-dragging
polarization rotation), `interferometry` (COW phases, redshift),
`qft_effects` (Unruh, Berry, vacuum negativity, event operators),
`diffusion` (Lorentz-invariant polarization diffusion), `bell` (CHSH
statistics and Monte Carlo), `orbits` (Keplerian geometry), `scenario`
(config files and effect reports), `cli` (command-line front end).
"""

from importlib import import_module

from .errors import ConfigurationError, DomainError, EffectError, NumericFailure

__version__ = "0.1.0"

_SUBMODULES = (
    "bell",
    "cli",
    "constants",
    "diffusion",
    "gravitomagnetism",
    "interferometry",
    "kinematics",
    "orbits",
    "qft_effects",
    "scenario",
    "wigner",
)


def __getattr__(name):
    # Submodules load on first use (PEP 562): a caller of the Wigner and
    # transport kernels does not pay for the scenario parser, the Bell Monte
    # Carlo or the diffusion solver.
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_SUBMODULES,
    "ConfigurationError",
    "DomainError",
    "EffectError",
    "NumericFailure",
    "__version__",
]
