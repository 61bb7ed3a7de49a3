"""Every public function of the library refuses NaN, ±inf and text by name, and
takes an exact number as the float it stands for.

The functions are found with `ast`, as in `test_public_names.py`: each public
top-level function of `src/relqopt/*.py`, and each public method of a public
top-level class, with a parameter annotated `float`.  `CALLS` holds one valid
call of each, by keyword; a function found but missing there fails
`test_every_function_with_a_float_parameter_has_a_valid_call`, as does a valid
call whose float result (or float in a tuple result) is not finite.  Each float
parameter is then given NaN, +inf and -inf in turn, and the text "1.0" and
b"1.0" (which `float` would parse), and the call must raise `DomainError` whose
message names the parameter; so is each parameter of `OPTIONAL_FLOATS`.  Given
its valid value as a `Decimal` or a `Fraction`, each must return what the float
call returns, bit for bit.  `ACCEPTED` lists the documented exceptions, each
with its reason.
"""

import ast
import functools
import importlib
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from relqopt.constants import EARTH, ROUNDED_EARTH
from relqopt.diffusion import BlochTensorModel, CircleDensity, DiffusionParams
from relqopt.errors import DomainError
from relqopt.gravitomagnetism import GravField, RayState, kerr_principal_null_rotation
from relqopt.kinematics import Event
from relqopt.orbits import PRESETS, GroundStation, propagate
from relqopt.qft_effects import EventOperatorModel
from relqopt.scenario import Scenario
from relqopt.wigner import TwoPhotonState

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "relqopt").glob("*.py"))


def _float_parameters():
    """{"module.function" or "module.Class.method": (float parameter names)} for every
    public top-level function and every public method of a public top-level class."""
    found = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                functions = [(f"{node.name}.{f.name}", f) for f in node.body
                             if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for qualname, f in functions:
                args = f.args.posonlyargs + f.args.args + f.args.kwonlyargs
                names = tuple(a.arg for a in args
                              if a.annotation is not None and ast.unparse(a.annotation) == "float")
                if names and not f.name.startswith("_"):
                    found[f"{path.stem}.{qualname}"] = names
    return found


FLOAT_PARAMETERS = _float_parameters()


_RHO = CircleDensity.wrapped_gaussian(0.3, 0.4, modes=16)
_STATE = TwoPhotonState((0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0))
_SCENARIO = Scenario()

# one valid call of each function, every argument by keyword
CALLS = {
    "bell.singlet_correlation": dict(v=0.9, alpha=0.0, beta=0.4),
    "bell.joint_probabilities": dict(v=0.9, alpha=0.0, beta=0.4),
    "bell.required_photons": dict(v=0.9),
    "bell.simulate_coincidences": dict(v=0.9, n_pairs=400, seed=3, workers=1),
    "constants.convert_angle": dict(x=1e-9, target="arcmsec"),
    "diffusion.CircleDensity.wrapped_gaussian": dict(mean=0.3, sigma=0.4, modes=16),
    "diffusion.evolve_equator": dict(rho0=_RHO, params=DiffusionParams(1e-3, 1e-2),
                                     lambda_span=2.0),
    "diffusion.affine_parameter": dict(t=3.0, nu=5e14),
    "diffusion.angle_shift": dict(t=3.0, nu=5e14, d_drift=1e-3),
    "diffusion.polarization_decay": dict(t=3.0, nu=5e14, c_diff=1e-3),
    "diffusion.drift_bound_from_angle": dict(chi=1e-6, t=3.0, nu=5e14),
    "diffusion.diffusion_bound_from_decay": dict(mu=1e-6, t=3.0, nu=5e14),
    "diffusion.equivariance_check": dict(
        model=BlochTensorModel(lambda th: [[1e-3, 0.0], [0.0, 1e-3]], lambda th: [0.0, 1e-2],
                               lambda th: 1.0),
        rho0=_RHO, rotation=0.7, lambda_span=1.0, grid_n=64),
    "gravitomagnetism.transport_ray": dict(
        state=RayState((7e6, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        sampler=lambda position: GravField((0.0, 0.0, 1e-9), (0.0, 0.0, 0.0)),
        lam_end=10.0, steps=2),
    "gravitomagnetism.kerr_principal_null_rotation": dict(
        body=ROUNDED_EARTH, r1=EARTH.radius, r2=2.0 * EARTH.radius, theta=0.25 * math.pi),
    "gravitomagnetism.axial_impact_rotation": dict(body=ROUNDED_EARTH, s=EARTH.radius),
    "gravitomagnetism.closed_path_rotation": dict(body=ROUNDED_EARTH, s1=EARTH.radius,
                                                  s2=2.0 * EARTH.radius),
    "interferometry.cow_neutron_phase": dict(wavelength=1.4e-10, area=1e-3, tilt=0.5),
    "interferometry.grav_redshift_weak_field": dict(height=1e6),
    "interferometry.optical_cow_phase": dict(wavelength=8e-7, fibre_length=4e3, altitude=5e5),
    "interferometry.displacement_during_delay": dict(speed=7e3, delay=20e-6),
    "kinematics.timing_shift_per_distance": dict(v0=15e3),
    "kinematics.min_separation_for_switching": dict(v0=15e3, switch_time=10e-9),
    "kinematics.light_travel_time": dict(distance=1e6),
    "kinematics.causally_connected": dict(e1=Event(0.0, 0.0, 0.0), e2=Event(1.0, 1e3, 0.0),
                                          kappa=1.5),
    "orbits.solve_kepler": dict(mean_anomaly=1.0, eccentricity=0.1),
    "orbits.propagate": dict(orbit=PRESETS["leo500"], t=100.0),
    "orbits.station_state": dict(gs=GroundStation(0.8, 0.2, 500.0), t=100.0),
    "orbits.newtonian_potential": dict(r=7e6),
    "qft_effects.unruh_temperature": dict(a=9.81),
    "qft_effects.required_acceleration": dict(omega=1e6),
    "qft_effects.berry_phase_difference": dict(omega_a=1e6, a=3e14, big_g=0.25),
    "qft_effects.negativity_bound": dict(separation=1e6, interaction_time=1e-3),
    "qft_effects.spacelike_window": dict(separation=1e6),
    "qft_effects.ralph_correlation": dict(model=EventOperatorModel(5e-13), delta=1e-12),
    "qft_effects.proper_time_differential": dict(potential_low=-6.2e7, potential_high=-5.8e7,
                                                 overlap_time=1e-3),
    "scenario.wigner_exact": dict(s=_SCENARIO, sat=propagate(_SCENARIO.orbit_spec(), 0.0),
                                  theta=0.5, phi=0.3, theta_b=1.0, phi_b=0.2),
    "wigner.first_order_boost_phase": dict(theta=0.5, phi=0.3, theta_b=1.0, phi_b=0.2, v=7e3),
    "wigner.diffraction_transform": dict(theta=1e-5, v=1e3),
    "wigner.apply_helicity_phase": dict(state=_STATE, chi=0.3, photon=0),
    "wigner.LorentzMatrix.rotation": dict(axis=(0.0, 0.0, 1.0), angle=0.7),
}

# (function, parameter, value) -> why the value is accepted
ACCEPTED = {
    ("gravitomagnetism.kerr_principal_null_rotation", "r2", math.inf):
        "a radial ray that runs out to infinity",
    ("orbits.newtonian_potential", "r", math.inf): "the potential's zero at infinity",
}

# float parameters that default to None, which the annotation scan cannot see, each with
# a valid value
OPTIONAL_FLOATS = {("scenario.wigner_exact", "beta"): 2.5e-5}

# (function, float parameter, its valid value) for every float parameter
FLOAT_ARGUMENTS = [(qualname, name, CALLS[qualname][name])
                   for qualname, names in FLOAT_PARAMETERS.items() for name in names]
FLOAT_ARGUMENTS += [(qualname, name, value) for (qualname, name), value in OPTIONAL_FLOATS.items()]

# a message may name a parameter by the quantity it stands for
NAMED_AS = {("bell", "v"): "visibility"}


def _function(qualname):
    module, *names = qualname.split(".")
    return functools.reduce(getattr, names, importlib.import_module(f"relqopt.{module}"))


def _refuses_naming(qualname, name, bad):
    """The call with `bad` for `name` raises `DomainError` whose message names `name`."""
    label = NAMED_AS.get((qualname.split(".")[0], name), name)
    with pytest.raises(DomainError, match=rf"(?<!\w){re.escape(label)}(?!\w)"):
        _function(qualname)(**{**CALLS[qualname], name: bad})


def test_every_function_with_a_float_parameter_has_a_valid_call():
    assert sorted(FLOAT_PARAMETERS) == sorted(CALLS)
    for qualname, kwargs in CALLS.items():
        result = _function(qualname)(**kwargs)
        values = result if isinstance(result, tuple) else (result,)
        assert all(math.isfinite(x) for x in values if isinstance(x, float)), qualname


@pytest.mark.parametrize("qualname, name, bad", [
    pytest.param(qualname, name, bad, id=f"{qualname}-{name}-{bad}")
    for qualname, name, _ in FLOAT_ARGUMENTS
    for bad in (math.nan, math.inf, -math.inf) if (qualname, name, bad) not in ACCEPTED
])
def test_non_finite_argument_is_refused_naming_it(qualname, name, bad):
    _refuses_naming(qualname, name, bad)


@pytest.mark.parametrize("qualname, name, text", [
    pytest.param(qualname, name, text, id=f"{qualname}-{name}-{text!r}")
    for qualname, name, _ in FLOAT_ARGUMENTS for text in ("1.0", b"1.0")
])
def test_text_is_refused_naming_it(qualname, name, text):
    # a number in text is not a number: `float` would parse it, `is_finite` does not
    _refuses_naming(qualname, name, text)


def _bits(result):
    """`result` in a form equal only for results equal bit for bit: a float's `repr`
    round-trips, and a `CircleDensity` compares by identity, so its coefficients' bytes."""
    if isinstance(result, CircleDensity):
        return result.coefficients.tobytes()
    return repr(result)


@pytest.mark.parametrize("qualname, name, value, exact", [
    pytest.param(qualname, name, value, exact, id=f"{qualname}-{name}-{type(exact).__name__}")
    for qualname, name, value in FLOAT_ARGUMENTS
    for exact in (Decimal(repr(value)), Fraction(value))
])
def test_an_exact_number_gives_what_its_float_gives(qualname, name, value, exact):
    # each check converts once, at entry, and the function computes on that float only
    function = _function(qualname)
    as_float = function(**{**CALLS[qualname], name: value})
    assert _bits(function(**{**CALLS[qualname], name: exact})) == _bits(as_float)


@pytest.mark.parametrize("qualname, name, value", sorted(ACCEPTED))
def test_documented_exceptions_give_a_finite_value(qualname, name, value):
    assert math.isfinite(_function(qualname)(**{**CALLS[qualname], name: value}))


def test_kerr_rotation_accepts_a_ray_to_infinity():
    near = kerr_principal_null_rotation(ROUNDED_EARTH, EARTH.radius, 1e30, 0.25 * math.pi)
    assert kerr_principal_null_rotation(
        ROUNDED_EARTH, EARTH.radius, math.inf, 0.25 * math.pi) == pytest.approx(near, rel=1e-12)
