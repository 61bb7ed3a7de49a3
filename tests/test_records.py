"""The value records (`errors.Record` subclasses) are immutable, compare by value and
pickle and copy to equal records."""

import copy
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from relqopt import (bell, constants, diffusion, gravitomagnetism, kinematics, orbits,
                     qft_effects, scenario, wigner)
from relqopt.errors import (ConfigurationError, DomainError, Record, check_finite,
                            check_nonnegative, check_positive, check_vector)


def _polar(theta):
    return theta


# each factory builds a fresh instance from the same arguments on every call
RECORDS = {
    "EarthParams": lambda: constants.EarthParams(mass=5.98e24),
    "CoincidenceCounts": lambda: bell.CoincidenceCounts([(250.0,) * 4] * 4),
    "DiffusionParams": lambda: diffusion.DiffusionParams(2e-9, 4e-8),
    "BlochTensorModel": lambda: diffusion.BlochTensorModel(_polar, _polar, _polar),
    "OrbitSpec": lambda: orbits.OrbitSpec(7.2e6, 0.01, 0.5),
    "StateVector": lambda: orbits.StateVector(1.0, (7e6, 0.0, 0.0), (0.0, 7.5e3, 0.0)),
    "GroundStation": lambda: orbits.GroundStation(0.8, 0.2, 500.0),
    "EventOperatorModel": lambda: qft_effects.EventOperatorModel(5e-13),
    "GravField": lambda: gravitomagnetism.GravField((0.0, 0.0, 1e-9), [1e-7, 0.0, 0.0]),
    "RayState": lambda: gravitomagnetism.RayState((7e6, 0, 0), (0.0, 1.0, 0.0), (0, 0, 1), 2.0),
    "Event": lambda: kinematics.Event(2e-5, 1e6, 0.0),
    "Scenario": lambda: scenario.Scenario(seed=7, stations=(orbits.GroundStation(0.8, 0.2),)),
    "FourMomentum": lambda: wigner.FourMomentum(2.0, (0.0, 0.0, 2.0)),
    "TwoPhotonState": lambda: wigner.TwoPhotonState((0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0)),
    "LorentzMatrix": lambda: wigner.LorentzMatrix.boost((0.1, -0.2, 0.3)),
}


@pytest.fixture(params=sorted(RECORDS))
def make(request):
    return RECORDS[request.param]


def test_every_former_dataclass_is_a_record():
    for name, factory in RECORDS.items():
        record = factory()
        assert type(record).__name__ == name
        assert isinstance(record, Record) and not hasattr(record, "__dict__"), name


def test_fields_cannot_be_assigned_or_deleted(make):
    record = make()
    for name in type(record).__slots__:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_equal_arguments_give_equal_records_with_equal_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")


def test_records_differ_when_a_field_differs():
    assert orbits.OrbitSpec(7.2e6) != orbits.OrbitSpec(7.3e6)
    assert scenario.Scenario(seed=1) != scenario.Scenario(seed=2)
    assert constants.EarthParams(1.0, 2.0) != constants.EarthParams(2.0, 1.0)
    # equal values in records of different types are not equal records
    assert constants.EarthParams(1.0, 2.0) != diffusion.DiffusionParams(1.0, 2.0)
    assert kinematics.Event(0.0, 1.0, 2.0) != (0.0, 1.0, 2.0, 0.0)


# what `errors.is_finite` refuses, by label: NaN and inf, text (never parsed as a number),
# None, a complex number, an int past the float range and a signaling NaN, which
# `math.isfinite` answers with a `ValueError`
NOT_NUMBERS = {"nan": math.nan, "inf": math.inf, "text": "1", "None": None, "complex": 1j,
               "huge_int": 10**400, "signaling_nan": Decimal("sNaN")}


@pytest.mark.parametrize("label", sorted(NOT_NUMBERS))
@pytest.mark.parametrize("check, message", [
    (check_finite, "x must be finite"),
    (check_positive, "x must be positive and finite"),
    (check_nonnegative, "x must be nonnegative and finite"),
    (lambda name, x: check_vector(name, (0.0, x, 1.0)), "x must be a finite 3-vector"),
], ids=["finite", "positive", "nonnegative", "vector"])
def test_shared_checks_refuse_what_is_not_a_number(check, message, label):
    check("x", 1)
    with pytest.raises(DomainError, match=rf"^{message}$"):
        check("x", NOT_NUMBERS[label])


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("label", sorted(NOT_NUMBERS))
def test_check_vector_refuses_a_non_number_in_every_position(label, position):
    v = [0.5, -2.0, 3.0]
    v[position] = NOT_NUMBERS[label]
    with pytest.raises(DomainError, match=r"^v must be a finite 3-vector$"):
        check_vector("v", v)
    for number in (np.float64(0.25), np.int64(-3), 7, True):
        v[position] = number
        got = check_vector("v", v)
        assert got == tuple(map(float, v)) and all(type(x) is float for x in got)


def test_check_vector_gives_floats_and_takes_numpy_and_bool_entries():
    v = check_vector("v", np.array([0.0, 0.6, 0.8]))
    assert v == (0.0, 0.6, 0.8) and all(type(x) is float for x in v)
    assert check_vector("v", (True, np.float64(2.0), 3)) == (1.0, 2.0, 3.0)
    for bad in ("abc", (0.0, 1.0), 5.0):  # three characters are not three numbers
        with pytest.raises(DomainError, match=r"^v must be a finite 3-vector$"):
            check_vector("v", bad)


# record, valid keyword arguments, and the float fields that must be finite
FINITE_FIELDS = [
    (orbits.OrbitSpec, {"semi_major_axis": 7.2e6},
     ("semi_major_axis", "inclination", "raan", "arg_perigee", "mean_anomaly_epoch", "epoch")),
    (orbits.GroundStation, {"latitude": 0.8, "longitude": 0.2, "altitude": 500.0},
     ("latitude", "longitude", "altitude")),
    (qft_effects.EventOperatorModel, {"detector_resolution": 5e-13}, ("detector_resolution",)),
    (kinematics.Event, {"t": 2e-5, "x": 1e6, "y": 0.0}, ("t", "x", "y", "z")),
    (diffusion.DiffusionParams, {"c_diff": 2e-9, "d_drift": 4e-8}, ("c_diff", "d_drift")),
    (wigner.FourMomentum, {"energy": 2.0, "k": (0.0, 0.0, 2.0)}, ("energy",)),
    (gravitomagnetism.RayState, {"position": (7e6, 0, 0), "khat": (0, 1, 0), "fhat": (0, 0, 1)},
     ("lam",)),
]


@pytest.mark.parametrize("cls, kwargs, field, value", [
    pytest.param(cls, kwargs, field, value, id=f"{cls.__name__}-{field}-{label}")
    for cls, kwargs, fields in FINITE_FIELDS for field in fields
    for label, value in NOT_NUMBERS.items()
])
def test_non_finite_field_is_refused_naming_it(cls, kwargs, field, value):
    cls(**kwargs)
    with pytest.raises(DomainError, match=rf"\b{field}\b"):
        cls(**{**kwargs, field: value})


def _flat(pos):
    return gravitomagnetism.GravField((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


# a record built with `x` in one scalar field, and a computation that reads the field
SCALAR_FIELDS = {
    "FourMomentum-energy": (
        lambda x: wigner.FourMomentum(x, (0.0, 0.0, 1.0)),
        lambda r: wigner.wigner_angle(wigner.LorentzMatrix.boost((0.6, 0.0, 0.0)), r)),
    "RayState-lam": (
        lambda x: gravitomagnetism.RayState((7e6, 0, 0), (0, 1, 0), (0, 0, 1), x),
        lambda r: gravitomagnetism.transport_ray(r, _flat, 10.0, 8)),
    "EarthParams-mass": (
        lambda x: constants.EarthParams(mass=x),
        lambda r: (r.mu, gravitomagnetism.axial_impact_rotation(r, 7e6))),
    "EarthParams-angular_momentum": (
        lambda x: constants.EarthParams(angular_momentum=x),
        lambda r: gravitomagnetism.axial_impact_rotation(r, 7e6)),
    "EventOperatorModel-detector_resolution": (
        lambda x: qft_effects.EventOperatorModel(x),
        lambda r: qft_effects.ralph_correlation(r, 1e-13)),
    "DiffusionParams-c_diff": (
        lambda x: diffusion.DiffusionParams(x, 0.0),
        lambda r: diffusion.polarization_decay(1.0, 1e14, r.c_diff)),
}
# exact numbers: in each record's domain, outside it, past the float range, and of either
# sign but below the smallest subnormal, so that the float they become is 0.0 or -0.0
EXACT_NUMBERS = [Decimal("1"), Fraction(1), Decimal("2.5"), Fraction(1, 3), Decimal("1e-12"),
                 Fraction(1, 10**12), Decimal("5.97e24"), Decimal("5.86e33"), Fraction(-1, 2),
                 Decimal("0"), Decimal("-7"), Decimal("1e400"), Decimal("-Infinity"),
                 Decimal("NaN"), Decimal("1e-400"), Fraction(1, 10**400), Decimal("-1e-400"),
                 Fraction(-1, 10**400)]


def _outcome(make, use, x):
    """(record, what `use` computes from it), or the text of the `DomainError` raised."""
    try:
        record = make(x)
        assert all(type(v) is float for v in record._values() if not isinstance(v, tuple))
        return record, use(record)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("x", EXACT_NUMBERS + [Fraction(10**400, 3)], ids=repr)
@pytest.mark.parametrize("field", sorted(SCALAR_FIELDS))
def test_an_exact_number_gives_what_its_float_gives(field, x):
    # a finite Decimal or Fraction was stored as given, and arithmetic on it raised TypeError
    make, use = SCALAR_FIELDS[field]
    try:
        as_float = float(x)
    except OverflowError:  # a Fraction past the float range is not a number to is_finite
        with pytest.raises(DomainError):
            make(x)
        return
    assert _outcome(make, use, x) == _outcome(make, use, as_float)


def _identity_with(x):
    return [[1, 0, 0, 0], [0, 1, x, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


# a record built with `x` in one entry of a vector or table field, and the message
# it refuses a non-number with; each is valid at x = 0.0
ENTRIES = {
    "FourMomentum-k": (lambda x: wigner.FourMomentum(1.0, (x, 0, 1)),
                       "k must be a finite 3-vector"),
    "GravField-omega": (lambda x: gravitomagnetism.GravField((0, 0, x), (0, 0, 0)),
                        "omega must be a finite 3-vector"),
    "GravField-eg": (lambda x: gravitomagnetism.GravField((0, 0, 1e-9), (x, 0, 0)),
                     "eg must be a finite 3-vector"),
    "RayState-position": (lambda x: gravitomagnetism.RayState((7e6, x, 0), (0, 1, 0), (0, 0, 1)),
                          "position must be a finite 3-vector"),
    "RayState-khat": (lambda x: gravitomagnetism.RayState((7e6, 0, 0), (x, 1, 0), (0, 0, 1)),
                      "khat must be a finite 3-vector"),
    "RayState-fhat": (lambda x: gravitomagnetism.RayState((7e6, 0, 0), (0, 1, 0), (x, 0, 1)),
                      "fhat must be a finite 3-vector"),
    "LorentzMatrix": (lambda x: wigner.LorentzMatrix(_identity_with(x)),
                      "Lorentz matrix must be finite"),
    "CoincidenceCounts": (lambda x: bell.CoincidenceCounts([(x, 1, 2, 3)] + [(250.0,) * 4] * 3),
                          "counts must be finite and nonnegative"),
}


@pytest.mark.parametrize("label", sorted(NOT_NUMBERS))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_number_entry_is_refused(entry, label):
    make, message = ENTRIES[entry]
    with pytest.raises(DomainError, match=rf"^{message}$"):
        make(NOT_NUMBERS[label])


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_numpy_float_entries_are_accepted(entry):
    make, _ = ENTRIES[entry]
    record = make(np.float64(0.0))
    assert record == make(0.0)


def test_scenario_replace_validates_and_keeps_the_other_fields():
    s = scenario.Scenario(seed=7, visibility=0.9)
    t = s.replace(photon_budget=5000)
    assert (t.seed, t.visibility, t.photon_budget) == (7, 0.9, 5000)
    assert s.photon_budget == 1_000_000
    assert t.replace(photon_budget=1_000_000) == s
    with pytest.raises(ConfigurationError, match=r"^\[bell\] visibility must be"):
        s.replace(visibility=1.5)
    with pytest.raises(TypeError):
        s.replace(no_such_key=1)
    with pytest.raises(TypeError):
        scenario.Scenario(visiblity=0.9)


@pytest.mark.parametrize("key", scenario.KEYS, ids=lambda key: key.name)
def test_each_key_default_obeys_its_rule(key):
    # Scenario() takes an untouched default without checking it again
    x = key.default
    if x is None:
        return
    if key.parse is scenario._int:
        assert isinstance(x, int) and not isinstance(x, bool)
    if key.parse is scenario._float:
        assert isinstance(x, float) and math.isfinite(x)
    assert all(scenario._OPS[op](x, bound) for op, bound in key.rule)


def test_records_pickle_copy_and_deepcopy_to_equal_records(make):
    record = make()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        with pytest.raises(AttributeError):
            setattr(clone, type(record).__slots__[0], None)
