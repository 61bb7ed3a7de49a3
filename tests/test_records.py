"""The value records (`errors.Record` subclasses) are immutable, compare by value and
pickle and copy to equal records."""

import copy
import math
import pickle

import pytest

from relqopt import (bell, constants, diffusion, gravitomagnetism, interferometry, kinematics,
                     orbits, qft_effects, scenario, wigner)
from relqopt.errors import ConfigurationError, Record


def _polar(theta):
    return theta


# each factory builds a fresh instance from the same arguments on every call
RECORDS = {
    "EarthParams": lambda: constants.EarthParams(mass=5.98e24),
    "CoincidenceCounts": lambda: bell.CoincidenceCounts(bell.CHSH_SETTINGS, [(250.0,) * 4] * 4),
    "DiffusionParams": lambda: diffusion.DiffusionParams(2e-9, 4e-8),
    "BlochTensorModel": lambda: diffusion.BlochTensorModel(_polar, _polar, _polar),
    "OrbitSpec": lambda: orbits.OrbitSpec(7.2e6, 0.01, 0.5),
    "StateVector": lambda: orbits.StateVector(1.0, (7e6, 0.0, 0.0), (0.0, 7.5e3, 0.0)),
    "GroundStation": lambda: orbits.GroundStation(0.8, 0.2, 500.0),
    "EventOperatorModel": lambda: qft_effects.EventOperatorModel(5e-13, 0.9),
    "GravField": lambda: gravitomagnetism.GravField((0.0, 0.0, 1e-9), [1e-7, 0.0, 0.0]),
    "RayState": lambda: gravitomagnetism.RayState((7e6, 0, 0), (0.0, 1.0, 0.0), (0, 0, 1), 2.0),
    "SpinningBody": lambda: gravitomagnetism.SpinningBody(5.98e24, 5.86e33),
    "NeutronBeam": lambda: interferometry.NeutronBeam(1.4e-10),
    "OpticalLink": lambda: interferometry.OpticalLink(8e-7, 4e3, 5e5),
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
    assert gravitomagnetism.SpinningBody(1.0, 2.0) != gravitomagnetism.SpinningBody(2.0, 1.0)
    # equal values in records of different types are not equal records
    assert gravitomagnetism.SpinningBody(1.0, 2.0) != diffusion.DiffusionParams(1.0, 2.0)
    assert kinematics.Event(0.0, 1.0, 2.0) != (0.0, 1.0, 2.0, 0.0)


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
    assert all(test(x, bound) for test, bound in key.tests)


def test_records_pickle_copy_and_deepcopy_to_equal_records(make):
    record = make()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        with pytest.raises(AttributeError):
            setattr(clone, type(record).__slots__[0], None)
