"""Property test: every scenario file loads and reports finitely, or fails by name.

Files are drawn from `scenario.SECTIONS` and each key's parser.  Half of them
hold only plausible values: positive numbers near a key's default or of any
magnitude in 10^-300..10^300, in-range integers, on/off and listed choices.
The other half also hold zero, negatives, any finite float, integers far
beyond their range and malformed or non-finite text ("nan", "inf", "1e400",
"").  Each file must either load and give a report whose every value is
finite, or fail with a `ConfigurationError`/`DomainError` that names a
`[section] key` of the file, or with an `EffectError` that names a group
("orbit" when the satellite state itself cannot be computed).
"""

import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from relqopt import scenario
from relqopt.constants import EARTH
from relqopt.errors import ConfigurationError, DomainError, EffectError

_BAD_TEXT = ("nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "", "abc")
_KEY_NAMED = re.compile(r"\[([a-z]+)\] ([a-z_0-9]+)\b")


def _float_text(default, wild):
    """Positive numbers near `default` or of any magnitude in 10^-300..10^300;
    when `wild`, also zero, negatives, any finite float and malformed text."""
    scales = (0.0, -1.0, 0.5, 1.0, 2.0) if wild else (0.5, 1.0, 2.0)
    near = st.sampled_from(scales).map(lambda k: repr(k * default)) if default else st.nothing()
    magnitude = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: repr(10.0**e))
    tame = st.one_of(near, magnitude)
    if not wild:
        return tame
    return st.one_of(tame, st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.sampled_from(_BAD_TEXT))


def _int_text(wild):
    tame = st.one_of(st.integers(min_value=1, max_value=10**6).map(str),
                     st.sampled_from(("1e6", "2.50e3", "7.0")))
    if not wild:
        return tame
    return st.one_of(tame, st.integers(min_value=-(2**70), max_value=2**70).map(str),
                     st.sampled_from(("0", "-3", "1.5", "1e-3", "1e13", "1e99999", *_BAD_TEXT)))


def _bool_text(wild):
    return st.sampled_from(("on", "off", "true", "no", "1", "0", *(("maybe", "") if wild else ())))


def _orbit_text(key, wild):
    if key == "eccentricity":
        lo, hi = (-0.1, 1.1) if wild else (0.0, 0.5)
        tame = st.floats(min_value=lo, max_value=hi).map(repr)
        return st.one_of(tame, st.sampled_from(_BAD_TEXT)) if wild else tame
    if key == "semi_major_axis":
        return _float_text(4.0 * EARTH.radius, wild)
    return _float_text(100.0, wild)


def _station_text(wild):
    lat, lon, alt = (-100.0, 100.0), (-400.0, 400.0), (-10.0, 5e3)
    if not wild:
        lat, alt = (-90.0, 90.0), (0.0, 5e3)
    tame = st.tuples(*(st.floats(min_value=a, max_value=b) for a, b in (lat, lon, alt)))
    tame = tame.map(lambda t: " ".join(map(repr, t)))
    if not wild:
        return tame
    return st.one_of(tame, st.sampled_from(
        ("48 11", "48 11 0 0", "nan 11 0", "48 inf 0", "48 11 abc", "")))


def _key_text(section, key, wild):
    if section == "orbit":
        return _orbit_text(key, wild)
    if section == "stations":
        return _station_text(wild)
    if section == "effects":
        return _bool_text(wild)
    f = scenario.SECTIONS[section][key]
    parse = f.metadata["parse"]
    if parse is scenario._int:
        return _int_text(wild)
    if parse is scenario._bool:
        return _bool_text(wild)
    if parse is scenario._text:
        choices = sorted(next(bound for op, bound in f.metadata["rule"] if op == "in"))
        return st.sampled_from((*choices, "nowhere", "") if wild else choices)
    return _float_text(f.default, wild)


@st.composite
def scenario_files(draw):
    """{section: {key: raw text}} over a random subset of sections and keys;
    half the files draw only plausible values, so the report path runs too."""
    wild = draw(st.booleans())
    out = {}
    for section in draw(st.lists(st.sampled_from(sorted(scenario.SECTIONS)),
                                 unique=True, max_size=4)):
        keys = draw(st.lists(st.sampled_from(sorted(scenario.SECTIONS[section])),
                             unique=True, max_size=3))
        out[section] = {key: draw(_key_text(section, key, wild)) for key in keys}
    return out


def _render(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scenario_files())
@example({"orbit": {"semi_major_axis": "1e300"}})  # a**3 overflows in the satellite state
def test_scenario_file_reports_finitely_or_fails_by_name(sections):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(_render(sections), encoding="utf-8")
        try:
            report = scenario.run_report(scenario.load_scenario(str(path)))
        except (ConfigurationError, DomainError) as exc:
            m = _KEY_NAMED.match(str(exc))
            assert m is not None, str(exc)
            section, key = m.groups()
            # a custom orbit without semi_major_axis is rejected naming that key
            drawn = key in sections.get(section, {}) or (section, key) == ("orbit", "semi_major_axis")
            assert drawn, str(exc)
        except EffectError as exc:
            assert exc.effect in (*scenario.EFFECT_GROUPS, "orbit"), str(exc)
        else:
            assert all(math.isfinite(e.value) for e in report.entries), report
