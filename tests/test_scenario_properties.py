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

Files with every line end text mode knows, and with the characters that
`str.splitlines` also breaks at, are read by `load_scenario` and by the
line-by-line text-mode read it replaced: both must give the same sections
or the same parse error.

The same files, rendered with random comments, blank lines, whitespace, key
case and at times one line the grammar may refuse, are also read by the
scenario reader and by `configparser` as an oracle: the reader must return
what `configparser` returns, or refuse, naming the line, a text that
`configparser` refuses too or that lies outside the reader's grammar.
"""

import configparser
import io
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

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
    spec = scenario.SECTIONS[section][key]
    if spec.parse is scenario._int:
        return _int_text(wild)
    if spec.parse is scenario._bool:
        return _bool_text(wild)
    if spec.parse is scenario._text:
        choices = sorted(next(bound for op, bound in spec.rule if op == "in"))
        return st.sampled_from((*choices, "nowhere", "") if wild else choices)
    return _float_text(spec.default, wild)


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


# -- the scenario reader against configparser ----------------------------------

_PAD = st.sampled_from(("", " ", "  ", "\t"))
# `#` or `;` glued to a value, which does not start a comment
_GLUED = st.sampled_from(("", "", "#x", ";x"))
# an inline comment: whitespace, `#` or `;`, then text without whitespace.  With a
# `#` glued to the value, configparser would cut a ` #` comment at a later ` ;`, as it
# scans for `#` and `;` in turns; test_scenario's
# test_inline_comment_starts_at_the_first_prefix_after_whitespace pins that case.
_INLINE = st.one_of(st.just(""), st.builds(
    "".join, st.tuples(st.sampled_from((" ", "\t", "  ")), st.sampled_from("#;"),
                       st.text(alphabet="ab#;=:[]", max_size=8))))
# blank and comment lines
_FILLER = st.sampled_from(("", "   ", "# note", "; note = 1", "  # indented note", "\t;"))
# each maps one line to the lines that replace it
_BREAKS = (
    lambda line: ["  " + line],                   # indented: continues the value above
    lambda line: [line.replace("=", ":", 1)],     # `key: value`
    lambda line: ["a:b = 1", line],               # `:` before `=`
    lambda line: [line, line],                    # a repeated section or key
    lambda line: ["[" + line],                    # a bracket that opens no whole header
    lambda line: ["[" + line.replace("=", "] =", 1)],  # `[key] = value`, a header to configparser
    lambda line: ["seed = 1", line],              # a key, before any section when first
    lambda line: ["no delimiter", line],
    lambda line: ["= 1", line],
)


@st.composite
def scenario_texts(draw):
    """`perfbench/scenario_gen.render`'s layout of a drawn file, with random
    full-line and inline comments, blank lines, whitespace and key case, and
    up to two non-blank lines changed by `_BREAKS`."""
    lines = []
    for name, keys in draw(scenario_files()).items():
        lines.append(f"[{name}]" + draw(_INLINE))
        for key, raw in keys.items():
            key = draw(st.sampled_from((key, key.upper(), key.capitalize())))
            lines.append(f"{key}{draw(_PAD)}={draw(_PAD)}{raw}{draw(_GLUED)}{draw(_PAD)}"
                         f"{draw(_INLINE)}")
        lines.append("")
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(_FILLER))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        filled = [i for i, line in enumerate(lines) if line.strip()]
        if filled:
            i = draw(st.sampled_from(filled))
            lines[i:i + 1] = draw(st.sampled_from(_BREAKS))(lines[i])
    return "\n".join(lines)


def _configparser_sections(text):
    """{section: {key: raw}} as `configparser` reads `text`, or None if it refuses it."""
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(parser.items(name, raw=True)) for name in parser.sections()}


def _outside_grammar(line: str) -> bool:
    """A line `configparser` may accept that the reader refuses: an indented line,
    `key: value` (a `:` before any `=`), or a `[` that opens no whole header."""
    text = line.strip()
    return line[:1].isspace() or ":" in text.split("=", 1)[0] or text.startswith("[")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scenario_texts())
@example("[DEFAULT]\nseed = 3\n\n[bell]\nvisibility = 0.9\n")  # configparser feeds seed to [bell]
@example("[bell]\nseed: 3\n")
@example("[bell]\nseed = 3\n  7\n")  # configparser reads seed as '3\n7'
@example("[bell]\nseed = 3\n  workers = 2\n")  # and here as '3\nworkers = 2'
@example("[bell]\nseed = 1\nSeed = 2\n")  # refused by both, as is each text below
@example("[bell]\n\n[bell]\n")
@example("seed = 1\n[bell]\n")
@example("[bell]\nno delimiter\n")
@example("[bell]\n= 1\n")
@example("[bell]\n[seed] = 1\n")  # a header to configparser, refused by the reader
@example("[bell]\na:b = 1\n")  # key a to configparser, refused by the reader
def test_reader_agrees_with_configparser_or_refuses_naming_the_line(text):
    oracle = _configparser_sections(text)
    try:
        got = scenario._read_sections(io.StringIO(text))
    except ConfigurationError as exc:
        m = re.fullmatch(r"scenario parse error: line (\d+): .+", str(exc))
        assert m is not None, str(exc)
        if oracle is not None:
            assert _outside_grammar(text.split("\n")[int(m[1]) - 1]), (str(exc), text)
        return
    assert oracle is not None, text
    default = got.pop("DEFAULT", None)
    if default is not None:  # configparser merges [DEFAULT] into every section
        assert "DEFAULT" not in scenario.SECTIONS
        got = {name: {**default, **keys} for name, keys in got.items()}
    assert got == oracle


# -- the one-call file read against text mode's line-by-line read ----------------

# characters that `str.splitlines` breaks a line at and text mode does not
_NOT_LINE_ENDS = ("\v", "\f", "\x1c", "\x85", "\u2028")


class _Read(Exception):
    pass


def _sections_loaded(path):
    """The sections `load_scenario` reads from `path`, before any is validated."""
    read, parse = {}, scenario._read_sections

    def capture(lines):
        read["sections"] = parse(lines)
        raise _Read

    with mock.patch.object(scenario, "_read_sections", capture):
        try:
            scenario.load_scenario(path)
        except _Read:
            return read["sections"]
    raise AssertionError("load_scenario did not read the sections")


def _sections_line_by_line(path):
    """The sections of `path` read line by line from a text-mode file."""
    with open(path, encoding="utf-8") as fh:
        return scenario._read_sections(fh)


def _outcome(read, path):
    try:
        return read(path)
    except ConfigurationError as exc:
        return str(exc)


_PIECES = st.sampled_from(("[a]", "[b]", "a = b", "b=a", "a", "b", " ", "#", ";", "=", "[", "]",
                           "\r\n", "\r", "\n", *_NOT_LINE_ENDS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
@example("[a]\r\na = b\r\nb = a\r\n")
@example("[a]\ra = b\rb = a")
@example("[a]\r\na = b\rb = a\n[b]\r\r\na = b #\ra\n")
@example("[a]\r\na = b\ra = a\n")  # a repeated key on line 3
@example("[a]\r\n\ra = b\v\f\x1c\x85\u2028b ;\u2028\r\n a")  # an indented line 4
def test_one_call_read_gives_what_text_mode_gave(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(_sections_loaded, path) == _outcome(_sections_line_by_line, path), text


@pytest.mark.parametrize("end", ["\r\n", "\r", "\n"], ids=["crlf", "cr", "lf"])
def test_each_text_mode_line_end_ends_a_line(tmp_path, end):
    path = tmp_path / "scenario.ini"
    path.write_bytes(end.join(["[bell]", "seed = 7", "workers = 2", "[link]", "wavelength = 8e-7"])
                     .encode("utf-8"))
    assert scenario.load_scenario(path) == scenario.Scenario(seed=7, workers=2, wavelength=8e-7)
    path.write_bytes(end.join(["[bell]", "seed = 7", "seed 3", ""]).encode("utf-8"))
    with pytest.raises(ConfigurationError, match="^scenario parse error: line 3: "):
        scenario.load_scenario(path)


def test_mixed_line_ends_count_lines_as_text_mode_does(tmp_path):
    path = tmp_path / "scenario.ini"
    text = b"[bell]\r\nseed = 7\rworkers = 2\n\r\n[link]\rwavelength = 8e-7\r\n"
    path.write_bytes(text)
    assert scenario.load_scenario(path) == scenario.Scenario(seed=7, workers=2, wavelength=8e-7)
    path.write_bytes(text + b"x\n")
    with pytest.raises(ConfigurationError, match="^scenario parse error: line 7: "):
        scenario.load_scenario(path)


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
def test_other_line_separators_stay_in_the_value(tmp_path, char):
    path = tmp_path / "scenario.ini"
    path.write_bytes(f"[bell]\r\nseed = 7{char}8\r\nworkers = 2\n".encode("utf-8"))
    assert _sections_loaded(path) == {"bell": {"seed": f"7{char}8", "workers": "2"}}


def test_the_whole_file_is_decoded_before_any_line_is_parsed(tmp_path):
    # text mode decoded a large file in chunks, and a parse error on line 2 won
    path = tmp_path / "scenario.ini"
    path.write_bytes(b"[bell]\nseed 3\n" + b"#" * 10_000 + b"\n\xff\n")
    with pytest.raises(ConfigurationError, match="^cannot read scenario file: .*utf-8"):
        scenario.load_scenario(path)
