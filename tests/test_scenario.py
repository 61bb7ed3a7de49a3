import math
import sys
from pathlib import Path

import numpy as np
import pytest

from relqopt import bell, cli, diffusion, gravitomagnetism, kinematics, orbits, qft_effects, wigner
from relqopt.constants import C_LIGHT, EARTH, ROUNDED_EARTH
from relqopt.errors import ConfigurationError, DomainError, EffectError, NumericFailure
from relqopt.scenario import (
    EFFECT_GROUPS,
    GROUPS,
    KEYS,
    SECTIONS,
    ReportEntry,
    Scenario,
    _read_sections,
    effect_errors,
    load_scenario,
    run_report,
    with_overrides,
)

MINIMAL = """\
[mission]
preset = leo1000

[link]
wavelength = 800e-9
fibre_delay = 20e-6
"""


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _by_name(report):
    return {e.effect: e for e in report.entries}


# ----------------------------------------------------------------- loading


def test_minimal_file_is_valid(tmp_path):
    s = load_scenario(_write(tmp_path, MINIMAL))
    assert s.preset == "leo1000"
    assert s.wavelength == 800e-9
    assert s.fibre_delay == 20e-6
    assert s.effects == frozenset(EFFECT_GROUPS)


def test_defaults_without_file():
    s = Scenario()
    assert s.preset == "leo1000"
    assert s.visibility == 0.95
    assert s.separation is None
    assert s.separation_m() == pytest.approx(1000e3, rel=1e-12)


def test_negative_wavelength_names_the_field(tmp_path):
    path = _write(tmp_path, "[link]\nwavelength = -800e-9\n")
    with pytest.raises(ConfigurationError, match="wavelength"):
        load_scenario(path)


def test_unknown_key_is_rejected(tmp_path):
    path = _write(tmp_path, "[link]\nwavelenght = 800e-9\n")
    with pytest.raises(ConfigurationError, match="wavelenght"):
        load_scenario(path)


def test_unknown_section_is_rejected(tmp_path):
    path = _write(tmp_path, "[links]\nwavelength = 800e-9\n")
    with pytest.raises(ConfigurationError, match=r"\[links\]"):
        load_scenario(path)


def test_parse_error_reports_line(tmp_path):
    path = _write(tmp_path, "[link]\nwavelength 800e-9\n")
    with pytest.raises(ConfigurationError, match="line"):
        load_scenario(path)


# parse errors name their line; configparser accepted the first three texts
@pytest.mark.parametrize("text, line, match", [
    ("[bell]\nseed: 3\n", 2, "expected 'key = value'"),
    ("[bell]\nseed = 3\n  7\n", 3, "indented"),  # configparser: seed = '3\n7'
    ("[bell]\nseed = 3\n  workers = 2\n", 3, "indented"),
    ("[bell]\nseed = 1\nSEED = 2\n", 3, r"\[bell\] seed is repeated"),
    ("[bell]\n[bell]\n", 2, r"section \[bell\] is repeated"),
    ("seed = 1\n[bell]\n", 1, "before any"),
], ids=["colon", "continued_value", "continued_key", "repeated_key", "repeated_section",
        "key_before_section"])
def test_reader_refuses_naming_the_line(tmp_path, text, line, match):
    with pytest.raises(ConfigurationError, match=rf"^scenario parse error: line {line}: .*{match}"):
        load_scenario(_write(tmp_path, text))


def test_default_section_is_an_unknown_section(tmp_path):
    # configparser read [DEFAULT] seed as [bell] seed
    path = _write(tmp_path, "[DEFAULT]\nseed = 3\n\n[bell]\nvisibility = 0.9\n")
    with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]"):
        load_scenario(path)


def test_parse_error_wins_over_an_unknown_key(tmp_path):
    path = _write(tmp_path, "[link]\nwavelenght = 800e-9\n[bell]\nseed 3\n")
    with pytest.raises(ConfigurationError, match="^scenario parse error: line 4: "):
        load_scenario(path)


def test_inline_comment_starts_at_the_first_prefix_after_whitespace():
    # configparser scans `#` and `;` in turns and cut this line at ` ;w`
    assert _read_sections(["[a]\n", "k = x#y #z ;w\n"]) == {"a": {"k": "x#y"}}


@pytest.mark.parametrize("prefix", ["#", ";"], ids=["hash", "semicolon"])
def test_a_comment_with_one_prefix_kind_is_cut(prefix):
    # the comment pattern runs only on lines that hold `#` or `;`; each alone must reach it
    lines = ["[bell]", f"seed = 7 {prefix}note", f"{prefix} seed = 8", f"workers = 2{prefix}3"]
    assert _read_sections(lines) == {"bell": {"seed": "7", "workers": f"2{prefix}3"}}


def test_missing_file_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        load_scenario("/nonexistent/scenario.ini")


def test_non_numeric_value_names_key(tmp_path):
    path = _write(tmp_path, "[geometry]\nseparation = wide\n")
    with pytest.raises(ConfigurationError, match="separation"):
        load_scenario(path)


def test_station_parsing_uses_degrees(tmp_path):
    path = _write(tmp_path, "[stations]\nstation1 = 40.0 -105.0 1600\nstation2 = 0 0 0\n")
    s = load_scenario(path)
    assert len(s.stations) == 2
    assert s.stations[0].latitude == pytest.approx(math.radians(40.0))
    assert s.stations[0].longitude == pytest.approx(math.radians(-105.0))
    assert s.stations[0].altitude == 1600.0


def test_bad_station_string(tmp_path):
    path = _write(tmp_path, "[stations]\nstation1 = 40.0 -105.0\n")
    with pytest.raises(ConfigurationError, match="station1"):
        load_scenario(path)


def test_custom_orbit_section(tmp_path):
    path = _write(tmp_path, "[orbit]\nsemi_major_axis = 7.0e6\ninclination = 45\n")
    s = load_scenario(path)
    assert s.orbit is not None
    assert s.orbit.semi_major_axis == 7.0e6
    assert s.orbit.inclination == pytest.approx(math.radians(45.0))
    assert s.separation_m() == pytest.approx(7.0e6 - EARTH.radius)


def test_custom_orbit_requires_semi_major_axis(tmp_path):
    path = _write(tmp_path, "[orbit]\ninclination = 45\n")
    with pytest.raises(ConfigurationError, match="semi_major_axis"):
        load_scenario(path)


def test_effect_flags(tmp_path):
    path = _write(tmp_path, "[effects]\nbell = off\nwigner = off\n")
    s = load_scenario(path)
    assert "bell" not in s.effects
    assert "wigner" not in s.effects
    assert "geometry" in s.effects


@pytest.mark.parametrize("effects", [["bell", "geometry"], {"bell", "geometry"},
                                     ("bell", "geometry", "bell")], ids=["list", "set", "tuple"])
def test_any_iterable_of_groups_gives_an_equal_hashable_scenario(effects):
    s = Scenario(effects=effects)
    t = Scenario(effects=frozenset({"geometry", "bell"}))
    assert s == t and hash(s) == hash(t)
    assert s.effects == frozenset({"geometry", "bell"})


def test_at_most_two_stations():
    gs = orbits.GroundStation(latitude=0.0, longitude=0.0, altitude=0.0)
    Scenario(stations=(gs, gs))
    with pytest.raises(ConfigurationError, match=r"^\[stations\] at most 2 stations are supported$"):
        Scenario(stations=(gs, gs, gs))


def test_invalid_bool(tmp_path):
    path = _write(tmp_path, "[effects]\nbell = maybe\n")
    with pytest.raises(ConfigurationError, match="bell"):
        load_scenario(path)


def test_unknown_preset_rejected():
    with pytest.raises((ConfigurationError, Exception)):
        Scenario(preset="molniya")


def test_overrides():
    s = with_overrides(Scenario(), seed=99, workers=3)
    assert s.seed == 99 and s.workers == 3
    unchanged = with_overrides(Scenario())
    assert unchanged.seed == Scenario().seed


# ----------------------------------------------------------------- reports


def test_benchmark_pair_reproduced_from_file(tmp_path):
    path = _write(tmp_path, "[geometry]\nseparation = 1e6\ndelay = 2e-5\n")
    report = run_report(load_scenario(path), effects={"geometry"})
    sep = _by_name(report)["geometry.invariant_spacelike_separation"]
    assert sep.value == pytest.approx(109e3, abs=1e3)
    assert sep.unit == "m"
    assert sep.paper_ref


def test_leo_defaults_timing_entry():
    report = run_report(Scenario(), effects={"geometry"})
    shift = _by_name(report)["geometry.timing_shift"]
    # 15 km/s pass: 166 ps of offset per km of baseline
    assert shift.value * 1e3 == pytest.approx(166e-12, abs=1e-12)


def test_geo_spacelike_window():
    report = run_report(Scenario(preset="geo"), effects={"qft"})
    window = _by_name(report)["qft.spacelike_window"]
    assert window.value == pytest.approx(0.12, rel=0.25)


def test_only_geometry_when_optional_effects_zeroed():
    report = run_report(Scenario(effects=frozenset({"geometry"})))
    assert report.entries
    assert all(e.effect.startswith("geometry.") for e in report.entries)


def test_group_order_and_units():
    report = run_report(Scenario())
    groups = [e.effect.split(".")[0] for e in report.entries]
    seen = list(dict.fromkeys(groups))
    assert seen == list(EFFECT_GROUPS)
    assert all(e.unit for e in report.entries)
    assert all(e.paper_ref for e in report.entries)


def test_unknown_effect_filter_rejected():
    with pytest.raises(ConfigurationError):
        run_report(Scenario(), effects={"astrology"})


def test_report_is_deterministic():
    a = run_report(Scenario())
    b = run_report(Scenario())
    assert a == b


def test_bell_entries_carry_seed():
    report = run_report(Scenario(seed=123), effects={"bell"})
    by = _by_name(report)
    assert by["bell.seed"].value == 123.0
    other = run_report(Scenario(seed=124), effects={"bell"})
    assert _by_name(other)["bell.simulated_s"].value != by["bell.simulated_s"].value


def test_low_visibility_fails_identifying_the_effect():
    with pytest.raises(EffectError) as err:
        run_report(Scenario(visibility=0.6), effects={"bell"})
    assert err.value.effect == "bell"


@pytest.mark.parametrize("raised, message", [
    # math and float ** raise OverflowError(errno, text)
    (OverflowError(34, "Numerical result out of range"),
     "numeric overflow: Numerical result out of range"),
    (OverflowError("int too large to convert to float"),
     "numeric overflow: int too large to convert to float"),
    (OverflowError(), "numeric overflow: "),
    (ZeroDivisionError("float division by zero"), "float division by zero"),
    (ValueError("math domain error"), "math domain error"),
    (DomainError("visibility must lie in [0, 1]"), "visibility must lie in [0, 1]"),
    (NumericFailure("did not converge"), "did not converge"),
    (EffectError("orbit", "numeric overflow"), "effect 'orbit' failed: numeric overflow"),
])
def test_effect_errors_names_the_group(raised, message):
    with pytest.raises(EffectError) as err:
        with effect_errors("qft"):
            raise raised
    assert err.value.effect == "qft"
    assert str(err.value) == f"effect 'qft' failed: {message}"
    assert err.value.__cause__ is raised


@pytest.mark.parametrize("raised", [TypeError("t"), KeyError("k"), RuntimeError("r")])
def test_effect_errors_passes_other_exceptions_through(raised):
    with pytest.raises(type(raised)) as err:
        with effect_errors("qft"):
            raise raised
    assert err.value is raised


def test_effect_errors_leaves_a_block_that_raises_nothing_alone():
    with effect_errors("qft"):
        ran = True
    assert ran


def test_report_values_equal_direct_library_calls():
    s = Scenario(seed=5, photon_budget=40_000)
    by = _by_name(run_report(s))

    assert by["geometry.timing_shift"].value == kinematics.timing_shift_per_distance(s.relative_speed)
    assert by["geometry.light_time"].value == kinematics.light_travel_time(s.separation_m())

    sat = orbits.propagate(s.orbit_spec(), 0.0)
    assert by["wigner.first_order_phase"].value == wigner.first_order_boost_phase(
        0.5 * math.pi, 0.5 * math.pi, 0.5 * math.pi, 0.0, sat.speed)
    assert by["wigner.diffraction_ratio"].value == wigner.diffraction_transform(1.0, s.relative_speed)

    assert by["gravitomagnetic.kerr_rotation"].value == gravitomagnetism.kerr_principal_null_rotation(
        ROUNDED_EARTH, sat.radius, math.inf, 0.25 * math.pi)
    assert by["gravitomagnetic.axial_rotation"].value == gravitomagnetism.axial_impact_rotation(
        ROUNDED_EARTH, EARTH.radius)

    assert by["qft.unruh_temperature"].value == qft_effects.unruh_temperature(9.81)
    assert by["qft.spacelike_window"].value == qft_effects.spacelike_window(s.separation_m())

    nu = C_LIGHT / s.wavelength
    t = kinematics.light_travel_time(s.separation_m())
    assert by["diffusion.angle_shift"].value == diffusion.angle_shift(t, nu, s.drift_d)
    assert by["diffusion.cmb_drift_bound"].value == diffusion.drift_bound_from_angle(
        s.cmb_chi, s.cmb_time, s.cmb_frequency)

    counts = bell.simulate_coincidences(s.visibility, s.photon_budget,
                                        seed=s.seed, workers=s.workers)
    result = bell.chsh_estimate(counts)
    assert by["bell.simulated_s"].value == result.s_value
    assert by["bell.sigma"].value == result.sigma
    assert by["bell.required_photons"].value == float(bell.required_photons(s.visibility))


# rows that several keys move together
_PAIR = ("geometry.invariant_spacelike_separation", "geometry.simultaneity_beta",
         "geometry.simultaneity_gamma")
_LINK = ("diffusion.affine_parameter", "diffusion.angle_shift", "diffusion.polarization_decay")
_CLOCKS = ("qft.proper_time_delta", "qft.ralph_correlation")
_CHSH = ("bell.simulated_s", "bell.sigma", "bell.n_sigma_violation")

# each scalar key: a valid value other than its default, and every report row that value
# moves; `[mission] source` has no reader, so it moves none
KEY_MOVES = {
    "preset": ("geo", {*_PAIR, *_LINK, *_CLOCKS, "geometry.light_time",
                       "wigner.first_order_phase", "gravitomagnetic.kerr_rotation",
                       "gravitomagnetic.closed_path_rotation", "interferometry.optical_cow_phase",
                       "interferometry.grav_redshift", "interferometry.displacement",
                       "qft.spacelike_window"}),
    "source": ("satellite", set()),
    "wavelength": (1550e-9, {*_LINK, "interferometry.optical_cow_phase"}),
    "fibre_delay": (30e-6, {*_PAIR, "interferometry.optical_cow_phase",
                            "interferometry.displacement"}),
    "fibre_index": (1.5, {"interferometry.optical_cow_phase"}),
    "detector_resolution": (1e-13, {"qft.ralph_correlation"}),
    "analyzer_switch_time": (20e-9, {"geometry.min_switch_separation"}),
    "visibility": (0.9, {*_CHSH, "bell.visibility", "bell.required_photons"}),
    "photon_budget": (2_000_000, {*_CHSH, "bell.photon_budget"}),
    "seed": (2, {*_CHSH, "bell.seed"}),
    "workers": (2, {*_CHSH, "bell.workers"}),
    "separation": (2e6, {*_PAIR, *_LINK, *_CLOCKS, "geometry.light_time",
                         "qft.spacelike_window"}),
    "delay": (30e-6, set(_PAIR)),
    "relative_speed": (20e3, {"geometry.timing_shift", "geometry.min_switch_separation",
                              "wigner.diffraction_ratio"}),
    "kappa": (2.0, {"geometry.causally_connected"}),
    "drift_d": (5e-8, {"diffusion.angle_shift"}),
    "diffusion_c": (3e-9, {"diffusion.polarization_decay"}),
    "cmb_time": (4e17, {"diffusion.cmb_drift_bound", "diffusion.cmb_diffusion_bound"}),
    "cmb_frequency": (2e11, {"diffusion.cmb_drift_bound", "diffusion.cmb_diffusion_bound"}),
    "cmb_chi": (0.2, {"diffusion.cmb_drift_bound"}),
    "cmb_mu": (0.05, {"diffusion.cmb_diffusion_bound"}),
    # the default acceleration follows the gap, and the Berry phase depends on their ratio only
    "berry_gap": (2e6, {"qft.required_acceleration"}),
    "berry_acceleration": (1e19, {"qft.berry_phase"}),
    "berry_g": (0.5, {"qft.berry_phase"}),
    "overlap_time": (1e-3, set(_CLOCKS)),
    "retroreflector": (True, set(_CLOCKS)),
    "interaction_time": (1e-3, {"qft.negativity_bound"}),
}


def _rows(s):
    """Each report row's bytes by name; a float's repr round-trips, -0.0 included."""
    return {e.effect: repr(e) for e in run_report(s).entries}


@pytest.fixture(scope="module")
def default_rows():
    return _rows(Scenario())


def test_key_moves_names_every_scalar_key():
    assert sorted(KEY_MOVES) == sorted(key.name for key in KEYS)


@pytest.mark.parametrize("key", KEYS, ids=lambda key: key.name)
def test_each_key_moves_exactly_its_rows(key, default_rows):
    value, rows = KEY_MOVES[key.name]
    assert value != key.default
    moved = _rows(Scenario(**{key.name: value}))
    assert {name for name in default_rows.keys() | moved.keys()
            if default_rows.get(name) != moved.get(name)} == rows


def test_scenario_validation_errors_name_fields():
    for kwargs, field in (
        (dict(visibility=1.5), "visibility"),
        (dict(photon_budget=0), "photon_budget"),
        (dict(relative_speed=0.0), "relative_speed"),
        (dict(detector_resolution=0.0), "detector_resolution"),
        (dict(kappa=0.5), "kappa"),
        (dict(source="lab"), "source"),
        # a value of another type than its key's parser gives
        (dict(retroreflector="off"), "retroreflector"),
        (dict(visibility=True), "visibility"),
        (dict(wavelength="1e-6"), "wavelength"),
        (dict(preset=5), "preset"),
        (dict(wavelength=10**400), "wavelength"),  # finite, but no float holds it
        (dict(orbit="leo"), "orbit"),
        (dict(stations=("x",)), "stations"),
    ):
        with pytest.raises(ConfigurationError, match=rf"^\[[a-z]+\] {field} must be "):
            Scenario(**kwargs)


# ------------------------------------------------------- the key table


def test_domain_error_names_section_and_key(tmp_path):
    for text, message in (
        ("[link]\nwavelength = -800e-9\n", r"^\[link\] wavelength must be > 0$"),
        ("[orbit]\nsemi_major_axis = 7e6\neccentricity = 1.5\n",
         r"^\[orbit\] eccentricity must lie in \[0, 1\)$"),
        ("[stations]\nstation1 = 95 0 0\n", r"^\[stations\] station1 \|latitude\| must be"),
    ):
        with pytest.raises(ConfigurationError, match=message):
            load_scenario(_write(tmp_path, text))


@pytest.mark.parametrize("section, key, raw", [
    ("diffusion", "drift_d", "nan"),
    ("diffusion", "cmb_chi", "-inf"),
    ("link", "wavelength", "inf"),
    ("orbit", "semi_major_axis", "nan"),
    ("orbit", "inclination", "inf"),
])
def test_non_finite_numbers_are_rejected(tmp_path, section, key, raw):
    extra = "semi_major_axis = 7e6\n" if section == "orbit" and key != "semi_major_axis" else ""
    path = _write(tmp_path, f"[{section}]\n{extra}{key} = {raw}\n")
    with pytest.raises(ConfigurationError, match=rf"\[{section}\] {key} must be finite"):
        load_scenario(path)


def test_non_finite_station_coordinate_is_rejected(tmp_path):
    path = _write(tmp_path, "[stations]\nstation1 = 40.0 nan 0\n")
    with pytest.raises(ConfigurationError, match=r"\[stations\] station1 must be finite"):
        load_scenario(path)


def test_non_finite_field_is_rejected_without_a_file():
    with pytest.raises(ConfigurationError, match=r"\[diffusion\] drift_d must be finite"):
        Scenario(drift_d=math.nan)


def test_seed_beyond_double_precision_loads_exactly(tmp_path):
    s = load_scenario(_write(tmp_path, "[bell]\nseed = 9007199254740993\n"))
    assert s.seed == 9007199254740993


def test_largest_seed_is_kept_and_two_to_the_64_is_rejected(tmp_path):
    s = load_scenario(_write(tmp_path, "[bell]\nseed = 18446744073709551615\n"))
    assert s.seed == 2**64 - 1
    with pytest.raises(ConfigurationError, match=r"\[bell\] seed"):
        load_scenario(_write(tmp_path, "[bell]\nseed = 18446744073709551616\n"))


def test_integer_in_exponent_form_loads_as_an_int(tmp_path):
    s = load_scenario(_write(tmp_path, "[bell]\nphoton_budget = 1e6\nworkers = 2.0\n"))
    assert s.photon_budget == 1_000_000 and type(s.photon_budget) is int
    assert s.workers == 2 and type(s.workers) is int


@pytest.mark.parametrize("raw", ["1e30", "1e999999999"])
def test_huge_photon_budget_names_the_key(tmp_path, raw):
    with pytest.raises(ConfigurationError, match=r"\[bell\] photon_budget"):
        load_scenario(_write(tmp_path, f"[bell]\nphoton_budget = {raw}\n"))


@pytest.mark.parametrize("raw", ["1.5", "2.5e-1", "nan", "seven"])
def test_non_integer_is_rejected(tmp_path, raw):
    with pytest.raises(ConfigurationError, match=r"\[bell\] seed must be an integer"):
        load_scenario(_write(tmp_path, f"[bell]\nseed = {raw}\n"))


def test_overrides_are_checked_by_the_key_table():
    with pytest.raises(ConfigurationError, match=r"\[bell\] seed"):
        with_overrides(Scenario(), seed=2**64)
    with pytest.raises(ConfigurationError, match=r"\[bell\] workers"):
        with_overrides(Scenario(), workers=0)
    with pytest.raises(ConfigurationError, match=r"\[bell\] seed must be an integer"):
        with_overrides(Scenario(), seed=1.0)
    assert with_overrides(Scenario(), seed=2**64 - 1).seed == 2**64 - 1


def test_a_numpy_float_is_stored_as_a_float():
    s = Scenario(wavelength=np.float32(8e-7))
    assert type(s.wavelength) is float and s.wavelength == float(np.float32(8e-7))
    # the report computes in float64, not in the float32 it was given
    row = run_report(s, effects={"diffusion"}).entries[0]
    assert type(row.value) is float
    assert row.value == diffusion.affine_parameter(s.light_time_s(), C_LIGHT / s.wavelength)


def test_a_numpy_integer_is_stored_as_an_int(capsys):
    s = Scenario(seed=np.uint64(2**64 - 1), workers=np.int8(3))
    assert (type(s.seed), type(s.workers)) == (int, int)
    assert (s.seed, s.workers) == (2**64 - 1, 3)
    # CSV prints an int seed exactly, not as 1.8446744073709552e+19
    seed_row = next(e for e in run_report(s, effects={"bell"}).entries if e.effect == "bell.seed")
    cli._write_rows([seed_row], ReportEntry._fields, "csv", sys.stdout)
    assert capsys.readouterr().out.splitlines()[1] == (
        "bell.seed,18446744073709551615,dimensionless,§8.1")


@pytest.mark.filterwarnings("error")
def test_overflowing_interval_fails_naming_the_group():
    with pytest.raises(EffectError, match=r"^effect 'geometry' failed: the interval overflows"):
        run_report(Scenario(separation=1e300), effects={"geometry"})


def test_non_finite_report_value_fails_naming_the_group(monkeypatch):
    for bad in (math.nan, math.inf, -math.inf):
        monkeypatch.setitem(GROUPS, "qft", lambda s, sat: [ReportEntry("qft.x", bad, "s", "§")])
        with pytest.raises(EffectError, match=rf"^effect 'qft' failed: qft.x is {bad}$") as err:
            run_report(Scenario(), effects={"geometry", "qft"})
        assert err.value.effect == "qft"


def test_readme_scenario_block_matches_the_key_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    shown, section = {}, None
    for line in block.splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            key, raw = (part.strip() for part in line.split("=", 1))
            shown[(section, key)] = raw
    table = {(sec, key) for sec, keys in SECTIONS.items() for key in keys}
    assert set(shown) == table
    for sec, keys in SECTIONS.items():
        for name, key in keys.items():
            if key is not None and key.default is not None:
                where = f"[{sec}] {name}"
                assert key.parse(where, shown[(sec, name)]) == key.default, where
