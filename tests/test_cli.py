import csv
import io
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relqopt import bell, cli, orbits
from relqopt.cli import _linspace, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(out):
    return list(csv.reader(io.StringIO(out)))


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------ report


def test_report_table_format(capsys):
    code, out, err = _run(capsys, "report")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["effect", "value", "unit", "paper_ref"]
    assert any(l.startswith("geometry.invariant_spacelike_separation") for l in lines)
    assert any(l.startswith("bell.simulated_s") for l in lines)


def test_report_csv_format_and_precision(capsys):
    code, out, err = _run(capsys, "report", "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["effect", "value", "unit", "paper_ref"]
    values = {r[0]: r[1] for r in rows[1:]}
    shift = float(values["geometry.timing_shift"])
    # 17 significant digits: value must round-trip the library float exactly
    from relqopt.kinematics import timing_shift_per_distance
    assert shift == timing_shift_per_distance(15e3)
    assert "\r" not in out


def test_report_is_deterministic(capsys):
    _, out1, _ = _run(capsys, "report", "--format", "csv")
    _, out2, _ = _run(capsys, "report", "--format", "csv")
    assert out1 == out2


def test_report_effects_filter(capsys):
    code, out, _ = _run(capsys, "report", "--effects", "geometry,qft", "--format", "csv")
    assert code == 0
    groups = {r[0].split(".")[0] for r in _csv_rows(out)[1:]}
    assert groups == {"geometry", "qft"}


def test_report_scenario_file(capsys, tmp_path):
    path = _write(tmp_path, "[geometry]\nseparation = 1e6\ndelay = 2e-5\n")
    code, out, _ = _run(capsys, "report", "--scenario", path,
                        "--effects", "geometry", "--format", "csv")
    assert code == 0
    values = {r[0]: float(r[1]) for r in _csv_rows(out)[1:]}
    assert values["geometry.invariant_spacelike_separation"] == pytest.approx(109e3, abs=1e3)
    assert values["geometry.simultaneity_beta"] == pytest.approx(0.994, abs=1e-3)


def test_report_on_a_high_eccentricity_orbit_before_perigee(capsys, tmp_path):
    # perigee at 1e7 m; Kepler's Newton iteration once diverged at this mean anomaly
    path = _write(tmp_path, "[orbit]\nsemi_major_axis = 1e8\neccentricity = 0.9\n"
                            "mean_anomaly = -142.185\n")
    code, out, err = _run(capsys, "report", "--scenario", path)
    assert code == 0 and err == ""
    assert any(line.startswith("geometry.") for line in out.splitlines())


def test_seed_override_changes_monte_carlo(capsys):
    _, out1, _ = _run(capsys, "report", "--effects", "bell", "--format", "csv", "--seed", "1")
    _, out2, _ = _run(capsys, "report", "--effects", "bell", "--format", "csv", "--seed", "2")
    _, out3, _ = _run(capsys, "report", "--effects", "bell", "--format", "csv", "--seed", "1")
    assert out1 != out2
    assert out1 == out3


# -------------------------------------------------------------- exit codes


def test_unknown_key_exits_2(capsys, tmp_path):
    path = _write(tmp_path, "[link]\nwavelenght = 800e-9\n")
    code, out, err = _run(capsys, "report", "--scenario", path)
    assert code == 2
    assert "wavelenght" in err


def test_validation_error_exits_2_naming_field(capsys, tmp_path):
    path = _write(tmp_path, "[link]\nwavelength = -800e-9\n")
    code, _, err = _run(capsys, "report", "--scenario", path)
    assert code == 2
    assert "wavelength" in err


def test_parse_error_exits_2_with_line(capsys, tmp_path):
    path = _write(tmp_path, "[link]\nwavelength  800e-9\n")
    code, _, err = _run(capsys, "report", "--scenario", path)
    assert code == 2
    assert "line" in err


def test_numeric_failure_exits_3_identifying_effect(capsys, tmp_path):
    path = _write(tmp_path, "[bell]\nvisibility = 0.6\n")
    code, _, err = _run(capsys, "report", "--scenario", path, "--effects", "bell")
    assert code == 3
    assert "bell" in err


def test_bad_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_seed_exits_2(capsys):
    code, _, err = _run(capsys, "report", "--seed", "-1")
    assert code == 2
    assert "seed" in err


def test_unknown_effect_group_exits_2(capsys):
    code, _, err = _run(capsys, "report", "--effects", "astrology")
    assert code == 2


def test_empty_effects_list_exits_2(capsys):
    code, out, err = _run(capsys, "report", "--effects", ",")
    assert (code, out, err) == (2, "", "error: --effects list is empty\n")


@pytest.mark.parametrize("argv", [
    ["orbit", "--seed", "1"], ["curves", "--workers", "2"],
    ["wigner", "--seed", "1"], ["diffusion", "--seed", "1"],
])
def test_monte_carlo_flags_exist_only_where_the_monte_carlo_runs(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments: " + " ".join(argv[1:]) in err


# ----------------------------------------------------------------- parsing


@pytest.mark.parametrize("argv, name, value", [
    (["wigner", "--phi", "-30"], "phi", -30.0),
    (["wigner", "--phi=-30"], "phi", -30.0),
    (["wigner", "--theta-b", "-.5"], "theta_b", -0.5),
    (["orbit", "--samples=5"], "samples", 5),
    (["orbit", "--samples", "3", "--samples", "5"], "samples", 5),
    (["report", "--seed", "-1"], "seed", -1),
    (["curves", "--which=ralph"], "which", "ralph"),
    (["bell-sim", "--counts-out", "-"], "counts_out", "-"),
    (["orbit"], "samples", 101),
    (["diffusion"], "effects", "diffusion"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_flag_forms_parse_to_the_value_and_type_of_the_table(argv, name, value):
    got = getattr(cli._parse_args(argv), name)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("argv, named", [
    (["orbit", "--samples"], "--samples"),
    (["orbit", "--samples", "--format", "csv"], "--samples"),
    (["orbit", "--samples", "2.5"], "--samples"),
    (["wigner", "--theta", "ninety"], "--theta"),
    (["report", "--format", "xml"], "--format"),
    (["curves", "--which=both"], "--which"),
    (["report", "extra"], "unrecognized arguments: extra"),
    (["report", "--effect", "bell"], "unrecognized arguments: --effect bell"),
    (["orbit", "--sample=5"], "unrecognized arguments: --sample=5"),
    ([], "subcommand"),
    (["frobnicate"], "'frobnicate'"),
    (["--format", "csv"], "'--format'"),
], ids=["missing_value", "flag_for_value", "bad_int", "bad_float", "bad_choice",
        "bad_choice_with_equals", "stray_positional", "unknown_flag", "abbreviation",
        "no_subcommand", "unknown_subcommand", "flag_before_subcommand"])
def test_usage_error_exits_2_with_one_line_naming_the_flag(capsys, argv, named):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([name, "--help"] for name in cli.COMMANDS),
                                  ["orbit", "--samples", "5", "-h"]],
                         ids=" ".join)
def test_help_lists_every_subcommand_or_flag_of_the_table(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    if argv[0] in cli.COMMANDS:
        _, about, flags, _ = cli.COMMANDS[argv[0]]
        assert about in out and all(flag in out and flags[flag][3] in out for flag in flags)
    else:
        assert all(name in out and entry[1] in out for name, entry in cli.COMMANDS.items())


def test_readme_names_the_flags_of_each_subcommand():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Subcommands\n")[1].split("\n## ")[0]
    common = set(re.findall(r"--[a-z][a-z-]*", re.search(r"All subcommands accept ([^.]*)\.",
                                                          section)[1]))
    rows = {m[1]: set(re.findall(r"--[a-z][a-z-]*", m[2]))
            for m in re.finditer(r"^\| `([a-z-]+)` \|.*\| (.*) \|$", section, re.M)}
    assert rows.keys() == cli.COMMANDS.keys()
    for name, (_, _, flags, _) in cli.COMMANDS.items():
        assert common | rows[name] == flags.keys(), name


# -------------------------------------------------------------- subcommands


def test_bell_sim(capsys, tmp_path):
    counts_path = tmp_path / "counts.csv"
    code, out, _ = _run(capsys, "bell-sim", "--photons", "20000", "--seed", "11",
                        "--format", "csv", "--counts-out", str(counts_path))
    assert code == 0
    values = {r[0]: float(r[1]) for r in _csv_rows(out)[1:]}
    assert values["bell.photon_budget"] == 20000.0
    assert 2.0 < values["bell.simulated_s"] < 2.0 * math.sqrt(2.0) + 0.2
    assert values["bell.sigma"] > 0.0
    rows = counts_path.read_text().splitlines()
    assert rows[0] == "alpha,beta,n_pp,n_pm,n_mp,n_mm"
    total = sum(float(x) for row in rows[1:] for x in row.split(",")[2:])
    assert total == 20000.0


def test_bell_sim_counts_out_runs_one_monte_carlo(capsys, tmp_path, monkeypatch):
    calls = []
    simulate = bell.simulate_coincidences
    monkeypatch.setattr(bell, "simulate_coincidences",
                        lambda *a, **k: calls.append(a) or simulate(*a, **k))
    code, _, _ = _run(capsys, "bell-sim", "--counts-out", str(tmp_path / "counts.csv"))
    assert code == 0
    assert len(calls) == 1


def test_bell_sim_unwritable_counts_out_exits_2_naming_the_path(capsys, tmp_path):
    path = str(tmp_path / "missing" / "counts.csv")
    code, out, err = _run(capsys, "bell-sim", "--photons", "1000", "--counts-out", path)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --counts-out file: ") and path in err


def test_bell_sim_low_visibility_exits_3(capsys, tmp_path):
    path = _write(tmp_path, "[bell]\nvisibility = 0.5\n")
    code, _, err = _run(capsys, "bell-sim", "--scenario", path)
    assert code == 3
    assert "bell" in err


def test_diffusion_subcommand(capsys):
    code, out, _ = _run(capsys, "diffusion", "--format", "csv")
    assert code == 0
    names = [r[0] for r in _csv_rows(out)[1:]]
    assert "diffusion.affine_parameter" in names
    assert "diffusion.cmb_drift_bound" in names


@pytest.mark.parametrize("argv, group", [
    (["diffusion"], ["report", "--effects", "diffusion"]),
    (["bell-sim", "--seed", "7", "--workers", "3"],
     ["report", "--effects", "bell", "--seed", "7", "--workers", "3"]),
    (["wigner"], ["report", "--effects", "wigner"]),
], ids=lambda argv: " ".join(argv))
def test_subcommand_prints_the_rows_of_its_report_group(capsys, argv, group):
    """A single-group subcommand prints its group's rows, byte for byte; `wigner`
    adds only the rows of the exact angle, which the report leaves out."""
    _, out, _ = _run(capsys, *argv, "--format", "csv")
    _, want, _ = _run(capsys, *group, "--format", "csv")
    extra = ("wigner.beta,", "wigner.exact_angle,")
    assert [line for line in out.splitlines() if not line.startswith(extra)] \
        == want.splitlines()
    assert len(out.splitlines()) - len(want.splitlines()) == (2 if argv == ["wigner"] else 0)


def test_wigner_subcommand_default_geometry(capsys):
    code, out, _ = _run(capsys, "wigner", "--format", "csv")
    assert code == 0
    values = {r[0]: float(r[1]) for r in _csv_rows(out)[1:]}
    beta = values["wigner.beta"]
    # the closed form is in the pole-regular frame Rz(phi) Ry(theta) Rz(-phi)
    assert values["wigner.first_order_phase"] == pytest.approx(-beta, rel=1e-9)
    # exact little-group angle (frame Rz(phi) Ry(theta)) vanishes for
    # transverse boost at theta = pi/2
    assert abs(values["wigner.exact_angle"]) < 1e-15


def test_wigner_subcommand_custom_geometry(capsys):
    code, out, _ = _run(capsys, "wigner", "--beta", "1e-3", "--theta", "45",
                        "--phi", "30", "--theta-b", "90", "--phi-b", "120",
                        "--format", "csv")
    assert code == 0
    values = {r[0]: float(r[1]) for r in _csv_rows(out)[1:]}
    # exact angle follows beta cot(theta) sin(theta_b) sin(phi - phi_b)
    expected = 1e-3 / math.tan(math.radians(45.0)) * math.sin(math.radians(90.0)) \
        * math.sin(math.radians(30.0 - 120.0))
    assert values["wigner.exact_angle"] == pytest.approx(expected, abs=3e-5)


def test_wigner_subcommand_answers_a_high_gamma_boost(capsys):
    # gamma ~ 7071: the null-translation entries of W grow with gamma; the
    # angle does not, and a 50-digit evaluation of W gives -1.7591686040174
    code, out, err = _run(capsys, "wigner", "--beta", "0.99999999", "--theta", "60",
                          "--phi", "45", "--theta-b", "90", "--phi-b", "200")
    assert code == 0 and err == ""
    values = dict(line.split()[:2] for line in out.splitlines()[1:])
    assert values["wigner.exact_angle"] == "-1.7591686"


def test_wigner_subcommand_answers_a_photon_nearly_opposed_to_the_boost(capsys):
    # gamma ~ 707 and a photon 0.05 degrees off the direction opposite to the
    # boost: Lam p has energy ~ E / (2 gamma) with rounding ~ gamma eps E, so a
    # relative null test on it refused this input
    code, out, err = _run(capsys, "wigner", "--beta", "0.999999", "--theta", "60",
                          "--phi", "45", "--theta-b", "120.05", "--phi-b", "225",
                          "--format", "csv")
    assert code == 0 and err == ""
    values = {r[0]: float(r[1]) for r in _csv_rows(out)[1:]}
    assert abs(values["wigner.exact_angle"]) <= 1e-9  # 50 digits give 2.3e-13


def test_orbit_subcommand(capsys, tmp_path):
    path = _write(tmp_path, "[stations]\nstation1 = 0 0 0\n")
    code, out, _ = _run(capsys, "orbit", "--scenario", path, "--samples", "5",
                        "--duration", "600", "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["t", "x", "y", "z", "vx", "vy", "vz", "range", "range_rate"]
    assert len(rows) == 6
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 600.0
    r0 = math.hypot(float(rows[1][1]), float(rows[1][2]), float(rows[1][3]))
    assert r0 == pytest.approx(7378137.0, rel=1e-9)


def test_curves_photons(capsys):
    code, out, _ = _run(capsys, "curves", "--which", "photons", "--v-min", "0.85",
                        "--v-max", "1.0", "--points", "4", "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["V", "N"]
    assert [r[1] for r in rows[1:]] == ["564", "288", "168", "105"]


def test_curves_photons_invalid_range(capsys):
    code, _, err = _run(capsys, "curves", "--which", "photons", "--v-min", "0.5")
    assert code == 2


def test_curves_ralph(capsys):
    code, out, _ = _run(capsys, "curves", "--which", "ralph", "--points", "3",
                        "--delta-max", "2e-12", "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["delta", "C"]
    assert float(rows[1][1]) == 1.0
    assert float(rows[2][1]) == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_curves_non_finite_row_exits_3_naming_the_group(capsys, tmp_path):
    # the default --delta-max, 6 detector resolutions, overflows to inf, and
    # ralph_correlation refuses the non-finite delta it spreads into
    path = _write(tmp_path, "[link]\ndetector_resolution = 1e308\n")
    code, out, err = _run(capsys, "curves", "--which", "ralph", "--scenario", path)
    assert code == 3 and out == ""
    assert err == "error: effect 'qft' failed: delta must be finite\n"


def test_orbit_non_finite_row_exits_3_naming_the_orbit(capsys, tmp_path, monkeypatch):
    path = _write(tmp_path, "[stations]\nstation1 = 0 0 0\n")
    station_state = orbits.station_state
    monkeypatch.setattr(orbits, "station_state", lambda gs, t: orbits.StateVector(
        t, (math.inf, 0.0, 0.0), station_state(gs, t).velocity))
    code, out, err = _run(capsys, "orbit", "--scenario", path, "--samples", "3")
    assert code == 3 and out == ""
    assert err == "error: effect 'orbit' failed: range is inf\n"


def test_console_entry_point():
    import relqopt.cli as cli
    assert callable(cli.run)


def test_reader_that_stops_early_ends_the_run_quietly():
    # 5,000 rows are ~345 kB, more than a pipe holds, so the child is still writing
    # when the pipe closes after one line, as it is under `| head -1`
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    with subprocess.Popen([sys.executable, "-m", "relqopt", "orbit", "--samples", "5000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().split()[:2] == [b"t", b"x"]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_non_finite_scenario_number_exits_2_naming_the_key(capsys, tmp_path):
    for text, where in (("[diffusion]\ndrift_d = nan\n", "[diffusion] drift_d"),
                        ("[diffusion]\ncmb_chi = -inf\n", "[diffusion] cmb_chi"),
                        ("[orbit]\nsemi_major_axis = nan\n", "[orbit] semi_major_axis")):
        code, out, err = _run(capsys, "report", "--scenario", _write(tmp_path, text))
        assert code == 2 and out == ""
        assert where in err


def test_scenario_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_bytes(b"[bell]\nseed = 3 ; \xff\n")
    code, out, err = _run(capsys, "report", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read scenario file: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_huge_photon_budget_exits_2_naming_the_key(capsys, tmp_path):
    path = _write(tmp_path, "[bell]\nphoton_budget = 1e30\n")
    code, _, err = _run(capsys, "report", "--scenario", path, "--effects", "bell")
    assert code == 2
    assert "[bell] photon_budget" in err


def test_seed_flag_is_checked_by_the_key_table(capsys):
    code, _, err = _run(capsys, "report", "--effects", "bell", "--seed", str(2**64))
    assert code == 2 and "[bell] seed" in err
    code, _, _ = _run(capsys, "report", "--effects", "bell", "--seed", str(2**64 - 1))
    assert code == 0


@pytest.mark.filterwarnings("error")
def test_non_finite_result_exits_3_naming_the_group(capsys, tmp_path):
    path = _write(tmp_path, "[geometry]\nseparation = 1e300\n")
    code, out, err = _run(capsys, "report", "--scenario", path)
    assert code == 3 and out == ""
    assert "'geometry'" in err and err.count("\n") == 1


def test_non_finite_row_exits_3_naming_the_group_and_the_row(capsys, tmp_path):
    # the switching baseline t c^2 / v0 is past the float range; no check in the formula stops it
    path = _write(tmp_path, "[link]\nanalyzer_switch_time = 1e300\n")
    code, out, err = _run(capsys, "report", "--scenario", path)
    assert code == 3 and out == ""
    assert err == "error: effect 'geometry' failed: geometry.min_switch_separation is inf\n"


def test_satellite_state_overflow_exits_3_naming_the_orbit(capsys, tmp_path):
    path = _write(tmp_path, "[orbit]\nsemi_major_axis = 1e300\n")
    for command in ("report", "orbit"):
        code, out, err = _run(capsys, command, "--scenario", path)
        assert code == 3 and out == ""
        assert err.startswith("error: effect 'orbit' failed: numeric overflow")
        assert "(34," not in err


def test_group_overflow_exits_3_with_a_readable_message(capsys, tmp_path):
    # (R / (c T))**3 overflows in the negativity bound
    path = _write(tmp_path, "[qft]\ninteraction_time = 1e-300\n")
    code, out, err = _run(capsys, "report", "--scenario", path)
    assert code == 3 and out == ""
    assert err.startswith("error: effect 'qft' failed: numeric overflow")
    assert "(34," not in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["curves", "--points", "-1"], "--points"),
    (["curves", "--which", "ralph", "--points", "1"], "--points"),
    (["curves", "--which", "ralph", "--delta-max", "nan"], "--delta-max"),
    (["curves", "--which", "ralph", "--delta-max", "0"], "--delta-max"),
    (["curves", "--v-max", "nan"], "--v-max"),
    (["wigner", "--beta", "1.5"], "--beta"),
    (["wigner", "--beta", "nan"], "--beta"),
    (["wigner", "--beta", "-0.1"], "--beta"),
    (["wigner", "--theta", "200"], "--theta"),
    (["wigner", "--theta", "nan"], "--theta"),
    (["wigner", "--theta-b", "nan"], "--theta-b"),
    (["wigner", "--phi", "inf"], "--phi"),
    (["wigner", "--phi-b=-inf"], "--phi-b"),
    (["orbit", "--duration", "nan"], "--duration"),
    (["orbit", "--duration", "inf"], "--duration"),
    (["orbit", "--duration", "-60"], "--duration"),
    (["orbit", "--samples", "1"], "--samples"),
    (["orbit", "--samples", "100001"], "--samples"),
    (["curves", "--points", "100001"], "--points"),
    (["curves", "--which", "ralph", "--points", "100001"], "--points"),
])
@pytest.mark.filterwarnings("error")
def test_flag_outside_its_domain_exits_2_naming_the_flag(capsys, argv, flag):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be ")


def test_workers_above_the_cap_exit_2_naming_the_key(capsys, tmp_path):
    path = _write(tmp_path, "[bell]\nworkers = 1e9\nphoton_budget = 1000\n")
    for argv in (["report", "--scenario", path],
                 ["bell-sim", "--workers", str(10**9), "--photons", "1000"]):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert "[bell] workers must be >= 1 and <= 1024" in err


def test_integer_rows_print_exactly_in_csv(capsys):
    seed = 2**53 + 1
    code, out, _ = _run(capsys, "bell-sim", "--seed", str(seed), "--photons", "1000",
                        "--workers", "3", "--format", "csv")
    assert code == 0
    values = {r[0]: r[1] for r in _csv_rows(out)[1:]}
    assert values["bell.seed"] == "9007199254740993"
    assert values["bell.photon_budget"] == "1000"
    assert values["bell.workers"] == "3"
    assert values["bell.required_photons"] == "168"
    # the table keeps 9 significant digits
    code, out, _ = _run(capsys, "report", "--effects", "bell", "--seed", str(seed))
    assert code == 0
    row = next(line.split() for line in out.splitlines() if line.startswith("bell.seed"))
    assert row[1] == format(float(seed), ".9g")


def test_no_text_cell_needs_csv_quoting(capsys, tmp_path, monkeypatch):
    # CSV joins cells with "," unquoted, so no row name, unit, paper ref or header may
    # hold a comma, a quote or a line break
    cells = set()
    write_rows = cli._write_rows

    def spy(rows, header, fmt, stream):
        rows = list(rows)
        cells.update(header)
        cells.update(c for row in rows for c in row if isinstance(c, str))
        write_rows(rows, header, fmt, stream)

    monkeypatch.setattr(cli, "_write_rows", spy)
    stations = _write(tmp_path, "[stations]\nstation1 = 0 0 0\n", "stations.ini")
    runs = [["report"], ["bell-sim", "--counts-out", str(tmp_path / "counts.csv")],
            ["diffusion"], ["wigner"], ["orbit"], ["orbit", "--scenario", stations],
            ["curves", "--which", "photons"], ["curves", "--which", "ralph"]]
    # the geometry row names the interval's kind: lightlike at delay 0, timelike at 1 s
    for delay in ("0", "1"):
        runs.append(["report", "--scenario", _write(tmp_path, f"[geometry]\ndelay = {delay}\n",
                                                       f"delay_{delay}.ini")])
    for argv in runs:
        assert _run(capsys, *argv, "--format", "csv")[0] == 0, argv
    assert {f"geometry.invariant_{kind}_separation" for kind in
            ("spacelike", "timelike", "lightlike")} | {"range_rate", "n_mm", "delta"} <= cells
    assert sorted(c for c in cells if set(c) & set(',"\r\n')) == []


# ------------------------------------------------------------------ sampling


def test_linspace_matches_numpy_bit_for_bit():
    # perfbench and users compare `orbit` and `curves` rows against
    # numpy.linspace points, so one ulp off would be a wrong row
    rng = random.Random(20)

    def draw():
        return rng.choice((0.0, rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-15.0, 15.0)))

    # a step that underflows to 0 although stop != start takes numpy's other branch
    cases = [(0.0, 1.5e-323, 8), (0.5, 0.5, 4), (0.72, 1.0, 57), (1.0, -1.0, 2)]
    cases += [(draw(), draw(), rng.randint(2, 200)) for _ in range(5000)]
    for start, stop, num in cases:
        got = np.array(_linspace(start, stop, num))
        want = np.linspace(start, stop, num)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (start, stop, num)
