"""Mutation check: each deliberately broken copy of the library must fail the test it names.

Run by hand from anywhere (pytest does not collect this file):

    python3 tests/mutants.py [extra pytest arguments]

The unmutated tree is copied to a temporary directory and tier-1 must pass
there.  Then, for each mutation, a fresh copy gets one textual patch, and
the test the entry names (a node id, or a file with a `-k` expression) runs
alone on it and must fail: the script prints `killed by <test>`, or `NOT
killed by its test` and then tier-1's result on that copy.  An entry that
names no test must fail tier-1 instead.  A patch whose text does not occur
exactly once in its file is an error, so that code which moved makes this
script fail loudly instead of passing vacuously.  Extra arguments go to
pytest in the tier-1 runs, for example a test file to narrow them.  Exits 1
if any check fails.
"""

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, text, replacement, the test that must kill it or None for tier-1)
MUTANTS = [
    ("rk4_k4_from_k2", "src/relqopt/diffusion.py",
     "k4 = lam * (spec + dt * k3)", "k4 = lam * (spec + dt * k2)",
     "tests/test_reference_equivalence.py -k exact_solution_on_witness_models"),
    ("nyquist_zero_dropped", "src/relqopt/diffusion.py",
     "lam[-1] = 0.0", "pass",
     "tests/test_reference_equivalence.py -k 'top_mode_excited and 256'"),
    ("c_d_swapped", "src/relqopt/diffusion.py",
     "lam = -c_diff * m**2 - 1j * d_drift * m", "lam = -d_drift * m**2 - 1j * c_diff * m",
     "tests/test_reference_equivalence.py -k exact_solution_on_witness_models"),
    ("psd_without_off_diagonal", "src/relqopt/diffusion.py",
     "math.hypot((kaa - kbb) / 2, kab)", "abs(kaa - kbb) / 2",
     "tests/test_diffusion.py::test_model_validation_rejects_bad_tensors"),
    ("repeated_key_accepted", "src/relqopt/scenario.py",
     "elif key in section:", "elif False:",
     "tests/test_scenario.py::test_reader_refuses_naming_the_line[repeated_key]"),
    ("delay_ignored", "src/relqopt/scenario.py",
     "delay = s.delay if s.delay is not None else s.fibre_delay", "delay = s.fibre_delay",
     "tests/test_scenario.py::test_each_key_moves_exactly_its_rows[delay]"),
    ("overlap_time_ignored", "src/relqopt/scenario.py",
     "overlap = s.overlap_time if s.overlap_time is not None else s.light_time_s()",
     "overlap = s.light_time_s()",
     "tests/test_scenario.py::test_each_key_moves_exactly_its_rows[overlap_time]"),
    ("berry_acceleration_ignored", "src/relqopt/scenario.py",
     "a = s.berry_acceleration if s.berry_acceleration is not None else required", "a = required",
     "tests/test_scenario.py::test_each_key_moves_exactly_its_rows[berry_acceleration]"),
    ("report_without_finite_check", "src/relqopt/scenario.py",
     "if not math.isfinite(e.value):", "if False:",
     "tests/test_scenario.py::test_non_finite_report_value_fails_naming_the_group"),
    ("positive_check_passes_nan", "src/relqopt/errors.py",
     "if not (is_finite(x) and x > 0.0):", "if x <= 0.0:",
     "tests/test_records.py -k 'refuse_what_is_not_a_number and positive'"),
    ("check_vector_parses_text", "src/relqopt/errors.py",
     "x, y, z = v\n", "x, y, z = map(float, v)\n",
     "tests/test_records.py::test_shared_checks_refuse_what_is_not_a_number[vector-text]"),
    ("integer_check_accepts_bool", "src/relqopt/errors.py",
     "if isinstance(v, bool) or not isinstance(v, numbers.Integral):",
     "if not isinstance(v, numbers.Integral):",
     "tests/test_gravitomagnetism.py -k 'positive_integer_step_count and bool'"),
    ("transport_k4_from_k2", "src/relqopt/gravitomagnetism.py",
     "k4 = deriv(shift(y, h, k3))", "k4 = deriv(shift(y, h, k2))",
     "tests/test_reference_equivalence.py::test_transport_ray_matches_reference[strong_field]"),
    ("null_tolerance_divided", "src/relqopt/wigner.py",
     "1e-12 * energy", "1e-12 / energy",
     "tests/test_wigner.py::test_four_momentum_null_tolerance_scales_with_energy"),
    ("wigner_a_from_e_phi", "src/relqopt/wigner.py",
     "(e1, e2, e3), _ = _polar_frame(p.khat)", "_, (e1, e2, e3) = _polar_frame(p.khat)",
     "tests/test_wigner.py::test_wigner_angle_matches_50_digit_little_group_decomposition[10.0]"),
    ("lorentz_determinant_sign_dropped", "src/relqopt/wigner.py",
     "if p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v) < 0.0:", "if False:",
     "tests/test_wigner.py::test_each_validator_check_rejects_its_case[parity]"),
    ("concurrence_sum", "src/relqopt/wigner.py",
     "pp * mm - pm * mp", "pp * mm + pm * mp",
     "tests/test_wigner.py::test_concurrence_values"),
    ("first_order_half_restored", "src/relqopt/wigner.py",
     "return -math.tan(0.5 * theta)", "return -0.5 * math.tan(0.5 * theta)",
     "tests/test_wigner.py::test_first_order_boost_phase_examples"),
    ("philox_nine_rounds", "src/relqopt/_philox.py",
     "for i in range(10)]", "for i in range(9)]",
     "tests/test_bell.py::test_python_stream_matches_numpy_generator"),
    ("btpe_squeeze_sign_flipped", "src/relqopt/_philox.py",
     "t = -k * k / (2 * nrq)", "t = k * k / (2 * nrq)",
     "tests/test_bell.py::test_python_stream_matches_numpy_generator"),
    ("share_without_remainder", "src/relqopt/bell.py",
     "share = n_i // workers + (1 if w < n_i % workers else 0)", "share = n_i // workers",
     "tests/test_bell.py::test_stream_counts_are_pinned"),
    ("undrawn_setting_without_zero_row", "src/relqopt/bell.py",
     "draws = [[[0, 0, 0, 0]] for _ in range(4)]", "draws = [[] for _ in range(4)]",
     "tests/test_bell.py::test_stream_counts_are_pinned"),
    ("boost_event_active", "src/relqopt/kinematics.py",
     "boost((-b1, -b2, -b3))", "boost((b1, b2, b3))",
     "tests/test_kinematics.py::test_simultaneity_boost_zeroes_dt_and_preserves_separation"),
    ("perigee_from_apogee", "src/relqopt/orbits.py",
     "semi_major_axis * (1.0 - eccentricity)", "semi_major_axis * (1.0 + eccentricity)",
     "tests/test_orbits.py::test_orbit_validation"),
    ("eccentricity_one_accepted", "src/relqopt/orbits.py",
     "if not 0.0 <= e < 1.0:", "if not 0.0 <= e <= 1.0:",
     "tests/test_orbits.py::test_kepler_refuses_an_eccentricity_of_one"),
    ("propagate_epoch_sign", "src/relqopt/orbits.py",
     "t - orbit.epoch", "t + orbit.epoch",
     "tests/test_orbits.py::test_propagate_counts_time_from_the_epoch"),
    ("table_without_finite_check", "src/relqopt/cli.py",
     "if not math.isfinite(x):", "if False:",
     "tests/test_cli.py::test_orbit_non_finite_row_exits_3_naming_the_orbit"),
    ("csv_cell_with_a_comma", "src/relqopt/scenario.py",
     "\"m/s^2\", \"§4.1 Eq. (23)\"", "\"m/s^2\", \"§4.1, Eq. (23)\"",
     "tests/test_cli.py::test_no_text_cell_needs_csv_quoting"),
    ("cube_overflow_uncaught", "src/relqopt/orbits.py",
     "except OverflowError:", "except ZeroDivisionError:",
     "tests/test_orbits.py::test_an_axis_whose_cube_overflows_raises_numeric_failure"),
    ("scenario_float_cast_dropped", "src/relqopt/scenario.py",
     "x = float(x) if parse is _float", "x = x if parse is _float",
     "tests/test_scenario.py::test_a_numpy_float_is_stored_as_a_float"),
    ("scenario_int_cast_dropped", "src/relqopt/scenario.py",
     "else int(x) if parse is _int", "else x if parse is _int",
     "tests/test_scenario.py::test_a_numpy_integer_is_stored_as_an_int"),
    ("bell_accepts_bool", "src/relqopt/bell.py",
     "if any(isinstance(x, bool) for x in (n_pairs, seed, workers)):", "if False:",
     "tests/test_bell.py::test_invalid_simulation_inputs"),
    ("density_array_writeable", "src/relqopt/diffusion.py",
     "c.flags.writeable = False", "pass",
     "tests/test_diffusion.py::test_a_validated_density_cannot_be_changed"),
    ("density_attribute_assignable", "src/relqopt/diffusion.py",
     "__setattr__ = __delattr__ = Record.__setattr__", "pass",
     "tests/test_diffusion.py::test_a_validated_density_cannot_be_changed"),
    ("density_copy_writeable", "src/relqopt/diffusion.py",
     "def __reduce__(self):", "def _reduce_unused(self):",
     "tests/test_diffusion.py::test_a_validated_density_cannot_be_changed"),
    ("flag_choices_unchecked", "src/relqopt/cli.py",
     "_require(not choices or values[flag] in choices, flag,", "_require(True, flag,",
     "tests/test_cli.py::test_usage_error_exits_2_with_one_line_naming_the_flag[bad_choice]"),
    ("int_flag_read_as_float", "src/relqopt/cli.py",
     "values[flag] = kind(value)", "values[flag] = (float if kind is int else kind)(value)",
     "tests/test_cli.py::test_usage_error_exits_2_with_one_line_naming_the_flag[bad_int]"),
]


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench",
        ".bench_build"))


def _pytest(tree: Path, pytest_args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *pytest_args],
        cwd=tree, env=env, capture_output=True, text=True)


def _summary(run: subprocess.CompletedProcess) -> str:
    lines = run.stdout.strip().splitlines()
    return lines[-1] if lines else run.stderr.strip()


def main(pytest_args) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="relqopt-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        run = _pytest(base, pytest_args)
        print(f"unmutated: {_summary(run)}")
        if run.returncode != 0:
            print("the unmutated tree must pass before mutants mean anything")
            return 1
        for name, rel, text, replacement, test in MUTANTS:
            tree = Path(tmp) / name
            _copy_tree(tree)
            path = tree / rel
            source = path.read_text()
            count = source.count(text)
            if count != 1:
                print(f"{name}: patch text occurs {count} times in {rel}, expected once")
                failures += 1
                continue
            path.write_text(source.replace(text, replacement))
            if test is None:
                run = _pytest(tree, pytest_args)
                killed = run.returncode != 0
                print(f"{name}: {'killed' if killed else 'SURVIVED'} ({_summary(run)})")
            else:
                run = _pytest(tree, shlex.split(test))
                # 1 means tests failed; a test that selects nothing exits 4 or 5
                killed = run.returncode == 1
                if killed:
                    print(f"{name}: killed by {test} ({_summary(run)})")
                else:
                    print(f"{name}: NOT killed by its test {test} ({_summary(run)}); "
                          f"tier-1: {_summary(_pytest(tree, pytest_args))}")
            failures += not killed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
