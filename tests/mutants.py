"""Mutation check: tier-1 must fail on each deliberately broken copy of the library.

Run by hand from anywhere (pytest does not collect this file):

    python3 tests/mutants.py [extra pytest arguments]

The unmutated tree is copied to a temporary directory and tier-1 must pass
there.  Then, for each mutation, a fresh copy gets one textual patch and
tier-1 must fail on it.  A patch whose text does not occur exactly once in
its file is an error, so that code which moved makes this script fail
loudly instead of passing vacuously.  Extra arguments go to pytest, for
example a test file to narrow the run.  Exits 1 if any check fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, text, replacement)
MUTANTS = [
    ("rk4_k4_from_k2", "src/relqopt/diffusion.py",
     "k4 = lam * (spec + dt * k3)", "k4 = lam * (spec + dt * k2)"),
    ("nyquist_zero_dropped", "src/relqopt/diffusion.py",
     "lam[-1] = 0.0", "pass"),
    ("c_d_swapped", "src/relqopt/diffusion.py",
     "lam = -c_diff * m**2 - 1j * d_drift * m", "lam = -d_drift * m**2 - 1j * c_diff * m"),
    ("psd_without_off_diagonal", "src/relqopt/diffusion.py",
     "math.hypot((kaa - kbb) / 2, kab)", "abs(kaa - kbb) / 2"),
    ("repeated_key_accepted", "src/relqopt/scenario.py",
     "elif key in section:", "elif False:"),
    ("delay_ignored", "src/relqopt/scenario.py",
     "delay = s.delay if s.delay is not None else s.fibre_delay", "delay = s.fibre_delay"),
    ("overlap_time_ignored", "src/relqopt/scenario.py",
     "overlap = s.overlap_time if s.overlap_time is not None else s.light_time_s()",
     "overlap = s.light_time_s()"),
    ("berry_acceleration_ignored", "src/relqopt/scenario.py",
     "a = s.berry_acceleration if s.berry_acceleration is not None else required",
     "a = required"),
    ("report_without_finite_check", "src/relqopt/scenario.py",
     "if not math.isfinite(e.value):", "if False:"),
    ("positive_check_passes_nan", "src/relqopt/errors.py",
     "if not (is_finite(x) and x > 0.0):", "if x <= 0.0:"),
    ("check_vector_parses_text", "src/relqopt/errors.py",
     "x, y, z = v\n", "x, y, z = map(float, v)\n"),
    ("integer_check_accepts_bool", "src/relqopt/errors.py",
     "if isinstance(v, bool) or not isinstance(v, numbers.Integral):",
     "if not isinstance(v, numbers.Integral):"),
    ("transport_k4_from_k2", "src/relqopt/gravitomagnetism.py",
     "k4 = deriv(shift(y, h, k3))", "k4 = deriv(shift(y, h, k2))"),
    ("null_tolerance_divided", "src/relqopt/wigner.py",
     "1e-12 * energy", "1e-12 / energy"),
    ("wigner_a_from_e_phi", "src/relqopt/wigner.py",
     "(e1, e2, e3), _ = _polar_frame(p.khat)", "_, (e1, e2, e3) = _polar_frame(p.khat)"),
    ("lorentz_determinant_sign_dropped", "src/relqopt/wigner.py",
     "if p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v) < 0.0:", "if False:"),
    ("concurrence_sum", "src/relqopt/wigner.py",
     "pp * mm - pm * mp", "pp * mm + pm * mp"),
    ("first_order_half_restored", "src/relqopt/wigner.py",
     "return -math.tan(0.5 * theta)", "return -0.5 * math.tan(0.5 * theta)"),
    ("philox_nine_rounds", "src/relqopt/_philox.py",
     "for i in range(10)]", "for i in range(9)]"),
    ("btpe_squeeze_sign_flipped", "src/relqopt/_philox.py",
     "t = -k * k / (2 * nrq)", "t = k * k / (2 * nrq)"),
    ("share_without_remainder", "src/relqopt/bell.py",
     "share = n_i // workers + (1 if w < n_i % workers else 0)", "share = n_i // workers"),
    ("undrawn_setting_without_zero_row", "src/relqopt/bell.py",
     "draws = [[[0, 0, 0, 0]] for _ in range(4)]", "draws = [[] for _ in range(4)]"),
    ("boost_event_active", "src/relqopt/kinematics.py",
     "boost((-b1, -b2, -b3))", "boost((b1, b2, b3))"),
    ("perigee_from_apogee", "src/relqopt/orbits.py",
     "semi_major_axis * (1.0 - eccentricity)", "semi_major_axis * (1.0 + eccentricity)"),
    ("eccentricity_one_accepted", "src/relqopt/orbits.py",
     "if not 0.0 <= e < 1.0:", "if not 0.0 <= e <= 1.0:"),
    ("propagate_epoch_sign", "src/relqopt/orbits.py",
     "t - orbit.epoch", "t + orbit.epoch"),
    ("table_without_finite_check", "src/relqopt/cli.py",
     "if not math.isfinite(x):", "if False:"),
]


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench",
        ".bench_build"))


def _tier1(tree: Path, pytest_args) -> subprocess.CompletedProcess:
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
        run = _tier1(base, pytest_args)
        print(f"unmutated: {_summary(run)}")
        if run.returncode != 0:
            print("the unmutated tree must pass before mutants mean anything")
            return 1
        for name, rel, text, replacement in MUTANTS:
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
            run = _tier1(tree, pytest_args)
            killed = run.returncode != 0
            print(f"{name}: {'killed' if killed else 'SURVIVED'} ({_summary(run)})")
            failures += not killed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
