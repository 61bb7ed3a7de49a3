import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_fresh(code):
    """Run `code` in a new interpreter, in the repository root, that imports relqopt
    from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr


def test_submodules_load_on_first_use():
    code = (
        "import re, sys\n"
        "import relqopt\n"
        # every module of the package docstring's map, which a bare import leaves unloaded
        "names = re.findall(r'`(\\w+)`', relqopt.__doc__)\n"
        "assert {'bell', 'cli', 'scenario', 'wigner'} <= set(names), names\n"
        "loaded = [name for name in names if f'relqopt.{name}' in sys.modules]\n"
        "assert not loaded, f'loaded by import relqopt: {loaded}'\n"
        "from relqopt import gravitomagnetism, wigner\n"
        "assert 'relqopt.scenario' not in sys.modules, 'scenario loaded eagerly'\n"
        "assert 'relqopt.bell' not in sys.modules, 'bell loaded eagerly'\n"
        "assert relqopt.bell.required_photons(0.9) == 288\n"
        "assert relqopt.wigner is wigner\n"
        "for name in names:\n"
        "    assert getattr(relqopt, name) is sys.modules[f'relqopt.{name}'], name\n"
        "try:\n"
        "    relqopt.no_such_module\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    )
    _run_fresh(code)


# imports that start-up must not pay for: `dataclasses` (which pulls in
# `inspect`, `ast` and `copy`), and `configparser`, which nothing loads: scenario
# files are read by `scenario._read_sections`
_START_UP_FREE = ("dataclasses", "inspect", "configparser")


@pytest.mark.parametrize("argv", [
    [],
    ["orbit"],
    ["diffusion"],
    ["curves", "--which", "photons"],
    ["curves", "--which", "ralph"],
    ["report", "--effects", "geometry"],
    ["report", "--scenario", "tests/golden/gto_two_stations.ini"],
    ["orbit", "--scenario", "tests/golden/gto_two_stations.ini"],
], ids=lambda argv: " ".join(argv) or "import")
def test_start_up_skips_dataclasses_inspect_and_configparser(argv):
    code = (
        "import contextlib, io, sys\n"
        "from relqopt.cli import main\n"
        f"if {argv!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main({argv!r}) == 0\n"
        f"loaded = [m for m in {_START_UP_FREE!r} if m in sys.modules]\n"
        "assert not loaded, f'loaded {loaded}'\n"
    )
    _run_fresh(code)


# the relqopt modules that every subcommand loads, and the library modules
_CORE = {"cli", "constants", "errors", "orbits", "scenario"}
_LIBRARY = {"_philox", "bell", "diffusion", "gravitomagnetism", "interferometry", "kinematics",
            "qft_effects", "wigner"}
# what each command line loads besides _CORE
_LOADS = {
    "orbit": set(),
    "wigner": {"wigner"},
    "diffusion": {"diffusion", "kinematics"},
    "bell-sim": {"bell", "_philox"},
    "curves --which photons": {"bell"},
    "curves --which ralph": {"qft_effects"},
    "report --effects geometry": {"kinematics"},
    "report": _LIBRARY,
}


@pytest.mark.parametrize("command", _LOADS)
def test_each_subcommand_loads_only_the_modules_it_runs(command):
    _run_fresh(
        "import contextlib, io, sys\n"
        "from relqopt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({command.split()!r}) == 0\n"
        "loaded = sorted(m[len('relqopt.'):] for m in sys.modules if m.startswith('relqopt.'))\n"
        f"assert loaded == {sorted(_CORE | _LOADS[command])!r}, loaded\n")


@pytest.mark.parametrize("command", _LOADS)
def test_start_up_skips_argparse_gettext_and_locale(command):
    # the flags are read from cli.COMMANDS; modules that the bare interpreter had
    # already loaded (from a host .pth file, say) do not count
    _run_fresh(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from relqopt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({command.split()!r}) == 0\n"
        "loaded = sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before))\n"
        "assert not loaded, f'loaded {loaded}'\n")


# library code that runs without numpy, by test id
_SCALAR_CODE = {
    "import relqopt.wigner": "import relqopt.wigner\n",
    "transport_ray": (
        "from relqopt.gravitomagnetism import GravField, RayState, transport_ray\n"
        "ray = RayState((7e6, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))\n"
        "field = lambda pos: GravField((0.0, 0.0, 1e-9 * pos[0] / 7e6), (0.0, 0.0, 0.0))\n"
        "assert transport_ray(ray, field, 1e3, 4).lam == 1e3\n"),
}


@pytest.mark.parametrize("argv", [
    ["orbit"],
    ["diffusion"],
    ["curves", "--which", "photons"],
    ["curves", "--which", "ralph"],
    ["report", "--effects", "geometry,gravitomagnetic,interferometry,qft,diffusion"],
    ["wigner"],
    ["wigner", "--beta", "1e-3", "--theta", "45", "--phi", "30", "--theta-b", "90",
     "--phi-b", "120"],
    ["report", "--effects", "geometry,wigner,gravitomagnetic,interferometry,qft,diffusion"],
    ["bell-sim"],
    ["bell-sim", "--workers", "8"],
    ["report"],
    ["report", "--effects", "bell"],
    *_SCALAR_CODE,
], ids=lambda argv: argv if isinstance(argv, str) else " ".join(argv))
def test_scalar_subcommands_do_not_load_numpy(argv):
    run = (_SCALAR_CODE[argv] if isinstance(argv, str) else
           "import contextlib, io\n"
           "from relqopt.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    assert main({argv!r}) == 0\n")
    _run_fresh("import sys\n" + run + "assert 'numpy' not in sys.modules, 'numpy was loaded'\n")


def test_bell_sim_counts_without_numpy_match_golden(tmp_path):
    # in-process goldens run numpy's generator, since pytest has loaded numpy;
    # this pins the Python stream that every CLI run uses to the same file
    path = tmp_path / "counts.csv"
    _run_fresh(
        "import contextlib, io, sys\n"
        "from relqopt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['bell-sim', '--workers', '3', '--counts-out', {str(path)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n")
    golden = Path(__file__).resolve().parent / "golden" / "bell_counts.csv"
    assert path.read_bytes() == golden.read_bytes()


def test_float_seed_or_workers_is_a_type_error_without_numpy():
    # the numpy path's half is in test_bell::test_invalid_simulation_inputs
    _run_fresh(
        "import sys\n"
        "from relqopt.bell import simulate_coincidences\n"
        "for kwargs in ({'seed': 1.0}, {'workers': 2.0}):\n"
        "    try:\n"
        "        simulate_coincidences(0.9, 1000, **kwargs)\n"
        "    except TypeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(f'{kwargs} accepted')\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n")
