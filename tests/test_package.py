import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_submodules_load_on_first_use():
    code = (
        "import sys\n"
        "from relqopt import gravitomagnetism, wigner\n"
        "assert 'relqopt.scenario' not in sys.modules, 'scenario loaded eagerly'\n"
        "assert 'relqopt.bell' not in sys.modules, 'bell loaded eagerly'\n"
        "import relqopt\n"
        "assert relqopt.bell.required_photons(0.9) == 288\n"
        "assert relqopt.wigner is wigner\n"
        "try:\n"
        "    relqopt.no_such_module\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
