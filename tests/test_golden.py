"""CLI output against committed golden files, byte for byte.

The files in tests/golden/ pin the CSV that `report` (four scenarios),
`bell-sim`, `diffusion`, `wigner` (two geometries), `orbit` and `curves`
(both tables) print, and the file that `bell-sim --counts-out` writes.  A change that
moves any printed digit or row fails here; regenerating a file needs a
stated reason in CHANGES.md.
"""

from pathlib import Path

import pytest

from relqopt.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "report_default.csv": ["report"],
    "report_leo500.csv": ["report", "--scenario", "leo500.ini"],
    "report_gto_two_stations.csv": ["report", "--scenario", "gto_two_stations.ini"],
    "report_bell_only.csv": ["report", "--scenario", "bell_only.ini"],
    "bell_sim.csv": ["bell-sim"],
    "diffusion.csv": ["diffusion"],
    "wigner_default.csv": ["wigner"],
    "wigner_custom.csv": ["wigner", "--beta", "1e-3", "--theta", "45", "--phi", "30",
                          "--theta-b", "90", "--phi-b", "120"],
    "orbit_gto_two_stations.csv": ["orbit", "--scenario", "gto_two_stations.ini"],
    "curves_photons.csv": ["curves", "--which", "photons"],
    "curves_ralph.csv": ["curves", "--which", "ralph"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_output_matches_golden(name, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".ini") else a for a in CASES[name]]
    assert main([*argv, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_counts_file_matches_golden(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    assert main(["bell-sim", "--workers", "3", "--counts-out", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "bell_counts.csv").read_bytes()
