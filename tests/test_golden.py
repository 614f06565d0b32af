"""Byte-identity of the default-grid documents against committed fixtures.

The files under ``tests/golden/`` were written by `main(argv)` with the
argument lists below.  Any change to the arithmetic that moves a single
bit of a residual, a weight or a bounce point fails here.  The `simulate`
fixtures pin long flows (200 bounces from a perturbed launch, where
rounding differences grow by e^t per flight) and the stderr summary line.
"""

from pathlib import Path

import pytest

from hypbilliards.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_default_grid_verify_report(capsys, tmp_path):
    out = tmp_path / "verify_default.json"
    assert main(["verify", "--report", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


@pytest.mark.parametrize("n,edge", [("2", "1"), ("3", "1"), ("8", "0.5")])
def test_orbit_json(tmp_path, n, edge):
    out = tmp_path / f"orbit_n{n}_a{edge}.json"
    assert main(["orbit", "--dim", n, "--edge", edge, "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_orbit_disk_coords(tmp_path):
    out = tmp_path / "orbit_disk_n3_a1.csv"
    argv = ["orbit", "--dim", "3", "--edge", "1",
            "--json", str(tmp_path / "orbit.json"), "--disk-coords", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


@pytest.mark.parametrize("name,argv", [
    ("simulate_n3_a1_p0.3_s7", ["--dim", "3", "--edge", "1", "--steps", "200",
                                "--perturb", "0.3", "--seed", "7"]),
    ("simulate_n8_a1_p0.3_s7", ["--dim", "8", "--edge", "1", "--steps", "200",
                                "--perturb", "0.3", "--seed", "7"]),
    ("simulate_n3_a1_launch", ["--dim", "3", "--edge", "1", "--steps", "12"]),
])
def test_simulate_csv_and_summary(capsys, tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    capsys.readouterr()
    assert main(["simulate", *argv, "--csv", str(out)]) == 0
    assert capsys.readouterr().err == (GOLDEN / f"{name}.stderr").read_text()
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
