"""Byte-identity of the default-grid documents against committed fixtures.

The files under ``tests/golden/`` were written by `main(argv)` with the
argument lists below.  Any change to the arithmetic that moves a single
bit of a residual, a weight or a bounce point fails here.  The `simulate`
fixtures pin long flows (200 bounces from a perturbed launch, where
rounding differences grow by e^t per flight) and the stderr summary line.
Documents of large cells (0.16-2.3 MB) are pinned by their SHA-256 in
``large_docs.sha256`` instead of committed whole.  The flow's raw output
(every stack of a `Trajectory`, its largest drift and its final state) is pinned in
``flow_stacks.sha256``: the CSV sees bounce points only through the disk
chart and the largest drift only rounded.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from hypbilliards import flow as flow_mod
from hypbilliards.cli import main
from hypbilliards.orbit import construct_orbit
from hypbilliards.simplex import build
from hypbilliards.weights import build_sequence

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


SIMULATE_CASES = [
    ("simulate_n3_a1_p0.3_s7", ["--dim", "3", "--edge", "1", "--steps", "200",
                                "--perturb", "0.3", "--seed", "7"]),
    ("simulate_n8_a1_p0.3_s7", ["--dim", "8", "--edge", "1", "--steps", "200",
                                "--perturb", "0.3", "--seed", "7"]),
    ("simulate_n3_a1_launch", ["--dim", "3", "--edge", "1", "--steps", "12"]),
]


@pytest.mark.parametrize("name,argv", SIMULATE_CASES)
def test_simulate_csv_and_summary(capsys, tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    capsys.readouterr()
    assert main(["simulate", *argv, "--csv", str(out)]) == 0
    assert capsys.readouterr().err == (GOLDEN / f"{name}.stderr").read_text()
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


# Paths through argument parsing and dispatch: each case pins the exit code,
# stdout and stderr, and the file written to OUT (named by its extension).
OUT = "<out>"
CLI_CASES = [
    ("cli_simplex_n3_a1", 0, None,
     ["simplex", "--dim", "3", "--edge", "1"]),
    ("cli_simplex_n2_c2_p5", 0, None,
     ["simplex", "--dim", "2", "--cosh-edge", "2", "--precision", "5"]),
    ("cli_verify_n2-3_c1.5-3_p6", 0, ".json",
     ["verify", "--dims", "2..3", "--cosh-edges", "1.5,3", "--precision", "6",
      "--report", OUT]),
    ("cli_orbit_n3_a1_tol1e-30", 1, None,
     ["orbit", "--dim", "3", "--edge", "1", "--tol", "1e-30"]),
    ("cli_orbit_n4_a0.7_p9", 0, ".csv",
     ["orbit", "--dim", "4", "--edge", "0.7", "--precision", "9",
      "--disk-coords", OUT]),
    ("cli_simulate_n2_a1_coords", 0, None,
     ["simulate", "--dim", "2", "--edge", "1", "--steps", "20",
      "--start-coords", "1,0,0,0", "--dir-coords", "0,1,-1,0"]),
]


@pytest.mark.parametrize("name,code,ext,argv", CLI_CASES,
                         ids=[case[0] for case in CLI_CASES])
def test_cli_paths(capsys, tmp_path, name, code, ext, argv):
    out = tmp_path / f"{name}{ext}"
    capsys.readouterr()
    assert main([str(out) if a == OUT else a for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert captured.err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()
    if ext:
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


# Name in large_docs.sha256 -> argv; OUT is the --json file, else stdout is hashed.
LARGE_DOCS = {
    "orbit_n32_a1.json": ["orbit", "--dim", "32", "--edge", "1", "--json", OUT],
    "orbit_n128_a2.json": ["orbit", "--dim", "128", "--edge", "2", "--json", OUT],
    "orbit_n64_a1_p9.json": ["orbit", "--dim", "64", "--edge", "1", "--precision", "9",
                             "--json", OUT],
    "simplex_n64_a1.3.stdout": ["simplex", "--dim", "64", "--edge", "1.3"],
}


def _sha256_pins(name: str) -> dict[str, str]:
    lines = (GOLDEN / name).read_text().splitlines()
    return {key: digest for digest, key in (line.split() for line in lines)}


@pytest.mark.parametrize("name", sorted(LARGE_DOCS))
def test_large_document_sha256(capsys, tmp_path, name):
    out = tmp_path / name
    argv = LARGE_DOCS[name]
    capsys.readouterr()
    assert main([str(out) if a == OUT else a for a in argv]) == 0
    data = out.read_bytes() if OUT in argv else capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == _sha256_pins("large_docs.sha256")[name]


def _flow_stack_bytes(traj: flow_mod.Trajectory) -> dict[str, bytes]:
    fin = traj.final_state
    return {
        "points": np.ascontiguousarray(traj.points, dtype=np.float64).tobytes(),
        "facets": traj.facets.astype(np.int64).tobytes(),
        "arclengths": np.ascontiguousarray(traj.arclengths, dtype=np.float64).tobytes(),
        "max_drift": np.float64(traj.max_drift).tobytes(),
        "final_position": fin.position.coords.tobytes(),
        "final_direction": fin.direction.tobytes(),
    }


def _simulate_run(monkeypatch, tmp_path, argv):
    """The simplex, launch state and trajectory of one `simulate` call."""
    runs, iterate = [], flow_mod.iterate

    def recording_iterate(s, state, steps):
        runs.append((s, state, iterate(s, state, steps)))
        return runs[-1][2]

    monkeypatch.setattr(flow_mod, "iterate", recording_iterate)
    assert main(["simulate", *argv, "--csv", str(tmp_path / "run.csv")]) == 0
    (run,) = runs
    return run


CLOSURE_CASES = {"closure_n32_a1.3": (32, 1.3), "closure_n128_a1.3": (128, 1.3)}


def _closure_run(n: int, edge: float):
    """The simplex, launch state and trajectory of one flowed period of the orbit."""
    s = build(n, edge)
    orb = construct_orbit(s, build_sequence(n, edge))
    return s, flow_mod.launch_state(orb), flow_mod.run_closure(s, orb).trajectory


@pytest.mark.parametrize("name", [name for name, _ in SIMULATE_CASES] + sorted(CLOSURE_CASES))
def test_flow_stacks_sha256(capsys, monkeypatch, tmp_path, name):
    """Each stack, the largest drift and the final state of a run, bit for bit; the
    stacks are read-only, and zero bounces from the same launch give empty stacks and
    the launch back."""
    if name in CLOSURE_CASES:
        s, start, traj = _closure_run(*CLOSURE_CASES[name])
    else:
        s, start, traj = _simulate_run(monkeypatch, tmp_path, dict(SIMULATE_CASES)[name])
        capsys.readouterr()
    pins = _sha256_pins("flow_stacks.sha256")
    for field, data in _flow_stack_bytes(traj).items():
        assert hashlib.sha256(data).hexdigest() == pins[f"{name}.{field}"], field
    empty = flow_mod.iterate(s, start, 0)
    assert empty.points.shape == (0, s.ambient_dim)
    assert empty.final_state is start
    for t in (traj, empty):
        for stack in (t.facets, t.points, t.arclengths):
            assert not stack.flags.writeable
