"""The scripts run end to end and print their summary line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, code: int = 0) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code, done.stderr
    return done.stdout


@pytest.mark.parametrize("name,args,summary", [
    ("closure_growth.py", ["--dim", "3", "--edge", "1", "--max-periods", "4", "--bounces", "20"],
     "per-bounce expansion factor ~ 1.355 (exponent 1.077 per unit length)"),
    ("orbit_profile_vs_edge.py", ["--dim", "3", "--points", "4"],
     "multiplier range: 2.00025 .. 2.28631 (always above 2; approaches 2 as the edge shrinks)"),
])
def test_script_summary(name, args, summary):
    assert run_script(name, *args).splitlines()[-1] == summary


def test_repin_audit_passes_identical_and_fails_a_perturbed_weight(tmp_path):
    pytest.importorskip("mpmath")
    from hypbilliards.cli import main

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    assert main(["orbit", "--dim", "3", "--edge", "1", "--json", str(old)]) == 0
    out = run_script("repin_audit.py", str(old), str(old))
    assert out.splitlines() == [f"{old}: 0 rule(s) failed"]

    doc = json.loads(old.read_text())
    doc["mass_sequence"]["alphas"][2] *= 1.0 + 64 * sys.float_info.epsilon
    new.write_text(json.dumps(doc, indent=2))
    out = run_script("repin_audit.py", str(old), str(new), code=1).splitlines()
    assert out[0].startswith("FAIL mass_sequence.alphas: 1 moved, worst ")
    assert out[-1] == f"{new}: 1 rule(s) failed"


def test_repin_audit_gates_the_largest_drift_of_a_trajectory_dump(tmp_path):
    """A JSON dump of a `flow.Trajectory` passes against itself; one whose
    ``max_drift`` grows past max(old, 16 eps) fails rule 5."""
    pytest.importorskip("mpmath")
    from hypbilliards.flow import iterate, launch_state
    from hypbilliards.orbit import construct_orbit
    from hypbilliards.simplex import build
    from hypbilliards.weights import build_sequence

    s = build(3, 1.0)
    tr = iterate(s, launch_state(construct_orbit(s, build_sequence(3, 1.0))), 8)
    dump = {"facets": tr.facets.tolist(), "points": tr.points.tolist(),
            "arclengths": tr.arclengths.tolist(), "max_drift": tr.max_drift}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(dump))
    out = run_script("repin_audit.py", str(old), str(old))
    assert out.splitlines() == ["facet sequence identical", f"{old}: 0 rule(s) failed"]

    dump["max_drift"] = max(tr.max_drift, 16 * sys.float_info.epsilon) * 2.0
    new.write_text(json.dumps(dump))
    out = run_script("repin_audit.py", str(old), str(new), code=1).splitlines()
    assert out[1].startswith("FAIL max_drift: 1 moved, worst ")
    assert out[-1] == f"{new}: 1 rule(s) failed"
