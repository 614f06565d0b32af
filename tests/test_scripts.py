"""The example scripts run end to end and print their summary line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name,args,summary", [
    ("closure_growth.py", ["--dim", "3", "--edge", "1", "--max-periods", "4", "--bounces", "20"],
     "per-bounce expansion factor ~ 1.355 (exponent 1.077 per unit length)"),
    ("orbit_profile_vs_edge.py", ["--dim", "3", "--points", "4"],
     "multiplier range: 2.00025 .. 2.28631 (always above 2; approaches 2 as the edge shrinks)"),
])
def test_script_summary(name, args, summary):
    assert run_script(name, *args).splitlines()[-1] == summary
