import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptspec

DEMO_DIR = Path(__file__).parent.parent / "demos"
# The child process imports the same ptspec as this one (as test_cli.run_cli).
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(ptspec.__file__).parent.parent), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("demo", ["bifurcation_fingers", "p_to_one_scaling",
                                  "quartic_oscillator", "shooting_vs_asymptotics",
                                  "stokes_geometry"])
def test_demo_runs_clean(demo):
    res = subprocess.run([sys.executable, str(DEMO_DIR / f"{demo}.py")],
                         capture_output=True, text=True, env=ENV)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout.strip()


def test_shooting_demo_prints_the_converged_n4_eigenvalue():
    # p = 1.7, n = 4 is 7.98892073; a polish that stopped at |W| <= 1e-9,
    # where W is flat in E, printed 7.988917.  The cell has six decimals, so
    # it must be that value rounded: within half a unit of the last digit.
    res = subprocess.run([sys.executable, str(DEMO_DIR / "shooting_vs_asymptotics.py")],
                         capture_output=True, text=True, env=ENV)
    assert res.returncode == 0, res.stderr
    row = next(line.split() for line in res.stdout.splitlines()
               if line.split()[:1] == ["4"])
    assert abs(float(row[3]) - 7.98892073) <= 5e-7
