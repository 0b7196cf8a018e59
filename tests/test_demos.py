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
