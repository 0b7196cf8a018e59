import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_every_setting_is_set_by_some_call():
    # A default that no call, test or demo sets is an option nobody uses
    out = subprocess.run([sys.executable, str(TOOLS / "settings_inventory.py")],
                         capture_output=True, text=True, check=True).stdout
    count = out.strip().splitlines()[-1]
    match = re.fullmatch(r"(\d+) settings: (\d+) set by some call, (\d+) only passed "
                         r"through, (\d+) neither", count)
    assert match, count
    total, used, passed, unused = map(int, match.groups())
    assert unused == 0 and total == used + passed, count


def test_every_error_run_fails_as_a_usage_error_or_a_computation_failure():
    out = subprocess.run([sys.executable, str(TOOLS / "output_digests.py"), "--errors"],
                         capture_output=True, text=True, check=True).stdout
    codes = [line.split()[2] for line in out.splitlines()]
    assert codes == ["64"] * 8 + ["2"] * 11, out
