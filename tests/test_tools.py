import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_every_setting_is_set_by_some_call():
    # A default that no call, test or demo sets is an option nobody uses
    out = subprocess.run([sys.executable, str(TOOLS / "settings_inventory.py")],
                         capture_output=True, text=True, check=True).stdout
    *_, examples, _, count = out.strip().splitlines()
    match = re.fullmatch(r"(\d+) settings: (\d+) set by some call \((\d+) only in tests/ "
                         r"and demos/\), (\d+) only passed through, (\d+) neither", count)
    assert match, count
    total, used, examples_only, passed, unused = map(int, match.groups())
    assert unused == 0 and total == used + passed, count
    # the knobs that only tests and demos turn are listed one by one
    listed = re.findall(r"`([^`]+)`", examples.removeprefix("Set only in tests/ and demos/: "))
    assert len(listed) == examples_only <= used, (examples, count)


def test_every_error_run_fails_as_a_usage_error_or_a_computation_failure():
    out = subprocess.run([sys.executable, str(TOOLS / "output_digests.py"), "--errors"],
                         capture_output=True, text=True, check=True).stdout
    codes = [line.split()[2] for line in out.splitlines()]
    assert codes == ["64"] * 8 + ["2"] * 12, out
