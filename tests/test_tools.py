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



def _rows_dump(runs):
    """A --rows dump of runs, (code, command, output lines) each."""
    return "".join(f"{'0' * 64} {'1' * 64} {code} {label}\n"
                   + "".join(f"  {row}\n" for row in rows) for code, label, rows in runs)


def _compare(a, b):
    return subprocess.run([sys.executable, str(TOOLS / "output_digests.py"), "--compare",
                           str(a), str(b)], capture_output=True, text=True)


def test_compare_matches_rows_by_key_and_numbers_by_tolerance(tmp_path):
    sweep, head = "ptspec bifurcation --range 1.6:1.7", "param,n,method,re_E,im_E,residual"
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(_rows_dump([
        (0, sweep, [head, "1.6,0,full,1.5,0,1e-16", "1.6,3,full,9.0,-2.0,3e-16",
                    "1.6,3,full,9.0,2.0,3e-16", "1.7,4,full,12.0,0,1e-15"]),
        (0, "ptspec verify", ["PASS  one  dev=1e-15"]),
        (2, "ptspec eigen --p 1.0001 --n 0", [])]))
    # a few ulps, in one row of a conjugate pair; a residual's noise; a
    # root that moved; a new row; a changed text line
    b.write_text(_rows_dump([
        (0, sweep, [head, "1.6,0,full,1.5000000000000002,0,2e-16",
                    "1.6,3,full,9.0,-2.0000000000000004,3e-16", "1.6,3,full,9.0,2.0,3e-16",
                    "1.7,4,full,12.5,0,1e-15", "1.7,5,full,14.0,0,0"]),
        (0, "ptspec verify", ["PASS  one  dev=2e-15"]),
        (2, "ptspec eigen --p 1.0001 --n 0", [])]))
    proc = _compare(a, b)
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout.splitlines() == [
        f"changed: {sweep}: 1.7,4,full,12.0,0,1e-15 -> 1.7,4,full,12.5,0,1e-15",
        f"only in B: {sweep}: 1.7,5,full,14.0,0,0",
        "changed output: ptspec verify",
        "column re_E: 2 cells moved, largest 0.04, 1.48e-16 within tolerance "
        "(relative, tolerance 1e-14)",
        "column im_E: 1 cells moved, largest 4.82e-17, 4.82e-17 within tolerance "
        "(relative, tolerance 1e-14)",
        "column residual: 1 cells moved, largest 1e-16, 1e-16 within tolerance "
        "(absolute, tolerance 1e-12)",
        "6 rows compared, 2 moved within tolerance, 3 outside tolerance, missing or new"]
    same = _compare(a, a)
    assert (same.returncode, same.stdout) == (
        0, "5 rows compared, 0 moved within tolerance, 0 outside tolerance, missing or new\n")
