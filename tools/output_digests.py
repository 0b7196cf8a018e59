"""Digest the output of every README command and every demo.

    python3 tools/output_digests.py
    python3 tools/output_digests.py --stokes-grid

Runs each `ptspec ...` line of the README's "Command line" block (as
`python -m ptspec ...`) and each `demos/*.py`, with PYTHONPATH pointing at
this checkout's src/ and each run in a fresh temporary directory.  Prints
one line per run: the sha256 of its stdout, the sha256 of its stderr, its
exit code and the command; then one indented line per file the run wrote
(`--out`), its sha256 and its name.  Diffing the output of two checkouts
shows whether a change kept every output byte-identical.

--stokes-grid digests instead the 353 `ptspec stokes` runs of stokes_grid,
each in CSV and in JSON, in this process through ptspec.cli.main (stdout and
stderr captured as text, exit code returned), so the grid takes under a
minute rather than one interpreter start per run.
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[str]:
    """The `ptspec ...` lines of the README's "Command line" block."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("## Command line")
    commands = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("ptspec "):
            commands.append(line.strip())
    return commands


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(label: str, argv: list[str]) -> list[str]:
    """Run argv in a fresh directory; its digest line and one per file written."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
        out = [f"{sha(proc.stdout)} {sha(proc.stderr)} {proc.returncode} {label}"]
        out += [f"  {sha(path.read_bytes())} {path.name}"
                for path in sorted(Path(cwd).iterdir())]
    return out


def stokes_grid() -> list[str]:
    """`ptspec stokes` runs over --p 1.01..11.96 and --A 0..6 in steps of
    0.05, plus the values that the README, the tests and the benchmark run
    (--p 1.275, 1.3, 1.325, 1.5, 2, 2.5775, 12 and 40, --A 0, 0.5, 1.0 and
    1.9312)."""
    values = [("--p", f"{(101 + 5 * k) / 100:g}") for k in range(220)]
    values += [("--A", f"{5 * k / 100:g}") for k in range(121)]
    values += [("--p", p) for p in ("1.275", "1.3", "1.325", "1.5", "2", "2.5775", "12", "40")]
    values += [("--A", a) for a in ("0", "0.5", "1.0", "1.9312")]
    return [f"ptspec stokes {flag} {value}" for flag, value in values]


def run_in_process(label: str, argv: list[str]) -> str:
    """Run ptspec.cli.main(argv) here; its digest line."""
    from ptspec import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors exit from argparse
            code = exc.code
    return (f"{sha(out.getvalue().encode())} {sha(err.getvalue().encode())} "
            f"{code} {label}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stokes-grid", action="store_true",
                        help="digest the stokes grid in-process instead")
    if parser.parse_args().stokes_grid:
        sys.path.insert(0, str(ROOT / "src"))
        for cmd in stokes_grid():
            for form in ("csv", "json"):
                label = f"{cmd} --format {form}"
                print(run_in_process(label, label.split()[1:]), flush=True)
        return 0
    runs = [(cmd, [sys.executable, "-m", "ptspec", *cmd.split()[1:]])
            for cmd in readme_commands()]
    runs += [(f"python demos/{demo.name}", [sys.executable, str(demo)])
             for demo in sorted((ROOT / "demos").glob("*.py"))]
    for label, argv in runs:
        print("\n".join(run(label, argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
