"""Digest the output of every README command and every demo.

    python3 tools/output_digests.py

Runs each `ptspec ...` line of the README's "Command line" block (as
`python -m ptspec ...`) and each `demos/*.py`, with PYTHONPATH pointing at
this checkout's src/ and each run in a fresh temporary directory.  Prints
one line per run: the sha256 of its stdout, the sha256 of its stderr, its
exit code and the command; then one indented line per file the run wrote
(`--out`), its sha256 and its name.  Diffing the output of two checkouts
shows whether a change kept every output byte-identical.
"""

import hashlib
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


def main() -> int:
    runs = [(cmd, [sys.executable, "-m", "ptspec", *cmd.split()[1:]])
            for cmd in readme_commands()]
    runs += [(f"python demos/{demo.name}", [sys.executable, str(demo)])
             for demo in sorted((ROOT / "demos").glob("*.py"))]
    for label, argv in runs:
        print("\n".join(run(label, argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
