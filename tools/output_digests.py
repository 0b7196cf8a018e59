"""Digest the output of every README command and every demo.

    python3 tools/output_digests.py
    python3 tools/output_digests.py --stokes-grid
    python3 tools/output_digests.py --conditions-grid [--rows]
    python3 tools/output_digests.py --errors [--rows]
    python3 tools/output_digests.py --compare A B

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

--conditions-grid digests, the same way, the condition sweeps of
conditions_grid, and --errors the failing runs of error_runs.  --rows
follows each in-process digest line with the run's stdout (with --errors,
its stderr), each line indented by two spaces, so that the output of two
checkouts can be diffed number by number.  The tool itself needs only the
standard library; the in-process modes import ptspec (and, for the
benchmark's argvs, perfbench/workloads.py) from this checkout.

--compare A B reads two such --rows dumps and compares them value by value.
Runs are matched by command, and must agree in exit code.  A CSV run's rows
are matched by key: their cells in every column that TOLERANCES does not
name, which must match exactly (with the row's rank among rows of that key,
so a conjugate pair's two rows stay apart); each cell of a TOLERANCES column
must lie within that column's tolerance.  Any other output (verify, stderr)
must match line for line.  It prints each changed row, then per column how
many cells moved and the largest change, and exits 1 if any row is outside
tolerance, is missing, or is new.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent

#: The numeric CSV columns --compare lets move: column -> (tolerance, the
#: columns whose magnitude, as a vector, scales the change; none for an
#: absolute change).  An eigenvalue's parts are measured against |E|, since
#: the imaginary part of a root near the axis is no more accurate than the
#: root; the p1-scaling columns derived from E through exp(4/3 E^1.5)
#: magnify its change about a hundredfold; a residual is |f| at a root,
#: rounding noise below the solver's 1e-12.  A Stokes line's points are
#: measured against |z| and its singulant's parts against |chi|: with
#: numpy held to its baseline loops, the points of stokes --A 1.0 moved by
#: at most 4.3e-16 |z| and chi by 1.19e-14 |chi|.  Every other column is
#: part of a row's key.
TOLERANCES = {"re_E": (1e-14, ("re_E", "im_E")), "im_E": (1e-14, ("re_E", "im_E")),
              "E": (1e-14, ("E",)), "delta_exp_scaled": (1e-12, ("delta_exp_scaled",)),
              "predicted_delta": (1e-12, ("predicted_delta",)),
              "predicted_loglog": (1e-12, ("predicted_loglog",)),
              "predicted_scaled": (1e-12, ("predicted_scaled",)), "residual": (1e-12, ()),
              "z_re": (1e-12, ("z_re", "z_im")), "z_im": (1e-12, ("z_re", "z_im")),
              "rechi": (1e-12, ("rechi", "imchi")), "imchi": (1e-12, ("rechi", "imchi"))}


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


def conditions_grid() -> list[str]:
    """The README bifurcation wkb,full sweep, bifurcation --range 1.01:2.5
    --step 0.01 --emax 40, quartic --range 0:6 --step 0.05 --emax 30,
    quartic --range 0:6 --step 0.1 --emax 60 (about 800 modes, so each
    round of its side-by-side solve spans several quadrature passes), its
    continuation to --range 0:12 (where off-axis restarts walk their
    couplings into turning-point meetings, at A = 7.8, 9.1, 10.3, 10.9 and
    11.3 to 12), and the `conditions` workload's argvs for benchmark seeds
    1-4; then the README sweep and quartic --range 0:3 --step 0.25 --emax 20
    again with --format json, so that their JSON meta is digested too."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import Conditions

    readme = [cmd for cmd in readme_commands()
              if cmd.startswith("ptspec bifurcation") and "wkb,full" in cmd]
    cmds = readme + ["ptspec bifurcation --range 1.01:2.5 --step 0.01 --emax 40 --method wkb,full",
                     "ptspec quartic --range 0:6 --step 0.05 --emax 30",
                     "ptspec quartic --range 0:6 --step 0.1 --emax 60",
                     "ptspec quartic --range 0:12 --step 0.1 --emax 60"]
    cmds += [" ".join(["ptspec", *argv]) for seed in range(1, 5)
             for argv in Conditions(seed).argvs]
    cmds += [f"{cmd} --format json"
             for cmd in (*readme, "ptspec quartic --range 0:3 --step 0.25 --emax 20")]
    return list(dict.fromkeys(cmds))


def error_runs() -> list[tuple[str, str | None, Exception | None]]:
    """Failing runs, (command, stub, error): the CLI's usage errors, among
    them --rtol on a run that never shoots, and its computation failures.
    A run with a stub has the ptspec function of that dotted name raise
    error when called."""
    from ptspec.geometry import TraceError
    from ptspec.shooting import ShootingError

    usage = ["ptspec stokes", "ptspec stokes --p 2 --A 1",
             "ptspec bifurcation --range 0.5:2",
             "ptspec bifurcation --range 1.5:2 --method foo",
             "ptspec bifurcation --range 2.4:2.6 --method=",
             "ptspec quartic --range=-1:2",
             "ptspec bifurcation --range 3:2",
             "ptspec eigen --p 3 --n 2 --method full --rtol 1e-9"]
    failures = ["ptspec eigen --p 3.05 --n 0 --method numeric",  # converges to n = 1
                "ptspec eigen --p 1.0001 --n 0",  # flat condition
                # step budget, refused at the first projection
                "ptspec eigen --p 1.5 --n 2000000 --method numeric",
                # the Taylor coefficients overflow at the first step
                "ptspec eigen --p 3 --n 100000000000000000 --method numeric",
                "ptspec eigen --p 1.05 --n 30000 --method numeric",  # budget, partway
                "ptspec bifurcation --range 2.4:2.5 --step 0.1 --emax 0.1 --method wkb",
                "ptspec p1-scaling --floor 0.6",
                "ptspec quartic --range 0:1 --emax 0.5"]
    return ([(cmd, None, None) for cmd in usage + failures]
            + [("ptspec eigen --p 3 --n 2 --method numeric", "shooting.find_eigen",
                ShootingError("step budget exhausted")),
               ("ptspec stokes --p 1.3", "geometry.trace_stokes_line",
                TraceError("corrector stalled")),
               ("ptspec bifurcation --range 1.5:1.6 --step 0.1 --emax 12 --method numeric",
                "shooting.scan_spectrum", ShootingError("step budget exhausted")),
               ("ptspec quartic --range 0:0.5 --step 0.5 --emax 0.5 --numeric",
                "shooting.scan_spectrum", ShootingError("step budget exhausted"))])


def run_in_process(label: str, argv: list[str], rows: bool = False,
                   errors: bool = False) -> str:
    """Run ptspec.cli.main(argv) here; its digest line, then its stdout
    (stderr if errors) indented if rows."""
    from ptspec import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors exit from argparse
            code = exc.code
    line = (f"{sha(out.getvalue().encode())} {sha(err.getvalue().encode())} "
            f"{code} {label}")
    shown = (err if errors else out).getvalue()
    return "\n".join([line, *("  " + row for row in shown.splitlines())]
                     if rows else [line])


def read_rows_dump(path: str) -> dict[str, tuple[str, list[str]]]:
    """A --rows dump as {command: (exit code, output lines)}."""
    runs, rows = {}, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("  "):
            rows.append(line[2:])
        else:
            _, _, code, label = line.split(" ", 3)
            runs[label] = (code, rows := [])
    return runs


def _keyed(lines: list[str]) -> tuple[list[str], dict]:
    """A CSV output's header and {key: cells}, the key the cells outside
    TOLERANCES and the row's rank among the rows with those cells."""
    header, *rows = [line.split(",") for line in lines]
    key_cols = [i for i, col in enumerate(header) if col not in TOLERANCES]
    keyed, seen = {}, Counter()
    for cells in rows:
        key = tuple(cells[i] if i < len(cells) else "" for i in key_cols)
        seen[key] += 1
        keyed[key + (seen[key],)] = cells
    return header, keyed


def _change(col: str, a: dict, b: dict) -> float | None:
    """How far column col moved from row a to row b (dicts by column), as
    TOLERANCES measures it; None if a cell is missing or no number."""
    try:
        x, y = float(a.get(col, "")), float(b.get(col, ""))
        scale = max(math.hypot(*(float(row.get(c, "")) for c in TOLERANCES[col][1]))
                    for row in (a, b))
    except ValueError:
        return None
    return abs(x - y) / scale if scale else abs(x - y)


def compare(path_a: str, path_b: str) -> int:
    """Print how the --rows dump path_b differs from path_a; 1 if any row
    is outside tolerance, missing or new, else 0."""
    runs_a, runs_b = read_rows_dump(path_a), read_rows_dump(path_b)
    bad, compared, kept, moved, largest, largest_kept = 0, 0, 0, Counter(), Counter(), Counter()
    for label in [*runs_a, *(lab for lab in runs_b if lab not in runs_a)]:
        if label not in runs_a or label not in runs_b:
            print(f"only in {'A' if label in runs_a else 'B'}: {label}")
            bad += 1
            continue
        (code_a, lines_a), (code_b, lines_b) = runs_a[label], runs_b[label]
        if code_a != code_b:
            print(f"exit code {code_a} -> {code_b}: {label}")
            bad += 1
        if not (lines_a and lines_b and "," in lines_a[0] and lines_a[0] == lines_b[0]):
            compared += max(len(lines_a), len(lines_b))
            if lines_a != lines_b:
                print(f"changed output: {label}")
                bad += 1
            continue
        header, rows_a = _keyed(lines_a)
        rows_b = _keyed(lines_b)[1]
        for key in [*rows_a, *(k for k in rows_b if k not in rows_a)]:
            compared += 1
            if key not in rows_a or key not in rows_b:
                row = rows_a.get(key) or rows_b[key]
                print(f"only in {'A' if key in rows_a else 'B'}: {label}: {','.join(row)}")
                bad += 1
                continue
            a, b = dict(zip(header, rows_a[key])), dict(zip(header, rows_b[key]))
            changes = {col: _change(col, a, b) for col in header
                       if col in TOLERANCES and a.get(col) != b.get(col)}
            for col, change in changes.items():
                moved[col] += 1
                largest[col] = max(largest[col], change or 0.0)
            if len(rows_a[key]) != len(rows_b[key]) or any(
                    change is None or change > TOLERANCES[col][0]
                    for col, change in changes.items()):
                print(f"changed: {label}: {','.join(rows_a[key])} -> {','.join(rows_b[key])}")
                bad += 1
            elif changes:
                kept += 1
                for col, change in changes.items():
                    largest_kept[col] = max(largest_kept[col], change)
    for col, (tol, scale) in TOLERANCES.items():
        if moved[col]:
            print(f"column {col}: {moved[col]} cells moved, largest {largest[col]:.3g}, "
                  f"{largest_kept[col]:.3g} within tolerance "
                  f"({'relative' if scale else 'absolute'}, tolerance {tol:g})")
    print(f"{compared} rows compared, {kept} moved within tolerance, "
          f"{bad} outside tolerance, missing or new")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stokes-grid", action="store_true",
                        help="digest the stokes grid in-process instead")
    parser.add_argument("--conditions-grid", action="store_true",
                        help="digest the condition sweeps in-process instead")
    parser.add_argument("--errors", action="store_true",
                        help="digest the failing runs in-process instead")
    parser.add_argument("--rows", action="store_true",
                        help="print each in-process run's stdout (with --errors, "
                             "stderr) after its digest")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --rows dumps value by value instead")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.errors:
        sys.path.insert(0, str(ROOT / "src"))
        for cmd, stub, error in error_runs():
            label = cmd if stub is None else f"{cmd}  [{stub} raises {error!r}]"
            with (mock.patch(f"ptspec.{stub}", side_effect=error) if stub
                  else contextlib.nullcontext()):
                print(run_in_process(label, cmd.split()[1:], args.rows, errors=True),
                      flush=True)
        return 0
    if args.stokes_grid or args.conditions_grid:
        sys.path.insert(0, str(ROOT / "src"))
        labels = [f"{cmd} --format {form}" for cmd in stokes_grid()
                  for form in ("csv", "json")] if args.stokes_grid else conditions_grid()
        for label in labels:
            print(run_in_process(label, label.split()[1:], args.rows), flush=True)
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
