import argparse
import cmath
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ptspec
from ptspec import asymptotic, cli, geometry, shooting, verify
from ptspec.asymptotic import EigRecord
from ptspec.cli import build_parser, main

CMD = [sys.executable, "-m", "ptspec"]
# The child process imports the same ptspec as this one.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(ptspec.__file__).parent.parent), os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=ENV)


def test_usage_errors_exit_64():
    assert run_cli().returncode == 64
    assert run_cli("bifurcation").returncode == 64
    assert run_cli("bifurcation", "--range", "3:2").returncode == 64
    # each from the parser: its usage line, then one error: line
    for argv in (["bifurcation", "--range", "2.4:2.6", "--method", ""], ["stokes"]):
        proc = run_cli(*argv)
        assert proc.returncode == 64 and proc.stdout == "", argv
        assert proc.stderr.startswith(f"usage: ptspec {argv[0]} "), argv
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and proc.stderr.endswith(errors[0] + "\n"), argv


def test_eigen_csv_roundtrip(tmp_path):
    out = tmp_path / "row.csv"
    code = main(["eigen", "--p", "3", "--n", "2", "--method", "full",
                 "--out", str(out)])
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "param,n,method,re_E,im_E,residual"
    fields = row.split(",")
    assert fields[1] == "2" and fields[2] == "full"
    assert abs(float(fields[3]) - 7.548980437586) < 1e-9


def test_output_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bifurcation", "--range", "2.4:2.6", "--step", "0.1",
            "--emax", "8", "--method", "wkb,full"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_importing_the_cli_builds_no_parser():
    # count every argparse parser made while ptspec.cli is imported
    code = ("import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    made.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import ptspec.cli\n"
            "print(len(made))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_main_builds_its_parser_once_and_reuses_it(monkeypatch, capsys):
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()  # as in a process that has not called main yet
    bif = ["bifurcation", "--range", "2.4:2.6", "--step", "0.1", "--emax", "8"]
    usage_errors = (["stokes", "--p", "2", "--A", "1"],
                    ["eigen", "--p", "3", "--n", "2", "--rtol", "1e-9"])
    assert main(bif) == 0
    first = capsys.readouterr()
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert exit_.value.code == fresh.returncode == 64
        assert (err.out, err.err) == (fresh.stdout, fresh.stderr)
    assert main(bif) == 0
    assert capsys.readouterr() == first and first.err == "" and first.out
    assert len(builds) == 1


def test_json_matches_csv(tmp_path):
    c, j = tmp_path / "d.csv", tmp_path / "d.json"
    args = ["p1-scaling", "--branches", "2", "--floor", "0.1"]
    assert main(args + ["--out", str(c)]) == 0
    assert main(args + ["--format", "json", "--out", str(j)]) == 0
    payload = json.loads(j.read_text())
    assert payload["meta"]["command"] == "p1-scaling"
    lines = c.read_text().strip().splitlines()
    cols = lines[0].split(",")
    assert len(payload["rows"]) == len(lines) - 1
    first_csv = dict(zip(cols, lines[1].split(",")))
    first_json = payload["rows"][0]
    for key in cols:
        want = first_json[key]
        got = float(first_csv[key]) if isinstance(want, float) else type(want)(first_csv[key])
        assert got == want or math.isclose(got, want, rel_tol=1e-15)


def test_stokes_dataset_structure(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["stokes", "--p", "1.3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "origin_re,origin_im,z_re,z_im,rechi,imchi,kind"
    kinds = {line.split(",")[6] for line in lines[1:]}
    assert any(k.startswith("stokes_z0") for k in kinds)
    assert "wedge_centre_left" in kinds
    # residuals recorded on traced rows stay small
    for line in lines[1:]:
        fields = line.split(",")
        if fields[6].startswith("stokes_"):
            assert abs(float(fields[5])) < 1e-7


def test_stokes_rows_print_no_negative_zero(tmp_path):
    # the r = 0 wedge points are 0.0 * exp(i theta), whose parts carry the
    # signs of cos and sin theta; at A = 0 z_C's real part and Im chi on the
    # real-axis lines are -0, and a mirrored line negates a zero real part:
    # the dataset prints every one of them as 0
    out = tmp_path / "s.csv"
    for argv in (["--p", "1.3"], ["--p", "2"], ["--A", "0"], ["--A", "1.0"]):
        assert main(["stokes", *argv, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert all("-0" not in line.split(",") for line in lines[1:]), argv


def test_quartic_dataset_closeoff_column(tmp_path):
    out = tmp_path / "q.csv"
    assert main(["quartic", "--range", "0:1", "--step", "0.5",
                 "--emax", "12", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",closeoff")
    rows = [line.split(",") for line in lines[1:]]
    a_star = 1.1838363
    for fields in rows:
        a_phys = float(fields[0])
        closeoff = float(fields[6])
        if a_phys == 0.0:
            assert closeoff == 0.0
        else:
            assert math.isclose(closeoff, (a_phys / a_star) ** (4.0 / 3.0),
                                rel_tol=1e-5)


def test_real_roots_print_a_positive_zero(tmp_path):
    # a real root's imaginary part may carry the sign of a -0.0; the
    # datasets print it as 0 in CSV and 0.0 in JSON
    for args in (["quartic", "--range", "0:1", "--step", "0.5", "--emax", "12"],
                 ["eigen", "--p", "3", "--n", "2", "--method", "full"]):
        c, j = tmp_path / "d.csv", tmp_path / "d.json"
        assert main(args + ["--out", str(c)]) == 0
        assert main(args + ["--format", "json", "--out", str(j)]) == 0
        lines = c.read_text().strip().splitlines()
        assert all("-0" not in line.split(",") for line in lines[1:])
        for row in json.loads(j.read_text())["rows"]:
            assert not any(isinstance(v, float) and v == 0.0
                           and math.copysign(1.0, v) < 0 for v in row.values())


def test_quartic_ladder_continues_past_folded_pair(tmp_path):
    # at A = 3.25 the two lowest modes form a complex pair; the real modes
    # above it are still listed, each once.  At A = 3.5 the seeds n = 0, 1
    # and 2 all reach the n = 2 root.
    out = tmp_path / "q.csv"
    assert main(["quartic", "--range", "3:3.5", "--step", "0.25",
                 "--emax", "20", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    for a in (3.25, 3.5):
        re_e = sorted(float(r[3]) for r in rows if float(r[0]) == a)
        assert all(hi - lo > 1e-6 for lo, hi in zip(re_e, re_e[1:]))
    assert any(abs(float(r[3]) - 7.6527) < 1e-3 for r in rows if r[0] == "3.25")
    assert [r[1] for r in rows if r[0] == "3.5" and abs(float(r[3]) - 7.6954) < 1e-3] == ["2"]


def test_quartic_numeric_rows_stay_on_the_real_axis(tmp_path):
    # the numeric scan finds the folded pair 3.3356 +- 0.7082i at A = 3.5;
    # quartic lists real roots only, numeric ones included
    out = tmp_path / "q.csv"
    assert main(["quartic", "--range", "3.25:3.5", "--step", "0.25", "--emax", "20",
                 "--numeric", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert any(r[2] == "numeric" for r in rows)
    assert all(float(r[4]) == 0.0 for r in rows)


def test_broken_region_rows_are_each_root_once_with_its_conjugate(tmp_path):
    # 1 < p < 2: the corrected condition carries merged pairs off the axis
    out = tmp_path / "b.csv"
    assert main(["bifurcation", "--range", "1.45:1.55", "--step", "0.05",
                 "--emax", "30", "--method", "full", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert {r[0] for r in rows} == {"1.45", "1.5", "1.55"}
    for p in {r[0] for r in rows}:
        spec = [(int(r[1]), complex(float(r[3]), float(r[4]))) for r in rows if r[0] == p]
        same = lambda a, b: abs(a - b) <= 1e-7 * max(1.0, abs(a))
        for i, (_, e) in enumerate(spec):
            assert not any(same(e, f) for _, f in spec[i + 1:]), (p, e)
            assert e.imag == 0 or any(same(e.conjugate(), f) for _, f in spec), (p, e)
        real = sorted((n, e.real) for n, e in spec if e.imag == 0)
        assert all(a[1] < b[1] for a, b in zip(real, real[1:])), (p, real)
        assert any(e.imag != 0 for _, e in spec)


def test_eigen_numeric_rejects_a_neighbouring_mode(capsys):
    # at p = 3.05 the n = 0 seed converges to the n = 1 eigenvalue 4.18729
    assert main(["eigen", "--p", "3.05", "--n", "0", "--method", "numeric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n = 0" in captured.err and "n = 1" in captured.err
    assert main(["eigen", "--p", "3", "--n", "0", "--method", "numeric"]) == 0
    fields = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert fields[1] == "0"
    assert abs(float(fields[3]) - 1.1562670720) < 1e-9


def test_verify_exits_zero(capsys):
    assert main(["verify"]) == 0
    txt = capsys.readouterr().out
    assert "PASS" in txt and "FAIL" not in txt


def test_total_failure_exit_2(tmp_path, monkeypatch, capsys):
    # emax far below every root: no rows, computation failure
    code = main(["bifurcation", "--range", "2.4:2.5", "--step", "0.1",
                 "--emax", "0.1", "--method", "wkb",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: no branch produced any root\n"
    # main reports every failed computation as one error: line
    for argv, err in (
            (["eigen", "--p", "3.05", "--n", "0", "--method", "numeric"],
             "shooting from the n = 0 seed converged to the n = 1 eigenvalue "
             "E = 4.187286222"),
            (["eigen", "--p", "1.0001", "--n", "0"],
             "condition flat on the scale of |z|: |f| = 1 moved by under 1e-06 "
             "relative in 2 capped Newton steps in a row, "
             "at z = (0.00026664747369181495+2.6077170458207527e-05j)")):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def fail(*args, **kwargs):
        raise shooting.ShootingError("step budget exhausted")

    monkeypatch.setattr(shooting, "find_eigen", fail)
    assert main(["eigen", "--p", "3", "--n", "2", "--method", "numeric"]) == 2
    assert capsys.readouterr() == ("", "error: step budget exhausted\n")


def test_stokes_exits_2_when_no_line_is_traced(monkeypatch, capsys):
    # the wedge-annotation rows alone are not a Stokes dataset
    def fail(*args, **kwargs):
        raise geometry.TraceError("corrector stalled")

    monkeypatch.setattr(geometry, "trace_stokes_line", fail)
    assert main(["stokes", "--p", "1.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "warning: trace z_A/0 failed" in captured.err
    assert captured.err.endswith("failed: corrector stalled\nerror: no Stokes line was traced\n")


def test_stokes_warns_past_a_failed_seed_and_stops_on_a_bug(monkeypatch, capsys):
    # a typed seeding failure costs that origin's lines; any other
    # exception is a bug and reaches main's error boundary
    z_a, _ = geometry.turning_points(1.3)
    real = geometry.seed_directions
    failure = geometry.TraceError("held part not reached")

    def seed(origin, model, kind="stokes"):
        if origin == z_a:
            raise failure
        return real(origin, model, kind)

    monkeypatch.setattr(geometry, "seed_directions", seed)
    assert main(["stokes", "--p", "1.3"]) == 0
    captured = capsys.readouterr()
    assert "warning: seeding failed at z_A" in captured.err
    assert "stokes_z_A_" not in captured.out and "stokes_z_B_0" in captured.out
    failure = ZeroDivisionError("division by zero")
    assert main(["stokes", "--p", "1.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "warning" not in captured.err
    assert captured.err.startswith("error: ")


def test_invalid_rtol_is_a_usage_error():
    # a negative scale passes every step's error test and a nan one none,
    # so either would print a wrong eigenvalue or spend the step budget
    for bad in ("-1", "nan"):
        proc = run_cli("eigen", "--p", "3", "--n", "2", "--method", "numeric",
                       "--rtol", bad)
        assert proc.returncode == 64
        assert proc.stdout == ""


def test_rtol_reaches_every_shooting_route(monkeypatch):
    seen = []

    def scan(model, e_max, cfg):
        seen.append(cfg.rtol)
        return [EigRecord(0, 2.0, 1.0, 1.0 + 0j, "numeric", 0.0)]

    def polish(seed, model, cfg):
        seen.append(cfg.rtol)
        return EigRecord(2, 3.0, 0.2, 7.5 + 0j, "numeric", 0.0)

    monkeypatch.setattr(shooting, "scan_spectrum", scan)
    monkeypatch.setattr(shooting, "find_eigen", polish)
    bif = ["bifurcation", "--range", "2.4:2.5", "--step", "0.1", "--emax", "5"]
    for argv in (bif + ["--method", "numeric"], bif + ["--method", "wkb,numeric"],
                 ["quartic", "--range", "0:0.5", "--step", "0.5", "--emax", "5",
                  "--numeric"],
                 ["eigen", "--p", "3", "--n", "2", "--method", "numeric"]):
        for extra, rtol in (([], shooting.ShootConfig().rtol),
                            (["--rtol", "0"], 0.0), (["--rtol", "1e-9"], 1e-9)):
            seen.clear()
            assert main(argv + extra) == 0
            assert seen and all(r == rtol for r in seen)


def test_readme_commands_parse():
    # every command the README shows must be one the parser takes
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = [line for line in block.splitlines() if line.startswith("ptspec ")]
    assert commands
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func)


def test_empty_datasets_say_why(capsys):
    for args, why in ((["p1-scaling", "--floor", "0.6"],
                       "no branch row with p - 1 in [--floor, 0.5]"),
                      (["quartic", "--range", "0:1", "--emax", "0.5"],
                       "no eigenvalue at or below --emax")):
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"error: {why}\n")


def test_a_failed_scan_is_a_warning_per_grid_point(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise shooting.ShootingError("step budget exhausted")

    monkeypatch.setattr(shooting, "scan_spectrum", fail)
    for argv, err in (
            ("bifurcation --range 1.5:1.6 --step 0.1 --emax 12 --method numeric",
             "warning: numeric scan failed at p=1.5: step budget exhausted\n"
             "warning: numeric scan failed at p=1.6: step budget exhausted\n"
             "error: no branch produced any root\n"),
            ("quartic --range 0:0.5 --step 0.5 --emax 0.5 --numeric",
             "warning: scan failed at A=0.0: step budget exhausted\n"
             "warning: scan failed at A=0.5: step budget exhausted\n"
             "error: no eigenvalue at or below --emax\n")):
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [
    # each printed a wrong row with exit 0: a negative mode index, the
    # closed form's pole at p = 1, a p below the model's range
    ["eigen", "--p", "3", "--n", "-1"],
    ["eigen", "--p", "1", "--n", "0"],
    ["eigen", "--p", "0.5", "--n", "1"],
    # each exited 2 with a message from deep inside the computation
    *[[cmd, "--range", rng, "--step", step]
      for cmd, rng in (("bifurcation", "1.5:2"), ("quartic", "0:1"))
      for step in ("0", "-0.5", "nan")],
    ["bifurcation", "--range", "1.5:2", "--emax", "nan"],
    ["quartic", "--range", "0:1", "--emax", "nan"],
    ["stokes", "--p", "0.5"],
    ["stokes", "--A", "-1"],
    ["p1-scaling", "--branches", "-1"],
    # the same class: an infinite range end or a nan floor exited 2
    ["bifurcation", "--range", "1.5:inf"],
    ["quartic", "--range", "0:inf"],
    ["p1-scaling", "--floor", "nan"],
    # options a command never read: verify printed its table and wrote no
    # file, stokes and p1-scaling dropped the shooting tolerance
    ["verify", "--format", "json"],
    ["verify", "--out", "x"],
    ["verify", "--rtol", "1e-9"],
    ["stokes", "--p", "2.4", "--rtol", "1e-9"],
    ["p1-scaling", "--rtol", "1e-9"],
    # --rtol on a run that never shoots was ignored with exit 0
    ["eigen", "--p", "3", "--n", "2", "--method", "full", "--rtol", "1e-9"],
    ["bifurcation", "--range", "2.4:2.5", "--step", "0.1", "--emax", "5",
     "--method", "wkb", "--rtol", "1e-9"],
    ["quartic", "--range", "0:0.5", "--step", "0.5", "--emax", "5", "--rtol", "1e-9"],
    # each was checked by its command, and the parser now rejects it
    ["stokes"],
    ["stokes", "--p", "2", "--A", "1"],
    ["bifurcation", "--range", "0.5:2"],
    ["bifurcation", "--range", "1.5:2", "--method", "foo"],
    ["quartic", "--range=-1:2"],  # without "=", -1:2 reads as an option
])
def test_out_of_range_arguments_are_usage_errors(argv, monkeypatch, capsys):
    def computed(*args, **kwargs):
        raise AssertionError("a usage error ran a computation")

    for module, name in ((asymptotic, "condition_spectra"), (asymptotic, "condition_spectrum"),
                         (asymptotic, "solve_condition"), (asymptotic, "lowest_branch_path"),
                         (shooting, "find_eigen"), (geometry, "seed_directions"),
                         (verify, "turning_point_prefactor")):
        monkeypatch.setattr(module, name, computed)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ptspec")
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0] != "error: "


def _rendered_by_cell(rows, columns):
    """The CSV of rows as it was written cell by cell before the templates."""
    def fmt(x):
        return f"{x:.17g}" if isinstance(x, float) else str(x)
    lines = [",".join(columns)] + [",".join(fmt(r[c]) for c in columns) for r in rows]
    return "".join(line + "\n" for line in lines)


def test_emit_renders_every_cell_as_the_per_cell_writer_did(tmp_path):
    cells = [1.5, np.float64(0.1), 3, True, False, "x", None, -0.0,
             math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
             np.float64(-0.0), np.float64(math.nan), 2.0 / 3.0, 1e22, -12]
    columns = ["a", "b", "c", "d"]
    rows = [dict(zip(columns, (cells * 2)[k:k + 4])) for k in range(len(cells))]
    rows += rows[:5]  # repeated shapes reuse their template
    meta = {"command": "test"}
    for form, want in (("csv", _rendered_by_cell(rows, columns)),
                       ("json", json.dumps({"meta": meta, "rows": rows},
                                           indent=1, sort_keys=True) + "\n")):
        for given in (rows, [tuple(r[c] for c in columns) for r in rows]):
            out = tmp_path / f"rows.{form}"
            cli._emit(given, columns, argparse.Namespace(format=form, out=str(out)), meta)
            assert out.read_text() == want, form
    out = tmp_path / "empty.csv"
    cli._emit([], columns, argparse.Namespace(format="csv", out=str(out)), meta)
    assert out.read_text() == "a,b,c,d\n"

    # traced lines as units, after plain rows: each line's rows must read as
    # the rows of its trace, and a mirrored line's (rendered from its
    # partner's text or, for JSON, its partner's trace) as those of the
    # partner's trace taken to -conj z and conj chi
    edge = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e22,
            -1e22, 2.0 / 3.0, -2.0 / 3.0, 1.5]
    columns = ["origin_re", "origin_im", "z_re", "z_im", "rechi", "imchi", "kind"]
    trace = geometry.StokesTrace(
        origin=0j, points=[complex(x, y) for x in edge for y in edge[::5]],
        chi=[complex(y, x) for x in edge for y in edge[::-5]])
    bare = geometry.StokesTrace(origin=0j)
    twin = replace(trace)  # each trace is mirrored at most once
    lines = [(complex(-0.0, 2.0 / 3.0), "stokes_z_A_0", trace, False),
             (complex(1.5, 0.0), "stokes_z_A_1", bare, False),
             (complex(0.0, 1e22), "stokes_z_C_0", twin, False),
             (complex(5e-324, 2.0 / 3.0), "stokes_z_B_0", trace, True),
             (complex(-1.5, math.nan), "stokes_z_B_1", bare, True),
             (complex(math.inf, 0.0), "stokes_z_B_2", twin, True)]
    plain = [(0.0, 0.0, 8.0, -0.0, 0.0, 0.0, "wedge_centre_left")]
    rows = [dict(zip(columns, r)) for r in plain]
    for origin, kind, line_trace, mirrored in lines:
        if mirrored:
            points = [-z.conjugate() for z in line_trace.points]
            chis = [c.conjugate() for c in line_trace.chi]
        else:
            points, chis = line_trace.points, line_trace.chi
        rows += [dict(zip(columns, (origin.real + 0.0, origin.imag + 0.0, z.real + 0.0,
                                    z.imag + 0.0, chi.real + 0.0, chi.imag + 0.0, kind)))
                 for z, chi in zip(points, chis)]
    for form, want in (("csv", _rendered_by_cell(rows, columns)),
                       ("json", json.dumps({"meta": meta, "rows": rows},
                                           indent=1, sort_keys=True) + "\n")):
        out = tmp_path / f"lines.{form}"
        cli._emit(plain, columns, argparse.Namespace(format=form, out=str(out)), meta, lines)
        assert out.read_text() == want, form


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_negated_text_is_the_text_of_the_negated_cell(x):
    assert cli._negated("%.17g" % (x + 0.0)) == "%.17g" % (-x + 0.0)


@pytest.mark.parametrize("p", ["12", "40"])
def test_stokes_traces_every_line_at_large_p(tmp_path, capsys, p):
    # Far out |chi| reaches 6e5 at p = 12 and ~1e18 at p = 40, where the
    # rounding of chi alone exceeds the absolute hold of 1e-10: the
    # corrector holds Im chi within 64 eps |chi| there instead of stalling.
    out = tmp_path / "s.csv"
    assert main(["stokes", "--p", p, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    kinds = set()
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        if fields[6].startswith("stokes_"):
            kinds.add(fields[6])
            chi = complex(float(fields[4]), float(fields[5]))
            assert abs(chi.imag) <= 1e-10 * max(1.0, abs(chi)), (fields, chi)
    assert kinds == {f"stokes_{o}_{k}" for o in ("z_A", "z_B") for k in range(3)}


# q evaluations and traced points of the tracer before its step was fused,
# counted as below: the fused step must not add work.
_STOKES_Q_PER_POINT = {("--p", "1.3"): 19915 / 2729,      # 7.30
                       ("--p", "2.5775"): 30935 / 4076,   # 7.59
                       ("--A", "1.9312"): 60202 / 7668}   # 7.85


def test_stokes_q_evaluations_per_traced_point_do_not_grow(monkeypatch, capsys):
    # Counters are deterministic.  q is counted through q_callable, one per
    # scalar call or array pass, as the benchmark counts it.
    count, points = [0], [0]
    plain = geometry.ModelSpec.q_callable
    real_trace = geometry.trace_stokes_line

    def q_callable(model):
        inner = plain(model)

        def q(z):
            count[0] += 1
            return inner(z)

        return q

    def trace(*args, **kwargs):
        result = real_trace(*args, **kwargs)
        points[0] += len(result.points)
        return result

    monkeypatch.setattr(geometry.ModelSpec, "q_callable", q_callable)
    monkeypatch.setattr(geometry, "trace_stokes_line", trace)
    for argv, per_point in _STOKES_Q_PER_POINT.items():
        count[0] = points[0] = 0
        assert main(["stokes", *argv]) == 0
        capsys.readouterr()
        assert points[0] > 0
        assert count[0] <= 1.01 * per_point * points[0], (argv, count[0] / points[0])


# q evaluations per whole command when z_B's lines were traced rather than
# mirrored from z_A's, and the share of them a command may still spend.
_STOKES_Q_BEFORE_MIRROR = {("--p", "1.3"): (19915, 0.6),
                           ("--p", "2.5775"): (30935, 0.6),
                           ("--A", "1.9312"): (60202, 0.75)}


def test_stokes_traces_each_pt_mirror_pair_once(monkeypatch, capsys):
    # z_B's three lines cost only its seeding: ratios 0.55, 0.54 and 0.71
    count = [0]
    plain = geometry.ModelSpec.q_callable

    def q_callable(model):
        inner = plain(model)

        def q(z):
            count[0] += 1
            return inner(z)

        return q

    monkeypatch.setattr(geometry.ModelSpec, "q_callable", q_callable)
    for argv, (before, share) in _STOKES_Q_BEFORE_MIRROR.items():
        count[0] = 0
        assert main(["stokes", *argv]) == 0
        capsys.readouterr()
        assert count[0] <= share * before, (argv, count[0] / before)


def _stokes_run(argv, tmp_path):
    """The model of a stokes run, and its traced lines: kind -> rows of
    (origin_re, origin_im, z_re, z_im, rechi, imchi)."""
    out = tmp_path / "s.csv"
    assert main(["stokes", *argv, "--out", str(out)]) == 0
    lines = {}
    for line in out.read_text().splitlines()[1:]:
        *nums, kind = line.split(",")
        if kind.startswith("stokes_"):
            lines.setdefault(kind, []).append(tuple(map(float, nums)))
    value = float(argv[1])
    spec = geometry.ModelSpec
    model = spec.power_law(value) if argv[0] == "--p" else spec.quartic(value)
    return model, lines


_MIRROR_RUNS = ([["--p", p] for p in ("1.3", "1.5", "2", "2.5775", "12")]
                + [["--A", a] for a in ("0.5", "1.0", "1.9312")])


@pytest.mark.parametrize("argv", _MIRROR_RUNS)
def test_stokes_z_b_rows_mirror_z_a_rows_bit_for_bit(tmp_path, argv):
    # each z_B line is one z_A line taken to -conj z, chi to conj chi, in
    # its order and under z_B's own origin
    model, lines = _stokes_run(argv, tmp_path)
    z_b = model.turning_points[1]
    mirrors = [[(z_b.real, z_b.imag, -x, y, re, -im) for _, _, x, y, re, im in rows]
               for rows in (lines[f"stokes_z_A_{j}"] for j in range(3))]
    partners = [mirrors.index(lines[f"stokes_z_B_{k}"]) for k in range(3)]
    assert sorted(partners) == [0, 1, 2]


def _emitted_lines(monkeypatch):
    """The line records each later stokes run hands to cli._emit, one list
    per run."""
    emitted, plain = [], cli._emit

    def emit(rows, columns, args, meta, lines=()):
        emitted.append(list(lines))
        return plain(rows, columns, args, meta, lines)

    monkeypatch.setattr(cli, "_emit", emit)
    return emitted


@pytest.mark.parametrize("argv", _MIRROR_RUNS)
def test_mirrored_z_b_lines_match_lines_traced_from_z_b(tmp_path, monkeypatch, argv):
    # z_B_k is the line leaving z_B at its own k-th seed direction: at p = 2
    # one of them leaves at angle 0, where sorting the mirrored z_A angles
    # would wrap; at p = 1.3 one of them ends on the cut
    emitted = _emitted_lines(monkeypatch)
    model, lines = _stokes_run(argv, tmp_path)
    mirrors = [line for line in emitted[0] if line[3]]
    z_b = model.turning_points[1]
    dirs = geometry.seed_directions(z_b, model)
    z_a = [trace for _, kind, trace, _ in emitted[0] if kind.startswith("stokes_z_A_")]
    assert len(mirrors) == len(dirs) == 3
    for k, (theta, (_, kind, got, _)) in enumerate(zip(dirs, mirrors)):
        assert kind == f"stokes_z_B_{k}" and any(got is trace for trace in z_a)
        want = geometry.trace_stokes_line(z_b, model, theta, max_arclen=25.0)
        rows = lines[f"stokes_z_B_{k}"]
        assert got.terminated == want.terminated, (k, got.terminated)
        assert len(rows) == len(got.points) == len(want.points), k
        for (_, _, x, y, re, im), z, chi in zip(rows, want.points, want.chi):
            tol = 1e-12 * max(1.0, abs(chi))
            assert abs(complex(x, y) - z) <= tol and abs(complex(re, im) - chi) <= tol
    if argv == ["--p", "1.3"]:
        assert "cut" in {trace.terminated for _, _, trace, _ in mirrors}


@pytest.mark.parametrize("argv", [["--p", "1.3"], ["--A", "1.0"]])
def test_stokes_traces_only_the_lines_that_mirror_no_other(tmp_path, monkeypatch, argv):
    # each z_B line is z_A's rendered mirrored: no trace is built for it
    origins, plain = [], geometry.trace_stokes_line

    def trace(origin, *args, **kwargs):
        origins.append(origin)
        return plain(origin, *args, **kwargs)

    monkeypatch.setattr(geometry, "trace_stokes_line", trace)
    emitted = _emitted_lines(monkeypatch)
    model, _ = _stokes_run(argv, tmp_path)
    own = [line for line in emitted[0] if not line[3]]
    assert len(emitted[0]) - len(own) == 3
    mirrored = [trace for _, _, trace, is_mirror in emitted[0] if is_mirror]
    assert all(any(trace is other[2] for other in own) for trace in mirrored)
    assert len(origins) == len(own)
    assert model.turning_points[1] not in origins


@pytest.mark.parametrize("argv", [["--p", "1.3"], ["--A", "1.0"]])
def test_z_b_traces_the_line_whose_z_a_partner_failed(tmp_path, monkeypatch, capsys, argv):
    # z_A/1 fails: z_B traces its mirror of that line itself, at its own
    # direction, and still mirrors the other two bit for bit
    model, plain = _stokes_run(argv, tmp_path)
    z_a, z_b = model.turning_points[:2]
    lost = geometry.seed_directions(z_a, model)[1]
    mirrored = [(z_b.real, z_b.imag, -x, y, re, -im)
                for _, _, x, y, re, im in plain["stokes_z_A_1"]]
    k = [plain[f"stokes_z_B_{j}"] for j in range(3)].index(mirrored)
    traced, real = [], geometry.trace_stokes_line

    def trace(origin, model, theta, **kwargs):
        if origin == z_a and theta == lost:
            raise geometry.TraceError("corrector stalled")
        traced.append((origin, theta))
        return real(origin, model, theta, **kwargs)

    monkeypatch.setattr(geometry, "trace_stokes_line", trace)
    capsys.readouterr()
    _, lines = _stokes_run(argv, tmp_path)
    assert capsys.readouterr().err == "warning: trace z_A/1 failed: corrector stalled\n"
    assert [theta for origin, theta in traced if origin == z_b] == [
        geometry.seed_directions(z_b, model)[k]]
    assert "stokes_z_A_1" not in lines
    for j in range(3):
        if j != k:
            assert lines[f"stokes_z_B_{j}"] == plain[f"stokes_z_B_{j}"], j
    got = lines[f"stokes_z_B_{k}"]
    assert len(got) == len(mirrored)
    assert all(max(map(abs, (a - b for a, b in zip(r, m)))) <= 1e-9 * max(1.0, abs(m[4]))
               for r, m in zip(got, mirrored))


def test_stokes_into_a_closed_pipe_exits_quietly():
    # ptspec stokes --p 1.3 | head -1: the reader leaves after one line
    proc = subprocess.Popen(CMD + ["stokes", "--p", "1.3"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV)
    assert proc.stdout.readline() == b"origin_re,origin_im,z_re,z_im,rechi,imchi,kind\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""


def test_grid_ends_at_the_upper_end_of_its_range():
    # a step that does not divide the range still ends the grid at hi
    assert cli._grid(0.0, 1.0, 0.3) == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert cli._grid(0.0, 1.0, 0.3)[-1] == 1.0
    assert cli._grid(1.0, 2.0, 0.25) == [1.0, 1.25, 1.5, 1.75, 2.0]
    # a rounded step count ran past hi: quartic --range 0:1 --step 0.35
    # listed A = 1.05, bifurcation --range 1.2:2.0 --step 0.3 p = 2.1
    assert cli._grid(0.0, 1.0, 0.35) == [0.0, 0.35, 0.7, 1.0]
    assert cli._grid(1.2, 2.0, 0.3)[-1] == 2.0


@settings(deadline=None, max_examples=300)
@given(lo=st.floats(0.0, 10.0), width=st.floats(1e-3, 10.0), step=st.floats(1e-3, 5.0))
def test_grid_never_runs_past_the_upper_end(lo, width, step):
    hi = lo + width
    vals = cli._grid(lo, hi, step)
    rounding = 1e-9 * step + 1e-12
    assert vals[0] == lo and max(vals) <= hi + rounding
    assert abs(vals[-1] - hi) <= rounding
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("argv", [["--p", "1.3"], ["--p", "2"], ["--p", "12"],
                                  ["--A", "0"], ["--A", "1.0"], ["--A", "1.9312"]])
def test_stokes_csv_is_its_json_rendered_cell_by_cell(tmp_path, argv):
    # The CSV renders a mirrored line's rows from its partner's text, the
    # JSON from its partner's trace, negating z_re and imchi: the two must
    # agree.  At p = 1.3 a line ends on the cut, at p = 2 a z_B direction
    # sits at angle 0, at A = 0 z_C and z_D mirror themselves and carry -0
    # candidates.
    c, j = tmp_path / "s.csv", tmp_path / "s.json"
    assert main(["stokes", *argv, "--out", str(c)]) == 0
    assert main(["stokes", *argv, "--format", "json", "--out", str(j)]) == 0
    rows = json.loads(j.read_text())["rows"]
    columns = ["origin_re", "origin_im", "z_re", "z_im", "rechi", "imchi", "kind"]
    assert any(r["kind"].startswith("stokes_z_B_") for r in rows)
    want = _rendered_by_cell(rows, columns).splitlines(keepends=True)
    assert c.read_text().splitlines(keepends=True) == want  # lists: a short diff


def test_mirror_pairs_directions_on_the_circle_across_angle_zero(tmp_path, monkeypatch):
    # At p = 2 one z_B direction sits at angle 0 (6e-14 after polishing), as
    # does the mirror pi - t of z_A's line at t = pi.  Were z_B's rounded
    # just below 0, it would wrap to 2 pi and sort last, while the mirrored
    # angle still sorts first: only pairing e^{it} on the circle gives each
    # z_B_k the line that leaves at its own k-th direction.
    real = geometry.seed_directions
    z_b = geometry.turning_points(2.0)[1]

    def seed(origin, model, kind="stokes"):
        dirs = real(origin, model, kind)
        return sorted((t - 1e-12) % (2 * math.pi) for t in dirs) if origin == z_b else dirs

    monkeypatch.setattr(geometry, "seed_directions", seed)
    model, lines = _stokes_run(["--p", "2"], tmp_path)
    dirs = seed(z_b, model)
    assert dirs[2] > 6.28
    for k, theta in enumerate(dirs):
        x, y = lines[f"stokes_z_B_{k}"][0][2:4]
        heading = (complex(x, y) - z_b) / geometry._START_RADIUS
        assert abs(heading - cmath.exp(1j * theta)) < 1e-9, k
