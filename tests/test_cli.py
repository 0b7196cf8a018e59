import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptspec
from ptspec import geometry
from ptspec.cli import main

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
    assert run_cli("bifurcation", "--range", "2.4:2.6", "--method", "").returncode == 64
    assert run_cli("stokes").returncode == 64


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


def test_quartic_ladder_continues_past_folded_pair(tmp_path):
    # at A = 3.25 the two lowest modes form a complex pair; the real modes
    # above it are still listed, each once
    out = tmp_path / "q.csv"
    assert main(["quartic", "--range", "3:3.25", "--step", "0.25",
                 "--emax", "20", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    re_e = sorted(float(line.split(",")[3]) for line in lines[1:]
                  if float(line.split(",")[0]) == 3.25)
    assert all(hi - lo > 1e-6 for lo, hi in zip(re_e, re_e[1:]))
    assert any(abs(e - 7.6527) < 1e-3 for e in re_e)


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


def test_total_failure_exit_2(tmp_path):
    # emax far below every root: no rows, computation failure
    code = main(["bifurcation", "--range", "2.4:2.5", "--step", "0.1",
                 "--emax", "0.1", "--method", "wkb",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_stokes_exits_2_when_no_line_is_traced(monkeypatch, capsys):
    # the wedge-annotation rows alone are not a Stokes dataset
    def fail(*args, **kwargs):
        raise geometry.TraceError("corrector stalled")

    monkeypatch.setattr(geometry, "trace_stokes_line", fail)
    assert main(["stokes", "--p", "1.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "warning: trace z_A/0 failed" in captured.err


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


def test_empty_datasets_say_why(capsys):
    for args in (["p1-scaling", "--floor", "0.6"],
                 ["quartic", "--range", "0:1", "--emax", "0.5"]):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


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
])
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert errors and errors[0] != "error: "
