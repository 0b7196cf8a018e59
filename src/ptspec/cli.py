"""Command-line front end: figure-grade datasets and verification reports.

Subcommands
    bifurcation   eigenvalue branches over a p-range (wkb/full/numeric)
    stokes        traced Stokes lines plus wedge annotation rays
    p1-scaling    lowest branches toward p = 1 with the predicted scaling
    quartic       quartic branches over a coupling range with the close-off
    verify        pass/fail table for the matching constants
    eigen         a single (p, n) eigenvalue query

Datasets are plot-ready columns (no plotting in-process), CSV or JSON, with
deterministic ordering and 17-significant-digit floats so identical runs
produce identical bytes.  Exit codes: 0 success, 2 computation failure,
64 usage error.
"""

import argparse
import cmath
import json
import math
import sys

from . import asymptotic, geometry, shooting, verify
from .geometry import ModelSpec

__all__ = ["main"]

USAGE_EXIT = 64
FAILURE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(rows: list[dict], columns: list[str], args, meta: dict) -> None:
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "json":
            payload = {"meta": meta, "rows": rows}
            json.dump(payload, out, indent=1, sort_keys=True)
            out.write("\n")
        else:
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    finally:
        if args.out:
            out.close()


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("range must look like LO:HI")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("range ends must be finite")
    if not lo < hi:
        raise argparse.ArgumentTypeError("range must be ordered LO < HI")
    return lo, hi


def _bounded(kind, what: str, lo: float, strict: bool):
    """argparse type: a finite kind(text) above lo (strict) or at least lo."""
    need = ("finite and " if kind is float else "") + (">" if strict else ">=")

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {text!r}")
        if not (math.isfinite(value) and (value > lo if strict else value >= lo)):
            raise argparse.ArgumentTypeError(f"{what} must be {need} {lo:g}")
        return value

    return parse


_tolerance = _bounded(float, "tolerance", 0, strict=False)


def _grid(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step))
    vals = [lo + k * step for k in range(n + 1)]
    if vals[-1] < hi - 1e-12:
        vals.append(hi)
    return vals


def _record_row(rec, method: str) -> dict:
    return {
        "param": float(rec.param),
        "n": rec.n,
        "method": method,
        "re_E": rec.E.real,
        "im_E": rec.E.imag,
        "residual": rec.residual,
    }


def cmd_bifurcation(args) -> int:
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods or any(m not in ("wkb", "full", "numeric") for m in methods):
        sys.stderr.write("error: --method must list wkb, full and/or numeric\n")
        return USAGE_EXIT
    lo, hi = args.range
    if lo <= 1.0:
        sys.stderr.write("error: p-range must stay above 1\n")
        return USAGE_EXIT
    rows, warnings = [], 0
    for p in _grid(lo, hi, args.step):
        n_cap = 0
        while asymptotic.wkb_eigenvalue(n_cap, p) < args.emax and n_cap < 200:
            n_cap += 1
        for method in methods:
            if method == "numeric":
                cfg = shooting.ShootConfig(rtol=args.rtol)
                try:
                    recs = shooting.scan_spectrum(ModelSpec.power_law(p), args.emax, cfg)
                except shooting.ShootingError as exc:
                    sys.stderr.write(f"warning: numeric scan failed at p={p}: {exc}\n")
                    warnings += 1
                    continue
                rows.extend(_record_row(r, "numeric") for r in recs)
                continue
            for n in range(n_cap + 1):
                try:
                    rec = asymptotic.solve_condition(n, p, method)
                except asymptotic.SolveError:
                    continue
                if rec.E.real <= args.emax * (1 + 1e-9):
                    rows.append(_record_row(rec, method))
    if not rows:
        sys.stderr.write("error: no branch produced any root\n")
        return FAILURE_EXIT
    rows.sort(key=lambda r: (r["param"], r["method"], r["n"], r["im_E"]))
    _emit(rows, ["param", "n", "method", "re_E", "im_E", "residual"], args,
          {"command": "bifurcation", "p_range": list(args.range),
           "step": args.step, "emax": args.emax, "methods": methods})
    return 0


def cmd_stokes(args) -> int:
    if (args.p is None) == (args.A is None):
        sys.stderr.write("error: give exactly one of --p / --A\n")
        return USAGE_EXIT
    rows = []
    traced = 0

    def add_trace(kind, origin, trace):
        for z, chi in zip(trace.points, trace.chi):
            rows.append({"origin_re": origin.real, "origin_im": origin.imag,
                         "z_re": z.real, "z_im": z.imag,
                         "rechi": chi.real, "imchi": chi.imag, "kind": kind})

    if args.p is not None:
        model = ModelSpec.power_law(args.p)
        z_a, z_b = geometry.turning_points(args.p)
        origins = [("z_A", z_a), ("z_B", z_b)]
        if not model.is_integer_power:
            origins.append(("z0", 0j))
        th_l, th_r, width = geometry.wedge_angles(args.p)
        for label, th in (("wedge_centre_left", th_l), ("wedge_centre_right", th_r),
                          ("wedge_boundary_left_lo", th_l - width / 2),
                          ("wedge_boundary_left_hi", th_l + width / 2),
                          ("wedge_boundary_right_lo", th_r - width / 2),
                          ("wedge_boundary_right_hi", th_r + width / 2)):
            for r in (0.0, 8.0):
                z = r * cmath.exp(1j * th)
                rows.append({"origin_re": 0.0, "origin_im": 0.0,
                             "z_re": z.real, "z_im": z.imag,
                             "rechi": 0.0, "imchi": 0.0, "kind": label})
    else:
        model = ModelSpec.quartic(args.A)
        roots = geometry.quartic_turning_points(args.A)
        origins = [("z_A", roots.z_a), ("z_B", roots.z_b),
                   ("z_C", roots.z_c), ("z_D", roots.z_d)]
    for name, origin in origins:
        try:
            dirs = geometry.seed_directions(origin, model)
        except (geometry.TraceError, ValueError) as exc:
            sys.stderr.write(f"warning: seeding failed at {name}: {exc}\n")
            continue
        for k, th in enumerate(dirs):
            try:
                trace = geometry.trace_stokes_line(origin, model, th, max_arclen=25.0)
            except geometry.TraceError as exc:
                sys.stderr.write(f"warning: trace {name}/{k} failed: {exc}\n")
                continue
            add_trace(f"stokes_{name}_{k}", origin, trace)
            traced += 1
    if not traced:  # wedge rows alone are no dataset
        sys.stderr.write("error: no Stokes line was traced\n")
        return FAILURE_EXIT
    _emit(rows, ["origin_re", "origin_im", "z_re", "z_im", "rechi", "imchi", "kind"],
          args, {"command": "stokes", "p": args.p, "A": args.A})
    return 0


def cmd_p1_scaling(args) -> int:
    rows = []
    deltas = []
    d = 0.5
    while d >= args.floor:
        deltas.append(d)
        d *= 0.85
    for branch in range(args.branches):
        for rec in asymptotic.lowest_branch_path(deltas, branch):
            dd = rec.param - 1.0
            e = rec.E.real
            rows.append({
                "branch": branch, "p": rec.param, "delta": dd, "E": e,
                "loglog_delta": math.log(abs(math.log(dd))),
                "delta_exp_scaled": dd * math.exp(4.0 * e ** 1.5 / 3.0),
                "predicted_delta": asymptotic.delta_estimate(e),
                "predicted_loglog": math.log(abs(math.log(asymptotic.delta_estimate(e)))),
                "predicted_scaled": 8.0 * e ** 1.5 / math.pi,
            })
    if not rows:
        sys.stderr.write("error: no branch row with p - 1 in [--floor, 0.5]\n")
        return FAILURE_EXIT
    rows.sort(key=lambda r: (r["branch"], -r["delta"]))
    _emit(rows, ["branch", "p", "delta", "E", "loglog_delta", "delta_exp_scaled",
                 "predicted_delta", "predicted_loglog", "predicted_scaled"],
          args, {"command": "p1-scaling", "branches": args.branches,
                 "floor": args.floor})
    return 0


def cmd_quartic(args) -> int:
    lo, hi = args.range
    if lo < 0:
        sys.stderr.write("error: coupling range must be nonnegative\n")
        return USAGE_EXIT
    rows = []
    for a_phys in _grid(lo, hi, args.step):
        for n in range(201):
            try:
                rec = asymptotic.solve_quartic(n, a_phys)
            except asymptotic.SolveError:
                break
            if rec.E.real > args.emax:
                break
            if abs(rec.eps.imag) > 1e-10 * abs(rec.eps):
                continue  # a folded pair: the modes above it stay real
            row = _record_row(rec, "full")
            row["closeoff"] = (asymptotic.quartic_closeoff(a_phys)
                               if a_phys > 0 else 0.0)
            rows.append(row)
        if args.numeric:
            cfg = shooting.ShootConfig(r_max=5.0, rtol=args.rtol)
            try:
                recs = shooting.scan_spectrum(ModelSpec.quartic(a_phys), args.emax, cfg)
            except shooting.ShootingError as exc:
                sys.stderr.write(f"warning: scan failed at A={a_phys}: {exc}\n")
                continue
            for r in recs:
                row = _record_row(r, "numeric")
                row["closeoff"] = (asymptotic.quartic_closeoff(a_phys)
                                   if a_phys > 0 else 0.0)
                rows.append(row)
    if not rows:
        sys.stderr.write("error: no eigenvalue at or below --emax\n")
        return FAILURE_EXIT
    rows.sort(key=lambda r: (r["param"], r["method"], r["n"]))
    _emit(rows, ["param", "n", "method", "re_E", "im_E", "residual", "closeoff"],
          args, {"command": "quartic", "A_range": list(args.range),
                 "step": args.step, "emax": args.emax})
    return 0


def cmd_verify(args) -> int:
    checks = []
    rep = verify.turning_point_prefactor(60)
    checks.append(("turning-point prefactor = 1/(2 pi)",
                   max(abs(e - rep.limit) for e in rep.estimates), 1e-11))
    for p in (1.3, 1.5, 1.7, 2.5, 3.5):
        rep = verify.branch_point_prefactor(p)
        checks.append((f"branch-point prefactor, p = {p}", rep.max_dev_tail, 1e-9))
    for p in (2.5, 3.0, 5.0):
        dev = verify.quantization_equivalence(p)
        checks.append((f"quantisation equivalence, p = {p}", dev, 1e-9))
    rep = verify.turning_point_matching_ratio(400)
    checks.append(("matching-ratio limit 1/(2 pi)",
                   abs(rep.estimates[-1] / rep.limit - 1.0), 1e-3))
    all_ok = True
    for name, dev, tol in checks:
        ok = dev <= tol
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:42s} dev={dev:.3e} tol={tol:.0e}")
    return 0 if all_ok else FAILURE_EXIT


def cmd_eigen(args) -> int:
    if args.method == "numeric":
        model = ModelSpec.power_law(args.p)
        seed = asymptotic.wkb_eigenvalue(args.n, args.p)
        try:
            rec = shooting.find_eigen(seed, model, shooting.ShootConfig(rtol=args.rtol))
        except shooting.ShootingError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return FAILURE_EXIT
        if rec.n != args.n:
            sys.stderr.write(f"error: shooting from the n = {args.n} seed converged "
                             f"to the n = {rec.n} eigenvalue E = {rec.E.real:.10g}\n")
            return FAILURE_EXIT
    else:
        try:
            rec = asymptotic.solve_condition(args.n, args.p, args.method)
        except asymptotic.SolveError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return FAILURE_EXIT
    _emit([_record_row(rec, rec.method)],
          ["param", "n", "method", "re_E", "im_E", "residual"], args,
          {"command": "eigen", "p": args.p, "n": args.n, "method": args.method})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ptspec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def dataset(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    def shooting_tolerance(sp):
        sp.add_argument("--rtol", type=_tolerance, default=1e-10,
                        help="shooting integrator relative tolerance")

    sp = sub.add_parser("bifurcation", help="eigenvalue branches over a p-range")
    sp.add_argument("--range", type=_parse_range, required=True, metavar="PMIN:PMAX")
    sp.add_argument("--step", type=_bounded(float, "step", 0, strict=True), default=0.05)
    sp.add_argument("--emax", type=_bounded(float, "emax", 0, strict=True), default=30.0)
    sp.add_argument("--method", default="wkb,full",
                    help="comma list from wkb,full,numeric")
    dataset(sp)
    shooting_tolerance(sp)
    sp.set_defaults(func=cmd_bifurcation)

    sp = sub.add_parser("stokes", help="Stokes line traces")
    sp.add_argument("--p", type=_bounded(float, "p", 1, strict=False), default=None)
    sp.add_argument("--A", type=_bounded(float, "A", 0, strict=False), default=None)
    dataset(sp)
    sp.set_defaults(func=cmd_stokes)

    sp = sub.add_parser("p1-scaling", help="branches approaching p = 1")
    sp.add_argument("--branches", type=_bounded(int, "branches", 1, strict=False),
                    default=6)
    sp.add_argument("--floor", type=_bounded(float, "floor", 0, strict=True),
                    default=1e-3)
    dataset(sp)
    sp.set_defaults(func=cmd_p1_scaling)

    sp = sub.add_parser("quartic", help="quartic oscillator branches")
    sp.add_argument("--range", type=_parse_range, required=True, metavar="AMIN:AMAX")
    sp.add_argument("--step", type=_bounded(float, "step", 0, strict=True), default=0.5)
    sp.add_argument("--emax", type=_bounded(float, "emax", 0, strict=True), default=20.0)
    sp.add_argument("--numeric", action="store_true",
                    help="include shooting eigenvalues (slow)")
    dataset(sp)
    shooting_tolerance(sp)
    sp.set_defaults(func=cmd_quartic)

    sp = sub.add_parser("verify", help="matching-constant checks")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("eigen", help="single (p, n) eigenvalue")
    sp.add_argument("--p", type=_bounded(float, "p", 1, strict=True), required=True)
    sp.add_argument("--n", type=_bounded(int, "n", 0, strict=False), required=True)
    sp.add_argument("--method", choices=("wkb", "full", "numeric"), default="full")
    dataset(sp)
    shooting_tolerance(sp)
    sp.set_defaults(func=cmd_eigen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except BrokenPipeError:
        code = 0
    except Exception as exc:  # computation failure, not usage
        sys.stderr.write(f"error: {exc}\n")
        code = FAILURE_EXIT
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
