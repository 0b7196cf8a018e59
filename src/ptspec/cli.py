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
produce identical bytes.  Exit codes: 0 success; 64 usage error, from the
parser (usage line, then an error: line); 2 computation failure, any
exception a command raises (one error: line from main) or a FAIL in verify.
The parser is built on main's first call in a process (not at import) and
reused by every later call.
"""

import argparse
import cmath
import functools
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


def _negated(cell: str) -> str:
    """The %.17g text of -x + 0.0 from that of x + 0.0: its sign flipped,
    except that 0 and nan print without one."""
    if cell[0] == "-":
        return cell[1:]
    return cell if cell == "0" or cell == "nan" else "-" + cell


def _write_lines(out, lines: list[tuple]) -> None:
    """Write the CSV rows of each line, origin_re, origin_im, z_re, z_im,
    rechi, imchi, kind, as soon as they are rendered (see _emit)."""
    # id of each trace that a line mirrors -> its point cells, until that mirror is written
    kept = {id(trace): None for _, _, trace, mirrored in lines if mirrored}
    for origin, kind, trace, mirrored in lines:
        if mirrored:
            # -conj z, conj chi: z_re and imchi change sign, z_im and rechi stay
            cells = []
            for cell in kept.pop(id(trace)):
                x, y, re, im = cell.split(",")
                cells.append(f"{_negated(x)},{y},{re},{_negated(im)}")
        else:
            cells = ["%.17g,%.17g,%.17g,%.17g" % (z.real + 0.0, z.imag + 0.0,
                                                  chi.real + 0.0, chi.imag + 0.0)
                     for z, chi in zip(trace.points, trace.chi)]
            if id(trace) in kept:
                kept[id(trace)] = cells
        if cells:
            head = "%.17g,%.17g," % (origin.real + 0.0, origin.imag + 0.0)
            tail = f",{kind}\n"
            out.write(head + (tail + head).join(cells) + tail)


def _emit(rows: list, columns: list[str], args, meta: dict, lines: list[tuple] = ()) -> None:
    """Write rows, dicts keyed by column or tuples in column order, then the
    rows of each traced line in lines (stokes' columns), a record (origin,
    kind, trace, mirrored): a mirrored line's rows are those of its trace
    taken to -conj z and conj chi, and no trace is mirrored twice.

    CSV renders a float (numpy.float64 included) as %.17g and anything else
    as str: one %-template per distinct tuple of cell types, one join.  A
    line's rows are rendered as one unit: its origin cells and kind are
    filled in once around the four point cells of each row, and its text
    is written as soon as it is rendered, so only the point cells of a
    trace that a later line mirrors are kept, until that mirror is written.
    A mirror's rows come from those cells as text: %.17g of -x + 0.0 is
    that of x + 0.0 with its sign flipped (_negated), since the + 0.0 that
    every cell of a line carries, its origin's too, leaves no -0 and nan
    prints without a sign.  JSON takes a mirror's rows from the trace with
    z_re and imchi negated, the bits of (-conj z).real + 0.0 and
    conj(chi).imag + 0.0.
    """
    rows = [r if isinstance(r, tuple) else tuple(map(r.__getitem__, columns))
            for r in rows]
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "json":
            for origin, kind, trace, mirrored in lines:
                o_re, o_im = origin.real + 0.0, origin.imag + 0.0
                sign = -1.0 if mirrored else 1.0
                rows += [(o_re, o_im, sign * z.real + 0.0, z.imag + 0.0,
                          chi.real + 0.0, sign * chi.imag + 0.0, kind)
                         for z, chi in zip(trace.points, trace.chi)]
            payload = {"meta": meta, "rows": [dict(zip(columns, r)) for r in rows]}
            json.dump(payload, out, indent=1, sort_keys=True)
            out.write("\n")
        else:
            templates = {}
            text = [",".join(columns)]
            for row in rows:
                shape = tuple(map(type, row))
                tmpl = templates.get(shape)
                if tmpl is None:
                    tmpl = templates[shape] = ",".join(
                        "%.17g" if isinstance(x, float) else "%s" for x in row)
                text.append(tmpl % row)
            text.append("")
            out.write("\n".join(text))
            _write_lines(out, lines)
    finally:
        if args.out:
            out.close()


def _range(floor: float, need: str, strict: bool):
    """argparse type: finite LO:HI with LO < HI and LO above floor (strict)
    or at least floor, else the message need."""

    def parse(text: str) -> tuple[float, float]:
        try:
            lo, hi = map(float, text.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError("range must look like LO:HI")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise argparse.ArgumentTypeError("range ends must be finite")
        if not lo < hi:
            raise argparse.ArgumentTypeError("range must be ordered LO < HI")
        if not (lo > floor if strict else lo >= floor):
            raise argparse.ArgumentTypeError(need)
        return lo, hi

    return parse


def _methods(text: str) -> list[str]:
    """argparse type: the comma list of bifurcation --method."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods or any(m not in ("wkb", "full", "numeric") for m in methods):
        raise argparse.ArgumentTypeError("must list wkb, full and/or numeric")
    return methods


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
    """lo, lo + step, ... up to hi, then hi itself unless the last value
    is within 1e-12 of it.  The count of steps is floored, with a slack of
    1e-9 steps for rounding, so that no value passes hi."""
    n = math.floor((hi - lo) / step + 1e-9)
    vals = [lo + k * step for k in range(n + 1)]
    if vals[-1] < hi - 1e-12:
        vals.append(hi)
    return vals


def _shoot_config(args) -> shooting.ShootConfig:
    """ShootConfig with the command's --rtol, if one was given."""
    return shooting.ShootConfig() if args.rtol is None else shooting.ShootConfig(rtol=args.rtol)


#: The columns of an eigenvalue dataset, one row per EigRecord (_record_row).
RECORD_COLUMNS = ["param", "n", "method", "re_E", "im_E", "residual"]


def _record_row(rec) -> dict:
    # im_E + 0.0: no "-0" for a real root
    return dict(zip(RECORD_COLUMNS, (float(rec.param), rec.n, rec.method, rec.E.real,
                                     rec.E.imag + 0.0, rec.residual)))


def _scan(model: ModelSpec, args, failed: str) -> list:
    """model's numeric records to --emax; a failed scan warns "failed: error"."""
    try:
        return shooting.scan_spectrum(model, args.emax, _shoot_config(args))
    except shooting.ShootingError as exc:
        sys.stderr.write(f"warning: {failed}: {exc}\n")
        return []


def cmd_bifurcation(args) -> int:
    rows, grid = [], _grid(*args.range, args.step)
    models = [ModelSpec.power_law(p) for p in grid]
    # each condition's spectra of the whole grid, solved side by side
    spectra = [None if method == "numeric"
               else asymptotic.condition_spectra(models, args.emax, method)
               for method in args.method]
    for p, model in zip(grid, models):
        for listed in spectra:
            recs = (next(listed) if listed
                    else _scan(model, args, f"numeric scan failed at p={p}"))
            rows.extend(map(_record_row, recs))
    if not rows:
        raise RuntimeError("no branch produced any root")
    rows.sort(key=lambda r: (r["param"], r["method"], r["n"], r["im_E"]))
    _emit(rows, RECORD_COLUMNS, args,
          {"command": "bifurcation", "p_range": list(args.range),
           "step": args.step, "emax": args.emax, "methods": args.method})
    return 0


def cmd_stokes(args) -> int:
    """Stokes lines from every turning point (and a fractional power's
    branch point z0), plus the wedge annotation rays.

    Line k of an origin leaves at the k-th of its seed_directions.  Under
    ModelSpec.pt_mirror z_B is -conj z_A, so z_B's lines are z_A's mirrored
    rather than traced again: each of z_B's directions takes, of the z_A
    lines not yet taken, the one that leaves at its mirror angle.  z_B
    traces a line itself where that z_A line failed or z_A did not seed.
    Each line reaches _emit as one record (origin, kind, trace, mirrored);
    a mirrored one carries its z_A partner's trace, and _emit renders its
    rows from the partner's (text for CSV, trace for JSON).
    """
    rows = []
    lines = []
    # --A draws the quartic equation at eps = 1
    model = ModelSpec.power_law(args.p) if args.A is None else ModelSpec.quartic(args.A)
    if args.p is not None:
        th_l, th_r, width = geometry.wedge_angles(args.p)
        for label, th in (("wedge_centre_left", th_l), ("wedge_centre_right", th_r),
                          ("wedge_boundary_left_lo", th_l - width / 2),
                          ("wedge_boundary_left_hi", th_l + width / 2),
                          ("wedge_boundary_right_lo", th_r - width / 2),
                          ("wedge_boundary_right_hi", th_r + width / 2)):
            for r in (0.0, 8.0):
                z = r * cmath.exp(1j * th)
                rows.append((0.0, 0.0, z.real + 0.0, z.imag + 0.0, 0.0, 0.0, label))
    origins = [(f"z_{label}", z) for label, z in zip("ABCD", model.turning_points)]
    if model.has_branch_cut:
        origins.append(("z0", 0j))
    z_a = []  # z_A's (angle, trace or None) not yet taken by a z_B line
    for name, origin in origins:
        try:
            dirs = geometry.seed_directions(origin, model)
        except (geometry.TraceError, ValueError) as exc:
            sys.stderr.write(f"warning: seeding failed at {name}: {exc}\n")
            continue
        mirrors = name == "z_B" and model.pt_mirror
        for k, th in enumerate(dirs):
            trace = None
            if mirrors and z_a:
                # z_A's line at angle t mirrors to pi - t, -e^{-it} on the circle
                u = cmath.exp(1j * th)
                j = min(range(len(z_a)), key=lambda i: abs(u + cmath.exp(-1j * z_a[i][0])))
                trace = z_a.pop(j)[1]
            mirrored = trace is not None
            if not mirrored:
                try:
                    trace = geometry.trace_stokes_line(origin, model, th, max_arclen=25.0)
                except geometry.TraceError as exc:
                    sys.stderr.write(f"warning: trace {name}/{k} failed: {exc}\n")
            if name == "z_A":
                z_a.append((th, trace))
            if trace is not None:
                lines.append((origin, f"stokes_{name}_{k}", trace, mirrored))
    if not lines:  # wedge rows alone are no dataset
        raise RuntimeError("no Stokes line was traced")
    _emit(rows, ["origin_re", "origin_im", "z_re", "z_im", "rechi", "imchi", "kind"],
          args, {"command": "stokes", "p": args.p, "A": args.A}, lines)
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
        raise RuntimeError("no branch row with p - 1 in [--floor, 0.5]")
    rows.sort(key=lambda r: (r["branch"], -r["delta"]))
    _emit(rows, ["branch", "p", "delta", "E", "loglog_delta", "delta_exp_scaled",
                 "predicted_delta", "predicted_loglog", "predicted_scaled"],
          args, {"command": "p1-scaling", "branches": args.branches,
                 "floor": args.floor})
    return 0


def cmd_quartic(args) -> int:
    rows, grid = [], _grid(*args.range, args.step)
    models = [ModelSpec.quartic(a) for a in grid]
    # the condition's spectra of the whole grid, solved side by side
    spectra = asymptotic.condition_spectra(models, args.emax, "full")
    for a_phys, model in zip(grid, models):
        closeoff = asymptotic.quartic_closeoff(a_phys) if a_phys > 0 else 0.0
        for method in ("full", "numeric") if args.numeric else ("full",):
            recs = (next(spectra) if method == "full" else
                    _scan(model, args, f"scan failed at A={a_phys}"))
            # a folded pair leaves the axis; the modes above it stay real
            rows.extend(dict(_record_row(r), closeoff=closeoff) for r in recs
                        if not asymptotic._off_axis(r.eps))
    if not rows:
        raise RuntimeError("no eigenvalue at or below --emax")
    rows.sort(key=lambda r: (r["param"], r["method"], r["n"]))
    _emit(rows, [*RECORD_COLUMNS, "closeoff"], args,
          {"command": "quartic", "A_range": list(args.range),
           "step": args.step, "emax": args.emax})
    return 0


def cmd_verify(args) -> int:
    checks = []
    rep = verify.turning_point_prefactor()
    checks.append(("turning-point prefactor = 1/(2 pi)",
                   max(abs(e - rep.limit) for e in rep.estimates), 1e-11))
    for p in (1.3, 1.5, 1.7, 2.5, 3.5):
        rep = verify.branch_point_prefactor(p)
        checks.append((f"branch-point prefactor, p = {p}", rep.max_dev_tail, 1e-9))
    for p in (2.5, 3.0, 5.0):
        dev = verify.quantization_equivalence(p)
        checks.append((f"quantisation equivalence, p = {p}", dev, 1e-9))
    rep = verify.turning_point_matching_ratio()
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
        seed = asymptotic.wkb_eigenvalue(args.n, args.p)
        rec = shooting.find_eigen(seed, ModelSpec.power_law(args.p), _shoot_config(args))
        if rec.n != args.n:
            raise shooting.ShootingError(
                f"shooting from the n = {args.n} seed converged to the n = {rec.n} "
                f"eigenvalue E = {rec.E.real:.10g}")
    else:
        rec = asymptotic.solve_condition(args.n, args.p, args.method)
    _emit([_record_row(rec)], RECORD_COLUMNS, args,
          {"command": "eigen", "p": args.p, "n": args.n, "method": args.method})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ptspec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def dataset(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    def shooting_tolerance(sp, shoots):
        # main rejects --rtol where shoots(args) says the run never shoots
        sp.add_argument("--rtol", type=_tolerance, default=None,
                        help="shooting integrator relative tolerance "
                             "(default 1e-10; shooting routes only)")
        sp.set_defaults(shoots=shoots)

    sp = sub.add_parser("bifurcation", help="eigenvalue branches over a p-range")
    sp.add_argument("--range", metavar="PMIN:PMAX", required=True,
                    type=_range(1, "p-range must stay above 1", strict=True))
    sp.add_argument("--step", type=_bounded(float, "step", 0, strict=True), default=0.05)
    sp.add_argument("--emax", type=_bounded(float, "emax", 0, strict=True), default=30.0)
    sp.add_argument("--method", type=_methods, default="wkb,full",
                    help="comma list from wkb,full,numeric")
    dataset(sp)
    shooting_tolerance(sp, lambda a: "numeric" in a.method)
    sp.set_defaults(func=cmd_bifurcation)

    sp = sub.add_parser("stokes", help="Stokes line traces")
    family = sp.add_mutually_exclusive_group(required=True)
    family.add_argument("--p", type=_bounded(float, "p", 1, strict=False))
    family.add_argument("--A", type=_bounded(float, "A", 0, strict=False))
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
    sp.add_argument("--range", metavar="AMIN:AMAX", required=True,
                    type=_range(0, "coupling range must be nonnegative", strict=False))
    sp.add_argument("--step", type=_bounded(float, "step", 0, strict=True), default=0.5)
    sp.add_argument("--emax", type=_bounded(float, "emax", 0, strict=True), default=20.0)
    sp.add_argument("--numeric", action="store_true",
                    help="include shooting eigenvalues (slow)")
    dataset(sp)
    shooting_tolerance(sp, lambda a: a.numeric)
    sp.set_defaults(func=cmd_quartic)

    sp = sub.add_parser("verify", help="matching-constant checks")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("eigen", help="single (p, n) eigenvalue")
    sp.add_argument("--p", type=_bounded(float, "p", 1, strict=True), required=True)
    sp.add_argument("--n", type=_bounded(int, "n", 0, strict=False), required=True)
    sp.add_argument("--method", choices=("wkb", "full", "numeric"), default="full")
    dataset(sp)
    shooting_tolerance(sp, lambda a: a.method == "numeric")
    sp.set_defaults(func=cmd_eigen)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser main uses: built by its first call, reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    """Run argv (default sys.argv[1:]); return its exit code, or exit with it
    if argv is None.  The parser decides every usage error (64, SystemExit in
    process too); any exception a command raises is reported here (2).  The
    parser is built on the first call and reused by every later one in the
    process: a parse leaves it as it was."""
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "rtol", None) is not None and not args.shoots(args):
        parser.error("--rtol needs the shooting route (bifurcation --method "
                     "with numeric, quartic --numeric, eigen --method numeric)")
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
