"""The three workloads: one round of queries each, and how a round is checked.

A round is a fixed list of queries built from the seed.  Every run repeats
whole rounds, so each run attempts the same operations in the same
proportions and the failed share does not depend on the run length.  Inputs
that hit a known fault of ptspec (see README.md) do not depend on the seed;
the seed only moves parameters inside ranges where ptspec's current output
checks clean, so the failed share does not depend on the seed either.

A query calls ptspec through its modules' attributes at call time, so the
tracer's wrappers see every call.
"""

import contextlib
import io
import random
from collections import defaultdict

import numpy as np

import checks
import oracle


class Round:
    """Outcome of checking one round: operations, failures, verified results."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.verified = 0
        self.problems: list[str] = []
        self.duplicates = 0
        self.scan_kept = 0

    def op(self, label: str, problems: list[str], verified: int = 1) -> None:
        self.ops += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {problems[0]}"
                                 + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))
        else:
            self.verified += verified

    def absorb(self, other: "Round") -> None:
        for key in ("ops", "failed", "verified", "duplicates", "scan_kept"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.problems += other.problems


def _cli(pt, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pt.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    return run


def _csv_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines:
        return []
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _cli_failed(label, output, rnd: Round) -> bool:
    code, _, err = output
    if code != 0:
        rnd.op(label, [f"exit code {code}: {err.strip()[:120]}"])
        return True
    return False


def _fmt(x: float) -> str:
    return f"{x:.4f}"


# --- conditions ---------------------------------------------------------------

class Conditions:
    """README condition commands in-process, each sweep cut into slices.

    Fixed: the README bifurcation sweep over 1.05 <= p <= 5 in three slices
    (it crosses the broken band 1.23..1.81, where ptspec emits duplicate,
    mislabelled and unpaired roots), the quartic sweep over 0 <= A <= 3.5 in
    five slices of three couplings (duplicates at 1.75..2.25 and 3.25..3.5),
    the README p1-scaling run, and verify.  Seeded: one bifurcation slice of
    21 points starting in [2.8, 3.2] and one quartic slice of three couplings
    starting in [2.35, 2.5], both where every root checks clean, and a
    p1-scaling floor in [1e-3, 10^-2.8].
    The seeded queries cost less (bifurcation, p1-scaling) or more (quartic)
    than the cheapest fixed quartic slices, where the median query falls, so
    the median query time does not move with the seed.
    """

    name = "conditions"
    BIFURCATION = ("1.05:1.50", "1.55:2.00", "2.05:5.00")
    QUARTIC = ("0.00:0.50", "0.75:1.25", "1.50:2.00", "2.25:2.75", "3.00:3.50")

    def __init__(self, seed: int):
        rng = random.Random(f"conditions:{seed}")
        p0 = rng.uniform(2.8, 3.2)
        a0 = rng.uniform(2.35, 2.5)
        floor = 10.0 ** rng.uniform(-3.0, -2.8)
        bif = [*self.BIFURCATION, f"{_fmt(p0)}:{_fmt(p0 + 1.0)}"]
        quartic = [*self.QUARTIC, f"{_fmt(a0)}:{_fmt(a0 + 0.5)}"]
        self.argvs = (
            [["bifurcation", "--range", r, "--step", "0.05", "--emax", "30", "--method", "wkb,full"]
             for r in bif]
            + [["quartic", "--range", r, "--step", "0.25", "--emax", "20"] for r in quartic]
            + [["p1-scaling", "--branches", "6", "--floor", "1e-3"],
               ["p1-scaling", "--branches", "6", "--floor", f"{floor:.3e}"],
               ["verify"]]
        )

    def queries(self, pt):
        return [(" ".join(a), _cli(pt, a)) for a in self.argvs]

    def check(self, outputs) -> Round:
        rnd = Round()
        for argv, out in zip(self.argvs, outputs):
            label = " ".join(argv[:3])
            if _cli_failed(label, out, rnd):
                continue
            kind = argv[0]
            if kind == "verify":
                self._check_verify(out[1], rnd)
                continue
            rows = _csv_rows(out[1])
            if kind == "p1-scaling":
                branches = defaultdict(list)
                for r in rows:
                    branches[int(r["branch"])].append((float(r["delta"]), float(r["E"])))
                # A branch already complex at the first delta has no rows.
                probs = checks.p1_problems(branches)
                for b in range(int(argv[argv.index("--branches") + 1])):
                    rnd.op(f"p1-scaling branch {b}", probs.get(b, []), len(branches.get(b, ())))
                continue
            groups = defaultdict(list)
            for r in rows:
                groups[(float(r["param"]), r["method"])].append(
                    (int(r["n"]), complex(float(r["re_E"]), float(r["im_E"]))))
            for (param, method), roots in sorted(groups.items()):
                if kind == "quartic":
                    probs = checks.ladder_problems(roots, lambda e, a=param: checks.quartic_residual(e.real, a))
                elif method == "wkb":
                    probs = checks.wkb_problems(roots, param)
                else:
                    probs = checks.ladder_problems(roots, lambda e, p=param: checks.corrected_residual(e, p))
                rnd.duplicates += sum(1 for s in probs if s.startswith("duplicate"))
                rnd.op(f"{kind} {method} {param:.4g}", probs, len(roots))
        return rnd

    @staticmethod
    def _check_verify(text: str, rnd: Round) -> None:
        for line in text.splitlines():
            status, rest = line.split(None, 1)
            name = rest.split(" dev=")[0].strip()
            dev = float(rest.split("dev=")[1].split()[0])
            tol = float(rest.split("tol=")[1])
            probs = [] if status == "PASS" and dev <= tol else [f"{status} dev={dev:.2e} tol={tol:.0e}"]
            rnd.op(f"verify {name}", probs, 0)


# --- stokes -------------------------------------------------------------------

class Stokes:
    """Traced Stokes lines and matching paths, on both sides of p = 2.

    Fixed: stokes --p 1.3 (the README command), its neighbours 1.275 and
    1.325, and --p 1.5, whose lines from z_A and z_B run along the branch
    cut; below p = 2 whether that line's last corrector step detours across
    the cut changes from one p to the next, so p < 2 is not seeded.  The four
    fixed queries cost about the same, and the median query falls among them.
    Seeded: stokes --p in [2.2, 2.6], stokes --A in [0.5, 2.5].  The matching
    path runs at p = 1.3, 1.5 and the seeded p.
    """

    name = "stokes"
    FIXED_P = (1.275, 1.3, 1.325, 1.5)

    def __init__(self, seed: int):
        rng = random.Random(f"stokes:{seed}")
        self.p_high = round(rng.uniform(2.2, 2.6), 4)
        self.coupling = round(rng.uniform(0.5, 2.5), 4)
        self.stokes_args = [["stokes", "--A", f"{self.coupling}"]]
        self.stokes_args += [["stokes", "--p", f"{p}"] for p in (*self.FIXED_P, self.p_high)]
        self.path_p = (1.3, 1.5, self.p_high)

    def queries(self, pt):
        qs = [(" ".join(a), _cli(pt, a)) for a in self.stokes_args]
        for p in self.path_p:
            model = pt.ModelSpec.power_law(p)

            def run(model=model):
                try:
                    tr = pt.trace_matching_path(model)
                except pt.TraceError as exc:
                    return ("error", repr(exc))
                return tr.terminated, np.array(tr.points), np.array(tr.chi)
            qs.append((f"trace_matching_path p={p}", run))
        return [qs[i] for i in self.ORDER]

    # Run order: the four similar fixed --p queries, where the median falls,
    # are spread through the round so they sample different moments of it.
    ORDER = (1, 0, 2, 6, 5, 3, 7, 4, 8)

    def check(self, outputs) -> Round:
        outputs = [out for _, out in sorted(zip(self.ORDER, outputs))]
        rnd = Round()
        n_cli = len(self.stokes_args)
        for argv, out in zip(self.stokes_args, outputs[:n_cli]):
            label = " ".join(argv)
            if _cli_failed(label, out, rnd):
                continue
            value = float(argv[2])
            if argv[1] == "--p":
                q, sing, cut = checks.power_q(value), checks.power_singular_points(value), True
                expected = {"z_A": 3, "z_B": 3}
            else:
                q, sing, cut = checks.quartic_q(value), checks.quartic_singular_points(value), False
                expected = {"z_A": 3, "z_B": 3, "z_C": 3, "z_D": 3}
            lines = _stokes_lines(out[1])
            seen = defaultdict(int)
            for kind, (origin, z, chi) in lines.items():
                name = kind.rsplit("_", 1)[0][len("stokes_"):]
                seen[name] += 1
                rnd.op(f"{label} {kind}", checks.stokes_line_problems(origin, z, chi, q, cut, sing))
            for name, want in expected.items():
                for _ in range(want - seen[name]):
                    rnd.op(f"{label} {name}", ["Stokes line missing"])
        for p, out in zip(self.path_p, outputs[n_cli:]):
            if out[0] == "error":
                rnd.op(f"matching path p={p}", [out[1]])
                continue
            terminated, z, chi = out
            probs = []
            crosses = bool(np.any(checks.crosses_cut(z[:-1], z[1:])))
            if crosses != (p < 2.0):
                probs.append(f"crosses the cut: {crosses}, terminated {terminated}")
            z_a = checks.power_singular_points(p)[0]
            probs += checks.stokes_line_problems(z_a, z, chi, checks.power_q(p), True,
                                                 checks.power_singular_points(p), "real")
            rnd.op(f"matching path p={p}", probs)
        return rnd


def _stokes_lines(text: str) -> dict:
    """kind -> (origin, points, chi) for the traced lines of a stokes CSV."""
    head, _, body = text.partition("\n")
    col = {c: i for i, c in enumerate(head.split(","))}
    nums = np.loadtxt(io.StringIO(body), delimiter=",", usecols=range(len(col) - 1), ndmin=2)
    kinds = np.array([ln[ln.rfind(",") + 1:] for ln in body.splitlines()])
    out = {}
    for kind in dict.fromkeys(kinds.tolist()):
        if not kind.startswith("stokes_"):
            continue
        sel = nums[kinds == kind]
        origin = complex(sel[0, col["origin_re"]], sel[0, col["origin_im"]])
        out[kind] = (origin, sel[:, col["z_re"]] + 1j * sel[:, col["z_im"]],
                     sel[:, col["rechi"]] + 1j * sel[:, col["imchi"]])
    return out


# --- polish -------------------------------------------------------------------

class Polish:
    """find_eigen on corrected-condition seeds: the README library tour.

    Fixed: p = 2 and p = 3 at n = 0..4, and the quartic A = 2.0 at n = 0..3,
    where solve_quartic(0, 2.0) seeds the n = 2 eigenvalue.  Seeded: p in
    [2.45, 2.55] at n = 0..4 and A in [0.25, 1.25] at n = 0..3.  Higher modes
    cost the most per polish and would make a round too long for the
    benchmark's time budget.
    """

    LEVELS_POWER = 5
    LEVELS_QUARTIC = 4

    def __init__(self, seed: int):
        rng = random.Random(f"polish:{seed}")
        p_seeded = round(rng.uniform(2.45, 2.55), 4)
        a_seeded = round(rng.uniform(0.25, 1.25), 4)
        self.models = [("power", 2.0), ("power", 3.0), ("power", p_seeded),
                       ("quartic", 2.0), ("quartic", a_seeded)]
        self.cases = [(fam, par, n) for fam, par in self.models
                      for n in range(self.LEVELS_POWER if fam == "power" else self.LEVELS_QUARTIC)]

    def queries(self, pt):
        # The shooting configs the CLI uses for each family.
        cfg = {"power": pt.ShootConfig(), "quartic": pt.ShootConfig(r_max=5.0)}
        models = {(fam, par): (pt.ModelSpec.power_law(par) if fam == "power" else pt.ModelSpec.quartic(par))
                  for fam, par in self.models}
        qs = []
        for fam, par, n in self.cases:
            def run(fam=fam, par=par, n=n):
                try:
                    seed = (pt.solve_condition(n, par, "full") if fam == "power"
                            else pt.solve_quartic(n, par))
                    rec = pt.find_eigen(seed.E.real, models[(fam, par)], cfg[fam])
                except (pt.SolveError, pt.ShootingError) as exc:
                    return ("error", repr(exc))
                return rec.E, rec.n
            qs.append((f"find_eigen {fam} {par} n={n}", run))
        return qs

    def reference(self):
        ref = {}
        for fam, par in self.models:
            if fam == "power":
                e_max = 1.25 * checks.wkb_ladder(self.LEVELS_POWER - 1, par)
            else:
                e_max = 22.0
            ref[(fam, par)] = oracle.spectrum(fam, par, e_max)
        return ref

    def check(self, outputs, ref) -> Round:
        rnd = Round()
        for (fam, par, n), out in zip(self.cases, outputs):
            label = f"find_eigen {fam} {par} n={n}"
            if out[0] == "error":
                rnd.op(label, [out[1]])
                continue
            prob = checks.polish_problem(out[0], n, ref[(fam, par)])
            rnd.op(label, [prob] if prob else [])
        return rnd


# --- broken-scan --------------------------------------------------------------

class BrokenScan:
    """scan_spectrum(ModelSpec.power_law(p), 12.0) in the broken region.

    p is fixed at 1.5, the README query: every p in [1.3, 2) shows faults (b)
    and (c) of README.md at counts that depend on p, so a seeded p would make
    the failed share depend on the seed.
    """

    P_VALUES = (1.5,)
    E_MAX = 12.0

    def __init__(self, seed: int):
        self.seed = seed

    def queries(self, pt):
        qs = []
        for p in self.P_VALUES:
            model = pt.ModelSpec.power_law(p)

            def run(model=model):
                return [complex(r.E) for r in pt.scan_spectrum(model, self.E_MAX)]
            qs.append((f"scan_spectrum p={p}", run))
        return qs

    def reference(self):
        return {p: oracle.spectrum("power", p, self.E_MAX) for p in self.P_VALUES}

    def check(self, outputs, ref) -> Round:
        rnd = Round()
        for p, found in zip(self.P_VALUES, outputs):
            matched, missed, spurious = checks.match_records(found, ref[p])
            for _ in matched:
                rnd.op(f"p={p}", [])
            for e in missed:
                rnd.op(f"p={p} oracle E={e:.6g}", ["not found"])
            for e in spurious:
                rnd.op(f"p={p} reported E={e:.6g}", ["matches no oracle eigenvalue"])
            rnd.scan_kept += len(found)
        return rnd


class Shooting:
    """Both shooting routes: the Polish queries with the BrokenScan query in
    the middle of the round.

    They share one workload so that a run holds enough shooting work for a
    steady figure within the benchmark's time budget; the per-layer counters
    (find_eigen polishes against scan grid mismatches and scan seeds) still
    tell the two routes apart.
    """

    name = "shooting"

    def __init__(self, seed: int):
        self.polish = Polish(seed)
        self.scan = BrokenScan(seed)
        self.split = len(self.polish.cases) // 2

    def queries(self, pt):
        polish = self.polish.queries(pt)
        return polish[:self.split] + self.scan.queries(pt) + polish[self.split:]

    def reference(self):
        return {"polish": self.polish.reference(), "scan": self.scan.reference()}

    def check(self, outputs, ref) -> Round:
        n_scan = len(self.scan.P_VALUES)
        rnd = self.polish.check(outputs[:self.split] + outputs[self.split + n_scan:], ref["polish"])
        rnd.absorb(self.scan.check(outputs[self.split:self.split + n_scan], ref["scan"]))
        return rnd


WORKLOADS = {w.name: w for w in (Conditions, Stokes, Shooting)}
