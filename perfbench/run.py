"""ptspec benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload conditions --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; ptspec is imported from ./src.  One run
repeats whole rounds of the workload's queries until the queries have taken
--seconds, then checks the first round against computations made apart from
ptspec and the later rounds against the first.  With --trace 1 the first
round runs untraced, later rounds run under the tracer and the per-layer
metrics are reported instead, with the tracer's overhead.  The last line of
standard output is one JSON object.  See perfbench/README.md.
"""

import argparse
import cmath
import hashlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: ptspec is scalar Python, and the oracle's eigensolves are
# outside every timed region.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_PROBES = 9
#: CPU seconds of one calibration loop that define one reference second: the
#: loop's median on the 2-vCPU sandbox the benchmark was built on.
CALIB_REF_S = 0.040
#: Query CPU seconds per calibration loop.
CALIB_EVERY_S = 0.5
EXIT_NO_PROGRAM = 2
EXIT_CHECKER = 3


def import_ptspec():
    """ptspec from this checkout's src/, never from anywhere else."""
    if not (SRC / "ptspec" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ptspec sources under {SRC}\n")
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import ptspec
    import ptspec.cli
    if Path(ptspec.__file__).resolve().parent != (SRC / "ptspec").resolve():
        sys.stderr.write(f"error: imported ptspec from {ptspec.__file__}\n")
        sys.exit(EXIT_NO_PROGRAM)
    return ptspec


def digest(output) -> str:
    return hashlib.sha256(pickle.dumps(output, protocol=5)).hexdigest()


def tail(times: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 40:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def measure_setup(workload: str, seed: int) -> list[float]:
    """CPU time of fresh processes that import ptspec and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload,
           "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        c0 = children_cpu()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        out.append(children_cpu() - c0)
    return out


def steal_share() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks[:8])


def calibration() -> float:
    """CPU seconds of a fixed loop of scalar complex arithmetic, the kind of
    work ptspec's hot loops do.  Its time tracks how fast the shared host
    runs this process at the moment."""
    c0 = time.process_time()
    z, acc = 0.3 + 0.1j, 0j
    for i in range(80_000):
        acc += cmath.exp(0.7 * cmath.log(1j * z + i * 1e-6)) * z
    return time.process_time() - c0


class Calibrator:
    """Calibration loops spread through the queries; speed() is their median
    over CALIB_REF_S, so that dividing a CPU time by it gives reference
    seconds.

    A query cannot be interrupted, so after each one the loops it is owed
    (one per CALIB_EVERY_S of its CPU time) run back to back: a long query
    weighs as much in the median as the same time in short ones.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.since = 0.0

    def tick(self, cpu_seconds: float) -> None:
        self.since += cpu_seconds
        while self.since >= CALIB_EVERY_S:
            self.samples.append(calibration())
            self.since -= CALIB_EVERY_S

    def speed(self) -> float:
        return statistics.median(self.samples) / CALIB_REF_S


def run_round(queries, sink, calib: Calibrator) -> tuple[float, float]:
    """Run every query once; sink(i, cpu_seconds, output).

    Returns (CPU seconds, wall seconds) of the round's queries.  Queries are
    timed in process CPU time: ptspec runs single-threaded (BLAS held to one
    thread), so on an idle machine this equals wall time, and unlike wall
    time it does not count the stretches a shared host takes the CPU away.
    Calibration loops run between queries, outside their timing.
    """
    cpu = wall = 0.0
    for i, (_, fn) in enumerate(queries):
        c0, w0 = time.process_time(), time.perf_counter()
        out = fn()
        dc, dw = time.process_time() - c0, time.perf_counter() - w0
        cpu += dc
        wall += dw
        calib.tick(dc)
        sink(i, dc, out)
    return cpu, wall


def check_round(wl, outputs):
    if hasattr(wl, "reference"):
        return wl.check(outputs, wl.reference())
    return wl.check(outputs)


def per_layer(summary: dict, rounds: int, rnd, overhead_pct: float) -> dict:
    from tracer import LAYERS
    calls, under = summary["calls"], summary["calls_under"]

    def c(*names):
        return sum(calls.get(n, 0) for n in names) / rounds

    def u(parent, child):
        return under.get((parent, child), 0) / rounds

    m = {f"{layer}.self_s": (summary["layer_self_s"][layer] / rounds, "s") for layer in LAYERS}
    mismatches = c("shooting.mismatch")
    polishes = c("shooting.find_eigen")
    q_shoot = summary["layer_self_q"]["shooting"] / rounds
    scan_seeds = u("shooting.scan_spectrum", "shooting.find_eigen")
    m.update({
        "asymptotic.root_solves": (c("asymptotic._newton_real", "asymptotic._newton_complex"), "count"),
        "asymptotic.condition_evals": (c("asymptotic._condition_parts", "asymptotic.quartic_condition"), "count"),
        "asymptotic.duplicate_roots": (float(rnd.duplicates), "count"),
        "action.quartic_action_calls": (c("action.quartic_action"), "count"),
        "action.action_between_calls": (c("action.action_between"), "count"),
        "geometry.trace_calls": (c("geometry.trace_stokes_line", "geometry.trace_matching_path"), "count"),
        "geometry.quartic_turning_points_calls": (c("geometry.quartic_turning_points"), "count"),
        "geometry.cut_checks": (c("geometry.path_crosses_cut"), "count"),
        "quadrature.calls": (c("quadrature.sqrt_path_integral", "quadrature.powerlaw_origin_piece"), "count"),
        "quadrature.q_evals": (summary["layer_self_q"]["quadrature"] / rounds, "count"),
        "special.calls": (c(*(n for n in calls if n.startswith("special."))), "count"),
        "shooting.integrate_ray_s": (summary["incl_s"].get("shooting.integrate_ray", 0.0) / rounds, "s"),
        "shooting.integrate_ray_calls": (c("shooting.integrate_ray"), "count"),
        "shooting.q_evals": (q_shoot, "count"),
        "shooting.q_evals_per_mismatch": (q_shoot / mismatches if mismatches else 0.0, "ratio"),
        "shooting.mismatch_per_eig": (u("shooting.find_eigen", "shooting.mismatch") / polishes
                                      if polishes else 0.0, "ratio"),
        "shooting.scan_grid_mismatches": (u("shooting.scan_spectrum", "shooting.mismatch"), "count"),
        "shooting.scan_seeds": (scan_seeds, "count"),
        "shooting.scan_seed_yield": (rnd.scan_kept / scan_seeds if scan_seeds else 0.0, "ratio"),
        "trace.spans": (summary["spans"] / rounds, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return m


def run_workload(args) -> int:
    import selftest
    from workloads import WORKLOADS

    planted = selftest.planted_errors()
    missed = [name for name, flagged in planted if not flagged]
    if missed:
        sys.stderr.write(f"error: checker self-test missed {missed}\n")
        return EXIT_CHECKER
    pt = import_ptspec()
    # Set-up gets its own speed, from loops right before and after it.
    setup_cal = [calibration() for _ in range(3)]
    setup = measure_setup(args.workload, args.seed)
    setup_cal += [calibration() for _ in range(3)]
    calib = Calibrator()

    wl = WORKLOADS[args.workload](args.seed)
    queries = wl.queries(pt)
    times: list[float] = []
    first: list = [None] * len(queries)
    first_digest: list[str] = [""] * len(queries)

    def keep_first(i, dt, out):
        times.append(dt)
        first[i] = out

    steal0 = steal_share()
    round_time, round_wall = [], []

    def timed_round(sink):
        cpu, wall = run_round(queries, sink, calib)
        round_time.append(cpu)
        round_wall.append(wall)

    timed_round(keep_first)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rnd = check_round(wl, first)
    for i, out in enumerate(first):
        first_digest[i] = digest(out)
    first.clear()
    drift: list[str] = []

    def compare(i, dt, out):
        times.append(dt)
        if digest(out) != first_digest[i]:
            drift.append(queries[i][0])

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(pt)
        for i, (label, fn) in enumerate(queries):
            queries[i] = (label, _in_query(tracer, i, fn))
        while len(round_time) == 1 or sum(round_wall[1:]) < args.seconds:
            timed_round(compare)
            if len(round_time) == 2:
                first_round_spans = len(tracer.fn)
        tracer.uninstall()
        traced = round_time[1:]
        rounds = len(traced)
    else:
        while sum(round_wall) < args.seconds:
            timed_round(compare)
        rounds = len(round_time)
    steal1 = steal_share()
    steal = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])

    failed = rnd.failed * rounds
    attempted = rnd.ops * rounds
    correct = not drift
    if drift:
        sys.stderr.write(f"error: output changed between rounds: {drift[:3]}\n")

    print(f"workload {wl.name}  seed {args.seed}  rounds {rounds}  "
          f"queries/round {len(queries)}  trace {args.trace}")
    print(f"operations: attempted {attempted}  failed {failed}  "
          f"(per round {rnd.ops} / {rnd.failed})")
    for prob in rnd.problems:
        print(f"  FAILED {prob}")
    if args.trace:
        overhead = 100.0 * (statistics.median(traced) / round_time[0] - 1.0)
        summary = tracer.summary()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{wl.name}-{args.seed}.npz", first_round_spans)
        metrics = per_layer(summary, rounds, rnd, overhead)
        print(f"traced round {statistics.median(traced):.3f} CPU s, untraced {round_time[0]:.3f} CPU s, "
              f"spans/round {summary['spans'] // rounds}, host steal {100 * steal:.0f}%")
    else:
        verified_name, verified_unit = (("lines_per_s", "lines/s") if wl.name == "stokes"
                                        else ("eigs_per_s", "eigenvalues/s"))
        # Median round: one slow stretch of a shared machine moves it less.
        # Reference seconds: CPU seconds over the run's calibration speed.
        speed = calib.speed()
        setup_ref = statistics.median(setup) / (statistics.median(setup_cal) / CALIB_REF_S)
        rate = rnd.verified / (statistics.median(round_time) / speed)
        p50 = statistics.median(times) / speed
        t = tail(times)
        print(f"  times are reference seconds: CPU seconds of this process over {speed:.3f}, the median "
              f"of {len(calib.samples)} calibration loops over {CALIB_REF_S} s")
        print(f"  queries took {sum(round_time):.2f} CPU s in {sum(round_wall):.2f} s wall, "
              f"host steal {100 * steal:.0f}%")
        print(f"  setup_s          {setup_ref:.4f} s      (median of {len(setup)} fresh processes)")
        print(f"  {verified_name:16s} {rate:.4f} {verified_unit}  ({rnd.verified} verified per round, "
              f"median of {rounds} rounds)")
        print(f"  query_p50_s      {p50:.4f} s      ({len(times)} queries)")
        print("  query_tail_s     " + (f"{t[1] / speed:.4f} s      (p{t[0]:.1f} of {len(times)} queries)"
                                       if t else f"n/a            (only {len(times)} queries; needs 40)"))
        print(f"  peak_rss_mb      {rss_mb:.1f} MB")
        metrics = {
            "setup_s": (setup_ref, "s"),
            "verified_per_ref_s": (rate, "1/s"),
            "query_p50_ref_s": (p50, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}))
    return 0


def _in_query(tracer, i, fn):
    def run():
        tracer.current_query = i
        return fn()
    return run


def run_all(args) -> int:
    """Each workload in its own process, then one summary line per metric."""
    from workloads import WORKLOADS
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct &= res["correct"]
        for k, v in res["metrics"].items():
            combined[f"{name}.{k}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main() -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe_setup:
        WORKLOADS[args.workload](args.seed).queries(import_ptspec())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
