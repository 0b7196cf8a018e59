"""Eigenvalue conditions and their root solvers.

Two conditions for the power-law family: the classical WKB solvability
condition

    2i exp[2 R cos(pi/p)/eps] cos[2 R sin(pi/p)/eps] = 0,

whose roots are the cosine zeros and reproduce the closed-form large-n
eigenvalues, and the corrected condition carrying the branch-point term

    ... - 2 pi i eps^p / (2^(p+2) Gamma(-p)) = 0,

which stays meaningful for 1 < p < 2 where the extra term takes over and
the real spectrum terminates.  The quartic oscillator gets the analogous
three-exponential condition 2 exp(2V/eps) cos(2U/eps) + 1 = 0.  Solvers
work on an overflow-safe rescaling of these conditions, each of which
gives its Newton slope from the work that gives its value, so a Newton
step costs one evaluation: the power law's in closed form, the quartic's
from its quadrature pass, as does the seed rule (_phase) that its seeds
solve by Newton (_seed).
condition_spectrum lists each root below an energy once, real roots and
the conjugate pairs merged branches leave in the complex plane alike;
quartic_spectra lists those of many couplings; lowest_branch_path
continues a real branch in p.

The root searches are generators (_newton_complex, the one set of Newton
rules, and _seeded_root, _seed, _phase, _quartic_condition around it):
each yields what it needs evaluated and is sent its value.  A search
ends where the condition is flat on the scale of |z|: after _FLAT_STEPS
steps in a row capped at half of |z|, or two capped steps in a row that
each leave |f| within _STALL_RTOL of the iterate before.  _drive runs
one search on one function, as every power-law solve and every single
solve runs.  A quartic search yields the couplings whose action pass it
needs, so _lockstep runs every mode of every coupling of a spectrum side
by side: one pass per round for all of them (_quartic_end_actions_batch),
each mode with the bits it has alone.
"""

import cmath
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, partial

from .action import (action_scale, action_to_turning_points,
                     quartic_critical_a, action_between,
                     _quartic_end_actions, _quartic_end_actions_batch)
from .geometry import ModelSpec, TraceError
from .special import principal_power, recip_gamma

__all__ = [
    "EigRecord",
    "SolveError",
    "corrected_condition",
    "delta_estimate",
    "eps_to_E",
    "E_to_eps",
    "lowest_branch_path",
    "quartic_closeoff",
    "quartic_condition",
    "quartic_spectra",
    "solve_condition",
    "solve_quartic",
    "switched_terms",
    "condition_spectrum",
    "wkb_condition",
    "wkb_eigenvalue",
]


class SolveError(RuntimeError):
    """Root search failed to converge."""


@dataclass
class EigRecord:
    """One eigenvalue observation.

    n is the mode label (a condition root's seed index, see
    condition_spectrum; _mode_index for find_eigen; scan_spectrum ranks its
    real roots by E), param the family parameter (ModelSpec.param: p, or
    the quartic's physical coupling, complex for a complex coupling),
    method one of "wkb" / "full" / "numeric", residual the absolute value
    of the (rescaled) condition or Wronskian at the root.
    """

    n: int
    param: float | complex
    eps: complex
    E: complex
    method: str
    residual: float


def eps_to_E(eps: complex, p: float) -> complex:
    """E = eps**(-2p/(p+2)) on the principal branch, p a ModelSpec.degree."""
    return principal_power(eps, -2.0 * p / (p + 2.0))


def E_to_eps(E: complex, p: float) -> complex:
    """eps = E**(-(p+2)/(2p)) on the principal branch, p a ModelSpec.degree."""
    return principal_power(E, -(p + 2.0) / (2.0 * p))


def _mode(n: int) -> int:
    """n as a mode index: an integer (numpy's too, via operator.index, else
    TypeError) >= 0 (else ValueError)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("mode index must be >= 0")
    return n


def wkb_eigenvalue(n: int, p: float) -> float:
    """Closed-form large-n eigenvalue of the classical WKB quantisation.

    E_n = [sqrt(pi) (n + 1/2) Gamma(3/2 + 1/p) / (Gamma(1 + 1/p)
    sin(pi/p))]^(2p/(p+2)); collapses to the harmonic ladder 2n + 1 at
    p = 2.  Diverges at p = 1 where sin(pi/p) vanishes; p <= 1 and a mode
    index that is no integer >= 0 raise (see _mode).
    """
    n = _mode(n)
    if not p > 1.0:  # the pole at p = 1, and no ladder below
        raise ValueError(f"closed-form eigenvalue needs p > 1, got {p}")
    rp = 1.0 / p
    base = (math.sqrt(math.pi) * (n + 0.5) * math.gamma(1.5 + rp)
            / (math.gamma(1.0 + rp) * math.sin(math.pi / p)))
    return base ** (2.0 * p / (p + 2.0))


@lru_cache(maxsize=256)
def _condition_parts(p: float):
    """(x_num, y_num, t2) with p's factors bound: the condition is 2i
    [exp(X) cos(Y) - T2] at X = x_num / eps, Y = y_num / eps, T2 = t2(eps)."""
    r, pi, clog, cexp = action_scale(p), math.pi, cmath.log, cmath.exp
    rg, t2_den = recip_gamma(-p), 2.0 ** (p + 2.0)
    # eps**p as principal_power takes it
    return (2.0 * r * math.cos(pi / p), 2.0 * r * math.sin(pi / p),
            lambda eps: pi * cexp(p * clog(eps)) * rg / t2_den)


def wkb_condition(eps: complex, p: float) -> complex:
    """The classical two-exponential solvability condition (unscaled)."""
    x_num, y_num, _ = _condition_parts(p)
    return 2j * cmath.exp(x_num / eps) * cmath.cos(y_num / eps)


def corrected_condition(eps: complex, p: float) -> complex:
    """WKB condition plus the branch-point correction term (unscaled).

    Identical to wkb_condition at integer p, where 1/Gamma(-p) = 0.
    """
    x_num, y_num, t2 = _condition_parts(p)
    x, y = x_num / eps, y_num / eps  # eps = 0 fails here, before t2
    return 2j * (cmath.exp(x) * cmath.cos(y) - t2(eps))


def _scaled_condition(p: float, condition: str):
    """eps -> (value, slope): the condition divided by its dominant term
    magnitude, overflow-safe, and its derivative along real eps.  Roots are
    unchanged; the value is O(1) near a root, so the solver tolerance 1e-12
    is meaningful for every (eps, p).

    The slope is closed-form, from dX/deps = -X/eps, dY/deps = -Y/eps and
    d log T2/deps = p/eps.  Where the scale is |T2|, neither its log l2 =
    Re log T2 nor the unit factor T2/|T2| is holomorphic: along real eps
    they take the derivatives Re(p/eps) and i Im(p/eps) T2/|T2|.  The wkb
    condition computes no T2 at all.
    """
    x_num, y_num, t2_of = _condition_parts(p)
    wkb, cos, sin, exp = condition == "wkb", cmath.cos, cmath.sin, cmath.exp

    def scaled(eps):
        x, y = x_num / eps, y_num / eps
        t2 = 0 if wkb else t2_of(eps)
        c, dc = cos(y), sin(y) * (y / eps)
        if t2 == 0:
            return c, dc
        dl, l2 = p / eps, math.log(abs(t2))
        if x.real >= l2:
            e = t2 * exp(-x)
            return c - e, dc - e * (dl + x / eps)
        s, u = exp(x - l2), t2 / abs(t2)
        return c * s - u, (dc - c * (x / eps + dl.real)) * s - 1j * dl.imag * u

    return scaled


#: Halvings of a descending Newton step before the descent gives up.
_DESCENT_HALVINGS = 4


#: Consecutive steps capped at half of |z| after which Newton gives up: the
#: condition is flat on the scale of |z|.  Of 31,589 converging searches
#: on central-difference slopes (the README bifurcation wkb,full and
#: quartic sweeps, quartic 3.5:6 and 0:6 --emax 30, bifurcation 1.01:2.5
#: --step 0.01 --emax 40, and the perfbench conditions rounds of seeds
#: 1-11) none took more than 9 capped steps in a row: 9 and 8 only in the
#: step-0.01 sweep, at most 7 elsewhere (at the seeds of n = 3, p = 1.5
#: and n = 10, p = 1.6).  The 1,406 quartic searches among them, on the
#: condition's own slope, take at most 4.  On the closed-form slope the
#: converging searches of the step-0.01 sweep take at most 12 (real) and
#: 9 (complex).  Beside the _STALL_RTOL rule this stop still pays: without
#: it a warm perfbench conditions round (seed 1) spends 3,232 rather than
#: 2,536 evaluations in failing searches, and 5 searches rather than 4 run
#: all 100 iterations.
_FLAT_STEPS = 15


#: How little |f| may move, relative, in a capped Newton step for the step
#: to count as stalled; two stalled steps in a row end the search, the
#: condition being flat on the scale of |z|.  The off-axis searches that
#: cannot converge cycle z <-> ~conj z with every step capped and |f| =
#: 1 +- 2e-8; real searches cross stretches where |Re f| = 1 to rounding
#: (exp(X) underflows against |T2|), which central differences read as a
#: zero slope.  On the p = 1.01..2.49 step-0.01 grid (e_max 40, both
#: conditions) with this rule off, of 8,943 searches no converging complex
#: one (650) took a stalled step; 1,030 of the 1,165 failing ones did, 810
#: of them 14 in a row until _FLAT_STEPS; 39 of the 5,313 converging real
#: searches did (up to 9 in a row), escaping the flat stretch to whichever
#: real root the capped steps reach.  With the rule the grid takes 41,458
#: evaluations instead of 69,143, and 5,282 real searches converge (5,274
#: on central differences).
_STALL_RTOL = 1e-6


def _newton_complex(z0: complex, descend: bool = False):
    """Newton to |f| <= 1e-12 in at most 100 iterations, as a generator.

    The search yields each point z where it needs the condition f and is
    sent f(z) = (value, slope), the slope being the derivative along real
    z (which a holomorphic f shares with every direction), or has the
    exception f(z) raised thrown in at that yield; it returns (root, |f|)
    or raises SolveError.  _drive runs it on one f, _lockstep runs the
    searches of a quartic spectrum side by side (through _answered).  One
    evaluation per step: each condition gives its slope from the work that
    gives its value.

    From a real z0 (a float) the search zeroes the real part of f, which it
    takes from each value sent; every step is capped at half of |z|, so
    every iterate stays on the positive real axis: the one search finds the
    real and the complex roots.  Two rules end a search where the condition
    is flat on the scale of |z|: _FLAT_STEPS capped steps in a row, or two
    capped steps in a row that each leave |f| within _STALL_RTOL of the
    iterate before.  Steps are taken as they come unless descend (real
    seeds only); then the search is a descent on |f|, halving each step at
    most _DESCENT_HALVINGS times until it lowers |f|, and raising
    SolveError where it cannot (_seeded_root then restarts off the axis); a
    point of the descent where f overflows or raises ValueError or
    TraceError counts as |f| = inf.  Each way of failing (f overflowing or
    raising ValueError or TraceError at an iterate, zero slope, flat
    condition, out of iterations, stalled descent) raises SolveError with
    its own message; any other exception of f passes through.
    """
    real = isinstance(z0, float)
    z, g, res, capped, stalled = z0, None, math.inf, 0, 0
    for _ in range(100):
        if g is None:
            try:
                g, dg = yield z
            except (OverflowError, ValueError):
                raise SolveError("condition overflowed during Newton")
            except TraceError as exc:
                raise SolveError(f"condition untraceable during Newton: {exc}")
            if real:
                g, dg = g.real, dg.real
        z_res, res_before, res = z, res, abs(g)
        if res <= 1e-12:
            return z, res
        flat = capped and abs(res - res_before) <= _STALL_RTOL * res_before
        stalled = stalled + 1 if flat else 0
        if stalled == 2:
            raise SolveError(f"condition flat on the scale of |z|: |f| = {res:.3g} moved by "
                             f"under {_STALL_RTOL:g} relative in 2 capped Newton steps in a "
                             f"row, at z = {z!r}")
        if dg == 0:
            raise SolveError(f"zero slope in Newton at z = {z!r}, |f| = {res:.3g}")
        if not cmath.isfinite(dg):
            raise SolveError(f"slope not finite in Newton at z = {z!r}")
        step = -g / dg
        if abs(step) > 0.5 * abs(z):
            step *= 0.5 * abs(z) / abs(step)
            capped += 1
            if capped == _FLAT_STEPS:
                raise SolveError(f"condition flat on the scale of |z|: {capped} capped "
                                 f"Newton steps in a row, at z = {z!r}, |f| = {res:.3g}")
        else:
            capped = 0
        if descend:
            for _ in range(_DESCENT_HALVINGS + 1):
                zt = z + step
                if zt > 0 and math.isfinite(zt):
                    try:
                        gt, dgt = yield zt
                        gt, dgt = gt.real, dgt.real
                    except (OverflowError, ValueError, TraceError):
                        gt = math.inf
                    if abs(gt) < abs(g):
                        z, g, dg = zt, gt, dgt
                        break
                step *= 0.5
            else:
                raise SolveError(f"real search stalled at {z!r} with |f| = {abs(g):.3g}")
            continue
        z, g = z + step, None
        if not cmath.isfinite(z) or abs(z) == 0:
            raise SolveError("Newton diverged")
    raise SolveError(f"Newton out of its 100 iterations, |f| = {res:.3g} at z = {z_res!r}")


def _drive(search, answer):
    """Run the generator search alone to its return value, sending it
    answer(x) for each x it yields; an exception of answer is thrown into
    the search at that yield."""
    try:
        x = next(search)
        while True:
            try:
                value = answer(x)
            except Exception as exc:
                x = search.throw(exc)
            else:
                x = search.send(value)
    except StopIteration as stop:
        return stop.value


def _answered(search, answer):
    """search with each point it yields answered by the generator answer(z),
    whose own yields pass out (_drive for generators: a quartic search
    answered by _quartic_condition, so that its lane yields couplings)."""
    try:
        z = next(search)
        while True:
            try:
                value = yield from answer(z)
            except Exception as exc:
                z = search.throw(exc)
            else:
                z = search.send(value)
    except StopIteration as stop:
        return stop.value


def _lockstep(lanes) -> list:
    """Run quartic lanes side by side; each lane's return value or exception.

    A lane is a generator that yields a coupling a and is sent
    _quartic_end_actions(a), or has its exception thrown in.  Each round
    takes the couplings that every unfinished lane asks for through one
    _quartic_end_actions_batch, whose values carry the bits of single
    calls, so each lane ends as _drive(lane, _quartic_end_actions) would.
    """
    outcomes, asked = [None] * len(lanes), {}

    def resume(i, step, value):
        try:
            asked[i] = step(value)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as exc:  # this lane's failure alone
            outcomes[i] = exc

    for i, lane in enumerate(lanes):
        resume(i, lane.send, None)
    while asked:
        round_ = list(asked.items())
        asked.clear()
        for (i, _), ends in zip(round_, _quartic_end_actions_batch([a for _, a in round_])):
            lane = lanes[i]
            resume(i, lane.throw if isinstance(ends, Exception) else lane.send, ends)
    return outcomes


def _seeded_root(seed: complex, descend: bool = False):
    """Root of the scaled condition near seed, and |f| there: a generator of
    the points where it needs f, as _newton_complex.

    A complex seed goes straight to Newton on f.  A real seed first runs
    the same Newton on the real part of f, which stays on the real axis (a
    descent on |f| if descend); where that fails the root has left the
    axis, and Newton on f restarts from seed (1 + 0.05i).
    """
    seed = complex(seed)
    if abs(seed.imag) >= 1e-14:
        return (yield from _newton_complex(seed))
    try:
        x, res = yield from _newton_complex(seed.real, descend)
        return complex(x), res
    except SolveError:
        return (yield from _newton_complex(seed * (1.0 + 0.05j)))


def _phase(model: ModelSpec, eps: complex):
    """eps times the cosine argument of the family's condition, the seed
    rule's phase, and its slope in |eps|: 2 R sin(pi/p) and 0, or, from one
    pass, 2 U(a) and 2 |A| U'(a) at a = |A eps| capped at 4 (slope 0 there).
    A generator: a quartic at a > 0 yields a and is sent
    _quartic_end_actions(a); a constant phase (_constant_phase) yields
    nothing."""
    a = 0.0 if model.family == "power" else min(abs(model.at(eps).a), 4.0)
    if not a:
        return _constant_phase(model)
    w, dw = (yield a)[0]
    return 2.0 * w.real, 2.0 * abs(model.a) * dw.real if a < 4.0 else 0.0


def _constant_phase(model: ModelSpec) -> tuple[float, float]:
    """_phase where it needs no pass: the power law's, and the quartic's at
    a = 0, whose pass is cached."""
    if model.family == "power":
        return 2.0 * action_scale(model.p) * math.sin(math.pi / model.p), 0.0
    w, dw = _quartic_action_at_zero()
    return 2.0 * w.real, 2.0 * abs(model.a) * dw.real


@lru_cache(maxsize=1)
def _quartic_action_at_zero() -> tuple[complex, complex]:
    return _quartic_end_actions(0.0)[0]


def _seed(n: int, model: ModelSpec):
    """eps of the seed rule (n + 1/2) pi eps = _phase(model, eps): the root
    _phase(model, 0) / ((n + 1/2) pi) of a constant phase, else Newton from
    there to a step of <= 1e-14 relative (at most 8; 5 for A <= 8, n <=
    11).  A generator, as _phase: _drive(_seed(n, model),
    _quartic_end_actions) is the seed."""
    k = (n + 0.5) * math.pi
    seed = _constant_phase(model)[0] / k
    if model.a:  # a quartic's nonzero coupling; the power law has none
        for _ in range(8):
            phase, slope = yield from _phase(model, seed)
            step = (k * seed - phase) / (k - slope)
            seed -= step
            if abs(step) <= 1e-14 * seed:
                break
    return seed


def _mode_index(eps: complex, model: ModelSpec) -> int:
    """Ladder index n: the seed rule solved for n at eps."""
    phase = _drive(_phase(model, eps), _quartic_end_actions)[0]
    return max(0, round(phase / abs(eps) / math.pi - 0.5))


def _solver(model: ModelSpec, condition: str = "full"):
    """(solve, search, record) for model's condition.

    solve(n, seed) is the EigRecord of mode n's root, seeded by _seed if
    seed is None.  search(seed) is that root search as a generator: for
    the power law it yields the points where it needs the scaled
    condition, for the quartic the couplings whose end actions it needs
    (_quartic_end_actions), so that _lockstep can run many side by side;
    it returns (eps, |f|), and record(n, root) makes mode n's EigRecord of
    it.  The one place where a condition route asks the model: which
    condition and slope, which real search (Newton; a descent for the
    quartic, see solve_quartic) and what it refuses, by ValueError before
    any seed.
    """
    if condition not in ("wkb", "full"):
        raise ValueError("condition must be 'wkb' or 'full'")
    if model.family == "power":
        if not model.p > 1.0:
            raise ValueError(f"the power-law conditions need p > 1, got {model.p}")
        search, refused = _seeded_root, None
        try:
            answer = _scaled_condition(model.p, condition)
        except OverflowError:  # 1/Gamma(-p) is no finite double: no root to seek
            refused = f"condition overflows at p = {model.p}"
    elif condition != "full":
        raise ValueError("the quartic has only the full condition")
    elif not model.pt_mirror or complex(model.a).real < 0:
        raise ValueError(f"the quartic condition needs a real coupling >= 0, got {model.a}")
    else:
        refused, answer = None, _quartic_end_actions

        def search(seed):
            return _answered(_seeded_root(seed, True), lambda e: _quartic_condition(e, model.a))

    def record(n: int, root: tuple[complex, float]) -> EigRecord:
        eps, res = root
        return EigRecord(n=n, param=model.param, eps=eps, E=eps_to_E(eps, model.degree),
                         method=condition, residual=res)

    def solve(n: int, seed: complex | None) -> EigRecord:
        n = _mode(n)
        if refused:
            raise SolveError(refused)
        if seed is None:
            seed = _drive(_seed(n, model), _quartic_end_actions)
        return record(n, _drive(search(seed), answer))

    return solve, search, record


def solve_condition(n: int, p: float, condition: str = "full",
                    seed: complex | None = None) -> EigRecord:
    """Root of the chosen eigenvalue condition for mode n.

    Seeds from the cosine-zero rule unless given.  Newton runs on the real
    part of the condition first, which keeps it on the real axis, and
    restarts from a complex point when that search fails (the root has left
    the axis in the broken region); see _seeded_root.  p must be > 1 and n
    an integer >= 0 (ValueError, TypeError).
    """
    return _solver(ModelSpec.power_law(p), condition)[0](n, seed)


def _off_axis(eps: complex) -> bool:
    """Whether a condition root has left the real axis."""
    return abs(eps.imag) > 1e-10 * abs(eps)


def _same_root(a: complex, b: complex) -> bool:
    """The duplicate test for condition roots: eps equal to 1e-8 relative.
    Then |Re a - Re b| <= |a - b| <= 1e-8 (|a| + |a - b|), so
    |Re a - Re b| <= 1.00000001e-8 |a|: every b that passes lies in the
    window |Re a - Re b| <= 2.1e-8 |a| that _near_roots scans (2.1, not 1,
    so rounding in the window's ends cannot drop one)."""
    return abs(a - b) <= 1e-8 * max(abs(a), abs(b))


def _near_roots(roots: list[complex]):
    """near(z) -> the indices of roots, ascending, whose real part lies
    within 2.1e-8 |z| of z's: a superset of the i with _same_root(roots[i],
    z).  The roots are sorted by real part once, each query bisects."""
    order = sorted(range(len(roots)), key=lambda i: roots[i].real)
    reals = [roots[i].real for i in order]

    def near(z: complex) -> list[int]:
        w = 2.1e-8 * abs(z)
        return sorted(order[bisect_left(reals, z.real - w):bisect_right(reals, z.real + w)])

    return near


def _distinct(solved: list[EigRecord], model: ModelSpec) -> list[EigRecord]:
    """One record per root of solved (_same_root), in order of its first
    solve: of the records that reached it, the one nearest its _mode_index
    (the lower n on a tie), a root reached once its own; then the conjugate
    of each complex one whose conjugate is not among them."""
    near = _near_roots([r.eps for r in solved])
    records = []
    for rec in solved:
        twins = [solved[i] for i in near(rec.eps) if _same_root(solved[i].eps, rec.eps)]
        if twins[0] is rec:  # the first solve of this root
            m = _mode_index(rec.eps, model) if twins[1:] else rec.n
            records.append(min(twins, key=lambda r: (abs(r.n - m), r.n)))
    near = _near_roots([r.eps for r in records])
    return records + [replace(r, eps=r.eps.conjugate(), E=r.E.conjugate()) for r in records
                      if _off_axis(r.eps)
                      and not any(_same_root(r.eps.conjugate(), records[i].eps)
                                  for i in near(r.eps.conjugate()))]


def _check_e_max(e_max: float) -> None:
    if not (math.isfinite(e_max) and e_max > 0):
        raise ValueError(f"e_max must be finite and > 0, got {e_max}")


def _seeded(model: ModelSpec, e_max: float, seeds):
    """(n, seed) of each mode condition_spectrum solves, in order: n = 0,
    1, ... through the first whose own energy, eps_to_E of seeds(n), reaches
    e_max; a seed that raises SolveError is skipped."""
    n, seed_e = 0, 0.0
    while seed_e < e_max:
        try:
            seed = seeds(n)
            seed_e = eps_to_E(seed, model.degree).real
        except SolveError:
            pass
        else:
            yield n, seed
        n += 1


def _listed(model: ModelSpec, e_max: float, seeds, solves) -> list[EigRecord]:
    """condition_spectrum from seeds(n), the seed of mode n, and solves(n,
    seed), its record: both are called in the order a scalar run takes,
    seed n, then its solve, then seed n + 1, so the first exception that is
    no SolveError is the one that run raises."""
    solved = []
    for n, seed in _seeded(model, e_max, seeds):
        try:
            rec = solves(n, seed)
        except SolveError:
            continue
        if rec.E.real <= e_max * (1.0 + 1e-9):
            solved.append(rec)
    return sorted(_distinct(solved, model), key=lambda r: (r.n, r.E.imag))


def condition_spectrum(model: ModelSpec, e_max: float,
                       condition: str = "full") -> list[EigRecord]:
    """Roots of the condition with Re E <= e_max, each once, ordered by n, Im E.

    Solves seeds n = 0, 1, ... (skipping a SolveError) through the first
    whose own energy, eps_to_E of the seed (model.a is the quartic's
    physical coupling), reaches e_max.  A root reached from
    several seeds takes the seed nearest its _mode_index (the lower on a
    tie), any other its own; each complex root comes with its conjugate
    (_distinct).  Duplicates are found by sorting the roots on Re eps once
    and testing _same_root only inside each root's window of
    |Re eps - Re eps'| <= 2.1e-8 |eps| (bisected), so that scan grows as
    n log n in the roots, not n^2.  A quartic's modes are solved side by
    side (quartic_spectra of the one coupling), a power law's one by one.
    A model or condition that _solver refuses, and an e_max that is not
    finite and > 0, raise ValueError before the first seed.
    """
    _check_e_max(e_max)
    solve = _solver(model, condition)[0]
    if model.family == "quartic":
        return next(_quartic_spectra([model], e_max))
    return _listed(model, e_max, lambda n: _drive(_seed(n, model), _quartic_end_actions), solve)


def quartic_spectra(couplings, e_max: float):
    """condition_spectrum(ModelSpec.quartic(A), e_max) for each A of
    couplings, in order, as a generator; the whole grid is solved in
    lockstep before the first yield (_quartic_spectra).  Every coupling
    is checked first, as condition_spectrum checks it (ValueError); an
    exception that would stop condition_spectrum at a coupling is raised
    when the generator reaches it."""
    _check_e_max(e_max)
    models = [ModelSpec.quartic(A) for A in couplings]
    for model in models:
        _solver(model)
    return _quartic_spectra(models, e_max)


class _Unseeded(Exception):
    """A mode whose seed is not computed yet."""


def _taken(table, key):
    """table[key], raised if it is an exception; _Unseeded if it is missing."""
    if key not in table:
        raise _Unseeded
    out = table[key]
    if isinstance(out, Exception):
        raise out
    return out


def _quartic_spectra(models: list[ModelSpec], e_max: float):
    """Yield condition_spectrum(model, e_max) of each checked quartic model.

    Every mode of every model runs its seed (_seed) side by side in one
    _lockstep, for n up to the first whose constant-phase seed, an upper
    bound on its own, reaches e_max (more modes follow while a model's
    seeds fall short); then every mode that condition_spectrum would solve
    runs its root search (_solver's solve) in a second _lockstep.  Each
    model's list is _listed from those outcomes, in the order of a scalar
    run, so its records and its first error are that run's.
    """
    solvers = [_solver(model) for model in models]
    seeds = [{} for _ in models]
    wave = []
    for i, model in enumerate(models):
        phase = _constant_phase(model)[0]
        top = math.ceil(phase / (math.pi * E_to_eps(e_max, model.degree).real) - 0.5)
        wave += [(i, n) for n in range(max(top, 0) + 1)]
    while wave:
        for (i, n), out in zip(wave, _lockstep([_seed(n, models[i]) for i, n in wave])):
            seeds[i][n] = out
        wave, todo = [], []
        for i, model in enumerate(models):
            modes = []
            try:
                modes.extend(_seeded(model, e_max, partial(_taken, seeds[i])))
            except _Unseeded:
                wave += [(i, n) for n in range(len(seeds[i]), 2 * len(seeds[i]))]
            except Exception:  # _listed raises it in its turn
                pass
            todo += [(i, n, seed) for n, seed in modes]
    outcomes = _lockstep([solvers[i][1](seed) for i, _, seed in todo])
    roots = [{} for _ in models]
    for (i, n, _), out in zip(todo, outcomes):
        roots[i][n] = out
    for i, model in enumerate(models):
        record, table = solvers[i][2], roots[i]
        yield _listed(model, e_max, partial(_taken, seeds[i]),
                      lambda n, _: record(n, _taken(table, n)))


def lowest_branch_path(deltas: list[float], n: int = 0) -> list[EigRecord]:
    """Real roots of branch n of the corrected condition at p = 1 + delta.

    deltas must decrease.  The first root is seeded from the cosine rule,
    each later one from the previous root, so the branch can be followed
    far beyond where the cosine-rule seed overflows.  Stops at the first
    delta where the root search fails or the root has left the real axis.
    """
    records: list[EigRecord] = []
    seed: float | None = None
    for d in deltas:
        try:
            rec = solve_condition(n, 1.0 + d, "full", seed=seed)
        except SolveError:
            break
        if _off_axis(rec.eps):
            break
        seed = rec.eps.real
        records.append(rec)
    return records


def delta_estimate(E: float) -> float:
    """delta = (8 E^{3/2}/pi) exp(-(4/3) E^{3/2}).

    The p -> 1+ scaling law: the offset delta = p - 1 at which branches
    reach eigenvalue E before closing.
    """
    if E <= 0:
        raise ValueError("E must be positive")
    s = E ** 1.5
    return 8.0 * s / math.pi * math.exp(-4.0 * s / 3.0)


def switched_terms(z: complex, eps: complex, p: float) -> complex:
    """Sum of the three exponentials switched on along the continuation path.

    i e^{-chi_A/eps} + i e^{-chi_B/eps} + (2 pi i eps^p Lambda_0)
    e^{-chi_0/eps} with chi_* = 2i [phi(z) - phi(z_*)], action base at the
    origin.  The z-dependence is the common factor e^{-2i phi(z)/eps}, so at
    a root of the corrected condition the whole sum vanishes for every z.
    """
    model = ModelSpec.power_law(p)
    try:
        phi_z = action_between(0, z, model)
    except ValueError:
        phi_z = action_between(0, z, model, via=[-0.5j])
    phi_a, phi_b = action_to_turning_points(p)
    lam0 = -recip_gamma(-p) / 2.0 ** (p + 2.0)
    chi_a = 2j * (phi_z - phi_a)
    chi_b = 2j * (phi_z - phi_b)
    chi_0 = 2j * phi_z
    return (1j * cmath.exp(-chi_a / eps)
            + 1j * cmath.exp(-chi_b / eps)
            + 2j * math.pi * principal_power(eps, p) * lam0 * cmath.exp(-chi_0 / eps))


# --- quartic oscillator -----------------------------------------------------

def quartic_condition(eps: complex, A: float) -> complex:
    """Three-exponential eigenvalue condition of the quartic oscillator.

    (exp(-2i w_A/eps) + exp(-2i w_B/eps) + 1) / 2 at the scaled coupling
    a = A * eps (that of ModelSpec.quartic(A).at(eps)), with w_A = U + iV =
    -phi(z_A), w_B = -phi(z_B), phi based at z_C, each term times exp(-m),
    m the largest real part of the three exponents, so nothing overflows:
    exp(2V/eps) cos(2U/eps) + 1/2 rescaled for real eps.  Complex a
    continues both actions analytically.
    """
    return _drive(_quartic_condition(eps, A), _quartic_end_actions)[0]


def _quartic_condition(eps: complex, A: float):
    """quartic_condition at eps and its derivative along real eps, as a
    generator: it yields the coupling a = A eps and is sent
    _quartic_end_actions(a).

    Both come from one walk and one quadrature pass, which gives each action
    w with dw/da (action._quartic_end_actions, which mirrors w_A into w_B at
    real a).  The exponents X_k = -2i w_k/eps are holomorphic, with X_k' =
    -2i (A w_k' - w_k/eps)/eps, but the factor exp(-m) is not: m = Re X_j,
    j the largest, so along real eps, the direction of the central
    difference it replaces, the slope is sum_k exp(X_k - m) (X_k' - Re
    X_j') / 2.
    """
    a = A * eps
    if abs(complex(a).imag) < 1e-14:  # a real a hits the walk's memo
        a = complex(a).real
    ws, dws = zip(*(yield a))
    exponents = (*(-2j * w / eps for w in ws), 0j)
    m = max(x.real for x in exponents)
    terms = [cmath.exp(x - m) for x in exponents]
    value = sum(terms) / 2
    dx = (*(-2j * (A * dw - w / eps) / eps for w, dw in zip(ws, dws)), 0j)
    dm = max(zip(exponents, dx), key=lambda xd: xd[0].real)[1].real
    return value, sum(t * (d - dm) for t, d in zip(terms, dx)) / 2


def solve_quartic(n: int, A: float, seed: complex | None = None) -> EigRecord:
    """Root of the quartic condition for mode n at physical coupling A.

    Seeds from _seed unless given.  The real search is a descent on
    |f|, so at a fold it stalls between the two merged roots rather than
    jump to another mode's root, and restarts off the axis from the seed
    (see _seeded_root); the record holds one member of the pair.  A model
    without the PT mirror (complex A) raises ValueError: the real-axis
    search zeroes only the real part of the condition, which is a root
    only under the mirror.  So does a negative coupling of any numeric
    type: z -> -z maps the spectrum at A onto the one at -A, which the
    condition does not reproduce (at A = -1 its ground state read 0.93505,
    not 1.16243).
    """
    return _solver(ModelSpec.quartic(A))[0](n, seed)


def quartic_closeoff(A: float) -> float:
    """Close-off eigenvalue estimate (A / a*)^(4/3) for coupling A > 0."""
    if A <= 0:
        raise ValueError("A must be positive")
    return (A / quartic_critical_a()) ** (4.0 / 3.0)
