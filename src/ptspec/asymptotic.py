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
work on an overflow-safe rescaling of these conditions; lowest_branch_path
continues a real branch in p, and broken_complex_roots collects the
conjugate pairs that merged branches leave in the complex plane.
"""

import cmath
import math
from dataclasses import dataclass

from .action import (action_scale, action_to_turning_points, quartic_action,
                     quartic_critical_a, action_between,
                     _quartic_end_action)
from .geometry import ModelSpec
from .special import gamma_real, principal_power, recip_gamma

__all__ = [
    "EigRecord",
    "SolveError",
    "corrected_condition",
    "count_real_roots",
    "delta_estimate",
    "eps_to_E",
    "E_to_eps",
    "lowest_branch_path",
    "quartic_closeoff",
    "quartic_condition",
    "solve_condition",
    "solve_quartic",
    "switched_terms",
    "broken_complex_roots",
    "wkb_condition",
    "wkb_eigenvalue",
]


class SolveError(RuntimeError):
    """Root search failed to converge."""


@dataclass
class EigRecord:
    """One eigenvalue observation.

    n is the mode index (ladder position for asymptotic roots, scan order
    for numeric ones), param the family parameter (p or the quartic
    coupling), method one of "wkb" / "full" / "numeric", residual the
    absolute value of the (rescaled) condition or Wronskian at the root.
    """

    n: int
    param: float
    eps: complex
    E: complex
    method: str
    residual: float


def eps_to_E(eps: complex, p: float) -> complex:
    """E = eps**(-2p/(p+2)) on the principal branch."""
    return principal_power(eps, -2.0 * p / (p + 2.0))


def E_to_eps(E: complex, p: float) -> complex:
    """eps = E**(-(p+2)/(2p)) on the principal branch."""
    return principal_power(E, -(p + 2.0) / (2.0 * p))


def wkb_eigenvalue(n: int, p: float) -> float:
    """Closed-form large-n eigenvalue of the classical WKB quantisation.

    E_n = [sqrt(pi) (n + 1/2) Gamma(3/2 + 1/p) / (Gamma(1 + 1/p)
    sin(pi/p))]^(2p/(p+2)); collapses to the harmonic ladder 2n + 1 at
    p = 2.  Diverges at p = 1 where sin(pi/p) vanishes.
    """
    if n < 0:
        raise ValueError("mode index must be >= 0")
    if p == 1.0:
        raise ValueError("closed-form eigenvalue has a pole at p = 1")
    rp = 1.0 / p
    base = (math.sqrt(math.pi) * (n + 0.5) * gamma_real(1.5 + rp)
            / (gamma_real(1.0 + rp) * math.sin(math.pi / p)))
    return base ** (2.0 * p / (p + 2.0))


def _condition_parts(eps: complex, p: float) -> tuple[complex, complex, complex]:
    """X, Y, T2 with the condition written as 2i [exp(X) cos(Y) - T2]."""
    r = action_scale(p)
    x = 2.0 * r * math.cos(math.pi / p) / eps
    y = 2.0 * r * math.sin(math.pi / p) / eps
    t2 = math.pi * principal_power(eps, p) * recip_gamma(-p) / 2.0 ** (p + 2.0)
    return x, y, t2


def wkb_condition(eps: complex, p: float) -> complex:
    """The classical two-exponential solvability condition (unscaled)."""
    x, y, _ = _condition_parts(eps, p)
    return 2j * cmath.exp(x) * cmath.cos(y)


def corrected_condition(eps: complex, p: float) -> complex:
    """WKB condition plus the branch-point correction term (unscaled).

    Identical to wkb_condition at integer p, where 1/Gamma(-p) = 0.
    """
    x, y, t2 = _condition_parts(eps, p)
    return 2j * (cmath.exp(x) * cmath.cos(y) - t2)


def _scaled_condition(eps: complex, p: float, condition: str) -> complex:
    """Condition divided by its dominant term magnitude; overflow-safe.

    Roots are unchanged; the returned value is O(1) near a root, so the
    solver tolerance 1e-12 is meaningful for every (eps, p).
    """
    x, y, t2 = _condition_parts(eps, p)
    if condition == "wkb" or t2 == 0:
        return cmath.cos(y)
    l2 = math.log(abs(t2))
    if x.real >= l2:
        return cmath.cos(y) - t2 * cmath.exp(-x)
    return cmath.cos(y) * cmath.exp(x - l2) - t2 / abs(t2)


class _RealStall(SolveError):
    """A descending real search stalled at x, where |f| = |g| > 0 is a local minimum."""

    def __init__(self, x: float, g: float):
        super().__init__(f"real search stalled at {x!r} with |f| = {abs(g):.3g}")
        self.x = x
        self.g = g


def _descend(f, x: float, g: float, step: float, max_halvings: int) -> tuple[float, float]:
    """x + step, halved until |f| drops below |g|; _RealStall if it never does."""
    for _ in range(max_halvings + 1):
        xt = x + step
        if xt > 0 and math.isfinite(xt):
            try:
                gt = f(xt)
            except (OverflowError, ValueError):
                gt = math.inf
            if abs(gt) < abs(g):
                return xt, gt
        step *= 0.5
    raise _RealStall(x, g)


def _newton_real(f, x0: float, max_halvings: int | None = None) -> tuple[float, float]:
    """Newton on the positive real axis with a central-difference slope.

    Runs until |f| <= 1e-12, for at most 100 iterations.  Every step is
    taken as it comes (capped at half of x) unless max_halvings is given;
    then the search is a descent on |f|, halving each step at most that
    many times until it lowers |f|, and raising _RealStall where it cannot.
    """
    x, g = x0, None
    for _ in range(100):
        if g is None:
            try:
                g = f(x)
            except (OverflowError, ValueError):
                raise SolveError("condition overflowed during real Newton")
        if abs(g) <= 1e-12:
            return x, abs(g)
        h = 1e-7 * abs(x)
        dg = (f(x + h) - f(x - h)) / (2.0 * h)
        if dg == 0 or not math.isfinite(abs(dg)):
            raise SolveError("flat condition in real Newton")
        step = -g / dg
        if abs(step) > 0.5 * abs(x):
            step = math.copysign(0.5 * abs(x), step)
        if max_halvings is not None:
            x, g = _descend(f, x, g, step, max_halvings)
            continue
        x, g = x + step, None
        if x <= 0 or not math.isfinite(x):
            raise SolveError("real Newton left the positive axis")
    raise SolveError("real Newton did not converge")


def _newton_complex(f, z0: complex) -> tuple[complex, float]:
    """Complex Newton to |f| <= 1e-12 in at most 200 iterations."""
    z = z0
    for _ in range(200):
        try:
            g = f(z)
        except (OverflowError, ValueError):
            raise SolveError("condition overflowed during complex Newton")
        if abs(g) <= 1e-12:
            return z, abs(g)
        h = 1e-7 * max(abs(z), 1e-12)
        dg = (f(z + h) - f(z - h)) / (2.0 * h)
        if dg == 0 or not cmath.isfinite(dg):
            raise SolveError("flat condition in complex Newton")
        step = -g / dg
        if abs(step) > 0.5 * abs(z):
            step *= 0.5 * abs(z) / abs(step)
        z += step
        if not cmath.isfinite(z) or abs(z) == 0:
            raise SolveError("complex Newton diverged")
    raise SolveError("complex Newton did not converge")


def _fold_seed(f, x: float, g: float) -> complex:
    """Complex root of the quadratic model of real f about a minimum of |f| at x.

    f(x + d) ~ g + f''(x) d^2 / 2 vanishes at d = +- i sqrt(2 |g / f''|) when
    g and f'' share a sign, as they do where two real roots have merged.
    """
    h = 1e-3 * x
    d2 = (f(x + h) - 2.0 * g + f(x - h)) / (h * h)
    if d2 == 0 or not math.isfinite(d2):
        return complex(x, 0.05 * x)
    return complex(x, math.sqrt(2.0 * abs(g / d2)))


def _seeded_root(f, seed: complex, max_halvings: int | None = None) -> tuple[complex, float]:
    """Root of the scaled condition f near seed, and |f| there.

    A complex seed goes straight to complex Newton.  A real seed tries the
    real axis first (a descent on |f| if max_halvings is given); where that
    fails the root has left the axis, and complex Newton starts from the
    fold model at the stall point, else from seed (1 + 0.05i).
    """
    seed = complex(seed)
    if abs(seed.imag) >= 1e-14:
        return _newton_complex(f, seed)
    f_real = lambda e: f(e).real
    try:
        x, res = _newton_real(f_real, seed.real, max_halvings=max_halvings)
        return complex(x), res
    except _RealStall as stall:
        start = _fold_seed(f_real, stall.x, stall.g)
    except SolveError:
        start = seed * (1.0 + 0.05j)
    return _newton_complex(f, start)


def _power_phase(p: float) -> float:
    """eps times the cosine argument of the power-law conditions, 2 R sin(pi/p)."""
    return 2.0 * action_scale(p) * math.sin(math.pi / p)


def _quartic_phase(a: complex) -> float:
    """eps times the quartic cosine argument, 2 U(|a|), with |a| capped at 4."""
    return 2.0 * quartic_action(min(abs(a), 4.0)).real


def cosine_seed(n: int, p: float) -> float:
    """Leading-order root: 2 R sin(pi/p)/eps = (n + 1/2) pi."""
    return _power_phase(p) / ((n + 0.5) * math.pi)


def _mode_index(eps: complex, model: ModelSpec) -> int:
    """Ladder index n: the seed rule 2U/|eps| = (n + 1/2) pi solved for n."""
    if model.family == "power":
        y = _power_phase(model.p) / abs(eps)
    else:
        y = _quartic_phase(model.a * eps) / abs(eps)
    return max(0, round(y / math.pi - 0.5))


def solve_condition(n: int, p: float, condition: str = "full",
                    seed: complex | None = None) -> EigRecord:
    """Root of the chosen eigenvalue condition for mode n.

    Seeds from the cosine-zero rule unless given, runs Newton on the real
    axis first and falls back to complex Newton when the real search
    diverges (the root has left the axis in the broken region).
    """
    if condition not in ("wkb", "full"):
        raise ValueError("condition must be 'wkb' or 'full'")
    if seed is None:
        seed = cosine_seed(n, p)
    eps, res = _seeded_root(lambda e: _scaled_condition(e, p, condition), seed)
    return EigRecord(n=n, param=p, eps=eps, E=eps_to_E(eps, p),
                     method=condition, residual=res)


def count_real_roots(p: float, e_max: float) -> list[float]:
    """Real eigenvalues E <= e_max of the corrected condition, deduplicated.

    Seeds every ladder index whose classical eigenvalue could fall below
    e_max and keeps the converged real roots.  In the broken region the
    high seeds fail or wander off-axis and are dropped, so the returned
    list is finite and shrinks as p decreases.
    """
    n_cap = 3
    while wkb_eigenvalue(n_cap, p) < 1.6 * e_max + 10 and n_cap < 400:
        n_cap += 1
    eps_found: list[float] = []
    for n in range(n_cap + 1):
        try:
            x, _ = _newton_real(
                lambda e: _scaled_condition(e, p, "full").real, cosine_seed(n, p))
        except SolveError:
            continue
        if any(abs(x - u) < 1e-9 * max(1.0, abs(u)) for u in eps_found):
            continue
        eps_found.append(x)
    energies = sorted(eps_to_E(e, p).real for e in eps_found)
    return [e for e in energies if e <= e_max * (1.0 + 1e-12)]


def broken_complex_roots(p: float, max_roots: int = 4) -> list[complex]:
    """Complex eps roots of the corrected condition from merged ladder seeds.

    Walks the ladder seeds n = 0..60 upward and keeps the solve_condition
    roots that lie off the real axis (indices whose real root has merged
    away).  Stops after max_roots distinct roots (normalised to the upper
    half plane).
    """
    roots: list[complex] = []
    for n in range(61):
        try:
            z = solve_condition(n, p, "full").eps
        except SolveError:
            continue
        if abs(z.imag) < 1e-10 * abs(z):
            continue
        if z.imag < 0:
            z = z.conjugate()
        if all(abs(z - u) > 1e-8 * max(1.0, abs(u)) for u in roots):
            roots.append(z)
        if len(roots) >= max_roots:
            break
    return roots


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
        if abs(rec.eps.imag) > 1e-10 * abs(rec.eps):
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

    Evaluated at the scaled coupling a = A * eps.  For real eps this is
    2 exp(2V/eps) cos(2U/eps) + 1 rescaled by its dominant term; for complex
    eps the two turning-point actions are continued analytically in a.
    """
    a = A * eps
    if abs(complex(eps).imag) < 1e-14 and abs(complex(a).imag) < 1e-14:
        w = quartic_action(complex(a).real)
        u, v = w.real, w.imag
        e = complex(eps).real
        big = 2.0 * v / e
        if big >= 0:
            return cmath.cos(2.0 * u / e) + 0.5 * math.exp(-big)
        return cmath.cos(2.0 * u / e) * math.exp(big) + 0.5
    w_a = quartic_action(a)            # -phi(z_A)
    w_b = (-w_a.conjugate() if abs(complex(a).imag) < 1e-14
           else _quartic_end_action(a, "z_b"))
    t1 = 2j * w_a / eps                # 2i phi(z_A)/eps with phi_A = -w_a
    t2 = 2j * w_b / eps
    terms = (cmath.exp(-t1), cmath.exp(-t2), 1.0 + 0j)
    scale = max(abs(t) for t in terms)
    return sum(terms) / scale


def solve_quartic(n: int, A: float, seed: complex | None = None) -> EigRecord:
    """Root of the quartic condition for mode n at physical coupling A.

    Unless a seed is given, the seed is iterated from the half-integer rule
    2U(A eps)/eps = (n + 1/2) pi, the rule _mode_index inverts.  The real
    search is a Newton descent on |f| (see _seeded_root).  At a fold, where
    the root has merged with its neighbour and left the real axis, the
    search stalls at the local minimum of |f| between the two vanished
    roots instead of jumping to a root of another mode; complex Newton then
    starts from the quadratic model of f at that point, and the record
    holds one member of the conjugate pair.
    """
    if seed is None:
        seed = 0.0  # the first pass is the rule at a = 0
        for _ in range(7):
            seed = _quartic_phase(A * seed) / ((n + 0.5) * math.pi)
    eps, res = _seeded_root(lambda e: quartic_condition(e, A), seed, max_halvings=4)
    return EigRecord(n=n, param=A, eps=eps, E=principal_power(eps, -4.0 / 3.0),
                     method="full", residual=res)


def quartic_closeoff(A: float) -> float:
    """Close-off eigenvalue estimate (A / a*)^(4/3) for coupling A > 0."""
    if A <= 0:
        raise ValueError("A must be positive")
    return (A / quartic_critical_a()) ** (4.0 / 3.0)
