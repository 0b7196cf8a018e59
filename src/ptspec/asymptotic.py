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
work on an overflow-safe rescaling of these conditions.  condition_spectrum
lists each root below an energy once, real roots and the conjugate pairs
merged branches leave in the complex plane alike; lowest_branch_path
continues a real branch in p.
"""

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .action import (action_scale, action_to_turning_points, quartic_action,
                     quartic_critical_a, action_between,
                     _quartic_end_action)
from .geometry import ModelSpec
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
    real roots by E), param the family parameter (p or the quartic
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
    base = (math.sqrt(math.pi) * (n + 0.5) * math.gamma(1.5 + rp)
            / (math.gamma(1.0 + rp) * math.sin(math.pi / p)))
    return base ** (2.0 * p / (p + 2.0))


@lru_cache(maxsize=256)
def _p_constants(p: float) -> tuple[float, float, float, float]:
    """The factors of _condition_parts that depend on p alone."""
    r = action_scale(p)
    return (2.0 * r * math.cos(math.pi / p), 2.0 * r * math.sin(math.pi / p),
            recip_gamma(-p), 2.0 ** (p + 2.0))


def _condition_parts(eps: complex, p: float) -> tuple[complex, complex, complex]:
    """X, Y, T2 with the condition written as 2i [exp(X) cos(Y) - T2]."""
    x_num, y_num, rg, t2_den = _p_constants(p)
    x = x_num / eps
    y = y_num / eps
    t2 = math.pi * principal_power(eps, p) * rg / t2_den
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


def _descend(f, x: float, g: float, step: float, max_halvings: int) -> tuple[float, float]:
    """x + step, halved until |f| drops below |g|; SolveError if it never does."""
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
    raise SolveError(f"real search stalled at {x!r} with |f| = {abs(g):.3g}")


def _newton_complex(f, z0: complex, max_halvings: int | None = None) -> tuple[complex, float]:
    """Newton to |f| <= 1e-12 in at most 100 iterations, central-difference slope.

    Every step is capped at half of |z|, so a real f from a real seed keeps
    every iterate on the positive real axis: the one search finds the real
    and the complex roots.  Steps are taken as they come unless max_halvings
    is given (real seeds only); then the search is a descent on |f|, halving
    each step at most that many times until it lowers |f|, and raising
    SolveError where it cannot (_seeded_root then restarts off the axis).
    """
    z, g = z0, None
    for _ in range(100):
        if g is None:
            try:
                g = f(z)
            except (OverflowError, ValueError):
                raise SolveError("condition overflowed during Newton")
        if abs(g) <= 1e-12:
            return z, abs(g)
        h = 1e-7 * max(abs(z), 1e-12)
        dg = (f(z + h) - f(z - h)) / (2.0 * h)
        if dg == 0 or not cmath.isfinite(dg):
            raise SolveError("flat condition in Newton")
        step = -g / dg
        if abs(step) > 0.5 * abs(z):
            step *= 0.5 * abs(z) / abs(step)
        if max_halvings is not None:
            z, g = _descend(f, z, g, step, max_halvings)
            continue
        z, g = z + step, None
        if not cmath.isfinite(z) or abs(z) == 0:
            raise SolveError("Newton diverged")
    raise SolveError("Newton did not converge")


def _seeded_root(f, seed: complex, max_halvings: int | None = None) -> tuple[complex, float]:
    """Root of the scaled condition f near seed, and |f| there.

    A complex seed goes straight to Newton on f.  A real seed first runs
    the same Newton on the real part of f, which stays on the real axis (a
    descent on |f| if max_halvings is given); where that fails the root has
    left the axis, and Newton on f restarts from seed (1 + 0.05i).
    """
    seed = complex(seed)
    if abs(seed.imag) >= 1e-14:
        return _newton_complex(f, seed)
    try:
        x, res = _newton_complex(lambda e: f(e).real, seed.real, max_halvings)
        return complex(x), res
    except SolveError:
        return _newton_complex(f, seed * (1.0 + 0.05j))


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

    Seeds from the cosine-zero rule unless given.  Newton runs on the real
    part of the condition first, which keeps it on the real axis, and
    restarts from a complex point when that search fails (the root has left
    the axis in the broken region); see _seeded_root.
    """
    if condition not in ("wkb", "full"):
        raise ValueError("condition must be 'wkb' or 'full'")
    if n < 0 or not p > 1.0:
        raise ValueError("solve_condition needs a mode index n >= 0 and p > 1")
    if seed is None:
        seed = cosine_seed(n, p)
    eps, res = _seeded_root(lambda e: _scaled_condition(e, p, condition), seed)
    return EigRecord(n=n, param=p, eps=eps, E=eps_to_E(eps, p),
                     method=condition, residual=res)


def _off_axis(eps: complex) -> bool:
    """Whether a condition root has left the real axis."""
    return abs(eps.imag) > 1e-10 * abs(eps)


def _same_root(a: complex, b: complex) -> bool:
    """The duplicate test for condition roots: eps equal to 1e-8 relative."""
    return abs(a - b) <= 1e-8 * max(abs(a), abs(b))


def condition_spectrum(model: ModelSpec, e_max: float,
                       condition: str = "full") -> list[EigRecord]:
    """Roots of the condition with Re E <= e_max, each once, ordered by n, Im E.

    Solves seeds n = 0, 1, ... (skipping a SolveError) through the first
    whose own energy, wkb_eigenvalue or the quartic seed's eps**(-4/3)
    (model.a is the physical coupling), reaches e_max.  A root reached from
    several seeds takes the seed nearest its _mode_index (the lower on a
    tie), any other its own; each complex root comes with its conjugate.
    """
    if model.family == "quartic" and condition != "full":
        raise ValueError("the quartic has only the full condition")
    solved, n, seed_e = [], 0, 0.0
    while seed_e < e_max:
        try:
            if model.family == "power":
                seed_e = wkb_eigenvalue(n, model.p)
                rec = solve_condition(n, model.p, condition)
            else:
                seed = _quartic_seed(n, model.a)
                seed_e = seed ** (-4.0 / 3.0)
                rec = solve_quartic(n, model.a, seed)
            if rec.E.real <= e_max * (1.0 + 1e-9):
                solved.append(rec)
        except SolveError:
            pass
        n += 1
    records = []
    for rec in solved:
        twins = [r for r in solved if _same_root(r.eps, rec.eps)]
        if twins[0] is rec:  # the first solve of this root
            m = _mode_index(rec.eps, model) if twins[1:] else rec.n
            records.append(min(twins, key=lambda r: (abs(r.n - m), r.n)))
    records += [replace(r, eps=r.eps.conjugate(), E=r.E.conjugate()) for r in records
                if _off_axis(r.eps)
                and not any(_same_root(r.eps.conjugate(), s.eps) for s in records)]
    return sorted(records, key=lambda r: (r.n, r.E.imag))


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
    a = A * eps, with w_A = U + iV = -phi(z_A), w_B = -phi(z_B), phi based
    at z_C, each term times exp(-m), m the largest real part of the three
    exponents, so nothing overflows: exp(2V/eps) cos(2U/eps) + 1/2 rescaled
    for real eps.  Complex a continues both actions analytically.
    """
    a = A * eps
    if abs(complex(a).imag) < 1e-14:
        w_a = quartic_action(complex(a).real)  # a real a hits the walk's memo
        w_b = -w_a.conjugate()
    else:
        w_a = quartic_action(a)
        w_b = _quartic_end_action(a, "z_b")
    exponents = (-2j * w_a / eps, -2j * w_b / eps, 0j)
    m = max(x.real for x in exponents)
    return sum(cmath.exp(x - m) for x in exponents) / 2


@lru_cache(maxsize=1)
def _quartic_phase_at_zero() -> float:
    return _quartic_phase(0.0)


def _quartic_seed(n: int, A: float) -> float:
    """eps of the rule 2U(A eps)/eps = (n + 1/2) pi (the one _mode_index
    inverts), iterated 7 times from a = 0, whose phase is computed once."""
    seed = _quartic_phase_at_zero() / ((n + 0.5) * math.pi)
    for _ in range(6):
        seed = _quartic_phase(A * seed) / ((n + 0.5) * math.pi)
    return seed


def solve_quartic(n: int, A: float, seed: complex | None = None) -> EigRecord:
    """Root of the quartic condition for mode n at physical coupling A.

    Seeds from _quartic_seed unless given.  The real search is a descent on
    |f|, so at a fold it stalls between the two merged roots rather than
    jump to another mode's root, and restarts off the axis from the seed
    (see _seeded_root); the record holds one member of the pair.
    """
    if n < 0:
        raise ValueError("mode index must be >= 0")
    if seed is None:
        seed = _quartic_seed(n, A)
    eps, res = _seeded_root(lambda e: quartic_condition(e, A), seed, max_halvings=4)
    return EigRecord(n=n, param=A, eps=eps, E=principal_power(eps, -4.0 / 3.0),
                     method="full", residual=res)


def quartic_closeoff(A: float) -> float:
    """Close-off eigenvalue estimate (A / a*)^(4/3) for coupling A > 0."""
    if A <= 0:
        raise ValueError("A must be positive")
    return (A / quartic_critical_a()) ** (4.0 / 3.0)
