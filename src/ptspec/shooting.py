"""Numerical eigenvalues by ODE shooting along wedge-centred complex contours.

The eigenproblem -eps^2 f'' = q(z) f is integrated in (f, g) with
g = eps f' (which keeps both components O(1) in the semiclassical regime)
from far out in each decay wedge inward to a common match point.  The
initial state is the decaying WKB solution to first order in eps (the
Riccati correction -eps q'/(4q) included); its error, about eps^2 times
the next Riccati term, excites the inward-decaying partner, which is
suppressed exponentially by the time the rays reach the turning points.
Each ray starts at the smallest radius where that suppression takes the
partner below 2^-53 (see _start_radius), capped at ShootConfig.r_max.  An
eigenvalue is a zero of the normalized Wronskian of the two rays.

The model is PT-symmetric: at real E, conj f(-conj z) solves the equation
whenever f does.  The contour is its own mirror image (z_r = -conj z_l, the
match point on the imaginary axis), so at real E only the left ray is
integrated and the right one is its mirror; W is then exactly real and a
real secant stays on the axis.  Complex E, and a model without that
mirror (ModelSpec.pt_mirror: a quartic whose coupling is complex),
integrate both rays; W(conj E) = conj W(E) still holds exactly, so a
complex root is polished once and its conjugate taken.

The equation is linear and q is analytic along each ray, with Taylor
coefficients in closed form (ModelSpec.q_series), so the rays are stepped
by order-30 Taylor series: each step expands q once about its start, takes
the solution's coefficients from a recurrence and its length from the last
two of them, so no step is rejected (see integrate_ray).

The model holds the physical coupling; each eigenvalue E integrates the
equation at eps = E_to_eps(E, model.degree), model.at(eps).  scan_spectrum
seeds find_eigen from a Chebyshev collocation on the same rays.
"""

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import mul

import numpy as np

from .asymptotic import E_to_eps, EigRecord, _mode_index
from .geometry import ModelSpec, TraceError, wedge_angles

__all__ = [
    "ShootConfig",
    "ShootState",
    "ShootingError",
    "find_eigen",
    "integrate_ray",
    "mismatch",
    "scan_spectrum",
    "wkb_init",
]


class ShootingError(RuntimeError):
    """Integration or root search failed."""


@dataclass
class ShootState:
    """Solution sample (f, eps f') with its accumulated rescaling exponent."""

    f: complex
    df: complex
    log_scale: float = 0.0


@dataclass(frozen=True)
class ShootConfig:
    """Contour and integrator settings.

    r_max (finite, > 0) caps two radii and nothing else: each ray's start,
    chosen per eps from the decay the WKB start needs (_start_radius), so W
    does not depend on r_max unless it caps the start, and the collocation
    ray that seeds scan_spectrum.  rtol/atol are the per-step error targets
    of the Taylor stepper (finite, >= 0 and not both 0): each of the last
    two terms of a step's series, which bound its truncation error, stays
    within 1e-3 (atol + rtol max(|f|, |eps f'|)).  The match point is the
    constant _Z_MID, not a setting.  A ray that takes more than 150,000
    steps raises ShootingError.
    """

    r_max: float = 7.0
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be finite and > 0, got {self.r_max}")
        tols = (self.rtol, self.atol)
        if not all(math.isfinite(x) and x >= 0 for x in tols) or not any(tols):
            raise ValueError(f"rtol and atol must be finite, >= 0 and not both 0, "
                             f"got rtol={self.rtol}, atol={self.atol}")


# The power law's first match point; the quartic matches at z = 0.  It lies
# on the imaginary axis, the PT-symmetry axis, so that at real E the right
# ray is the mirror of the left one (see mismatch), and below 0: the rays
# end off that axis, so the contour meets it only at the match point and
# never crosses a fractional power's branch cut, the positive imaginary
# axis.  _contour moves it down the axis in steps of 0.15 while a ray would
# pass within _STANDOFF of a turning point (as the quartic's do at A = 0, on
# the real axis through -1 and 1) or of a fractional power's branch point.
_Z_MID = -0.5j
_STANDOFF = 0.05
# Taylor stepper of integrate_ray: the series order, the share of the
# per-step error target that each of the last two terms may take, the
# longest step as a share of the distance to a fractional power's branch
# point, the shortest step (of a segment), the step budget of one ray and
# the steps between the checks that the rate so far can still cover the
# segment within that budget.
_ORDER = 30
_TRUNCATION = 1e-3
_BRANCH_FRACTION = 0.5
_MIN_STEP = 1e-9
_MAX_STEPS = 150_000
_PROJECT_EVERY = 1024
# 1 / ((k + 1)(k + 2)), the factor of a_{k+2} in the coefficient recurrence
_INV_PAIRS = tuple(1.0 / ((k + 1) * (k + 2)) for k in range(_ORDER - 1))
# The longest series of q whose recurrence runs on a sliding window
# (_recurrence): the quartic's, and an integer p <= 4's.
_WINDOW = 5

# Decay, in e-folds, that takes the partner solution the WKB start excites
# below 2^-53, one rounding unit: a longer ray changes W only by rounding.
_LN_ULP = 53 * math.log(2.0)
# The four-point Gauss-Legendre rule on [0, 1] for the decay integral (on
# [-1, 1]: nodes +-sqrt(3/7 -+ (2/7) sqrt(6/5)), weights (18 +- sqrt(30))/36),
# and the most Newton steps that place a ray's start (see _start_radius).
_GAUSS_01 = tuple((0.5 + 0.5 * side * math.sqrt(3 / 7 - inner * 2 / 7 * math.sqrt(6 / 5)),
                   (18 + inner * math.sqrt(30)) / 72) for inner in (1, -1) for side in (-1, 1))
_NEWTON_STEPS = 8

# Chebyshev intervals on the ray of the collocation that seeds scan_spectrum.
_COLLOCATION_POINTS = 120

def wkb_init(z: complex, eps: complex, model: ModelSpec) -> ShootState:
    """Decaying WKB state at a ray end, to first order in eps: f = 1 and
    eps f' = i phi' - eps q'/(4 q), the first two terms of the Riccati
    solution y = eps f'/f of eps y' + y^2 = -q.

    The square-root branch of phi' = sqrt(q) is the one whose exponential
    grows toward the interior (equivalently decays toward |z| -> infinity),
    selected by the sign of Re(i phi' * inward direction / eps) so the
    choice stays correct for complex eigenvalues.  z = 0, eps = 0 and a z
    where that sign is ambiguous, a zero of q among them, raise
    ShootingError.
    """
    if z == 0 or eps == 0:
        raise ShootingError(f"no WKB start at z = {z:.3g}, eps = {eps:.3g}: both must be nonzero")
    q = model.q(z)
    s = cmath.sqrt(q)
    inward = -z / abs(z)
    growth = (1j * s * inward / eps).real * abs(eps)
    if abs(growth) <= 1e-12 * abs(s):  # at a zero of q too
        raise ShootingError(f"ambiguous decay branch at z = {z:.4g}")
    if growth < 0:
        s = -s
    return ShootState(f=1.0 + 0j, df=1j * s - eps * model.dq(z) / (4.0 * q), log_scale=0.0)


def integrate_ray(start: ShootState, seg: tuple[complex, complex], eps: complex,
                  model: ModelSpec, cfg: ShootConfig) -> ShootState:
    """Integrate the (f, eps f') system along the straight segment.

    On z = z0 + t d, t from 0 to 1, the equation reads f_tt = kappa q f with
    kappa = -(d/eps)^2.  Each step expands q about the current point
    (ModelSpec.q_series) and takes the solution's Taylor coefficients from
    a_{k+2} = kappa sum_j Q_j a_{k-j} / ((k + 1)(k + 2)), a_0 = f and
    a_1 = (d/eps) eps f', to order _ORDER (Corliss & Chang, ACM TOMS 8, 114
    (1982)).  The step is the longest for which each of the last two terms,
    |a_k| h^k, stays within _TRUNCATION (atol + rtol max(|f|, |eps f'|))
    (Jorba & Zou, Exp. Math. 14, 99 (2005)), so no step is rejected; a
    fractional power's step also stays within _BRANCH_FRACTION of |z|,
    inside the radius of convergence.  f and eps f' at the step's end come
    from Horner's rule.  The state is renormalized to unit magnitude
    whenever it leaves [1e-6, 1e6], with the factor accumulated in
    log_scale.  A non-finite coefficient, a step shorter than 1e-9 of the
    segment or more than _MAX_STEPS steps raise ShootingError; so does,
    every _PROJECT_EVERY steps, a ray whose steps so far, per radian of
    phase over [0, t], would overrun _MAX_STEPS on the whole segment.  The
    phase is |d| / |eps| times the mean of |sqrt q| (the four-point Gauss
    rule, four q evaluations), taken only for a ray that reaches its first
    checkpoint.  A zero-length segment or eps = 0 raise ShootingError.
    """
    z0, z1 = seg
    d = z1 - z0
    if d == 0 or eps == 0:
        raise ShootingError(f"no ray from {z0:.3g} to {z1:.3g} at eps = {eps:.3g}: "
                            "the segment's length and eps must be nonzero")
    d_eps = d / eps
    kappa = -d_eps * d_eps
    g_fac = eps / d
    q_series = model.q_series
    # a fractional power's longest step (in t) from z, per unit of |z|
    branch_cap = _BRANCH_FRACTION / abs(d) if model.has_branch_cut else None
    n = _ORDER
    f, g = start.f, start.df
    log_scale = start.log_scale
    rtol, atol = cfg.rtol, cfg.atol
    q = model.q_callable()

    def phase_to(s):  # radians from t = 0 to s, by the Gauss rule of sqrt|q|
        return s * abs(d_eps) * sum(w * math.sqrt(abs(q(z0 + u * s * d))) for u, w in _GAUSS_01)

    t = 0.0
    steps = 0
    while t < 1.0:
        if steps == _MAX_STEPS:
            raise ShootingError("step budget exhausted")
        # the steps so far, at their own rate, over the whole segment's phase
        if steps and not steps % _PROJECT_EVERY:
            if steps == _PROJECT_EVERY:
                phase = phase_to(1.0)
            if steps * phase > _MAX_STEPS * phase_to(t):
                raise ShootingError(f"step budget of {_MAX_STEPS} steps cannot cover the "
                                    f"{phase:.3g} radians along {z0:.3g} -> {z1:.3g}")
        steps += 1
        z = z0 + t * d
        a = _recurrence([kappa * c for c in q_series(z, d, n - 1)], f, d_eps * g)
        h = span = 1.0 - t
        if branch_cap is not None:
            h = min(h, branch_cap * abs(z))
        tol = _TRUNCATION * (atol + rtol * max(abs(f), abs(g)))
        for k in (n - 1, n):
            size = abs(a[k])
            if size * h ** k > tol:
                h = (tol / size) ** (1.0 / k)
        if h < span and not h >= _MIN_STEP:
            raise ShootingError(f"step collapsed at t = {t:.4f} along {z0:.3g} -> {z1:.3g}")
        f, df = a[n], n * a[n]
        for k, ak in zip(range(n - 1, 0, -1), a[n - 1:0:-1]):
            f = f * h + ak
            df = df * h + k * ak
        f = f * h + a[0]
        g = g_fac * df
        size_f, size_g = abs(f), abs(g)
        if not math.isfinite(size_f + size_g):
            raise ShootingError(f"non-finite Taylor coefficients at t = {t:.4f} "
                                f"along {z0:.3g} -> {z1:.3g}")
        t = 1.0 if h >= span else t + h
        m = max(size_f, size_g)
        if m > 1e6 or 0 < m < 1e-6:
            f /= m
            g /= m
            log_scale += math.log(m)
    return ShootState(f=f, df=g, log_scale=log_scale)


def _recurrence(kq: list[complex], a0: complex, a1: complex) -> list[complex]:
    """[a_0, ..., a_ORDER]: a_{k+2} = sum_j kq_j a_{k-j} / ((k + 1)(k + 2)).

    Each sum runs in sum's order, 0 + kq_0 a_k + kq_1 a_{k-1} + ..., so
    every coefficient has the bits of sum(map(mul, kq, a[k::-1])), the full
    convolution that a fractional power's long series takes.  A series of
    2 to _WINDOW terms takes it while a_k..a_0 are fewer than its terms,
    then runs over a sliding window of the last terms, held in locals.
    """
    a = [a0, a1]
    size = len(kq)
    full = len(_INV_PAIRS) if not 2 <= size <= _WINDOW else size - 1
    for k, inv in enumerate(_INV_PAIRS[:full]):  # map stops at the shorter
        a.append(sum(map(mul, kq, a[k::-1])) * inv)
    if full == len(_INV_PAIRS):
        return a
    q0, q1, q2, q3, q4 = (*kq, 0j, 0j, 0j)[:_WINDOW]
    w0, w1, w2, w3, w4 = (*a[size - 1::-1], 0j, 0j, 0j)[:_WINDOW]
    nxt = a[-1]
    for inv in _INV_PAIRS[full:]:
        s = 0 + q0 * w0 + q1 * w1
        if size > 2:
            s += q2 * w2
            if size > 3:
                s += q3 * w3
                if size > 4:
                    s += q4 * w4
        w0, w1, w2, w3, w4, nxt = nxt, w0, w1, w2, w3, s * inv
        a.append(nxt)
    return a


def _point_segment_distance(w: complex, z0: complex, z1: complex) -> float:
    d = z1 - z0
    t = ((w - z0) * d.conjugate()).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(w - (z0 + t * d))


def _start_radius(model: ModelSpec, z_dir: complex, r_tp: float, eps: complex,
                  r_max: float) -> float:
    """Smallest radius along z_dir from which a ray started by wkb_init is
    back at the turning points with its partner solution below 2^-53.

    The start misses the decaying solution's eps f'/f by about eps^2 y2, the
    next Riccati term, and so excites the partner at relative size
    c = |eps^2 y2| / (2 |y0|) = |eps|^2 |5 q'^2 - 4 q q''| / (64 |q|^3).  On the
    way in from radius r to r_tp the partner decays against the solution by
    D(r) = 2 int_{r_tp}^r |Re(i sqrt(q) z_dir / eps)| dr.  The radius solves
    D = ln(2^53 c), and only the result is capped at r_max.  Newton steps
    start from the radius where the asymptotic decay gives ln(2^53)
    (_efold_radius) and stop within one e-fold, and a last linear step
    lands within about 0.1 e-fold.  D comes from the four-point Gauss rule
    in u, r = r_tp + (r - r_tp) u^2 (smooth at a turning point on the ray),
    then from the Hermite rule on each step.
    """
    q, dq, d2q = model.q_callable(), model.dq, model.d2q
    w_dir = 2j * z_dir / eps  # dD/dr = |Re(sqrt(q) w_dir)|
    floor = _LN_ULP + math.log(abs(eps) ** 2 / 64.0)
    r = _efold_radius(model.degree + 2.0, r_tp, eps, _LN_ULP)
    span = r - r_tp
    decay = 0.0
    for u, w in _GAUSS_01:
        decay += w * u * abs((cmath.sqrt(q((r_tp + span * u * u) * z_dir)) * w_dir).real)
    decay *= 2.0 * span
    r_new = r
    for _ in range(_NEWTON_STEPS):
        # dD/dr, its derivative and ln(2^53 c) at r_new
        z = r_new * z_dir
        qz, dqz = q(z), dq(z)
        v = cmath.sqrt(qz) * w_dir
        rho_new = abs(v.real)
        slope_new = math.copysign(0.5, v.real) * (v * dqz * z_dir / qz).real
        target = floor + math.log(abs(5.0 * dqz * dqz - 4.0 * qz * d2q(z)) / abs(qz) ** 3)
        if r_new != r:
            dr = r_new - r
            decay += dr * (0.5 * (rho + rho_new) + dr * (slope - slope_new) / 12.0)
        r, rho, slope = r_new, rho_new, slope_new
        r_new = max(r + (target - decay) / rho, 0.5 * (r + r_tp))
        if abs(target - decay) <= 1.0 or r_new == r:
            break
    return min(r_max, r + (target - decay) / rho)


def _efold_radius(k: float, r_tp: float, eps: complex, efolds: float) -> float:
    """Radius at which the asymptotic decay 2 S / |eps| from r_tp, S =
    (2/k)(r^(k/2) - r_tp^(k/2)) the action, k the model's degree + 2,
    reaches efolds."""
    return (r_tp ** (k / 2) + efolds * k * abs(eps) / 4) ** (2 / k)


def _collocation_length(k: float, r_tp: float, eps: complex, r_max: float) -> float:
    """Ray of the collocation that seeds scan_spectrum: 40 e-folds
    (_efold_radius), at least 2 r_tp and at most r_max.  Kept apart from
    _start_radius: the collocation's seeds move with its ray."""
    return min(r_max, max(2 * r_tp, _efold_radius(k, r_tp, eps, 40.0)))


def _ray(model: ModelSpec) -> tuple[tuple[complex, ...], float, complex, complex]:
    """The turning points of model (the equation at eps), the radius of the
    outermost one (1 exactly for the power law: |z_A| = |z_B| = 1 only up to
    rounding), the left ray's direction and the first match point: the power
    law's left wedge centre and _Z_MID, or the quartic's -1 and 0."""
    try:
        tps = model.turning_points
    except TraceError as exc:
        raise ShootingError(f"no labelled turning points: {exc}") from exc
    if model.family == "power":
        return tps, 1.0, cmath.exp(1j * wedge_angles(model.p)[0]), _Z_MID
    return tps, max(abs(tp) for tp in tps), -1 + 0j, 0j


def _contour(model: ModelSpec, eps: complex, cfg: ShootConfig) -> tuple[complex, complex, complex]:
    """Ray endpoints and a match point keeping clear of turning points
    and of a fractional power's branch point.

    model is the equation at eps (ModelSpec.at); the rays and the first
    match point are _ray's, and cfg.r_max caps the start radii.  The left
    ray's radius is the larger _start_radius of the two rays (one when the
    right ray is the left one's PT mirror); z_r = -conj(z_l) and the match
    point moves only down the imaginary axis (see _Z_MID), so the contour is
    its own PT mirror, and the contour at conj(eps) is the one at eps.
    """
    tps, r_tp, z_dir, z_mid = _ray(model)
    r = _start_radius(model, z_dir, r_tp, eps, cfg.r_max)
    if eps.imag != 0 or not model.pt_mirror:
        r = max(r, _start_radius(model, -z_dir.conjugate(), r_tp, eps, cfg.r_max))
    z_l = r * z_dir
    z_r = -z_l.conjugate()
    # a fractional power's branch point too: integrate_ray's Taylor steps
    # cannot reach it
    avoid = (*tps, 0j) if model.has_branch_cut else tps
    for _ in range(8):
        clear = all(_point_segment_distance(w, z_end, z_mid) >= _STANDOFF
                    for w in avoid for z_end in (z_l, z_r))
        if clear:
            return z_l, z_r, z_mid
        z_mid -= 0.15j
    raise ShootingError("could not place the match point: from every candidate a "
                        f"segment to a ray end passes within {_STANDOFF:g} of a turning "
                        "point" + (" or the branch point" if model.has_branch_cut else ""))


def mismatch(E: complex, model: ModelSpec, cfg: ShootConfig | None = None) -> complex:
    """Normalized Wronskian of the two decaying solutions at the match point.

    Zero exactly when the solutions are linearly dependent, i.e. at an
    eigenvalue; the normalization by the larger cross product keeps
    |W| in [0, 2] and cancels both rescaling exponents.

    At real eps with a model that has the PT mirror (ModelSpec.pt_mirror),
    conj f(-conj z) solves the same equation, so the right ray is the
    mirror of the left one and only the left ray is integrated.  W is then
    exactly real.  Complex E and a complex quartic coupling integrate both
    rays.  An E that is zero or not finite raises ShootingError.
    """
    cfg = cfg or ShootConfig()
    E = complex(E)
    if E == 0 or not cmath.isfinite(E):
        raise ShootingError(f"no contour at E = {E}: E must be finite and nonzero")
    eps = E_to_eps(E, model.degree)
    if eps == 0:
        raise ShootingError(f"eps underflows to 0 at E = {E:.4g}")
    scaled = model.at(eps)
    z_l, z_r, z_mid = _contour(scaled, eps, cfg)
    left = integrate_ray(wkb_init(z_l, eps, scaled), (z_l, z_mid), eps, scaled, cfg)
    if eps.imag == 0 and scaled.pt_mirror:
        right = ShootState(left.f.conjugate(), -left.df.conjugate(), left.log_scale)
    else:
        right = integrate_ray(wkb_init(z_r, eps, scaled), (z_r, z_mid), eps, scaled, cfg)
    cross1 = left.f * right.df
    cross2 = right.f * left.df
    norm = max(abs(cross1), abs(cross2))
    if norm == 0:
        raise ShootingError("both solutions vanished at the match point")
    return (cross1 - cross2) / norm


def find_eigen(seed_E: complex, model: ModelSpec, cfg: ShootConfig | None = None,
               tol: float = 1e-9) -> EigRecord:
    """Refine a seed to |W| <= tol: one Newton step, then at most 60 secant
    steps, with a Muller fallback when the secant stalls.  tol must be
    finite and > 0 (ValueError); a seed that is zero or not finite raises
    ShootingError (mismatch).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    cfg = cfg or ShootConfig()
    e0 = complex(seed_E)
    w0 = mismatch(e0, model, cfg)
    if abs(w0) <= tol:
        return _record(e0, w0, model)
    h = 1e-6 * max(abs(e0), 1.0)
    w0h = mismatch(e0 + h, model, cfg)
    deriv = (w0h - w0) / h
    if deriv == 0:
        raise ShootingError("flat mismatch at seed")
    e1 = e0 - w0 / deriv
    history = [(e0, w0)]
    prev_best = abs(w0)
    stall = 0
    for _ in range(60):
        w1 = mismatch(e1, model, cfg)
        if abs(w1) <= tol:
            return _record(e1, w1, model)
        history.append((e1, w1))
        if abs(w1) >= prev_best:
            stall += 1
        else:
            stall = 0
            prev_best = abs(w1)
        if stall >= 3 and len(history) >= 3:
            e_next = _muller_step(history[-3:])
        else:
            (ea, wa), (eb, wb) = history[-2], history[-1]
            if wb == wa:
                raise ShootingError("secant stalled on equal mismatches")
            e_next = eb - wb * (eb - ea) / (wb - wa)
        step = e_next - e1
        cap = 0.5 * max(abs(e1), 1.0)
        if abs(step) > cap:
            step *= cap / abs(step)
        e1 = e1 + step
        if not cmath.isfinite(e1):
            raise ShootingError("root search diverged")
    raise ShootingError(f"no convergence from seed {seed_E}")


def _muller_step(pts) -> complex:
    (x0, f0), (x1, f1), (x2, f2) = pts
    if x0 == x1 or x1 == x2 or x0 == x2:
        raise ShootingError("Muller step on coincident iterates")
    q = (x2 - x1) / (x1 - x0)
    a = q * f2 - q * (1 + q) * f1 + q * q * f0
    b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q * q * f0
    c = (1 + q) * f2
    disc = cmath.sqrt(b * b - 4 * a * c)
    den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
    if den == 0:
        return x2 - (x2 - x1)
    return x2 - (x2 - x1) * 2 * c / den


def _record(E: complex, w: complex, model: ModelSpec) -> EigRecord:
    eps = E_to_eps(E, model.degree)
    return EigRecord(n=_mode_index(eps, model), param=model.param, eps=eps, E=E,
                     method="numeric", residual=abs(w))


def _contour_eigenvalues(model: ModelSpec, E_max: float, cfg: ShootConfig) -> np.ndarray:
    """Eigenvalues of a Chebyshev collocation on _ray's rays at E0.

    At E0 = 1.5 E_max both families read -eps0^2 u'' + (1 - q) u = (E/E0) u
    on the ray 0 -> z_l, with u(z_l) = 0; the right ray carries conj(u).  The
    operator [[X, Y], [conj Y, conj X]] is solved as the real matrix
    [[Re(X+Y), Im(Y-X)], [Im(X+Y), Re(X-Y)]] (Trefethen, SIAM 2000)."""
    E0 = 1.5 * E_max
    eps0 = E_to_eps(complex(E0), model.degree)
    scaled = model.at(eps0)
    _, r_tp, z_dir, _ = _ray(scaled)
    z_l = _collocation_length(model.degree + 2.0, r_tp, eps0, cfg.r_max) * z_dir
    n, m = _COLLOCATION_POINTS, _COLLOCATION_POINTS - 1
    x, d, d2 = _chebyshev(n)  # node 0 is z_l, node n is 0, node k is z_l (1 + x_k) / 2
    k = -eps0 ** 2 * (2.0 / z_l) ** 2
    v = np.array([1.0 - scaled.q(z_l * (1.0 + xk) / 2.0) for xk in x[1:n]])
    # u(0) = 2 Re(w.u), w = -(1 + i t) r / 2, r = d[n, 1:n] / d[n, n]
    t = (1.0 / z_l).imag / (1.0 / z_l).real
    rc = np.outer(d2[1:n, n], d[n, 1:n] / d[n, n])
    h = np.empty((2 * m, 2 * m))  # real and filled in place: less memory
    for blk, a, b, dv in ((h[:m, :m], k.real, -k.real, v.real),
                          (h[:m, m:], -k.imag, t * k.real, -v.imag),
                          (h[m:, :m], k.imag, -k.imag, v.imag),
                          (h[m:, m:], k.real, t * k.imag, v.real)):
        np.multiply(d2[1:n, 1:n], a, out=blk)
        blk += b * rc
        blk[np.diag_indices(m)] += dv
    return np.linalg.eigvals(h) * E0


@lru_cache(maxsize=1)
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev points x_k = cos(pi k / n), k = 0..n, their differentiation
    matrix d and d2 = d @ d (Trefethen, SIAM 2000): built once per process,
    read-only."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    d2 = d @ d
    for matrix in (x, d, d2):
        matrix.flags.writeable = False
    return x, d, d2


def scan_spectrum(model: ModelSpec, E_max: float,
                  cfg: ShootConfig | None = None) -> list[EigRecord]:
    """Eigenvalues with 0 < Re E <= E_max and |Im E| <= E_max: all, as measured,
    to E_max = 40 at p = 2, 3, 4 and to 60 for the quartic at A = 0..3; above,
    some go missing with no error (6 of 12 below 100 at p = 4).

    Each upper-half-plane eigenvalue of _contour_eigenvalues (real if
    |Im E| <= 1e-6 |E|) seeds find_eigen; a polish within 1e-6 |seed| is
    kept, with its conjugate if complex.  Real roots are indexed by
    position.  A model without the PT mirror (a complex quartic coupling),
    and an E_max that is not finite and > 0, raise ValueError.
    """
    if not (math.isfinite(E_max) and E_max > 0):
        raise ValueError(f"E_max must be finite and > 0, got {E_max}")
    if not model.pt_mirror:
        raise ValueError(f"scan_spectrum needs a real quartic coupling, got {model.a}")
    cfg = cfg or ShootConfig()
    records: list[EigRecord] = []
    for seed in map(complex, _contour_eigenvalues(model, E_max, cfg)):
        if not (0 < seed.real <= E_max and 0 <= seed.imag <= E_max):
            continue
        seed = complex(seed.real) if seed.imag <= 1e-6 * abs(seed) else seed
        try:
            rec = find_eigen(seed, model, cfg)
        except ShootingError:
            continue
        if abs(rec.E - seed) > 1e-6 * abs(seed) or rec.E.real > E_max:
            continue
        records.append(rec)
        if rec.E.imag:  # W(conj E) = conj W(E): the conjugate root, same residual
            records.append(replace(rec, eps=rec.eps.conjugate(), E=rec.E.conjugate()))
    records.sort(key=lambda r: (r.E.imag != 0, r.E.real, r.E.imag))
    for idx, r in enumerate(r for r in records if r.E.imag == 0):
        r.n = idx
    return records
