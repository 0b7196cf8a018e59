"""Numerical eigenvalues by ODE shooting along wedge-centred complex contours.

The eigenproblem -eps^2 f'' = q(z) f is integrated as a first-order system
in (f, g) with g = eps f' (which keeps both components O(1) in the
semiclassical regime) from far out in each decay wedge inward to a common
match point.  The initial state is the decaying WKB solution; any error in
it excites the inward-decaying partner, which is suppressed exponentially
by the time the rays meet.  The ray length is chosen per eps so that this
suppression is just complete (see _ray_length), capped at ShootConfig.r_max.
An eigenvalue is a zero of the normalized Wronskian of the two rays.

For the quartic family the coupling stored on the model is the physical
one; each evaluation at eigenvalue E rescales it to a = A * E^(-3/4) so
the scan traces the physical spectrum at fixed coupling.
"""

import cmath
import math
from dataclasses import dataclass

from .asymptotic import EigRecord, _mode_index, broken_complex_roots, eps_to_E
from .geometry import (ModelSpec, path_crosses_cut, quartic_turning_points,
                       turning_points, wedge_angles)
from .special import principal_power

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

    r_max is the longest ray allowed (each ray's length is chosen per eps
    from the decay the WKB start needs), z_mid the match point (shifted
    automatically if a ray would pass within `standoff` of a turning
    point), rtol/atol the local error targets of the embedded Runge-Kutta
    pair.
    """

    r_max: float = 7.0
    z_mid: complex = -0.5j
    rtol: float = 1e-10
    atol: float = 1e-12
    standoff: float = 0.05
    max_steps: int = 2_000_000


# Inward decay, in e-folds, that a ray must give the partner solution the
# WKB start excites before it reaches the match point: exp(-40) ~ 4e-18 is
# below double precision, so a longer ray changes W only by rounding.
_DECAY_EFOLDS = 40.0

# Cash-Karp 5(4) embedded pair.
_CK_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_E = tuple(b5 - b4 for b5, b4 in zip(
    _CK_B5, (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)))


def _scaled_model(model: ModelSpec, eps: complex) -> ModelSpec:
    """Model with the coupling the ODE actually sees at this eps."""
    if model.family == "quartic":
        return ModelSpec.quartic(model.a * eps)
    return model


def wkb_init(z: complex, eps: complex, model: ModelSpec) -> ShootState:
    """Decaying WKB state at a wedge-centre ray end: f = 1, eps f' = i phi'.

    The square-root branch of phi' = sqrt(q) is the one whose exponential
    grows toward the interior (equivalently decays toward |z| -> infinity),
    selected by the sign of Re(i phi' * inward direction / eps) so the
    choice stays correct for complex eigenvalues.
    """
    q = model.q(z)
    s = cmath.sqrt(q)
    inward = -z / abs(z)
    growth = (1j * s * inward / eps).real * abs(eps)
    if abs(growth) < 1e-12 * abs(s):
        raise ShootingError(f"ambiguous decay branch at z = {z:.4g}")
    if growth < 0:
        s = -s
    return ShootState(f=1.0 + 0j, df=1j * s, log_scale=0.0)


def integrate_ray(start: ShootState, seg: tuple[complex, complex], eps: complex,
                  model: ModelSpec, cfg: ShootConfig) -> ShootState:
    """Integrate the (f, eps f') system along the straight segment.

    Adaptive Cash-Karp 4/5 stepping; the state is renormalized to unit
    magnitude whenever it leaves [1e-6, 1e6], with the factor accumulated
    in log_scale.
    """
    z0, z1 = seg
    d = z1 - z0
    q = model.q_callable()
    inv_eps = 1.0 / eps
    df_fac = d * inv_eps
    dg_fac = -d * inv_eps

    def rhs(t: float, f: complex, g: complex) -> tuple[complex, complex]:
        return df_fac * g, dg_fac * q(z0 + t * d) * f

    f, g = start.f, start.df
    log_scale = start.log_scale
    t = 0.0
    h = 1e-3
    rtol, atol = cfg.rtol, cfg.atol
    a = _CK_A
    b5 = _CK_B5
    err_c = _CK_E
    steps = 0
    while t < 1.0:
        if steps > cfg.max_steps:
            raise ShootingError("step budget exhausted")
        if h > 1.0 - t:
            h = 1.0 - t
        k1 = rhs(t, f, g)
        k2 = rhs(t + h / 5, f + h * a[0][0] * k1[0], g + h * a[0][0] * k1[1])
        k3 = rhs(t + 3 * h / 10,
                 f + h * (a[1][0] * k1[0] + a[1][1] * k2[0]),
                 g + h * (a[1][0] * k1[1] + a[1][1] * k2[1]))
        k4 = rhs(t + 3 * h / 5,
                 f + h * (a[2][0] * k1[0] + a[2][1] * k2[0] + a[2][2] * k3[0]),
                 g + h * (a[2][0] * k1[1] + a[2][1] * k2[1] + a[2][2] * k3[1]))
        k5 = rhs(t + h,
                 f + h * (a[3][0] * k1[0] + a[3][1] * k2[0] + a[3][2] * k3[0]
                          + a[3][3] * k4[0]),
                 g + h * (a[3][0] * k1[1] + a[3][1] * k2[1] + a[3][2] * k3[1]
                          + a[3][3] * k4[1]))
        k6 = rhs(t + 7 * h / 8,
                 f + h * (a[4][0] * k1[0] + a[4][1] * k2[0] + a[4][2] * k3[0]
                          + a[4][3] * k4[0] + a[4][4] * k5[0]),
                 g + h * (a[4][0] * k1[1] + a[4][1] * k2[1] + a[4][2] * k3[1]
                          + a[4][3] * k4[1] + a[4][4] * k5[1]))
        f5 = f + h * (b5[0] * k1[0] + b5[2] * k3[0] + b5[3] * k4[0] + b5[5] * k6[0])
        g5 = g + h * (b5[0] * k1[1] + b5[2] * k3[1] + b5[3] * k4[1] + b5[5] * k6[1])
        ef = h * (err_c[0] * k1[0] + err_c[2] * k3[0] + err_c[3] * k4[0]
                  + err_c[4] * k5[0] + err_c[5] * k6[0])
        eg = h * (err_c[0] * k1[1] + err_c[2] * k3[1] + err_c[3] * k4[1]
                  + err_c[4] * k5[1] + err_c[5] * k6[1])
        scale_f = atol + rtol * max(abs(f), abs(f5))
        scale_g = atol + rtol * max(abs(g), abs(g5))
        err = max(abs(ef) / scale_f, abs(eg) / scale_g)
        if err <= 1.0:
            t += h
            f, g = f5, g5
            m = max(abs(f), abs(g))
            if m > 1e6 or m < 1e-6:
                f /= m
                g /= m
                log_scale += math.log(m)
        if err > 0:
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            h *= 5.0
        if h < 1e-13:
            raise ShootingError(f"step underflow at t = {t:.4f} along {z0:.3g} -> {z1:.3g}")
        steps += 1
    return ShootState(f=f, df=g, log_scale=log_scale)


def _point_segment_distance(w: complex, z0: complex, z1: complex) -> float:
    d = z1 - z0
    t = ((w - z0) * d.conjugate()).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(w - (z0 + t * d))


def _E_to_eps(E: complex, model: ModelSpec) -> complex:
    """eps = E**(-(p+2)/(2p)) for the power law, E**(-3/4) for the quartic."""
    exponent = -(model.p + 2.0) / (2.0 * model.p) if model.family == "power" else -0.75
    return principal_power(E, exponent)


def _ray_length(k: float, r_tp: float, eps: complex, r_max: float) -> float:
    """Radius where the WKB start has bought _DECAY_EFOLDS of inward decay.

    Past the outermost turning point (radius r_tp) the action along a wedge
    centre grows like S = (2/k)(r^(k/2) - r_tp^(k/2)), with k = p + 2 for
    the power law and 6 for the quartic; the start's error decays inward
    like exp(-2S/|eps|).  The ray is at most r_max long and at least 2 r_tp:
    a start closer to the turning points gives a wrong W even when the
    estimate promises enough decay (p = 3, E = 40: r = 1.8 moves W from
    -0.092 to -7.7e-5).
    """
    r = (r_tp ** (k / 2) + _DECAY_EFOLDS * k * abs(eps) / 4) ** (2 / k)
    return min(r_max, max(2 * r_tp, r))


def _contour(model: ModelSpec, eps: complex, cfg: ShootConfig) -> tuple[complex, complex, complex]:
    """Ray endpoints and a match point keeping clear of turning points."""
    if model.family == "power":
        th_l, th_r, _ = wedge_angles(model.p)
        r = _ray_length(model.p + 2.0, 1.0, eps, cfg.r_max)
        z_l = r * cmath.exp(1j * th_l)
        z_r = r * cmath.exp(1j * th_r)
        tps = turning_points(model.p)
        z_mid = cfg.z_mid
    else:
        tps = quartic_turning_points(model.a).all
        r = _ray_length(6.0, max(abs(tp) for tp in tps), eps, cfg.r_max)
        z_l = complex(-r)
        z_r = complex(r)
        z_mid = 0j
    for _ in range(8):
        clear_of_tps = all(
            _point_segment_distance(tp, z_end, z_mid) >= cfg.standoff
            for tp in tps for z_end in (z_l, z_r))
        clear_of_cut = not (model.has_branch_cut and (
            path_crosses_cut([z_l, z_mid], model)
            or path_crosses_cut([z_r, z_mid], model)))
        if clear_of_tps and clear_of_cut:
            return z_l, z_r, z_mid
        z_mid -= 0.15j
    raise ShootingError("could not place the match point away from turning "
                        "points and the branch cut")


def mismatch(E: complex, model: ModelSpec, cfg: ShootConfig | None = None) -> complex:
    """Normalized Wronskian of the two decaying solutions at the match point.

    Zero exactly when the solutions are linearly dependent, i.e. at an
    eigenvalue; the normalization by the larger cross product keeps
    |W| in [0, 2] and cancels both rescaling exponents.
    """
    cfg = cfg or ShootConfig()
    E = complex(E)
    eps = _E_to_eps(E, model)
    scaled = _scaled_model(model, eps)
    z_l, z_r, z_mid = _contour(scaled, eps, cfg)
    left = integrate_ray(wkb_init(z_l, eps, scaled), (z_l, z_mid), eps, scaled, cfg)
    right = integrate_ray(wkb_init(z_r, eps, scaled), (z_r, z_mid), eps, scaled, cfg)
    cross1 = left.f * right.df
    cross2 = right.f * left.df
    norm = max(abs(cross1), abs(cross2))
    if norm == 0:
        raise ShootingError("both solutions vanished at the match point")
    return (cross1 - cross2) / norm


def find_eigen(seed_E: complex, model: ModelSpec, cfg: ShootConfig | None = None,
               tol: float = 1e-9, max_iter: int = 60) -> EigRecord:
    """Refine a seed to |W| <= tol: one Newton step, then secant, with a
    Muller fallback when the secant stalls.
    """
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
    for _ in range(max_iter):
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
    eps = _E_to_eps(E, model)
    param = model.p if model.family == "power" else model.a
    return EigRecord(n=_mode_index(eps, model), param=float(param.real if isinstance(param, complex) else param),
                     eps=eps, E=E, method="numeric", residual=abs(w))


def scan_spectrum(model: ModelSpec, E_max: float, cfg: ShootConfig | None = None,
                  step: float | None = None, complex_seeds: bool = True) -> list[EigRecord]:
    """All eigenvalues with Re E in (0, E_max].

    Scans |W| on a real-E grid fine enough to separate harmonic-scale
    spacing, refines each local minimum, and (for the broken power-law
    region) additionally polishes complex seeds taken from the corrected
    condition so conjugate pairs are found too.  Real records are ordered
    and indexed by position.
    """
    cfg = cfg or ShootConfig()
    if step is None:
        step = 0.35
    grid = []
    e = step
    while e <= E_max + 1e-12:
        grid.append(e)
        e += step
    logw = []
    for e in grid:
        try:
            logw.append(abs(mismatch(e, model, cfg)))
        except ShootingError:
            logw.append(float("inf"))
    records: list[EigRecord] = []

    def try_seed(seed):
        try:
            rec = find_eigen(seed, model, cfg)
        except ShootingError:
            return
        if rec.E.real > E_max * (1.0 + 1e-9) or rec.E.real <= 0:
            return
        for r in records:
            if abs(r.E - rec.E) < 1e-7 * max(1.0, abs(rec.E)):
                return
        records.append(rec)

    for i in range(len(grid)):
        lo = logw[i - 1] if i > 0 else float("inf")
        hi = logw[i + 1] if i + 1 < len(grid) else float("inf")
        if logw[i] < lo and logw[i] < hi:
            try_seed(grid[i])
    if complex_seeds and model.family == "power" and model.p < 2.0:
        for eps_root in broken_complex_roots(model.p):
            e_seed = eps_to_E(eps_root, model.p)
            try_seed(e_seed)
            try_seed(e_seed.conjugate())
    real = sorted((r for r in records if abs(r.E.imag) <= 1e-7 * max(1.0, abs(r.E))),
                  key=lambda r: r.E.real)
    cplx = sorted((r for r in records if abs(r.E.imag) > 1e-7 * max(1.0, abs(r.E))),
                  key=lambda r: (r.E.real, r.E.imag))
    for idx, r in enumerate(real):
        r.n = idx
    return real + cplx
