"""Numerical eigenvalues by ODE shooting along wedge-centred complex contours.

The eigenproblem -eps^2 f'' = q(z) f is integrated as a first-order system
in (f, g) with g = eps f' (which keeps both components O(1) in the
semiclassical regime) from far out in each decay wedge inward to a common
match point.  The initial state is the decaying WKB solution; any error in
it excites the inward-decaying partner, which is suppressed exponentially
by the time the rays meet.  The ray length is chosen per eps so that this
suppression is just complete (see _ray_length), capped at ShootConfig.r_max.
An eigenvalue is a zero of the normalized Wronskian of the two rays.

The rays are stepped with the Dormand-Prince 8(5,3) pair (DOP853), first
same as last, under Hairer's blended 5th/3rd-order error norm (see
integrate_ray).

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
    automatically if a ray would pass within 0.05 of a turning point),
    rtol/atol the local error targets of the embedded Runge-Kutta pair
    (finite, >= 0 and not both 0).  A ray that takes more than 2,000,000
    steps raises ShootingError.
    """

    r_max: float = 7.0
    z_mid: complex = -0.5j
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        tols = (self.rtol, self.atol)
        if not all(math.isfinite(x) and x >= 0 for x in tols) or not any(tols):
            raise ValueError(f"rtol and atol must be finite, >= 0 and not both 0, "
                             f"got rtol={self.rtol}, atol={self.atol}")


# Closest a ray may pass to a turning point before the match point moves.
_STANDOFF = 0.05
# Step budget of one ray.
_MAX_STEPS = 2_000_000

# Inward decay, in e-folds, that a ray must give the partner solution the
# WKB start excites before it reaches the match point: exp(-40) ~ 4e-18 is
# below double precision, so a longer ray changes W only by rounding.
_DECAY_EFOLDS = 40.0

# Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving
# ODEs I, sec. II.5): nodes c, stage rows a (lower triangle, zeros kept),
# the 8th-order weights b, and the weights of the 5th- and 3rd-order error
# estimates (e3 = b - bhh, with bhh the 3rd-order weights).
_DP_C = (
    0.0, 5.26001519587677318785587544488e-2, 7.89002279381515978178381316732e-2,
    1.18350341907227396726757197510e-1, 2.81649658092772603273242802490e-1,
    1 / 3, 0.25, 4 / 13, 127 / 195, 0.6, 6 / 7, 1.0,
)
_DP_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_DP_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
_DP_E5 = (
    1.312004499419488073250102996e-2, 0.0, 0.0, 0.0, 0.0,
    -1.225156446376204440720569753, -4.957589496572501915214079952e-1,
    1.664377182454986536961530415, -3.503288487499736816886487290e-1,
    3.341791187130174790297318841e-1, 8.192320648511571246570742613e-2,
    -2.235530786388629525884427845e-2,
)
_DP_E3 = tuple(b - bhh for b, bhh in zip(_DP_B, (
    2.44094488188976377952755905512e-1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    7.33846688281611857341361741547e-1, 0.0, 0.0, 2.20588235294117647058823529412e-2)))


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

    Adaptive Dormand-Prince 8(5,3) stepping (DOP853), first same as last:
    the right-hand side at the end of an accepted step is the next step's
    first stage.  The system is linear in (f, g), so that stage is carried
    as q at the new point, the q the c = 1 stage already evaluated, and it
    follows f and g through any rescaling.  The
    local error is Hairer's blend h e5^2 / sqrt(e5^2 + 0.01 e3^2) of the
    5th- and 3rd-order estimates, each the larger over f and g of the error
    divided by atol + rtol max(|y|, |y_new|); the step then changes by
    0.9 err^(-1/8), kept within [0.2, 10].  The state is renormalized to
    unit magnitude whenever it leaves [1e-6, 1e6], with the factor
    accumulated in log_scale.
    """
    z0, z1 = seg
    d = z1 - z0
    q = model.q_callable()
    inv_eps = 1.0 / eps
    df_fac = d * inv_eps
    dg_fac = -d * inv_eps
    _, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, _ = _DP_C
    (_, (a2_1,), (a3_1, a3_2), (a4_1, _, a4_3), (a5_1, _, a5_3, a5_4),
     (a6_1, _, _, a6_4, a6_5), (a7_1, _, _, a7_4, a7_5, a7_6),
     (a8_1, _, _, a8_4, a8_5, a8_6, a8_7),
     (a9_1, _, _, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_1, _, _, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_1, _, _, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     (a12_1, _, _, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11)) = _DP_A
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _DP_B
    e5_1, _, _, _, _, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = _DP_E5
    e3_1, _, _, _, _, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = _DP_E3

    # Stage i holds (f_i, g_i) and p_i = q(z_i) f_i; its slope is
    # (df_fac g_i, dg_fac p_i), so hf and hg fold in the step length.
    f, g = start.f, start.df
    q_t = q(z0)
    log_scale = start.log_scale
    t = 0.0
    h = 1e-3
    rtol, atol = cfg.rtol, cfg.atol
    steps = 0
    while t < 1.0:
        if steps > _MAX_STEPS:
            raise ShootingError("step budget exhausted")
        if h > 1.0 - t:
            h = 1.0 - t
        zt = z0 + t * d
        hd = h * d
        hf = h * df_fac
        hg = h * dg_fac
        p1 = q_t * f
        f2 = f + hf * (a2_1 * g)
        g2 = g + hg * (a2_1 * p1)
        p2 = q(zt + c2 * hd) * f2
        f3 = f + hf * (a3_1 * g + a3_2 * g2)
        g3 = g + hg * (a3_1 * p1 + a3_2 * p2)
        p3 = q(zt + c3 * hd) * f3
        f4 = f + hf * (a4_1 * g + a4_3 * g3)
        g4 = g + hg * (a4_1 * p1 + a4_3 * p3)
        p4 = q(zt + c4 * hd) * f4
        f5 = f + hf * (a5_1 * g + a5_3 * g3 + a5_4 * g4)
        g5 = g + hg * (a5_1 * p1 + a5_3 * p3 + a5_4 * p4)
        p5 = q(zt + c5 * hd) * f5
        f6 = f + hf * (a6_1 * g + a6_4 * g4 + a6_5 * g5)
        g6 = g + hg * (a6_1 * p1 + a6_4 * p4 + a6_5 * p5)
        p6 = q(zt + c6 * hd) * f6
        f7 = f + hf * (a7_1 * g + a7_4 * g4 + a7_5 * g5 + a7_6 * g6)
        g7 = g + hg * (a7_1 * p1 + a7_4 * p4 + a7_5 * p5 + a7_6 * p6)
        p7 = q(zt + c7 * hd) * f7
        f8 = f + hf * (a8_1 * g + a8_4 * g4 + a8_5 * g5 + a8_6 * g6 + a8_7 * g7)
        g8 = g + hg * (a8_1 * p1 + a8_4 * p4 + a8_5 * p5 + a8_6 * p6 + a8_7 * p7)
        p8 = q(zt + c8 * hd) * f8
        f9 = f + hf * (a9_1 * g + a9_4 * g4 + a9_5 * g5 + a9_6 * g6 + a9_7 * g7 + a9_8 * g8)
        g9 = g + hg * (a9_1 * p1 + a9_4 * p4 + a9_5 * p5 + a9_6 * p6 + a9_7 * p7 + a9_8 * p8)
        p9 = q(zt + c9 * hd) * f9
        f10 = f + hf * (a10_1 * g + a10_4 * g4 + a10_5 * g5 + a10_6 * g6 + a10_7 * g7
                        + a10_8 * g8 + a10_9 * g9)
        g10 = g + hg * (a10_1 * p1 + a10_4 * p4 + a10_5 * p5 + a10_6 * p6 + a10_7 * p7
                        + a10_8 * p8 + a10_9 * p9)
        p10 = q(zt + c10 * hd) * f10
        f11 = f + hf * (a11_1 * g + a11_4 * g4 + a11_5 * g5 + a11_6 * g6 + a11_7 * g7
                        + a11_8 * g8 + a11_9 * g9 + a11_10 * g10)
        g11 = g + hg * (a11_1 * p1 + a11_4 * p4 + a11_5 * p5 + a11_6 * p6 + a11_7 * p7
                        + a11_8 * p8 + a11_9 * p9 + a11_10 * p10)
        p11 = q(zt + c11 * hd) * f11
        f12 = f + hf * (a12_1 * g + a12_4 * g4 + a12_5 * g5 + a12_6 * g6 + a12_7 * g7
                        + a12_8 * g8 + a12_9 * g9 + a12_10 * g10 + a12_11 * g11)
        g12 = g + hg * (a12_1 * p1 + a12_4 * p4 + a12_5 * p5 + a12_6 * p6 + a12_7 * p7
                        + a12_8 * p8 + a12_9 * p9 + a12_10 * p10 + a12_11 * p11)
        q_end = q(zt + hd)
        p12 = q_end * f12
        f_new = f + hf * (b1 * g + b6 * g6 + b7 * g7 + b8 * g8 + b9 * g9 + b10 * g10
                          + b11 * g11 + b12 * g12)
        g_new = g + hg * (b1 * p1 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10
                          + b11 * p11 + b12 * p12)
        ef5 = hf * (e5_1 * g + e5_6 * g6 + e5_7 * g7 + e5_8 * g8 + e5_9 * g9 + e5_10 * g10
                    + e5_11 * g11 + e5_12 * g12)
        eg5 = hg * (e5_1 * p1 + e5_6 * p6 + e5_7 * p7 + e5_8 * p8 + e5_9 * p9 + e5_10 * p10
                    + e5_11 * p11 + e5_12 * p12)
        ef3 = hf * (e3_1 * g + e3_6 * g6 + e3_7 * g7 + e3_8 * g8 + e3_9 * g9 + e3_10 * g10
                    + e3_11 * g11 + e3_12 * g12)
        eg3 = hg * (e3_1 * p1 + e3_6 * p6 + e3_7 * p7 + e3_8 * p8 + e3_9 * p9 + e3_10 * p10
                    + e3_11 * p11 + e3_12 * p12)
        scale_f = atol + rtol * max(abs(f), abs(f_new))
        scale_g = atol + rtol * max(abs(g), abs(g_new))
        # ef5, eg5, ef3, eg3 already carry the factor h, so this is
        # h e5^2 / sqrt(e5^2 + 0.01 e3^2)
        err5_sq = max(abs(ef5) / scale_f, abs(eg5) / scale_g) ** 2
        err3_sq = max(abs(ef3) / scale_f, abs(eg3) / scale_g) ** 2
        err = err5_sq / math.sqrt(err5_sq + 0.01 * err3_sq) if err5_sq else 0.0
        if err <= 1.0:
            t += h
            f, g, q_t = f_new, g_new, q_end
            m = max(abs(f), abs(g))
            if m > 1e6 or m < 1e-6:
                f /= m
                g /= m
                log_scale += math.log(m)
        if err > 0:
            h *= min(10.0, max(0.2, 0.9 * err ** -0.125))
        else:
            h *= 10.0
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
            _point_segment_distance(tp, z_end, z_mid) >= _STANDOFF
            for tp in tps for z_end in (z_l, z_r))
        if clear_of_tps and not path_crosses_cut([z_l, z_mid, z_r], model):
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
               tol: float = 1e-9) -> EigRecord:
    """Refine a seed to |W| <= tol: one Newton step, then at most 60 secant
    steps, with a Muller fallback when the secant stalls.
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
    eps = _E_to_eps(E, model)
    param = model.p if model.family == "power" else model.a
    return EigRecord(n=_mode_index(eps, model), param=float(param.real if isinstance(param, complex) else param),
                     eps=eps, E=E, method="numeric", residual=abs(w))


def scan_spectrum(model: ModelSpec, E_max: float, cfg: ShootConfig | None = None,
                  step: float = 0.35, complex_seeds: bool = True) -> list[EigRecord]:
    """All eigenvalues with Re E in (0, E_max].

    Scans |W| on a real-E grid fine enough to separate harmonic-scale
    spacing, refines each local minimum, and (for the broken power-law
    region) additionally polishes complex seeds taken from the corrected
    condition so conjugate pairs are found too.  Real records are ordered
    and indexed by position.
    """
    cfg = cfg or ShootConfig()
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
