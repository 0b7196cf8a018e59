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

The rays are stepped with the Dormand-Prince 8(5,3) pair (DOP853), first
same as last, under Hairer's blended 5th/3rd-order error norm, its stages
written in the second-order (Nystrom) form that the linear system allows
(see integrate_ray).

The model holds the physical coupling; each eigenvalue E integrates the
equation at eps = E_to_eps(E, model.degree), model.at(eps).  scan_spectrum
seeds find_eigen from a Chebyshev collocation on the same contour.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asymptotic import E_to_eps, EigRecord, _mode_index
from .geometry import ModelSpec, TraceError, path_crosses_cut, wedge_angles

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

    r_max (finite, > 0) is the longest ray allowed (each ray's length is
    chosen per eps from the decay the WKB start needs), z_mid the power-law
    match point (shifted down the imaginary axis if a ray would pass within
    0.05 of a turning point; the quartic always matches at z = 0 and ignores
    z_mid), rtol/atol the local error targets of the embedded Runge-Kutta
    pair (finite, >= 0 and not both 0).  z_mid must be finite and lie on
    the imaginary axis, the PT-symmetry axis, so that at real E the right
    ray is the mirror of the left one (see mismatch).  A ray that takes
    more than 2,000,000 steps raises ShootingError.
    """

    r_max: float = 7.0
    z_mid: complex = -0.5j
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be finite and > 0, got {self.r_max}")
        z_mid = complex(self.z_mid)
        if not cmath.isfinite(z_mid) or z_mid.real != 0:
            raise ValueError(f"z_mid must be finite and on the imaginary axis, "
                             f"got {self.z_mid}")
        tols = (self.rtol, self.atol)
        if not all(math.isfinite(x) and x >= 0 for x in tols) or not any(tols):
            raise ValueError(f"rtol and atol must be finite, >= 0 and not both 0, "
                             f"got rtol={self.rtol}, atol={self.atol}")


# Closest a ray may pass to a turning point before the match point moves.
_STANDOFF = 0.05
# Step budget of one ray.
_MAX_STEPS = 2_000_000

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


def _times_a(w):
    """Row vector w times the stage matrix: sum_j w_j a_jk for k < len(w) - 1."""
    return tuple(math.fsum(w[j] * _DP_A[j][k] for j in range(k + 1, len(w)))
                 for k in range(len(w) - 1))


# The same pair in Nystrom form (Hairer, Norsett & Wanner, sec. II.14).  The
# system is f' = g, g' = q f up to constant factors, so a stage's f is
# f + c_i h g + h^2 sum_k (A^2)_ik p_k with p_k = q_k f_k: no g stages.  Since
# sum b = 1 and sum e5 = sum e3 = 0, the new f and the f error estimates need
# only b A, e5 A and e3 A.  DOP853 has (b A)_j = b_j (1 - c_j), so (b A)_4
# and (b A)_5 vanish; the values derived here are rounding, ~3e-16.
_DP_A2 = tuple(_times_a(row) for row in _DP_A)
_DP_BA, _DP_E5A, _DP_E3A = _times_a(_DP_B), _times_a(_DP_E5), _times_a(_DP_E3)


def wkb_init(z: complex, eps: complex, model: ModelSpec) -> ShootState:
    """Decaying WKB state at a ray end, to first order in eps: f = 1 and
    eps f' = i phi' - eps q'/(4 q), the first two terms of the Riccati
    solution y = eps f'/f of eps y' + y^2 = -q.

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
    return ShootState(f=1.0 + 0j, df=1j * s - eps * model.dq(z) / (4.0 * q), log_scale=0.0)


def integrate_ray(start: ShootState, seg: tuple[complex, complex], eps: complex,
                  model: ModelSpec, cfg: ShootConfig) -> ShootState:
    """Integrate the (f, eps f') system along the straight segment.

    Adaptive Dormand-Prince 8(5,3) stepping (DOP853), first same as last:
    the right-hand side at the end of an accepted step is the next step's
    first stage.  The system is linear in (f, g), so that stage is carried
    as q at the new point, the q the c = 1 stage already evaluated, and it
    follows f and g through any rescaling.  Since f' involves only g and
    g' only q f, the stages are in Nystrom form (_DP_A2): stage i needs
    f_i = f + c_i hf g + hf hg sum_k (A^2)_ik q_k f_k and no g_i, and g
    enters only the step's end, the same steps as the first-order form up
    to rounding.  The
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
    (_, _, (s3_1,), (s4_1, s4_2), (s5_1, s5_2, s5_3), (s6_1, _, s6_3, s6_4),
     (s7_1, _, s7_3, s7_4, s7_5), (s8_1, _, s8_3, s8_4, s8_5, s8_6),
     (s9_1, _, s9_3, s9_4, s9_5, s9_6, s9_7),
     (s10_1, _, s10_3, s10_4, s10_5, s10_6, s10_7, s10_8),
     (s11_1, _, s11_3, s11_4, s11_5, s11_6, s11_7, s11_8, s11_9),
     (s12_1, _, s12_3, s12_4, s12_5, s12_6, s12_7, s12_8, s12_9, s12_10)) = _DP_A2
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _DP_B
    ba1, _, _, _, _, ba6, ba7, ba8, ba9, ba10, ba11 = _DP_BA  # (b A)_4,5: rounding of 0
    e5_1, _, _, _, _, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = _DP_E5
    e5a1, _, _, e5a4, e5a5, e5a6, e5a7, e5a8, e5a9, e5a10, e5a11 = _DP_E5A
    e3_1, _, _, _, _, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = _DP_E3
    e3a1, _, _, e3a4, e3a5, e3a6, e3a7, e3a8, e3a9, e3a10, e3a11 = _DP_E3A

    # Stage i needs only f_i and p_i = q(z_i) f_i: g enters through hfg, and
    # hf hg (A^2 p) stands for the g stages (Nystrom form, see _DP_A2).
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
        hfg = hf * g
        hh = hf * hg
        p1 = q_t * f
        p2 = q(zt + c2 * hd) * (f + c2 * hfg)
        p3 = q(zt + c3 * hd) * (f + c3 * hfg + hh * (s3_1 * p1))
        p4 = q(zt + c4 * hd) * (f + c4 * hfg + hh * (s4_1 * p1 + s4_2 * p2))
        p5 = q(zt + c5 * hd) * (f + c5 * hfg + hh * (s5_1 * p1 + s5_2 * p2 + s5_3 * p3))
        p6 = q(zt + c6 * hd) * (f + c6 * hfg + hh * (s6_1 * p1 + s6_3 * p3 + s6_4 * p4))
        p7 = q(zt + c7 * hd) * (f + c7 * hfg + hh * (s7_1 * p1 + s7_3 * p3 + s7_4 * p4
                                                     + s7_5 * p5))
        p8 = q(zt + c8 * hd) * (f + c8 * hfg + hh * (s8_1 * p1 + s8_3 * p3 + s8_4 * p4
                                                     + s8_5 * p5 + s8_6 * p6))
        p9 = q(zt + c9 * hd) * (f + c9 * hfg + hh * (s9_1 * p1 + s9_3 * p3 + s9_4 * p4
                                                     + s9_5 * p5 + s9_6 * p6 + s9_7 * p7))
        p10 = q(zt + c10 * hd) * (f + c10 * hfg + hh * (s10_1 * p1 + s10_3 * p3 + s10_4 * p4
                                                        + s10_5 * p5 + s10_6 * p6 + s10_7 * p7
                                                        + s10_8 * p8))
        p11 = q(zt + c11 * hd) * (f + c11 * hfg + hh * (s11_1 * p1 + s11_3 * p3 + s11_4 * p4
                                                        + s11_5 * p5 + s11_6 * p6 + s11_7 * p7
                                                        + s11_8 * p8 + s11_9 * p9))
        q_end = q(zt + hd)
        p12 = q_end * (f + hfg + hh * (s12_1 * p1 + s12_3 * p3 + s12_4 * p4 + s12_5 * p5
                                       + s12_6 * p6 + s12_7 * p7 + s12_8 * p8 + s12_9 * p9
                                       + s12_10 * p10))
        f_new = f + hfg + hh * (ba1 * p1 + ba6 * p6 + ba7 * p7 + ba8 * p8 + ba9 * p9
                                + ba10 * p10 + ba11 * p11)
        g_new = g + hg * (b1 * p1 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10
                          + b11 * p11 + b12 * p12)
        ef5 = hh * (e5a1 * p1 + e5a4 * p4 + e5a5 * p5 + e5a6 * p6 + e5a7 * p7 + e5a8 * p8
                    + e5a9 * p9 + e5a10 * p10 + e5a11 * p11)
        eg5 = hg * (e5_1 * p1 + e5_6 * p6 + e5_7 * p7 + e5_8 * p8 + e5_9 * p9 + e5_10 * p10
                    + e5_11 * p11 + e5_12 * p12)
        ef3 = hh * (e3a1 * p1 + e3a4 * p4 + e3a5 * p5 + e3a6 * p6 + e3a7 * p7 + e3a8 * p8
                    + e3a9 * p9 + e3a10 * p10 + e3a11 * p11)
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


def _start_radius(model: ModelSpec, z_dir: complex, r_tp: float, eps: complex,
                  r_max: float) -> float:
    """Smallest radius along z_dir from which a ray started by wkb_init is
    back at the turning points with its partner solution below 2^-53.

    The start misses the decaying solution's eps f'/f by about eps^2 y2, the
    next Riccati term, and so excites the partner at relative size
    c = |eps^2 y2| / (2 |y0|) = |eps|^2 |5 q'^2 - 4 q q''| / (64 |q|^3).  On the
    way in from radius r to r_tp the partner decays against the solution by
    D(r) = 2 int_{r_tp}^r |Re(i sqrt(q) z_dir / eps)| dr.  The radius solves
    D = ln(2^53 c), capped at r_max.  Newton steps start from the radius
    where the asymptotic action gives ln(2^53) and stop within one e-fold,
    and a last linear step lands within about 0.1 e-fold.  D comes from the
    four-point Gauss rule in u, r = r_tp + (r - r_tp) u^2 (smooth at a
    turning point on the ray), then from the Hermite rule on each step.
    """
    q, dq, d2q = model.q_callable(), model.dq, model.d2q
    w_dir = 2j * z_dir / eps  # dD/dr = |Re(sqrt(q) w_dir)|
    floor = _LN_ULP + math.log(abs(eps) ** 2 / 64.0)
    k = model.degree + 2.0
    r = min(r_max, (r_tp ** (k / 2) + _LN_ULP * k * abs(eps) / 4) ** (2 / k))
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
        r_new = min(r_max, max(r + (target - decay) / rho, 0.5 * (r + r_tp)))
        if abs(target - decay) <= 1.0 or r_new == r:
            break
    return min(r_max, r + (target - decay) / rho)


def _collocation_length(k: float, r_tp: float, eps: complex, r_max: float) -> float:
    """Ray of the collocation that seeds scan_spectrum: 40 e-folds of the
    asymptotic action S = (2/k)(r^(k/2) - r_tp^(k/2)), k the model's degree
    + 2, at least 2 r_tp and at most r_max.  Kept apart from _start_radius:
    the collocation's seeds move with its ray."""
    r = (r_tp ** (k / 2) + 40.0 * k * abs(eps) / 4) ** (2 / k)
    return min(r_max, max(2 * r_tp, r))


def _contour(model: ModelSpec, eps: complex, cfg: ShootConfig,
             collocation: bool = False) -> tuple[complex, complex, complex]:
    """Ray endpoints and a match point keeping clear of turning points.

    model is the equation at eps (ModelSpec.at).  The left ray runs along
    the power law's left wedge centre, or the quartic's negative real axis,
    out past the outermost turning point, which for the power law is taken
    at radius 1 exactly: |z_A| = |z_B| = 1 only up to rounding.  Its radius
    is the larger _start_radius of the two rays (one when the right ray is
    the left one's PT mirror), or _collocation_length for the collocation.
    z_r = -conj(z_l) (for the power law th_r = -pi - th_l) and the match
    point stays on the imaginary axis, so the contour is its own PT mirror,
    and the contour at conj(eps) is the one at eps.
    """
    try:
        tps = model.turning_points
    except TraceError as exc:
        raise ShootingError(f"no labelled turning points: {exc}") from exc
    if model.family == "power":
        r_tp, z_dir, z_mid = 1.0, cmath.exp(1j * wedge_angles(model.p)[0]), cfg.z_mid
    else:
        r_tp, z_dir, z_mid = max(abs(tp) for tp in tps), -1 + 0j, 0j
    if collocation:
        r = _collocation_length(model.degree + 2.0, r_tp, eps, cfg.r_max)
    else:
        r = _start_radius(model, z_dir, r_tp, eps, cfg.r_max)
        if eps.imag != 0 or not model.pt_mirror:
            r = max(r, _start_radius(model, -z_dir.conjugate(), r_tp, eps, cfg.r_max))
    z_l = r * z_dir
    z_r = -z_l.conjugate()
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

    At real eps with a model that has the PT mirror (ModelSpec.pt_mirror),
    conj f(-conj z) solves the same equation, so the right ray is the
    mirror of the left one and only the left ray is integrated.  W is then
    exactly real.  Complex E and a complex quartic coupling integrate both
    rays.
    """
    cfg = cfg or ShootConfig()
    E = complex(E)
    eps = E_to_eps(E, model.degree)
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
    finite and > 0 (ValueError).
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
    """Eigenvalues of a Chebyshev collocation on mismatch's contour at E0.

    At E0 = 1.5 E_max both families read -eps0^2 u'' + (1 - q) u = (E/E0) u
    on the ray 0 -> z_l, with u(z_l) = 0; the right ray carries conj(u).  The
    operator [[X, Y], [conj Y, conj X]] is solved as the real matrix
    [[Re(X+Y), Im(Y-X)], [Im(X+Y), Re(X-Y)]] (Trefethen, SIAM 2000)."""
    E0 = 1.5 * E_max
    eps0 = E_to_eps(complex(E0), model.degree)
    scaled = model.at(eps0)
    z_l = _contour(scaled, eps0, cfg, collocation=True)[0]
    n, m = _COLLOCATION_POINTS, _COLLOCATION_POINTS - 1
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    d2 = d @ d  # node 0 is z_l, node n is 0, node k is z_l (1 + x_k) / 2
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


def scan_spectrum(model: ModelSpec, E_max: float,
                  cfg: ShootConfig | None = None) -> list[EigRecord]:
    """All eigenvalues with 0 < Re E <= E_max and |Im E| <= E_max.

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
            records.append(_record(rec.E.conjugate(), rec.residual, model))
    records.sort(key=lambda r: (r.E.imag != 0, r.E.real, r.E.imag))
    for idx, r in enumerate(r for r in records if r.E.imag == 0):
        r.n = idx
    return records
