"""Checks of ptspec's outputs, written from the paper's formulas alone.

Nothing here imports ptspec.  The eigenvalue conditions, the closed-form
WKB ladder, the quartic action and the Stokes-line singulant are all
recomputed with math/cmath/numpy, so a fault shared by ptspec's solvers and
its own helpers cannot also hide in the check.

Every check returns a list of problems (empty when the output is right);
the caller turns a non-empty list into one failed operation.
"""

import cmath
import math

import numpy as np

#: Largest scaled residual of a recomputed eigenvalue condition at a root.
CONDITION_TOL = 1e-8
#: Relative distance under which two reported roots are the same root.
DUPLICATE_TOL = 1e-7
#: Relative agreement of a WKB root with the closed-form ladder.
LADDER_TOL = 1e-9
#: Floor of the eigenvalue match tolerance (relative).  find_eigen stops at
#: |W| <= 1e-9, which pins E to a few 1e-8 where the Wronskian is flat.
MATCH_FLOOR = 1e-7
#: Multiple of the oracle's two-resolution gap allowed on top of the floor.
MATCH_GAP_FACTOR = 10.0
#: |Im chi| (relative to max(1, |chi|)) allowed on a re-integrated Stokes line.
SINGULANT_TOL = 1e-7
#: A traced line that passes closer than this to another singular point and
#: goes on has run through it instead of stopping there.
RUN_THROUGH = 1e-3
#: Range of delta / delta_estimate(E) at the three smallest deltas.
P1_RATIO_RANGE = (0.8, 1.25)


# --- power-law conditions ----------------------------------------------------

def action_scale(p: float) -> float:
    """R(p) = sqrt(pi) Gamma(1 + 1/p) / (2 Gamma(3/2 + 1/p))."""
    return math.sqrt(math.pi) * math.gamma(1.0 + 1.0 / p) / (2.0 * math.gamma(1.5 + 1.0 / p))


def wkb_ladder(n: int, p: float) -> float:
    """Closed-form WKB eigenvalue E_n; exactly 2n + 1 at p = 2."""
    base = (math.sqrt(math.pi) * (n + 0.5) * math.gamma(1.5 + 1.0 / p)
            / (math.gamma(1.0 + 1.0 / p) * math.sin(math.pi / p)))
    return base ** (2.0 * p / (p + 2.0))


def _cpow(w: complex, s: float) -> complex:
    return cmath.exp(s * cmath.log(w))


def corrected_residual(E: complex, p: float) -> float:
    """|exp(X) cos Y - T2| over its largest term, at eps = E^-(p+2)/(2p).

    X = 2R cos(pi/p)/eps, Y = 2R sin(pi/p)/eps and
    T2 = pi eps^p / (2^(p+2) Gamma(-p)), zero at integer p.
    """
    eps = _cpow(complex(E), -(p + 2.0) / (2.0 * p))
    r = action_scale(p)
    x = 2.0 * r * math.cos(math.pi / p) / eps
    y = 2.0 * r * math.sin(math.pi / p) / eps
    cos_y = cmath.cos(y)
    big_cos = math.cosh(y.imag)
    if p == math.floor(p):
        return abs(cos_y) / big_cos
    t2 = math.pi * _cpow(eps, p) / (2.0 ** (p + 2.0) * math.gamma(-p))
    log_t2 = math.log(abs(t2))
    top = max(x.real + math.log(big_cos), log_t2)
    a = cmath.exp(x - top) * cos_y
    b = t2 * math.exp(-top)
    return abs(a - b) / max(abs(cmath.exp(x - top)) * big_cos, abs(b))


# --- quartic condition -------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_GL_S = 0.5 * (_GL_X + 1.0)
_GL_WS = 0.5 * _GL_W


def quartic_action(a: float) -> complex:
    """U + iV = -integral from z_C to z_A of sqrt(1 - t^4 - i a t), real a >= 0.

    z_C is the root on the negative imaginary axis, z_A the root of largest
    real part.  The map u = (1 - cos(pi s))/2 removes both square-root end
    singularities; the branch is carried along the path and the overall sign
    fixed by U > 0.
    """
    roots = np.roots([1.0, 0.0, 0.0, 1j * a, -1.0])
    on_axis = [z for z in roots if abs(z.real) < 1e-7 and z.imag < 0]
    if len(on_axis) != 1:
        raise ValueError(f"no unique lower imaginary-axis root at a = {a}")
    z_c = complex(on_axis[0])
    z_a = complex(max(roots, key=lambda z: z.real))
    u = 0.5 * (1.0 - np.cos(np.pi * _GL_S))
    du = 0.5 * np.pi * np.sin(np.pi * _GL_S)
    t = z_c + (z_a - z_c) * u
    s = _tracked_sqrt(1.0 - t ** 4 - 1j * a * t)
    w = -complex(np.sum(_GL_WS * du * s)) * (z_a - z_c)
    return w if w.real > 0 else -w


def quartic_residual(E: float, A: float) -> float:
    """Scaled |2 exp(2V/eps) cos(2U/eps) + 1| at eps = E^(-3/4), a = A eps."""
    eps = E ** -0.75
    w = quartic_action(A * eps)
    big = 2.0 * w.imag / eps
    c = math.cos(2.0 * w.real / eps)
    if big >= 0:
        return abs(c + 0.5 * math.exp(-big))
    return abs(c * math.exp(big) + 0.5)


# --- spectra -----------------------------------------------------------------

def _same(a: complex, b: complex, tol: float = DUPLICATE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a))


def ladder_problems(rows: list[tuple[int, complex]], residual) -> list[str]:
    """Problems of one condition spectrum: rows of (n, E) at one parameter.

    Every root must satisfy the recomputed condition, no root may appear
    twice, real roots must carry labels that increase with E, and complex
    roots must come with their conjugates.
    """
    out = []
    for n, e in rows:
        res = residual(e)
        if not res <= CONDITION_TOL:
            out.append(f"n={n} E={e:.6g}: condition residual {res:.2e}")
    for i, (ni, ei) in enumerate(rows):
        for nj, ej in rows[i + 1:]:
            if _same(ei, ej):
                out.append(f"duplicate root E={ei:.6g} at n={ni} and n={nj}")
    real = sorted((n, e.real) for n, e in rows if e.imag == 0)
    for (n0, e0), (n1, e1) in zip(real, real[1:]):
        if not e0 < e1:
            out.append(f"labels out of order: n={n0} E={e0:.6g}, n={n1} E={e1:.6g}")
    for n, e in rows:
        if e.imag != 0 and not any(_same(e.conjugate(), f) for _, f in rows):
            out.append(f"n={n} E={e:.6g}: conjugate missing")
    return out


def wkb_problems(rows: list[tuple[int, complex]], p: float) -> list[str]:
    """WKB roots must be the closed-form ladder, label for label."""
    out = []
    for n, e in rows:
        want = wkb_ladder(n, p)
        if e.imag != 0 or abs(e.real - want) > LADDER_TOL * want:
            out.append(f"n={n} E={e:.12g}, ladder {want:.12g}")
    return out + ladder_problems(rows, lambda e: 0.0)


def p1_problems(branch_rows: dict[int, list[tuple[float, float]]]) -> dict[int, list[str]]:
    """p1-scaling: each branch is real roots of the corrected condition at
    p = 1 + delta; the ground branch obeys delta ~ (8E^1.5/pi) exp(-4E^1.5/3)
    at its three smallest deltas."""
    out = {}
    lo, hi = P1_RATIO_RANGE
    for b, rows in branch_rows.items():
        probs = []
        for delta, e in rows:
            res = corrected_residual(e, 1.0 + delta)
            if not res <= CONDITION_TOL:
                probs.append(f"delta={delta:.4g} E={e:.6g}: residual {res:.2e}")
        if b == 0:
            tail = sorted(rows)[:3]
            if len(tail) < 3:
                probs.append("ground branch has fewer than three rows")
            for delta, e in tail:
                s = e ** 1.5
                ratio = delta / (8.0 * s / math.pi * math.exp(-4.0 * s / 3.0))
                if not lo <= ratio <= hi:
                    probs.append(f"delta={delta:.4g}: ratio {ratio:.3f}")
        out[b] = probs
    return out


def match_tol(e: complex, gap: float) -> float:
    """Match tolerance around an oracle eigenvalue, from its own gap."""
    return MATCH_FLOOR * max(1.0, abs(e)) + MATCH_GAP_FACTOR * gap


def match_records(found: list[complex], oracle: list[tuple[complex, float]]):
    """Pair reported eigenvalues with oracle ones, nearest first.

    Returns (matched, missed, spurious): matched (found, oracle) pairs,
    oracle eigenvalues nobody matched, reported values matching nothing.
    Each oracle eigenvalue absorbs at most one report, so a duplicate
    report is spurious.
    """
    pairs = sorted(
        ((abs(f - e), i, j) for i, f in enumerate(found) for j, (e, g) in enumerate(oracle)
         if abs(f - e) <= match_tol(e, g)),
    )
    used_f, used_o, matched = set(), set(), []
    for _, i, j in pairs:
        if i in used_f or j in used_o:
            continue
        used_f.add(i)
        used_o.add(j)
        matched.append((found[i], oracle[j][0]))
    missed = [oracle[j][0] for j in range(len(oracle)) if j not in used_o]
    spurious = [found[i] for i in range(len(found)) if i not in used_f]
    return matched, missed, spurious


def polish_problem(e: complex, n: int, oracle: list[tuple[complex, float]]) -> str | None:
    """A polish for mode n must land on the oracle's n-th real eigenvalue."""
    real = [(x, g) for x, g in oracle if x.imag == 0]
    if n >= len(real):
        return f"oracle resolves only {len(real)} real eigenvalues"
    want, gap = real[n]
    if abs(e - want) > match_tol(want, gap):
        return f"n={n}: E={e:.10g}, oracle {want.real:.10g}"
    return None


# --- Stokes geometry ---------------------------------------------------------

def power_q(p: float):
    return lambda z: 1.0 + np.exp(p * np.log(1j * z))


def quartic_q(a: float):
    return lambda z: 1.0 - z ** 4 - 1j * a * z


def _tracked_sqrt(w: np.ndarray) -> np.ndarray:
    """Square roots of w[k] with the sign of each nearest the previous one."""
    s = np.sqrt(w)
    flips = np.sign(np.real(s[1:] * np.conj(s[:-1])))
    flips[flips == 0] = 1.0
    return s * np.concatenate([[1.0], np.cumprod(flips)])


_G4_X, _G4_W = np.polynomial.legendre.leggauss(4)
_G4_U = 0.5 * (_G4_X + 1.0)
_G4_WU = 0.5 * _G4_W


def crosses_cut(z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Segments z0 -> z1 meeting the cut of (i z)^p, the ray Re z = 0, Im z > 0."""
    x0, x1 = z0.real, z1.real
    with np.errstate(invalid="ignore", divide="ignore"):
        t = x0 / (x0 - x1)
    y = z0.imag + t * (z1.imag - z0.imag)
    return (x0 * x1 < 0) & (y > 0)


def power_singular_points(p: float) -> list[complex]:
    """Turning points -i exp(-/+ i pi/p), plus the branch point 0 off integers."""
    pts = [-1j * cmath.exp(-1j * math.pi / p), -1j * cmath.exp(1j * math.pi / p)]
    return pts if p == math.floor(p) else pts + [0j]


def quartic_singular_points(a: float) -> list[complex]:
    return [complex(z) for z in np.roots([1.0, 0.0, 0.0, 1j * a, -1.0])]


_G8_X, _G8_W = np.polynomial.legendre.leggauss(8)


def _adaptive_leg(q, a: complex, b: complex, last: complex, depth: int = 0):
    """Integral of sqrt(q) over [a, b], bisecting until 8-point Gauss agrees
    with its two halves; the sign follows `last`.  Returns (value, last)."""
    def g8(lo, hi, ref):
        t = lo + (hi - lo) * 0.5 * (_G8_X + 1.0)
        s = np.sqrt(q(t))
        out = np.empty_like(s)
        for k, v in enumerate(s):
            ref = v if abs(v - ref) <= abs(v + ref) else -v
            out[k] = ref
        return complex(np.sum(out * _G8_W) * 0.5 * (hi - lo)), ref

    whole, _ = g8(a, b, last)
    mid = 0.5 * (a + b)
    left, last_l = g8(a, mid, last)
    right, last_r = g8(mid, b, last_l)
    if abs(left + right - whole) <= 1e-15 * max(1.0, abs(whole)) + 1e-17 or depth > 40:
        return left + right, last_r
    v1, last = _adaptive_leg(q, a, mid, last, depth + 1)
    v2, last = _adaptive_leg(q, mid, b, last, depth + 1)
    return v1 + v2, last


def reintegrate(origin: complex, points: np.ndarray, q, singular=()) -> np.ndarray:
    """chi(z_k) = 2i * integral origin -> z_k of sqrt(q) along the polyline.

    The first leg leaves the origin, where q may vanish: it goes through
    t = s^2 so the square-root end point does no harm.  Later legs use
    4-point Gauss-Legendre, except legs passing close to one of the
    `singular` points, which are integrated adaptively.  The branch is
    carried node to node; the overall sign is whatever the first node gives.
    """
    z = np.asarray(points, dtype=complex)
    d0 = z[0] - origin
    first_t = origin + d0 * _G4_U ** 2                 # t = s^2 on [0, 1]
    first_w = 2.0 * _G4_U * _G4_WU
    seg = z[1:] - z[:-1]
    seg_t = z[:-1, None] + seg[:, None] * _G4_U[None, :]
    s = _tracked_sqrt(q(np.concatenate([first_t, seg_t.ravel()])))
    head = np.sum(s[:4] * first_w) * d0
    legs = (s[4:].reshape(-1, 4) * _G4_WU[None, :]).sum(axis=1) * seg
    near = np.zeros(len(seg), dtype=bool)
    for w in singular:
        if abs(w - origin) < 1e-9:
            continue
        t = np.clip(((w - z[:-1]) * np.conj(seg)).real / np.maximum(np.abs(seg) ** 2, 1e-300), 0, 1)
        near |= np.abs(z[:-1] + t * seg - w) < 20.0 * np.abs(seg)
    for k in np.nonzero(near)[0]:
        legs[k], _ = _adaptive_leg(q, z[k], z[k + 1], s[4 + 4 * k])
    return 2j * np.concatenate([[head], head + np.cumsum(legs)])


def stokes_line_problems(origin: complex, points: np.ndarray, chi: np.ndarray,
                         q, has_cut: bool, singular=(), component: str = "imag") -> list[str]:
    """Problems of one traced equal-phase line.

    The line must stop where it meets another singular point rather than
    run on through it, must keep its chi component at zero when chi is
    re-integrated here, and must report that re-integrated chi.  The check
    ends at the first step across the branch cut (q jumps there by
    construction) and at the closest approach to a singular point the line
    runs through (past it the continuation is not defined).
    """
    z = np.asarray(points, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    out = []
    end = len(z)
    if has_cut and len(z) > 1:
        hit = np.nonzero(crosses_cut(z[:-1], z[1:]))[0]
        if len(hit):
            end = hit[0] + 1
    for w in singular:
        if abs(w - origin) < 1e-9:
            continue
        dist = np.abs(z[:end] - w)
        k = int(np.argmin(dist))
        if dist[k] < RUN_THROUGH and k < end - 1:
            out.append(f"runs through the singular point {w:.4g} (closest {dist[k]:.1e})")
            end = max(k, 1)
    z, chi = z[:end], chi[:end]
    ours = reintegrate(origin, z, q, singular)
    if np.sum(np.abs(ours - chi)) > np.sum(np.abs(ours + chi)):
        ours = -ours
    scale = np.maximum(1.0, np.abs(ours))
    part = ours.imag if component == "imag" else ours.real
    worst = float(np.max(np.abs(part) / scale))
    if not worst <= SINGULANT_TOL:
        out.append(f"re-integrated {component} chi reaches {worst:.2e}")
    drift = float(np.max(np.abs(ours - chi) / scale))
    if not drift <= SINGULANT_TOL:
        out.append(f"reported chi differs from re-integrated by {drift:.2e}")
    return out
