"""Stokes-wedge geometry, turning points, and equal-phase line tracing.

The eigenproblems live on contours in the complex z-plane.  This module
knows where the decay wedges are, where the WKB approximation breaks
(turning points), where the branch cut of (i z)^p runs and which paths
cross it (path_crosses_cut, the one place that decides), and how to follow
the curves Im chi = 0 (Stokes lines) and Re chi = 0 (the classical matching
path) away from their source singularities.  The lines leave at the angles
the local form of chi gives (seed_directions).  One predictor-corrector
traces both; it differs between them only in the part of chi it holds at
zero, the orientation of the first step and where it stops.  chi =
2i * integral of sqrt(q) from the source comes from _path_action, the one
path integral of sqrt(q) that the action module's integrals also use.  The
quartic's four turning points and their labels come from one coupling
walk from a = 0, which the quartic action walks too.
"""

import cmath
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._quadrature import SqrtTracker, powerlaw_origin_piece, sqrt_path_integral
from .special import principal_power

__all__ = [
    "ModelSpec",
    "QuarticRoots",
    "StokesTrace",
    "TraceError",
    "path_crosses_cut",
    "quartic_turning_points",
    "seed_directions",
    "trace_matching_path",
    "trace_stokes_line",
    "turning_points",
    "wedge_angles",
]

#: |q| below this counts as "at a turning point" for tracer termination.
_TP_NEIGHBOURHOOD = 1e-6
#: |q| below this makes a path end or a seed origin a turning point.
_TURNING_POINT_TOL = 1e-9
#: Largest tracer step as a fraction of max(1, |chi|).
_H_CAP = 0.01
#: The tracer's corrector holds the chosen part of chi within this of zero.
_HOLD_TOL = 1e-10
#: Distance from the source singularity at which seeds are polished and
#: traces start, and the Gauss order of the integral of sqrt(q) out to it.
_START_RADIUS = 1e-3
_START_ORDER = 24
#: A Stokes line ends "escape" once |z| exceeds this radius.
_ESCAPE_RADIUS = 8.0
#: Tracer step budget; running out raises TraceError.
_MAX_POINTS = 500_000


class TraceError(RuntimeError):
    """Predictor-corrector tracing failed (divergent corrector, dead end)."""


@dataclass(frozen=True)
class ModelSpec:
    """Which oscillator family.

    family "power" is the eigenproblem -eps^2 f'' - (i z)^p f = f with finite
    real exponent p >= 1; family "quartic" is -eps^2 f'' + (z^4 + i a z) f = f
    with finite scaled coupling a (shooting interprets the coupling as the
    physical one and rescales per eigenvalue, see shooting module docs).  The
    branch cut of (i z)^p is fixed on the positive imaginary axis.
    """

    family: str
    p: float | None = None
    a: complex | None = None

    def __post_init__(self):
        if self.family == "power":
            if self.p is None or not math.isfinite(self.p) or self.p < 1.0:
                raise ValueError("power-law family needs finite real p >= 1")
        elif self.family == "quartic":
            if self.a is None or not cmath.isfinite(self.a):
                raise ValueError("quartic family needs a finite coupling")
            if isinstance(self.a, (int, float)) and self.a < 0:
                raise ValueError("quartic coupling must be >= 0")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def power_law(cls, p: float) -> "ModelSpec":
        return cls(family="power", p=float(p))

    @classmethod
    def quartic(cls, a: complex) -> "ModelSpec":
        return cls(family="quartic", a=a)

    @property
    def is_integer_power(self) -> bool:
        return self.family == "power" and float(self.p) == int(self.p)

    @property
    def has_branch_cut(self) -> bool:
        """Only fractional powers of (i z) carry a cut; the quartic is entire."""
        return self.family == "power" and not self.is_integer_power

    def q(self, z):
        """Eikonal right-hand side: (phi')^2 = q(z), at a point or an array."""
        if self.has_branch_cut:  # (i z)^p -> 0 at z = 0, where log would raise
            if isinstance(z, np.ndarray):
                origin = z == 0
                return np.where(origin, 1.0 + 0j,
                                self._q_closure()(np.where(origin, 1.0, z)))
            if z == 0:
                return 1.0 + 0j
        return self._q_closure()(z)

    def dq(self, z: complex) -> complex:
        """d q / d z."""
        if self.family == "power":
            p = self.p
            if p == int(p):
                return 1j * p * (1j * z) ** (int(p) - 1)
            return 1j * p * principal_power(1j * z, p - 1.0)
        return -(4.0 * z * z * z + 1j * self.a)

    def _q_closure(self):
        """Specialised q(z) closure for hot loops: the one formula for q.

        The closure takes a point or a numpy array of points.
        """
        if self.family == "power":
            p = self.p
            if p == int(p):
                ip = int(p)
                return lambda z: 1.0 + (1j * z) ** ip
            clog = cmath.log
            cexp = cmath.exp

            def q(z):
                try:
                    return 1.0 + cexp(p * clog(1j * z))
                except TypeError:  # an array: cmath takes scalars only
                    if np.count_nonzero(z) < z.size:  # log(0), as in cmath
                        raise ValueError("math domain error") from None
                    return 1.0 + np.exp(p * np.log(1j * z))

            return q
        ia = 1j * self.a
        return lambda z: 1.0 - z * (z * z * z + ia)

    # q bypasses q_callable, so a counter wrapped around both sees each q(z) once.
    q_callable = _q_closure


def wedge_angles(p: float) -> tuple[float, float, float]:
    """Centre angles of the two decay wedges and the wedge width.

    theta_{left,right} = pi (-1/2 -/+ 2/(p+2)), each wedge 2 pi/(p+2) wide.
    Left angles below -pi are intentionally left unwrapped (the p -> 1 wedge
    swings into the upper half-plane).
    """
    off = 2.0 / (p + 2.0)
    return (math.pi * (-0.5 - off), math.pi * (-0.5 + off), 2.0 * math.pi / (p + 2.0))


def turning_points(p: float) -> tuple[complex, complex]:
    """The two zeros of 1 + (i z)^p that bound the oscillatory region.

    z_A = -i e^{-i pi/p} (left), z_B = -i e^{i pi/p} (right); they coalesce
    at z = i as p -> 1 and sit at -/+1 for p = 2.
    """
    za = -1j * cmath.exp(-1j * math.pi / p)
    zb = -1j * cmath.exp(1j * math.pi / p)
    return za, zb


@dataclass(frozen=True)
class QuarticRoots:
    """Labeled turning points of z^4 + i a z = 1."""

    z_a: complex  # largest real part
    z_b: complex  # smallest real part
    z_c: complex  # imaginary axis, lower half-plane (integration base)
    z_d: complex  # imaginary axis, upper half-plane

    @property
    def all(self) -> tuple[complex, complex, complex, complex]:
        return (self.z_a, self.z_b, self.z_c, self.z_d)


#: Spacing of the fixed coupling waypoints of the quartic walk.
_WAYPOINT_STEP = 0.2
#: Waypoints memoised per real direction: |a| up to 0.2 * 63 = 12.6.
_WAYPOINT_MEMO_LEN = 64


@dataclass(frozen=True)
class _Waypoint:
    """Labelled turning points at coupling a, with the action's branch seeds.

    seed_a and seed_b orient sqrt(q) at the midpoints of z_C -> z_A and
    z_C -> z_B, where action._quartic_end_action starts its quadrature.
    """

    a: complex
    roots: QuarticRoots
    seed_a: complex
    seed_b: complex


def _polish_turning_point(z: complex, ia: complex) -> complex:
    """Newton-polish z toward a root of z^4 + ia z - 1 (ia = i a)."""
    for _ in range(50):
        dz = (z * (z * z * z + ia) - 1.0) / (4.0 * z * z * z + ia)
        z -= dz
        if abs(dz) < 1e-14:
            break
    return z


def _walk_leg(start: _Waypoint, a: complex) -> _Waypoint:
    """Carry the labelled roots and seeds of start straight on to coupling a.

    Each root is polished from its value at start and each seed takes the
    sign nearest its value there, so labels and branches are carried by
    continuity.  A leg on which two roots meet raises TraceError:
    continuity cannot tell their labels apart there.
    """
    ia = 1j * a
    roots = [_polish_turning_point(z, ia) for z in start.roots.all]
    for z in roots:
        if abs(z * (z * z * z + ia) - 1.0) > 1e-12:
            raise TraceError(f"turning point polish failed at a = {a:.6g}")
    if min(abs(u - v) for u, v in combinations(roots, 2)) < 1e-6:
        raise TraceError(f"two turning points meet near a = {a:.6g}")
    z_a, z_b, z_c, _ = roots
    q = ModelSpec.quartic(a).q_callable()
    seeds = [SqrtTracker(prev).take(q(0.5 * (z_c + z_e)))
             for z_e, prev in ((z_a, start.seed_a), (z_b, start.seed_b))]
    return _Waypoint(a, QuarticRoots(*roots), *seeds)


# At a = 0, q = 5/4 at both midpoints; seeds of -1 pick the -principal
# branch there, which fixes the overall sign of the action by V(0) =
# +0.874..., not its negative.
_ORIGIN_WAYPOINT = _Waypoint(0j, QuarticRoots(1 + 0j, -1 + 0j, -1j, 1j),
                             -1 + 0j, -1 + 0j)
#: Waypoint chains of the two real directions, filled lazily from a = 0.
_WAYPOINT_MEMO = {1.0: [_ORIGIN_WAYPOINT], -1.0: [_ORIGIN_WAYPOINT]}


def _quartic_walk(a: complex) -> _Waypoint:
    """Labelled turning points and action seeds at a, walked from a = 0.

    The walk runs the straight ray from 0 to a through the fixed waypoints
    a_k = 0.2 k a/|a|, k = 0..floor(|a|/0.2), then to a itself, and carries
    each root of z^4 + i a z - 1 and each seed by continuity (_walk_leg).
    No leg is longer than 0.2.  For real a the waypoints are memoised per
    direction up to a fixed bound, so one call polishes one leg, waypoint
    -> a; a complex a walks its own ray uncached.  Each waypoint follows
    from its predecessor alone, so the result is the same whatever the
    memo holds.  Two roots meet only at |a| = 4 * 3^(-3/4) with arg a =
    +-pi/4, +-3pi/4, so along real a the labels are the sorted ones of
    QuarticRoots; a walk through such a meeting raises TraceError.
    """
    a = complex(a)
    size = abs(a)
    direction = a / size if size else 1 + 0j
    chain = _WAYPOINT_MEMO.get(direction) or [_ORIGIN_WAYPOINT]
    last = int(size / _WAYPOINT_STEP)
    k = min(last, len(chain) - 1)
    wp = chain[k]
    while k < last:
        k += 1
        wp = _walk_leg(wp, _WAYPOINT_STEP * k * direction)
        if k < _WAYPOINT_MEMO_LEN:
            # One atomic store: a waypoint is the same whoever computes it.
            chain[k:k + 1] = [wp]
    return wp if wp.a == a else _walk_leg(wp, a)


def quartic_turning_points(a: complex) -> QuarticRoots:
    """Labelled roots of z^4 + i a z - 1 = 0, carried from a = 0.

    For real a >= 0 two roots sit on the imaginary axis: z_c below, z_d
    above; the other two share an imaginary part, z_a to the right of the
    axis and z_b to the left.  Every label is carried by continuity along
    the straight coupling walk from 0 to a (_quartic_walk, the one walk the
    quartic action also takes): from the memoised waypoint nearest below
    |a|, one polished leg per call.
    """
    return _quartic_walk(a).roots


@dataclass
class StokesTrace:
    """A traced equal-phase line and the singulant values along it."""

    origin: complex
    points: list[complex] = field(default_factory=list)
    chi: list[complex] = field(default_factory=list)
    terminated: str = ""
    hold_imag: bool = True  # Im chi held at zero (Stokes line), else Re chi

    @property
    def residuals(self) -> list[float]:
        """|Im chi| along a Stokes line, |Re chi| along the matching path."""
        return [abs(c.imag if self.hold_imag else c.real) for c in self.chi]


def _ray_hit(w0: complex, w1: complex) -> bool:
    """True iff the segment w0 -> w1 meets the cut, the positive imaginary axis."""
    x0, x1 = w0.real, w1.real
    if x0 == 0.0 and w0.imag > 0.0:
        return True
    if x1 == 0.0 and w1.imag > 0.0:
        return True
    if x0 * x1 < 0.0:
        t = x0 / (x0 - x1)
        y = w0.imag + t * (w1.imag - w0.imag)
        if y > 1e-15:
            return True
    return False


def path_crosses_cut(points, model: ModelSpec) -> bool:
    """True iff the polyline through points meets the model's branch cut.

    Only a fractional power of (i z) has a cut, the positive imaginary
    axis; for the quartic and integer p no path crosses one.
    """
    if not model.has_branch_cut:
        return False
    zs = [complex(z) for z in points]
    return any(map(_ray_hit, zs, zs[1:]))


def _path_action(model: ModelSpec, nodes, order: int,
                 seed: complex | None = None) -> tuple[complex, complex]:
    """Integral of sqrt(q) along the polyline nodes, plus the last sample.

    The one place that decides how: a path from the branch point z = 0 of
    a fractional power starts with the binomial series on a sliver of its
    first segment (the (i t)^p kink there defeats Gauss quadrature) and
    seeds the branch at +1; an end where |q| < _TURNING_POINT_TOL is a
    turning point and gets the square-root substitution; otherwise the
    seed (None: the principal root) is the sample before the first.
    """
    nodes = [complex(z) for z in nodes]
    head = 0j
    if model.has_branch_cut and nodes[0] == 0:
        seg = nodes[1] - nodes[0]
        delta = min(0.3, 0.5 * abs(seg))
        direction = seg / abs(seg)
        head = powerlaw_origin_piece(model.p, direction, delta)
        nodes[0] = delta * direction
        if seed is None:
            seed = 1.0 + 0j
    val, last = sqrt_path_integral(
        model.q_callable(), nodes, order=order, seed=seed,
        singular_start=abs(model.q(nodes[0])) < _TURNING_POINT_TOL,
        singular_end=abs(model.q(nodes[-1])) < _TURNING_POINT_TOL,
    )
    return head + val, last


def seed_directions(origin: complex, model: ModelSpec,
                    kind: str = "stokes") -> list[float]:
    """Angles in [0, 2 pi), sorted, at which equal-phase lines leave origin.

    The leading-order angles come from the local form of chi.  At a simple
    zero of q, chi ~ (4i/3) sqrt(q'(z*)) (z - z*)^(3/2): with phi =
    arg(i sqrt(q'(z*))) the three Stokes directions (Im chi = 0, kind
    "stokes") are (2/3)(k pi - phi) and the three anti-Stokes directions
    (Re chi = 0, kind "anti", the classical matching directions) are
    (2/3)(pi/2 + k pi - phi), k = 0, 1, 2.  Elsewhere, including the
    branch point z = 0 on the principal sheet where q(0) = 1, chi ~ 2i
    sqrt(q) (z - origin) with phi = arg(2i sqrt(q)): one Stokes direction
    -phi, on which Re chi > 0, and two anti-Stokes directions pi/2 + k pi -
    phi.  Each angle is then polished by at most three Newton steps on the
    held part of chi at the tracer's start radius; raises TraceError if
    that part still exceeds the tracer's hold tolerance, and ValueError
    for an unknown kind.
    """
    if kind not in ("stokes", "anti"):
        raise ValueError(f"unknown seed kind {kind!r}")
    hold_imag = kind == "stokes"
    lead = 0.0 if hold_imag else math.pi / 2
    if abs(model.q(origin)) < _TURNING_POINT_TOL:
        phi = cmath.phase(1j * cmath.sqrt(model.dq(origin)))
        thetas = [(2.0 / 3.0) * (lead + k * math.pi - phi) for k in range(3)]
    else:
        phi = cmath.phase(2j * cmath.sqrt(model.q(origin)))
        thetas = [lead + k * math.pi - phi for k in range(1 if hold_imag else 2)]
    polished = []
    for theta in thetas:
        for step in range(4):
            z = origin + _START_RADIUS * cmath.exp(1j * theta)
            val, s = _path_action(model, [origin, z], _START_ORDER)
            chi = 2j * val
            held = chi.imag if hold_imag else chi.real
            if step == 3 or held == 0.0:
                break
            slope = -2.0 * s * (z - origin)  # d chi / d theta
            theta -= held / (slope.imag if hold_imag else slope.real)
        if abs(held) > _HOLD_TOL:
            raise TraceError(f"seed from z = {origin:.6g} at angle {theta:.6g}: "
                             f"held part of chi {abs(held):.3g} above tolerance")
        polished.append(theta % (2.0 * math.pi))
    return sorted(polished)


def _advance(q, z: complex, chi: complex, tracker: SqrtTracker, dz: complex):
    """One straight micro-step; chi gains 2i * 3-point Gauss of sqrt(q)."""
    z_new = z + dz
    d = z_new - z
    acc = 0j
    for u, w in ((0.1127016653792583, 0.2777777777777778),
                 (0.5, 0.4444444444444444),
                 (0.8872983346207417, 0.2777777777777778)):
        acc += w * tracker.take(q(z + u * d))
    return z_new, chi + 2j * acc * d


def _trace(model: ModelSpec, origin: complex, theta: float, hold_imag: bool,
           target: complex | None, max_arclen: float) -> StokesTrace:
    """Follow Im chi = 0 (hold_imag) or Re chi = 0 away from origin.

    The predictor moves chi by h (Stokes line, chi oriented so Re chi >= 0)
    or by +-i h (matching path, sign chosen so the first step points along
    theta); a transverse Newton corrector then restores the held part of
    chi to within _HOLD_TOL.  The step in chi is relative, h = min(_H_CAP
    max(1, |chi|), 0.1 |chi'| |chi'/chi''|): away from the turning points
    |chi| grows by at most a fraction _H_CAP per step, so a line takes
    O(log |chi|) points, not O(|chi|), to reach _ESCAPE_RADIUS, and the
    step in z, |dz| = h/|chi'|, is at most 0.1 of the local length scale
    |chi'/chi''| = 2 |q/q'|.  Near a simple zero z* of q that is about
    0.2 |z - z*|, so a line closes in on a turning point geometrically
    rather than step across it.  With a target the trace stops "target"
    near it, otherwise "singularity" at a zero of q.  A step that crosses
    the cut ends the trace "cut": the step is kept if its chord crosses,
    dropped if only a corrector leg went across and back (chi after it
    would be on the other sheet).
    """
    q = model.q_callable()
    dq = model.dq
    z = origin + _START_RADIUS * cmath.exp(1j * theta)
    val, last = _path_action(model, [origin, z], _START_ORDER)
    chi = 2j * val
    if hold_imag:
        if chi.real < 0.0:
            chi, last = -chi, -last
        turn = 1.0
    else:
        sq = SqrtTracker(last).take(q(z))
        turn = -1j if (1j / (2j * sq) * cmath.exp(-1j * theta)).real < 0.0 else 1j
    has_cut = model.has_branch_cut
    tracker = SqrtTracker(last)
    trace = StokesTrace(origin=origin, points=[z], chi=[chi], hold_imag=hold_imag)
    arclen = _START_RADIUS
    for _ in range(_MAX_POINTS):
        qv = q(z)
        if target is None:
            if abs(qv) < _TP_NEIGHBOURHOOD:
                trace.terminated = "singularity"
                return trace
        elif abs(qv) < 1e-5 or abs(z - target) < 0.02:
            trace.terminated = "target"
            return trace
        sq = tracker.take(qv)
        chi_p = 2j * sq
        curv = abs(dq(z)) / (2.0 * abs(qv))
        h = _H_CAP * max(1.0, abs(chi))
        if curv != 0.0:
            h = min(h, 0.1 * abs(chi_p) / curv)
        dz = turn * h / chi_p
        step_tracker = SqrtTracker(tracker.last)
        z_new, chi_new = _advance(q, z, chi, step_tracker, dz)
        legs = [z, z_new]
        for _ in range(8):
            off = chi_new.imag if hold_imag else chi_new.real
            if abs(off) <= _HOLD_TOL:
                break
            sq_new = step_tracker.take(q(z_new))
            dz_c = (-1j * off if hold_imag else -off) / (2j * sq_new)
            z_new, chi_new = _advance(q, z_new, chi_new, step_tracker, dz_c)
            legs.append(z_new)
        else:
            raise TraceError(f"corrector stalled near z = {z_new:.6g}")
        hit_cut = False
        if has_cut:
            hit_cut = _ray_hit(legs[0], legs[-1])
            if not hit_cut and any(map(_ray_hit, legs, legs[1:])):
                trace.terminated = "cut"
                return trace
        tracker.last = step_tracker.last
        arclen += abs(z_new - z)
        z, chi = z_new, chi_new
        trace.points.append(z)
        trace.chi.append(chi)
        if hit_cut:
            trace.terminated = "cut"
            return trace
        if abs(z) > _ESCAPE_RADIUS:
            trace.terminated = "escape"
            return trace
        if arclen > max_arclen:
            trace.terminated = "arclen"
            return trace
    raise TraceError("step budget exhausted")


def trace_stokes_line(origin: complex, model: ModelSpec, seed_direction: float,
                      max_arclen: float) -> StokesTrace:
    """Follow Im chi = 0, Re chi >= 0 from a singularity.

    Predictor dz = h / chi'(z) keeps the chi increment real positive;
    a transverse Newton corrector restores |Im chi| <= 1e-10 after each
    step.  The step h = min(0.01 max(1, |chi|), 0.1 |chi'| |chi'/chi''|)
    is at most 1% of max(1, |chi|), so the point count grows with log
    |chi|, and the z-step h/|chi'| is at most 0.1 |chi'/chi''|, so it
    shrinks automatically near turning points.  Stops on |z| > 8, on the
    arclength budget, on hitting the branch-cut ray (the crossing step is
    kept so cut tests see it), or on running into another singularity;
    raises TraceError after 500,000 steps.
    """
    return _trace(model, origin, seed_direction, True, None, max_arclen)


def trace_matching_path(model: ModelSpec) -> StokesTrace:
    """The path from z_A toward z_B on which the action stays real.

    This is the curve Re chi_A = 0 leaving z_A in the direction of z_B: the
    contour along which the classical turning-point matching is performed.
    For p > 2 it reaches the z_B neighbourhood below the origin; for
    1 < p < 2 it runs into the branch cut instead (the crossing step is
    included).  The arclength budget is 12.  chi values are recorded; the
    trace holds Re chi at zero, so its residuals are |Re chi|.
    """
    if model.family != "power":
        raise ValueError("matching path is defined for the power-law family")
    z_a, z_b = turning_points(model.p)
    heading = cmath.phase(z_b - z_a) if abs(z_b - z_a) > 1e-9 else 0.0
    cands = seed_directions(z_a, model, kind="anti")
    theta = min(cands, key=lambda t: abs(cmath.exp(1j * t) - cmath.exp(1j * heading)))
    return _trace(model, z_a, theta, False, z_b, 12.0)
