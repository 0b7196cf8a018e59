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
import sys
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._quadrature import _signed_root, integrate_legs, powerlaw_origin_piece

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
#: The tracer's corrector holds the chosen part of chi within this of zero,
#: or within _HOLD_REL |chi| where |chi| is so large (above ~7e3) that the
#: rounding of chi alone exceeds _HOLD_TOL.
_HOLD_TOL = 1e-10
_HOLD_REL = 64 * sys.float_info.epsilon
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
    """Which oscillator family, and the laws that follow from it.

    family "power" is the eigenproblem -eps^2 f'' - (i z)^p f = f with finite
    real exponent p >= 1; family "quartic" is -eps^2 f'' + (z^4 + i a z) f = f
    with finite coupling a.  Each takes only its own parameter (ValueError).
    The branch cut of (i z)^p is fixed on the positive imaginary axis.

    Each per-family law is stated once, here: degree (with
    asymptotic.E_to_eps / eps_to_E, the one E <-> eps scaling), at (the
    equation at a given eps), pt_mirror, param and turning_points.  A model
    built for an eigenvalue search holds the physical coupling A; at(eps)
    is the equation the ODE sees there, whose coupling is a = A eps.
    Functions of a alone (quartic_turning_points, quartic_action) take the
    equation's coupling, so q and turning_points of ModelSpec.quartic(A)
    are those at eps = 1.
    """

    family: str
    p: float | None = None
    a: complex | None = None

    def __post_init__(self):
        if self.family == "power":
            if self.p is None or not math.isfinite(self.p) or self.p < 1.0:
                raise ValueError("power-law family needs finite real p >= 1")
            if self.a is not None:
                raise ValueError("power-law family takes no coupling a")
        elif self.family == "quartic":
            if self.a is None or not cmath.isfinite(self.a):
                raise ValueError("quartic family needs a finite coupling")
            if self.p is not None:
                raise ValueError("quartic family takes no exponent p")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def power_law(cls, p: float) -> "ModelSpec":
        return cls(family="power", p=float(p))

    @classmethod
    def quartic(cls, a: complex) -> "ModelSpec":
        return cls(family="quartic", a=a)

    @property
    def degree(self) -> float:
        """Growth exponent of q at large |z|: p, or 4 for the quartic.

        Under z = E^(1/degree) x both families read -eps^2 f'' + ... = f with
        eps = E^(-(degree + 2)/(2 degree)) (asymptotic.E_to_eps).
        """
        return self.p if self.family == "power" else 4.0

    def at(self, eps: complex) -> "ModelSpec":
        """The equation at eps: the quartic's coupling scales to a eps."""
        return self if self.family == "power" else ModelSpec.quartic(self.a * eps)

    @property
    def pt_mirror(self) -> bool:
        """Whether conj f(-conj z) solves the equation at real eps whenever f
        does: iff the family parameter is real, so every power law, and the
        quartic at a real coupling.

        Then q(-conj z) = conj q(z) off the cut (the positive imaginary
        axis, which the map fixes).  Each mirror is taken once, by the code
        that uses it: shooting's right ray at real E (mismatch), the
        quartic's z_b and w_B at real a (_walk_leg, _quartic_end_actions)
        and z_B's Stokes lines: each takes the trace of one z_A line, none
        taken twice, and the writer renders it mirrored (cli stokes, _emit).
        """
        return complex(self.param).imag == 0

    @property
    def param(self) -> float | complex:
        """The family parameter: p, or the coupling a."""
        return self.p if self.family == "power" else self.a

    @property
    def turning_points(self) -> tuple[complex, ...]:
        """Zeros of q: (z_A, z_B) for the power law, or the quartic's
        (z_a, z_b, z_c, z_d) carried from a = 0 (raises TraceError where
        two of them meet)."""
        return (turning_points(self.p) if self.family == "power"
                else quartic_turning_points(self.a).all)

    @property
    def is_integer_power(self) -> bool:
        return self.family == "power" and float(self.p) == int(self.p)

    @property
    def has_branch_cut(self) -> bool:
        """Only fractional powers of (i z) carry a cut; the quartic is entire."""
        return self.family == "power" and not self.is_integer_power

    def q(self, z: complex) -> complex:
        """Eikonal right-hand side: (phi')^2 = q(z), at a point (q_callable
        takes arrays).  A fractional power gives q(0) = 1, where its
        closure's log would raise."""
        if self.has_branch_cut and z == 0:
            return 1.0 + 0j
        return self._q_closure()(z)

    def dq(self, z: complex) -> complex:
        """d q / d z at a point."""
        return self._dq_closure()(z)

    def d2q(self, z: complex) -> complex:
        """d^2 q / d z^2 at a point off the origin."""
        if self.family == "power":
            return -self.p * (self.p - 1.0) * (1j * z) ** (self.p - 2.0)
        return -12.0 * z * z

    def q_series(self, z: complex, d: complex, n: int) -> list[complex]:
        """The first n >= 1 Taylor coefficients of tau -> q(z + tau d).

        The series ends after five terms for the quartic and after p + 1 for
        an integer p.  A fractional power's binomial series, P_{k+1} =
        P_k (p - k) d / ((k + 1) z) from P_0 = (i z)^p, converges only for
        |tau d| < |z|, the distance to the branch point, and z = 0 has none
        (ValueError).
        """
        if self.family == "quartic":
            ia, d2 = 1j * self.a, d * d
            return [1.0 - z * (z * z * z + ia), -(4.0 * z * z * z + ia) * d,
                    -6.0 * z * z * d2, -4.0 * z * d2 * d, -d2 * d2][:n]
        w, p = 1j * z, self.p
        if self.is_integer_power:  # exact at z = 0 too, no division by z
            ip = int(p)
            return [1.0 + w ** ip] + [math.comb(ip, k) * w ** (ip - k) * (1j * d) ** k
                                      for k in range(1, min(ip + 1, n))]
        if z == 0:
            raise ValueError("a fractional power has no Taylor series at its branch point")
        term, ratio = cmath.exp(p * cmath.log(w)), d / z
        coef = [1.0 + term]
        for k in range(n - 1):
            term *= (p - k) / (k + 1) * ratio
            coef.append(term)
        return coef

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
        return _quartic_q(1j * self.a)

    def _dq_closure(self):
        """Specialised scalar dq/dz closure for hot loops: the one formula."""
        if self.family == "power":
            ip = 1j * self.p
            if self.is_integer_power:
                k = int(self.p) - 1
                return lambda z: ip * (1j * z) ** k
            pm1 = self.p - 1.0
            clog = cmath.log
            cexp = cmath.exp

            def dq(z):
                if z == 0:  # (i z)^(p-1) -> 0 at the branch point, p > 1
                    return 0j
                return ip * cexp(pm1 * clog(1j * z))

            return dq
        ia = 1j * self.a
        return lambda z: -(4.0 * z * z * z + ia)

    # q bypasses q_callable, so a counter wrapped around both sees each q(z) once.
    q_callable = _q_closure


def _quartic_q(ia: complex):
    """The quartic's q at ia = i a, on a point or an array: the one formula.

    ia may also be an array, each point's own i a (integrate_legs with a
    coupling per leg)."""
    return lambda z: 1.0 - z * (z * z * z + ia)


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
    z_C -> z_B, where action._quartic_end_actions starts its quadrature.
    """

    a: complex
    roots: QuarticRoots
    seed_a: complex
    seed_b: complex


def _polish_turning_point(z: complex, ia: complex) -> complex:
    """Newton-polish z toward a root of z^4 + ia z - 1 (ia = i a)."""
    for _ in range(50):
        z3 = z * z * z
        dz = (z * (z3 + ia) - 1.0) / (4.0 * z3 + ia)
        z -= dz
        if abs(dz) < 1e-14:
            break
    return z


def _walk_leg(start: _Waypoint, a: complex) -> _Waypoint:
    """Carry the labelled roots and seeds of start straight on to coupling a.

    Each root is polished from its value at start and each seed takes the
    sign nearest its value there, so labels and branches are carried by
    continuity; at real a, where the polish commutes with z -> -conj z bit
    for bit, a z_b that mirrors z_a at start is mirrored, not polished.  A
    leg on which two roots meet raises TraceError: continuity cannot tell
    their labels apart there.
    """
    ia = 1j * a
    z_a, z_b, z_c, z_d = start.roots.all
    mirror = a.imag == 0 and z_b == -z_a.conjugate()
    z_a, z_c, z_d = [_polish_turning_point(z, ia) for z in (z_a, z_c, z_d)]
    z_b = -z_a.conjugate() if mirror else _polish_turning_point(z_b, ia)
    roots = (z_a, z_b, z_c, z_d)
    for z in roots:
        if abs(z * (z * z * z + ia) - 1.0) > 1e-12:
            raise TraceError(f"turning point polish failed at a = {a:.6g}")
    if min(abs(u - v) for u, v in combinations(roots, 2)) < 1e-6:
        raise TraceError(f"two turning points meet near a = {a:.6g}")
    q = _quartic_q(ia)
    seeds = [_signed_root(q(0.5 * (z_c + z_e)), prev)
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


def _path_action(model: ModelSpec, nodes, order: int) -> tuple[complex, complex]:
    """Integral of sqrt(q) along the polyline nodes, plus the last sample.

    The one place that decides how: a path from the branch point z = 0 of
    a fractional power starts with the binomial series on a sliver of its
    first segment (the (i t)^p kink there defeats Gauss quadrature) and
    seeds the branch at +1; an end where |q| < _TURNING_POINT_TOL is a
    turning point and gets the square-root substitution; any other path
    starts on the principal root.
    """
    nodes = [complex(z) for z in nodes]
    head, seed = 0j, None
    if model.has_branch_cut and nodes[0] == 0:
        seg = nodes[1] - nodes[0]
        delta = min(0.3, 0.5 * abs(seg))
        direction = seg / abs(seg)
        head = powerlaw_origin_piece(model.p, direction, delta)
        nodes[0] = delta * direction
        seed = 1.0 + 0j
    leg = (nodes, seed, abs(model.q(nodes[0])) < _TURNING_POINT_TOL,
           abs(model.q(nodes[-1])) < _TURNING_POINT_TOL, None)
    q = model.q_callable()
    val, last = integrate_legs(lambda _: q, [leg], order)[0]
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


def _trace(model: ModelSpec, origin: complex, theta: float, hold_imag: bool,
           target: complex | None, max_arclen: float) -> StokesTrace:
    """Follow Im chi = 0 (hold_imag) or Re chi = 0 away from origin.

    The predictor moves chi by h (Stokes line, chi oriented so Re chi >= 0)
    or by +-i h (matching path, sign chosen so the first step points along
    theta); a transverse Newton corrector then restores the held part of
    chi to within max(_HOLD_TOL, _HOLD_REL |chi|): the relative part acts
    only where |chi| > ~7e3, where the rounding of chi alone exceeds
    _HOLD_TOL.  The step in chi is relative, h = min(_H_CAP max(1, |chi|),
    0.1 |chi'| |chi'/chi''|): away from the turning points |chi| grows by
    at most a fraction _H_CAP per step, so a line takes O(log |chi|)
    points, not O(|chi|), to reach _ESCAPE_RADIUS, and the step in z, |dz|
    = h/|chi'|, is at most 0.1 of the local length scale |chi'/chi''| = 2
    |q/q'|.  Near a simple zero z* of q that is about 0.2 |z - z*|, so a
    line closes in on a turning point geometrically rather than step across
    it.  With a target the trace stops "target" near it, otherwise
    "singularity" at a zero of q.  A step that crosses the cut ends the
    trace "cut": the step is kept if its chord crosses, dropped if only a
    corrector leg went across and back (chi after it would be on the other
    sheet).

    The predictor and each corrector leg are one fused straight step, on
    which chi gains 2i * the 3-point Gauss rule of sqrt(q): the samples
    q(z + u d) are taken in node order, each signed by _signed_root from
    the sample before (the loop carries the last signed root, last), and
    summed into one accumulator in that order.
    """
    q = model.q_callable()
    dq = model._dq_closure()
    signed_root = _signed_root
    hold_tol, hold_rel, h_cap, tp_tol = _HOLD_TOL, _HOLD_REL, _H_CAP, _TP_NEIGHBOURHOOD
    u0, u1, u2 = 0.1127016653792583, 0.5, 0.8872983346207417  # Gauss on [0, 1]
    w0, w1 = 0.2777777777777778, 0.4444444444444444  # weights; the third is w0
    z = origin + _START_RADIUS * cmath.exp(1j * theta)
    val, last = _path_action(model, [origin, z], _START_ORDER)
    chi = 2j * val
    if hold_imag:
        if chi.real < 0.0:
            chi, last = -chi, -last
        turn = 1.0
    else:
        sq = signed_root(q(z), last)
        turn = -1j if (1j / (2j * sq) * cmath.exp(-1j * theta)).real < 0.0 else 1j
    has_cut = model.has_branch_cut
    points, chis = [z], [chi]
    add_point, add_chi = points.append, chis.append

    def ended(how: str) -> StokesTrace:
        return StokesTrace(origin=origin, points=points, chi=chis, terminated=how,
                           hold_imag=hold_imag)

    arclen = _START_RADIUS
    for _ in range(_MAX_POINTS):
        qv = q(z)
        if target is None:
            if abs(qv) < tp_tol:
                return ended("singularity")
        elif abs(qv) < 1e-5 or abs(z - target) < 0.02:
            return ended("target")
        last = signed_root(qv, last)
        chi_p = 2j * last
        curv = abs(dq(z)) / (2.0 * abs(qv))
        h = h_cap * max(1.0, abs(chi))
        if curv != 0.0:
            h = min(h, 0.1 * abs(chi_p) / curv)
        dz = turn * h / chi_p
        z_new, chi_new = z, chi
        legs = [z] if has_cut else None
        for leg in range(9):  # the predictor, then up to 8 corrector legs
            z_end = z_new + dz
            d = z_end - z_new
            s = signed_root(q(z_new + u0 * d), last)
            acc = 0j + w0 * s
            s = signed_root(q(z_new + u1 * d), s)
            acc += w1 * s
            last = signed_root(q(z_new + u2 * d), s)
            acc += w0 * last
            z_new, chi_new = z_end, chi_new + 2j * acc * d
            if has_cut:
                legs.append(z_new)
            if leg == 8:
                raise TraceError(f"corrector stalled near z = {z_new:.6g}")
            off = chi_new.imag if hold_imag else chi_new.real
            held = abs(off)
            if held <= hold_tol or held <= hold_rel * abs(chi_new):
                break
            last = signed_root(q(z_new), last)
            dz = (-1j * off if hold_imag else -off) / (2j * last)
        hit_cut = False
        if has_cut:
            hit_cut = _ray_hit(legs[0], legs[-1])
            if not hit_cut and any(map(_ray_hit, legs, legs[1:])):
                return ended("cut")
        arclen += abs(z_new - z)
        z, chi = z_new, chi_new
        add_point(z)
        add_chi(chi)
        if hit_cut:
            return ended("cut")
        if abs(z) > _ESCAPE_RADIUS:
            return ended("escape")
        if arclen > max_arclen:
            return ended("arclen")
    raise TraceError("step budget exhausted")


def trace_stokes_line(origin: complex, model: ModelSpec, seed_direction: float,
                      max_arclen: float) -> StokesTrace:
    """Follow Im chi = 0, Re chi >= 0 from a singularity.

    Predictor dz = h / chi'(z) keeps the chi increment real positive;
    a transverse Newton corrector restores |Im chi| <= max(1e-10, 64 eps
    |chi|) after each step (eps the machine epsilon; the relative hold
    acts only above |chi| ~ 7e3, where chi's own rounding exceeds 1e-10).
    Predictor and corrector legs are one fused 3-point Gauss step each,
    carrying the sign of sqrt(q) from sample to sample.  The step
    h = min(0.01 max(1, |chi|), 0.1 |chi'| |chi'/chi''|)
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
    z_a, z_b = model.turning_points
    heading = cmath.phase(z_b - z_a) if abs(z_b - z_a) > 1e-9 else 0.0
    cands = seed_directions(z_a, model, kind="anti")
    theta = min(cands, key=lambda t: abs(cmath.exp(1j * t) - cmath.exp(1j * heading)))
    return _trace(model, z_a, theta, False, z_b, 12.0)
