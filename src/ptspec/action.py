"""Contour integrals of the WKB action and the singulant.

The action phi(z1) - phi(z0) = integral of sqrt(q(t)) dt enters every
eigenvalue condition.  action_between checks that its polyline avoids the
branch cut and hands it to geometry._path_action, the one path integral of
sqrt(q) it shares with the Stokes tracer (origin sliver, turning-point
ends, branch seed).  The quartic action seeds its branch at the segment
midpoint from the coupling walk and calls the quadrature engine,
integrate_legs, itself: one pass for both halves of the segment (and for
the z_B action at complex coupling; at real coupling it is the z_A
action's PT mirror), which also gives its derivative in the coupling,
since its ends are turning points by construction.  The end actions of
many couplings share a pass (_quartic_end_actions_batch, each leg with
its own coupling), in passes of fewer than 2**14 samples, and each keeps
the bits of its single pass.
"""

import math
from functools import lru_cache

from ._quadrature import _segment_points, integrate_legs
from .geometry import ModelSpec, _path_action, _quartic_q, _quartic_walk, path_crosses_cut

__all__ = [
    "action_between",
    "action_scale",
    "action_to_turning_points",
    "quartic_action",
    "quartic_critical_a",
    "singulant",
]

DEFAULT_ORDER = 40


def action_between(z0: complex, z1: complex, model: ModelSpec,
                   via=(), order: int = DEFAULT_ORDER) -> complex:
    """phi(z1) - phi(z0): integral of sqrt(q) from z0 to z1 along a polyline.

    The polyline runs z0, then the interior nodes via (none: the straight
    segment), then z1; order is the Gauss order per segment.  A polyline
    that meets the branch cut raises ValueError.  The branch is the
    principal square root at the first quadrature node, and +1 at the
    branch point z = 0 of a fractional power, where a path ending there is
    integrated from it and negated, and a path through it is split there,
    so that no Gauss rule spans the kink of (i t)^p.  Endpoints where q
    vanishes are detected and integrated through the square-root
    substitution; interior nodes must stay clear of turning points.
    """
    z0, z1 = complex(z0), complex(z1)
    if z0 == z1:
        return 0j
    nodes = [z0, *map(complex, via), z1]
    if path_crosses_cut(nodes, model):
        raise ValueError("contour crosses the branch cut")
    if model.has_branch_cut and 0 in nodes[1:-1]:
        k = nodes.index(0, 1)
        return (action_between(z0, 0, model, via=nodes[1:k], order=order)
                + action_between(0, z1, model, via=nodes[k + 1:-1], order=order))
    if model.has_branch_cut and z1 == 0:
        return -action_between(z1, z0, model, via=nodes[-2:0:-1], order=order)
    return _path_action(model, nodes, order)[0]


def action_scale(p: float) -> float:
    """R(p) = sqrt(pi) Gamma(1 + 1/p) / (2 Gamma(3/2 + 1/p)).

    The positive constant setting the size of the action between the origin
    and a turning point; R(1) = 2/3, R(2) = pi/4, R -> 1 as p -> infinity.
    """
    rp = 1.0 / p
    return math.sqrt(math.pi) * math.gamma(1.0 + rp) / (2.0 * math.gamma(1.5 + rp))


def action_to_turning_points(p: float) -> tuple[complex, complex]:
    """Closed forms for phi(z_A) - phi(0) and phi(z_B) - phi(0).

    phi(z_A) - phi(0) = [-sin(pi/p) - i cos(pi/p)] R(p), and the right
    turning point mirrors it: phi(z_B) - phi(0) = -conj(phi(z_A) - phi(0)).
    """
    r = action_scale(p)
    phi_a = complex(-math.sin(math.pi / p), -math.cos(math.pi / p)) * r
    return phi_a, -phi_a.conjugate()


def singulant(z: complex, z_star: complex, model: ModelSpec,
              order: int = DEFAULT_ORDER) -> complex:
    """chi(z) = 2i [phi(z) - phi(z_star)], zero at z_star by construction.

    The integral runs straight from z_star to z, on action_between's
    branch; a segment that meets the branch cut raises ValueError.  The
    square root is two-valued, so chi is defined up to overall sign: the
    Stokes-relevant branch has Re chi >= 0 along the line, and the tracer
    orients its own chi so (geometry.trace_stokes_line).
    """
    return 2j * action_between(z_star, z, model, order=order)


def _quartic_end_actions(a: complex) -> tuple[tuple[complex, complex], ...]:
    """(w, dw/da) at z_a and at z_b, w the -integral from z_C to the end.

    Straight segments, branch seeded at their midpoints.  The overall sign
    of the integrand is fixed at a = 0 by the requirement Im(U + iV) > 0
    (i.e. V(0) = +0.874..., not its negative) and carried to other
    couplings along the coupling walk that also labels the turning points
    (geometry._quartic_walk), whose legs are small enough that the midpoint
    sample never jumps branch.  The walk memoises the roots and seeds at
    its fixed waypoints, so a call costs one walk (one leg from the nearest
    waypoint for real a) plus one quadrature pass over the legs mid -> z_e
    and mid -> z_C of z_a, and of z_b at complex a: at real a, where the
    walk takes z_b as -conj(z_a), z_b's pair is (-conj w, -conj dw) of
    z_a's.  The slope comes from the same pass: q vanishes at both ends of
    the segment, so dw/da = (i/2) integral from z_C to z_e of t / sqrt(q),
    q = 1 - t^4 - i a t.  This is _quartic_end_actions_batch of the one
    coupling; its exception is raised.
    """
    ends, = _quartic_end_actions_batch([a])
    if isinstance(ends, Exception):
        raise ends
    return ends


#: A pass holds fewer samples than this: from 2**14 complex samples (256 KiB)
#: numpy elides temporaries, and the in-place loops it runs then round
#: differently, so a batched lane would lose the bits of its own pass.
_PASS_SAMPLES = 2 ** 14


def _quartic_end_actions_batch(couplings) -> list:
    """[_quartic_end_actions(a) for a in couplings], bit for bit, side by side.

    Each coupling walks on its own (geometry._quartic_walk); then the legs
    of as many couplings as fit below _PASS_SAMPLES samples go through
    the quadrature in one pass (integrate_legs, each leg with its own
    coupling), and each coupling's legs are summed on their own there, so
    its bits are those of its single pass.  A coupling whose walk or pass
    fails gets that exception in its place, the one its single call
    raises: a failed pass of several couplings is taken again coupling by
    coupling.
    """
    out, lanes = [None] * len(couplings), []
    for i, a in enumerate(couplings):
        try:
            wp = _quartic_walk(a)
        except Exception as exc:  # this coupling's failure alone
            out[i] = exc
            continue
        mirror, z_c, ia = wp.a.imag == 0, wp.roots.z_c, 1j * wp.a
        legs, ends = [], [(wp.roots.z_a, wp.seed_a)]
        if not mirror:
            ends.append((wp.roots.z_b, wp.seed_b))
        for z_e, seed in ends:
            mid = 0.5 * (z_c + z_e)
            legs += [([mid, z_e], seed, False, True, ia), ([mid, z_c], seed, False, True, ia)]
        lanes.append((i, mirror, legs))
    # samples of one leg mid -> z_e: Gauss points, square root at the end
    leg_samples = _segment_points(DEFAULT_ORDER, False, True)[0].size
    chunk, size = [], 0
    for lane in lanes:
        grow = len(lane[2]) * leg_samples
        if chunk and size + grow >= _PASS_SAMPLES:
            _end_actions_pass(chunk, out)
            chunk, size = [], 0
        chunk.append(lane)
        size += grow
    if chunk:
        _end_actions_pass(chunk, out)
    return out


def _end_actions_pass(lanes, out: list) -> None:
    """One quadrature pass over the legs of lanes (index, mirror, legs); each
    lane's end actions, or the exception its own pass raises, into out."""
    try:
        vals = integrate_legs(_quartic_q, [leg for _, _, legs in lanes for leg in legs],
                              DEFAULT_ORDER, moment=True)
    except Exception as exc:
        if len(lanes) == 1:
            out[lanes[0][0]] = exc
        else:
            for lane in lanes:
                _end_actions_pass([lane], out)
        return
    lo = 0
    for i, mirror, legs in lanes:
        mine, lo = vals[lo:lo + len(legs)], lo + len(legs)
        # integral_{z_C}^{z_e} = integral_{mid}^{z_e} - integral_{mid}^{z_C}
        ends = [(-(to_e - to_c), 0.5j * (mom_e - mom_c))
                for (to_e, _, mom_e), (to_c, _, mom_c) in zip(mine[::2], mine[1::2])]
        if mirror:
            ends.append((-ends[0][0].conjugate(), -ends[0][1].conjugate()))
        out[i] = tuple(ends)


def quartic_action(a: complex) -> complex:
    """U(a) + i V(a) = -integral from z_C to z_A of sqrt(1 - t^4 - i a t).

    Straight segment between the two turning points, both endpoints handled
    by the square-root substitution; U decreases and V falls monotonically
    from V(0) ~ 0.874 through zero at the critical coupling.  Accepts
    complex a (analytic continuation) for continuation past branch merges.
    The turning points come from the memoised coupling walk: one leg from
    the nearest fixed waypoint, so the result depends on a alone.
    """
    return _quartic_end_actions(a)[0][0]


@lru_cache(maxsize=1)
def quartic_critical_a() -> float:
    """Coupling a* where V(a) crosses zero (bisection on [1.0, 1.4]).

    Above a* the dominant exponential of the quartic eigenvalue condition
    flips and the real branches close off.
    """
    lo, hi = 1.0, 1.4
    v_lo = quartic_action(lo).imag
    v_hi = quartic_action(hi).imag
    if v_lo <= 0.0 or v_hi >= 0.0:
        raise ValueError("V(a) does not change sign on [1.0, 1.4]; "
                         "check the turning-point labeling")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        v = quartic_action(mid).imag
        if abs(v) <= 1e-10:
            return mid
        if v > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
