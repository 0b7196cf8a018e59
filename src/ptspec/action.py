"""Contour integrals of the WKB action and the singulant.

The action phi(z1) - phi(z0) = integral of sqrt(q(t)) dt enters every
eigenvalue condition.  action_between checks that its polyline avoids the
branch cut and hands it to geometry._path_action, the one path integral of
sqrt(q) it shares with the Stokes tracer (origin sliver, turning-point
ends, branch seed).  The quartic action seeds its branch at the segment
midpoint from the coupling walk and calls the quadrature engine directly:
its ends are turning points by construction.
"""

import math
from functools import lru_cache

from ._quadrature import sqrt_path_integral
from .geometry import ModelSpec, _path_action, _quartic_walk, path_crosses_cut

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
                   via=(), order: int = DEFAULT_ORDER,
                   seed: complex | None = None) -> complex:
    """phi(z1) - phi(z0): integral of sqrt(q) from z0 to z1 along a polyline.

    The polyline runs z0, then the interior nodes via (none: the straight
    segment), then z1; order is the Gauss order per segment.  A polyline
    that meets the branch cut raises ValueError.  The branch seed defaults
    to the principal square root at the first quadrature node, which equals
    +1 when the path starts at the origin for the power-law family.
    Endpoints where q vanishes are detected and integrated through the
    square-root substitution; interior nodes must stay clear of turning
    points.
    """
    z0, z1 = complex(z0), complex(z1)
    if z0 == z1:
        return 0j
    nodes = [z0, *map(complex, via), z1]
    if path_crosses_cut(nodes, model):
        raise ValueError("contour crosses the branch cut")
    if model.has_branch_cut and z1 == 0:
        return -action_between(z1, z0, model, via=nodes[-2:0:-1], order=order,
                               seed=seed)
    return _path_action(model, nodes, order, seed)[0]


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
              via=(), order: int = DEFAULT_ORDER,
              seed: complex | None = None) -> complex:
    """chi(z) = 2i [phi(z) - phi(z_star)], zero at z_star by construction.

    The integral runs from z_star through the interior nodes via to z, as
    in action_between; a polyline that meets the branch cut raises
    ValueError.  The square root is two-valued, so chi is defined up to
    overall sign; the seed picks the branch (the Stokes-relevant one has
    Re chi >= 0 along the line).
    """
    return 2j * action_between(z_star, z, model, via=via, order=order, seed=seed)


def _quartic_end_action(a: complex, end: str) -> complex:
    """-integral from z_C to the turning point named end ("z_a" or "z_b").

    Straight segment, branch seeded at its midpoint.  The overall sign of
    the integrand is fixed at a = 0 by the requirement Im(U + iV) > 0 (i.e.
    V(0) = +0.874..., not its negative) and carried to other couplings
    along the coupling walk that also labels the turning points
    (geometry._quartic_walk), whose legs are small enough that the midpoint
    sample never jumps branch.  The walk memoises the roots and seeds at
    its fixed waypoints, so a call costs one leg from the nearest waypoint
    plus two quadratures.
    """
    wp = _quartic_walk(a)
    z_c, z_e = wp.roots.z_c, getattr(wp.roots, end)
    seed = wp.seed_a if end == "z_a" else wp.seed_b
    mid = 0.5 * (z_c + z_e)
    q = ModelSpec.quartic(wp.a).q_callable()
    to_e, _ = sqrt_path_integral(q, [mid, z_e], order=DEFAULT_ORDER,
                                 seed=seed, singular_end=True)
    to_c, _ = sqrt_path_integral(q, [mid, z_c], order=DEFAULT_ORDER,
                                 seed=seed, singular_end=True)
    # integral_{z_C}^{z_e} = integral_{mid}^{z_e} - integral_{mid}^{z_C}
    return -(to_e - to_c)


def quartic_action(a: complex) -> complex:
    """U(a) + i V(a) = -integral from z_C to z_A of sqrt(1 - t^4 - i a t).

    Straight segment between the two turning points, both endpoints handled
    by the square-root substitution; U decreases and V falls monotonically
    from V(0) ~ 0.874 through zero at the critical coupling.  Accepts
    complex a (analytic continuation) for continuation past branch merges.
    The turning points come from the memoised coupling walk: one leg from
    the nearest fixed waypoint, so the result depends on a alone.
    """
    return _quartic_end_action(a, "z_a")


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
