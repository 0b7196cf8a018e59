"""Branch-continuous Gauss-Legendre quadrature of sqrt(q(z)) along polylines.

Internal engine shared by the action integrals and the Stokes tracer.  The
integrand sign is carried node to node with the tracked square root, and a
simple zero of q at a path endpoint is handled by mapping the adjacent 10%
of that segment through z = z* + s**2, which makes the integrand analytic
there and restores spectral accuracy.
"""

import cmath
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .special import BRANCH_AMBIGUITY_TOL, BranchAmbiguityError

__all__ = ["sqrt_path_integral", "SqrtTracker", "powerlaw_origin_piece"]

#: Fraction of a segment mapped through the square-root substitution.
_SING_FRACTION = 0.1


def powerlaw_origin_piece(p: float, direction: complex, delta: float) -> complex:
    """Integral of sqrt(1 + (i t)^p) over t = 0 .. delta*direction, by series.

    For non-integer p the integrand has a fractional-power kink at the
    origin that ruins Gauss convergence; the binomial series in w = (i t)^p
    (|w| < 1 on the sliver) is exact to machine precision instead.
    direction must be a unit complex number off the branch cut.
    """
    w_end = cmath.exp(p * cmath.log(1j * direction)) * delta ** p
    if abs(w_end) >= 0.9:
        raise ValueError("origin sliver too long for the series expansion")
    total = delta + 0j
    coeff = 1.0  # binomial(1/2, k), built recursively
    wk = 1.0 + 0j
    for k in range(1, 80):
        coeff *= (0.5 - (k - 1)) / k
        wk *= w_end
        term = coeff * wk * delta / (p * k + 1.0)
        total += term
        if abs(term) < 1e-18:
            break
    return direction * total


@lru_cache(maxsize=32)
def _gauss_nodes(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(order)
    return tuple(x.tolist()), tuple(w.tolist())


class SqrtTracker:
    """Mutable square-root sign tracker for tight quadrature loops."""

    __slots__ = ("last",)

    def __init__(self, last: complex):
        self.last = last

    def take(self, w: complex) -> complex:
        if abs(w) < BRANCH_AMBIGUITY_TOL:
            raise BranchAmbiguityError(f"square-root sample at |w| = {abs(w):.3e}")
        s = cmath.sqrt(w)
        if abs(s - self.last) > abs(s + self.last):
            s = -s
        self.last = s
        return s


def _plain_points(a: float, b: float, order: int):
    """Gauss points/weights for the parameter interval [a, b] of a segment."""
    x, w = _gauss_nodes(order)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return [(mid + half * xk, half * wk) for xk, wk in zip(x, w)]


def _sqrt_start_points(b: float, order: int):
    """Points/weights for [0, b] with u = v**2, traversed away from u = 0."""
    x, w = _gauss_nodes(order)
    vmax = b ** 0.5
    half = 0.5 * vmax
    pts = []
    for xk, wk in zip(x, w):
        v = half * (xk + 1.0)
        pts.append((v * v, 2.0 * v * half * wk))
    return pts


def _sqrt_end_points(a: float, order: int):
    """Points/weights for [a, 1] with u = 1 - v**2, traversed toward u = 1:
    the mirror image of _sqrt_start_points(1 - a)."""
    return [(1.0 - u, w) for u, w in reversed(_sqrt_start_points(1.0 - a, order))]


@lru_cache(maxsize=32)
def _segment_points(order: int, singular_start: bool, singular_end: bool):
    """Gauss points/weights on [0, 1] for one segment, in traversal order.

    A singular end maps the adjacent _SING_FRACTION of the segment through
    the square-root substitution; the rest is plain Gauss-Legendre.
    """
    pieces = []
    lo = 0.0
    if singular_start:
        pieces += _sqrt_start_points(_SING_FRACTION, order)
        lo = _SING_FRACTION
    if singular_end:
        hi = 1.0 - _SING_FRACTION
        pieces += _plain_points(lo, hi, order)
        pieces += _sqrt_end_points(hi, order)
    else:
        pieces += _plain_points(lo, 1.0, order)
    return tuple(pieces)


def sqrt_path_integral(
    q: Callable[[complex], complex],
    nodes: Sequence[complex],
    order: int = 40,
    seed: complex | None = None,
    singular_start: bool = False,
    singular_end: bool = False,
) -> tuple[complex, complex]:
    """Integral of sqrt(q) along the polyline, sign-continuous throughout.

    seed orients the first sample (nearest-sign rule); None takes the
    principal branch there.  Every sample, the first included, goes through
    SqrtTracker.take, so one within BRANCH_AMBIGUITY_TOL of a zero of q
    raises BranchAmbiguityError.  singular_start / singular_end declare a
    simple zero of q at the first / last path node.

    Returns (integral, last sample); the sample lets callers chain further
    integrals on the same branch.
    """
    nodes = [complex(z) for z in nodes]
    if len(nodes) < 2:
        raise ValueError("path needs at least two nodes")
    tracker = SqrtTracker(1.0 if seed is None else seed)  # 1: the principal branch
    take = tracker.take
    total = 0j
    last_seg = len(nodes) - 2
    for i in range(len(nodes) - 1):
        z0, z1 = nodes[i], nodes[i + 1]
        d = z1 - z0
        if d == 0:
            raise ValueError("consecutive path nodes coincide")
        acc = 0j
        for u, wu in _segment_points(order, singular_start and i == 0,
                                     singular_end and i == last_seg):
            acc += wu * take(q(z0 + u * d))
        total += acc * d
    return total, tracker.last
