"""Branch-continuous Gauss-Legendre quadrature of sqrt(q(z)) along polylines.

Internal engine shared by the action integrals and the Stokes tracer.  One
call is one numpy pass over the path: q is evaluated on all Gauss points at
once, and the sign of each principal square root is carried from sample to
sample by the nearest-sign rule, taken as a running parity of the sign
flips between consecutive roots (an exact tie keeps the principal root).
A simple zero of q at a path endpoint is handled by mapping the adjacent
10% of that segment through z = z* + s**2, which makes the integrand
analytic there and restores spectral accuracy.  SqrtTracker applies the
same rule one sample at a time, for the loops that step along a path.
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
    """Mutable square-root sign tracker for loops that step sample by sample."""

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
def _segment_points(order: int, singular_start: bool,
                    singular_end: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights on [0, 1] for one segment, in traversal order.

    A singular end maps the adjacent _SING_FRACTION of the segment through
    the square-root substitution; the rest is plain Gauss-Legendre.  The
    arrays are cached and read-only; the weights are complex, like the
    samples they are dotted with.
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
    u = np.array([uk for uk, _ in pieces])
    w = np.array([wk for _, wk in pieces], dtype=complex)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def sqrt_path_integral(
    q: Callable[[np.ndarray], np.ndarray],
    nodes: Sequence[complex],
    order: int = 40,
    seed: complex | None = None,
    singular_start: bool = False,
    singular_end: bool = False,
) -> tuple[complex, complex]:
    """Integral of sqrt(q) along the polyline, sign-continuous throughout.

    One numpy pass: the Gauss points of every segment form one array, q is
    called once on it, and the principal roots are signed by the
    nearest-sign rule of SqrtTracker.take, each sample taking the sign that
    puts it nearer the sample before.  seed is the sample before the first
    (None: +1, the principal branch there).  Every sample, the first
    included, must lie at least BRANCH_AMBIGUITY_TOL from a zero of q, or
    BranchAmbiguityError is raised.  singular_start / singular_end declare
    a simple zero of q at the first / last path node.

    Returns (integral, last sample); the sample lets callers chain further
    integrals on the same branch.
    """
    nodes = [complex(z) for z in nodes]
    if len(nodes) < 2:
        raise ValueError("path needs at least two nodes")
    last_seg = len(nodes) - 2
    segments = []
    for i in range(last_seg + 1):
        z0, d = nodes[i], nodes[i + 1] - nodes[i]
        if d == 0:
            raise ValueError("consecutive path nodes coincide")
        u, wu = _segment_points(order, singular_start and i == 0,
                                singular_end and i == last_seg)
        segments.append((z0, d, u, wu))
    points = [z0 + u * d for z0, d, u, _ in segments]
    w = q(np.concatenate(points) if last_seg else points[0])
    size = np.abs(w)
    if size.min() < BRANCH_AMBIGUITY_TOL:
        first = size[np.argmax(size < BRANCH_AMBIGUITY_TOL)]
        raise BranchAmbiguityError(f"square-root sample at |w| = {first:.3e}")
    roots = np.sqrt(w)
    before = np.empty_like(roots)
    before[0] = 1.0 if seed is None else seed
    before[1:] = roots[:-1]
    # Sample k is negated iff an odd number of flips between consecutive
    # principal roots lead up to it.  Negation is exact, so each flip test
    # is the comparison SqrtTracker.take makes, with hypot as the modulus,
    # as in Python's abs(complex).
    step, jump = roots - before, roots + before
    away = np.hypot(step.real, step.imag)
    toward = np.hypot(jump.real, jump.imag)
    negated = np.logical_xor.accumulate(away > toward)
    ties = away == toward
    if np.count_nonzero(ties):
        # A tie is no flip whatever the sign before: the principal root is
        # kept, and the samples after it follow from there.
        for k in np.flatnonzero(ties):
            if negated[k]:
                negated[k:] = ~negated[k:]
    np.negative(roots, out=roots, where=negated)
    total, lo = 0j, 0
    for _, d, _, wu in segments:
        hi = lo + wu.size
        total += complex(roots[lo:hi] @ wu) * d
        lo = hi
    return total, complex(roots[-1])
