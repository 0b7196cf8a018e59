"""Branch-continuous Gauss-Legendre quadrature of sqrt(q(z)) along polylines.

Internal engine of geometry._path_action, the one path integral of sqrt(q)
behind the action integrals and the Stokes tracer.  One call is one numpy
pass over the path: q is evaluated on all Gauss points at once, and the
sign of each principal square root s is carried from the root r before it
by the nearest-sign rule: with d = s conj(r), s is negated iff Re d <
-1e-12 |d|, and a near tie, |Re d| <= 1e-12 |d|, keeps the principal root,
so last-bit differences between numpy's and cmath's roots decide nothing.
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
#: Two roots s, r with |Re(s conj(r))| <= _TIE_TOL |s r| are a near tie.
_TIE_TOL = 1e-12


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


class SqrtTracker:
    """Mutable square-root sign tracker for loops that step sample by sample."""

    __slots__ = ("last",)

    def __init__(self, last: complex):
        self.last = last

    def take(self, w: complex) -> complex:
        if abs(w) < BRANCH_AMBIGUITY_TOL:
            raise BranchAmbiguityError(f"square-root sample at |w| = {abs(w):.3e}")
        s = cmath.sqrt(w)
        d = s * self.last.conjugate()
        dr = d.real
        if dr < 0.0 and dr < -_TIE_TOL * abs(d):  # abs only when it can matter
            s = -s
        self.last = s
        return s


@lru_cache(maxsize=32)
def _segment_points(order: int, singular_start: bool,
                    singular_end: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights on [0, 1] for one segment, in traversal order.

    A singular end maps the adjacent _SING_FRACTION of the segment through
    the square-root substitution u = v**2 (u = 1 - v**2 at the end); the
    rest is plain Gauss-Legendre.  The arrays are cached and read-only; the
    weights are complex, like the samples they are dotted with.
    """
    x, w = np.polynomial.legendre.leggauss(order)

    def plain(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        return mid + half * x, half * w

    def sqrt_start(b):  # [0, b], traversed away from u = 0
        half = 0.5 * b ** 0.5
        v = half * (x + 1.0)
        return v * v, 2.0 * v * half * w

    lo = _SING_FRACTION if singular_start else 0.0
    hi = 1.0 - _SING_FRACTION if singular_end else 1.0
    pieces = [sqrt_start(lo)] if singular_start else []
    pieces.append(plain(lo, hi))
    if singular_end:
        v2, wv = sqrt_start(1.0 - hi)
        pieces.append((1.0 - v2[::-1], wv[::-1]))
    u, wu = (np.concatenate(p) for p in zip(*pieces))
    wu = wu.astype(complex)
    u.flags.writeable = False
    wu.flags.writeable = False
    return u, wu


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
    puts it nearer the sample before.  The flip and near-tie tests compare
    consecutive principal roots of this array (np.sqrt); take compares
    cmath's root with the signed sample before, and a near tie keeps the
    principal root in both.  seed is the sample before the first (None: +1,
    the principal branch there).  Every sample, the first
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
    # Sample k is negated iff an odd number of flips between consecutive
    # principal roots lead up to it.  Negation is exact and only flips the
    # sign of d, so each flip and tie test is the one SqrtTracker.take makes
    # on the signed samples.
    prod = np.empty_like(roots)  # d = root * conj(root before), in place
    prod[0] = 1.0 if seed is None else seed
    prod[1:] = roots[:-1]
    np.conjugate(prod, out=prod)
    prod *= roots
    tol = np.abs(prod)
    tol *= _TIE_TOL
    negated = np.logical_xor.accumulate(prod.real < -tol)
    ties = np.abs(prod.real) <= tol
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
