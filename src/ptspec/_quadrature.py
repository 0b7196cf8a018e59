"""Branch-continuous Gauss-Legendre quadrature of sqrt(q(z)) along polylines.

integrate_legs is the one engine entry.  Its two callers are
geometry._path_action, the one path integral of sqrt(q) behind the
action integrals and the Stokes tracer (one leg, the model's own q), and
the quartic end actions (action._quartic_end_actions_batch), which
integrate the legs of many couplings in one call: each leg carries its
coupling, and the radicand of each sample is that of its leg's coupling.
One call is one numpy pass over the legs: q is evaluated on all Gauss
points at once, and the sign of each principal square root s is carried
from the root r before it by the nearest-sign rule (_signed_roots, its
one implementation on arrays; each leg restarts from its own seed):
with d = s conj(r), s is negated iff Re d < -1e-12 |d|, and a near tie,
|Re d| <= 1e-12 |d|, keeps the principal root, so last-bit differences
between numpy's and cmath's roots decide nothing.
A simple zero of q at a path endpoint is handled by mapping the adjacent
10% of that segment through z = z* + s**2, which makes the integrand
analytic there and restores spectral accuracy.  The same pass can also
give the integral of t / sqrt(q) of each leg (moment=True), from the same
signed samples, for the slope of the quartic action in its coupling.
_signed_root applies the sign rule to one sample, for the loops that step
along a path.
"""

import cmath
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from .special import BRANCH_AMBIGUITY_TOL, BranchAmbiguityError

__all__ = ["integrate_legs", "powerlaw_origin_piece"]

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


def _signed_root(w: complex, last: complex) -> complex:
    """cmath's root of w, negated iff that puts it nearer last.

    The nearest-sign rule for one sample, for loops that step sample by
    sample and carry the last signed root themselves: with d = s conj(last),
    s is negated iff Re d < -_TIE_TOL |d|, so a near tie keeps the
    principal root.  Raises BranchAmbiguityError below BRANCH_AMBIGUITY_TOL.
    """
    if abs(w) < BRANCH_AMBIGUITY_TOL:
        raise BranchAmbiguityError(f"square-root sample at |w| = {abs(w):.3e}")
    s = cmath.sqrt(w)
    d = s * last.conjugate()
    dr = d.real
    if dr < 0.0 and dr < -_TIE_TOL * abs(d):  # abs only when it can matter
        s = -s
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


def integrate_legs(
    q: Callable[[Any], Callable[[np.ndarray], np.ndarray]],
    legs: Sequence[tuple[Sequence[complex], complex | None, bool, bool, Any]],
    order: int = 40,
    moment: bool = False,
) -> list[tuple]:
    """(integral of sqrt(q), last sample) of each leg, all in one pass.

    A leg is (nodes, seed, singular_start, singular_end, c): a polyline,
    the sample before its first (None: +1, the principal branch there),
    whether the radicand has a simple zero at its first / last node, and
    its coupling c.  q(c) is the radicand at coupling c, a callable of the
    sample points; it is called once per pass, with the legs' coupling when
    they share one (None for a model's own q), else with the array that
    holds each sample's leg coupling, and evaluated once on the Gauss
    points of every segment of every leg.  The principal roots are signed
    by the nearest-sign rule of _signed_root (see _signed_roots); the sign
    chain restarts at each leg's first sample, from the leg's own seed, and
    each leg is summed on its own, one dot product per segment in path
    order, so its bits do not depend on the legs beside it.  A sample
    nearer a zero of the radicand than BRANCH_AMBIGUITY_TOL raises
    BranchAmbiguityError.  The last sample lets callers chain further
    integrals on the same branch.  moment appends the integral of
    t / sqrt(q) from the same signed samples; a simple zero of q at a
    singular end keeps it integrable, and the substitution smooth.
    """
    legs_segments, starts, seeds, sizes, size = [], [], [], [], 0
    for nodes, seed, singular_start, singular_end, _ in legs:
        nodes = [complex(z) for z in nodes]
        if len(nodes) < 2:
            raise ValueError("path needs at least two nodes")
        starts.append(size)
        seeds.append(seed)
        last_seg = len(nodes) - 2
        segments = []
        for i in range(last_seg + 1):
            z0, d = nodes[i], nodes[i + 1] - nodes[i]
            if d == 0:
                raise ValueError("consecutive path nodes coincide")
            u, wu = _segment_points(order, singular_start and i == 0,
                                    singular_end and i == last_seg)
            segments.append((z0, d, u, wu))
            size += wu.size
        sizes.append(size - starts[-1])
        legs_segments.append(segments)
    couplings = [leg[4] for leg in legs]
    c = couplings[0]
    if couplings.count(c) < len(couplings):
        c = np.repeat(couplings, sizes)
    points = [z0 + u * d for segments in legs_segments for z0, d, u, _ in segments]
    z = np.concatenate(points) if len(points) > 1 else points[0]
    w = q(c)(z)
    modulus = np.abs(w)
    if modulus.min() < BRANCH_AMBIGUITY_TOL:
        first = modulus[np.argmax(modulus < BRANCH_AMBIGUITY_TOL)]
        raise BranchAmbiguityError(f"square-root sample at |w| = {first:.3e}")
    roots = _signed_roots(w, starts, seeds)
    ratios = z / roots if moment else None
    out, lo = [], 0
    for segments in legs_segments:
        total = mom = 0j
        for _, d, _, wu in segments:
            hi = lo + wu.size
            total += complex(roots[lo:hi] @ wu) * d
            if moment:
                mom += complex(ratios[lo:hi] @ wu) * d
            lo = hi
        last = complex(roots[hi - 1])
        out.append((total, last, mom) if moment else (total, last))
    return out


def _signed_roots(w: np.ndarray, starts: Sequence[int],
                  seeds: Sequence[complex | None]) -> np.ndarray:
    """Principal roots of the samples w, signed by the nearest-sign rule.

    The one implementation of the rule on arrays.  The chain restarts at
    each index in starts (the first is 0) from the seed given for it (None:
    +1): that sample is compared with the seed, not with the sample before,
    so no flip or tie carries across a restart.  The flip and near-tie
    tests compare consecutive principal roots (np.sqrt); _signed_root
    compares cmath's root with the signed sample before, and a near tie
    keeps the principal root in both.
    """
    roots = np.sqrt(w)
    # Sample k is negated iff an odd number of flips between consecutive
    # principal roots lead up to it.  Negation is exact and only flips the
    # sign of d, so each flip and tie test is the one _signed_root makes
    # on the signed samples.
    prod = np.empty_like(roots)  # d = root * conj(root before), in place
    prod[1:] = roots[:-1]
    for k, seed in zip(starts, seeds):
        prod[k] = 1.0 if seed is None else seed
    np.conjugate(prod, out=prod)
    prod *= roots
    tol = np.abs(prod)
    tol *= _TIE_TOL
    flips = prod.real < -tol
    negated = np.logical_xor.accumulate(flips)
    ties = np.abs(prod.real) <= tol
    # A restart compares its sample with the seed, and a tie is no flip
    # whatever the sign before (the principal root is kept): at both the
    # sample is negated iff it flips itself, and the samples after it
    # follow from there.
    events = starts[1:]
    if np.count_nonzero(ties):
        events = {*events, *np.flatnonzero(ties).tolist()}
    for k in sorted(events):
        if negated[k] != flips[k]:
            negated[k:] = ~negated[k:]
    np.negative(roots, out=roots, where=negated)
    return roots
