"""Scalar special functions and branch-aware complex elementary operations.

Everything downstream (actions, eigenvalue conditions, Stokes tracing) runs
on two primitives: the total reciprocal of the standard library's Gamma
function and the principal complex power.  A square root whose sign is
carried along a contour follows the nearest-sign rule of the quadrature
module: integrate_legs applies it to whole paths in one numpy pass,
_signed_root to one sample.  Its ambiguity error and tolerance live
here.
"""

import cmath
import math
import sys

__all__ = [
    "BranchAmbiguityError",
    "principal_power",
    "recip_gamma",
]


class BranchAmbiguityError(ValueError):
    """Tracked square root sampled too close to a zero to fix the sign."""


#: Below this magnitude a square-root sample cannot be sign-matched reliably.
BRANCH_AMBIGUITY_TOL = 1e-14


def recip_gamma(x: float) -> float:
    """1/Gamma(x) as a total function: exactly 0 at nonpositive integers.

    The zero matters: correction terms weighted by 1/Gamma(-p) must vanish
    smoothly when p passes through an integer.  Raises OverflowError where
    1/Gamma(x) is no finite nonzero double: above x = 171.6, and below about
    x = -171, where math.gamma underflows toward 0 (math.gamma(-200.5) is
    -0.0).
    """
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    g = math.gamma(x)
    if abs(g) < 1.0 / sys.float_info.max:
        raise OverflowError(f"1/Gamma({x}) is out of range")
    return 1.0 / g


def principal_power(w: complex, p: float) -> complex:
    """w**p on the principal branch, Arg w in (-pi, pi].

    w = 0 is allowed only for p > 0 (returns 0).
    """
    w = complex(w)
    if w == 0:
        if p > 0:
            return 0j
        raise ValueError("principal_power undefined at w = 0 with p <= 0")
    return cmath.exp(p * cmath.log(w))

