"""Scalar special functions and branch-aware complex elementary operations.

Everything downstream (actions, eigenvalue conditions, Stokes tracing) runs
on these three primitives: a real Gamma function, its total reciprocal and
the principal complex power.  The square root whose sign is carried along a
contour is the quadrature engine's SqrtTracker; its ambiguity error and
tolerance live here.
"""

import cmath
import math

__all__ = [
    "BranchAmbiguityError",
    "GammaPoleError",
    "gamma_real",
    "principal_power",
    "recip_gamma",
]


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


class BranchAmbiguityError(ValueError):
    """Tracked square root sampled too close to a zero to fix the sign."""


# Lanczos approximation, g = 7, 9 terms.  Good to ~1e-13 relative over the
# range used here (|x| <= 30 away from poles).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Below this magnitude a square-root sample cannot be sign-matched reliably.
BRANCH_AMBIGUITY_TOL = 1e-14


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_real(x: float) -> float:
    """Gamma(x) for real x, Lanczos core plus reflection for x < 1/2.

    Raises GammaPoleError at the poles (nonpositive integers).
    """
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"Gamma pole at x = {x}")
    if x < 0.5:
        # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_real(1.0 - x))
    y = x - 1.0
    t = y + _LANCZOS_G + 0.5
    series = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[i] / (y + i)
    return _SQRT_TWO_PI * t ** (y + 0.5) * math.exp(-t) * series


def recip_gamma(x: float) -> float:
    """1/Gamma(x) as a total function: exactly 0 at nonpositive integers.

    The zero matters: correction terms weighted by 1/Gamma(-p) must vanish
    smoothly when p passes through an integer.
    """
    if _is_nonpositive_integer(x):
        return 0.0
    return 1.0 / gamma_real(x)


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

