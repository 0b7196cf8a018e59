"""Numeric confirmation of the inner-matching constants.

The exponentially small switching terms carry two constants per
singularity: the late-term exponent gamma and the prefactor Lambda.  These
were fixed analytically by matching inner solutions; here they are
recomputed by independent finite-n routes so a sign or factor slip
anywhere upstream would show up as a failed limit.

* turning points: Lambda = 1/(2 pi), recovered from the Airy-expansion
  Gamma ratio.  The regularised ratio
  Gamma(3n+1/2) / (27^n Gamma(n+1/6) Gamma(n+1/2) Gamma(n+5/6)) is exactly
  1/(2 pi) for every n by the Gauss triplication formula; the raw matching
  ratio with Gamma(n) Gamma(n+1) in the denominator approaches the same
  limit like 1 - 5/(36 n).
* branch point z = 0: Lambda = -1/(2^{p+2} Gamma(-p)), recovered from the
  inner-equation recurrence h_{n+1} = ((n-p)/2) h_n.
"""

import math
from dataclasses import dataclass

from .asymptotic import solve_condition, wkb_eigenvalue
from .special import recip_gamma

__all__ = [
    "ConvergenceReport",
    "HSequence",
    "branch_point_prefactor",
    "h_sequence",
    "quantization_equivalence",
    "turning_point_matching_ratio",
    "turning_point_prefactor",
]

_TWO_PI = 2.0 * math.pi


@dataclass
class ConvergenceReport:
    """Finite-n estimates of a constant and their tail deviation."""

    n_values: list[int]
    estimates: list[float]
    limit: float
    max_dev_tail: float

    @classmethod
    def from_estimates(cls, n_values, estimates, limit) -> "ConvergenceReport":
        tail = estimates[-max(1, len(estimates) // 4):]
        dev = max(abs(e - limit) for e in tail)
        return cls(list(n_values), list(estimates), limit, dev)


@dataclass
class HSequence:
    """Inner-expansion coefficients h_n in sign/log-magnitude form.

    Gamma(n - p) overflows doubles near n = 172, so the recurrence is run
    in log space; float_values() materialises plain floats with inf where
    they are not representable.
    """

    p: float
    signs: list[float]
    log_abs: list[float]

    def float_values(self) -> list[float]:
        out = []
        for s, la in zip(self.signs, self.log_abs):
            if la == -math.inf:
                out.append(0.0)
            elif la > 709.0:
                out.append(s * math.inf)
            else:
                out.append(s * math.exp(la))
        return out


def h_sequence(p: float, n_max: int) -> HSequence:
    """h_0 = 1, h_{n+1} = ((n - p)/2) h_n, checked against the closed form.

    The closed form is h_n = Gamma(n - p) / (2^n Gamma(-p)); the recurrence
    applied from n = 0 reproduces it exactly (the bridging value
    h_1 = Gamma(1-p)/(2 Gamma(-p)) = -p/2 equals the n = 0 step).
    Requires non-integer p so Gamma(-p) is finite.
    """
    if p == int(p):
        raise ValueError("h_sequence needs non-integer p")
    if n_max > 400:
        raise ValueError("n_max above 400 is outside the validated range")
    signs = [1.0]
    log_abs = [0.0]
    for n in range(n_max):
        factor = (n - p) / 2.0  # never 0: integer p is refused above
        signs.append(signs[-1] * math.copysign(1.0, factor))
        log_abs.append(log_abs[-1] + math.log(abs(factor)))
    seq = HSequence(p=p, signs=signs, log_abs=log_abs)
    _check_h_closed_form(seq)
    return seq


def _gamma_sign_log(x: float) -> tuple[float, float]:
    """(sign, log|Gamma(x)|) for real non-pole x of any size."""
    if x > 0:
        return 1.0, math.lgamma(x)
    g = math.gamma(x)  # only reached for moderate negative x
    return math.copysign(1.0, g), math.log(abs(g))


def _check_h_closed_form(seq: HSequence) -> None:
    p = seq.p
    sg_gp, lg_gp = _gamma_sign_log(-p)
    for n in range(1, len(seq.signs)):
        sg_n, lg_n = _gamma_sign_log(n - p)
        log_closed = lg_n - n * math.log(2.0) - lg_gp
        sign_closed = sg_n * sg_gp
        if seq.signs[n] != sign_closed:
            raise AssertionError(f"h_{n} sign disagrees with the closed form")
        if abs(seq.log_abs[n] - log_closed) > 1e-10:
            raise AssertionError(f"h_{n} magnitude disagrees with the closed form")


def branch_point_prefactor(p: float) -> ConvergenceReport:
    """Lambda at z = 0 from the recurrence: -(h_n 2^n / Gamma(n-p)) / 2^{p+2},
    n = 1..120.

    Because h_n solves the recurrence exactly, every finite-n estimate
    already equals -1/(2^{p+2} Gamma(-p)); the report cross-checks that
    constant against the independent reciprocal-Gamma route.
    """
    seq = h_sequence(p, 120)
    limit = -recip_gamma(-p) / 2.0 ** (p + 2.0)
    pref = -1.0 / 2.0 ** (p + 2.0)
    ests = []
    ns = list(range(1, len(seq.signs)))
    for n in ns:
        sg_n, lg_n = _gamma_sign_log(n - p)
        val = seq.signs[n] * sg_n * math.exp(
            seq.log_abs[n] + n * math.log(2.0) - lg_n)
        ests.append(pref * val)
    return ConvergenceReport.from_estimates(ns, ests, limit)


def _gamma_ratio(n_max: int, offsets: tuple[float, float, float]) -> ConvergenceReport:
    """Gamma(3n+1/2) / (27^n Gamma(n+c1) Gamma(n+c2) Gamma(n+c3)), offsets
    (c1, c2, c3), for n = 1..n_max against its limit 1/(2 pi)."""
    ns = list(range(1, n_max + 1))
    c1, c2, c3 = offsets
    ests = [
        math.exp(math.lgamma(3 * n + 0.5) - n * math.log(27.0)
                 - math.lgamma(n + c1) - math.lgamma(n + c2) - math.lgamma(n + c3))
        for n in ns
    ]
    return ConvergenceReport.from_estimates(ns, ests, 1.0 / _TWO_PI)


def turning_point_prefactor(n_max: int = 60) -> ConvergenceReport:
    """Lambda at a turning point: the regularised Gamma ratio, exactly 1/(2 pi).

    Gamma(3n+1/2) = 3^{3n} Gamma(n+1/6) Gamma(n+1/2) Gamma(n+5/6) / (2 pi)
    by triplication, so every term of the sequence equals the limit.
    """
    return _gamma_ratio(n_max, (1.0 / 6.0, 0.5, 5.0 / 6.0))


def turning_point_matching_ratio(n_max: int = 60) -> ConvergenceReport:
    """The raw term-matching ratio Gamma(3n+1/2)/(27^n Gamma(n) Gamma(n+1)
    Gamma(n+1/2)).

    Approaches 1/(2 pi) like 1 - 5/(36 n): this is the sequence the
    inner-to-outer matching actually produces, constant only in the limit.
    """
    return _gamma_ratio(n_max, (0.0, 1.0, 0.5))


def quantization_equivalence(p: float, n_range=range(5, 16)) -> float:
    """Worst relative gap between WKB-condition roots and the closed form.

    The two derivations (turning-point matching vs Stokes switching) must
    give the same ladder; returns max over n of the relative deviation.
    """
    worst = 0.0
    for n in n_range:
        root = solve_condition(n, p, "wkb")
        closed = wkb_eigenvalue(n, p)
        worst = max(worst, abs(root.E.real - closed) / closed)
    return worst
