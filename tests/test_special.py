import cmath
import math

import pytest

from ptspec._quadrature import _signed_root
from ptspec.special import BranchAmbiguityError, principal_power, recip_gamma


def test_recip_gamma_total():
    assert recip_gamma(-2.0) == 0.0
    assert recip_gamma(0.0) == 0.0
    assert abs(recip_gamma(1.0) - 1.0) < 1e-14
    assert abs(recip_gamma(-1.5) - 0.4231421876) < 1e-9


def test_recip_gamma_inverse_property():
    x = -9.9
    while x <= 10.0:
        if x != math.floor(x):
            assert abs(recip_gamma(x) * math.gamma(x) - 1.0) < 1e-12
        x += 0.2


def test_recip_gamma_raises_where_it_is_not_a_finite_double():
    # math.gamma(-200.5) underflows to -0.0; math.gamma(200.0) overflows
    assert math.gamma(-200.5) == 0.0
    for x in (-200.5, 200.0):
        with pytest.raises(OverflowError):
            recip_gamma(x)


def test_principal_power_values():
    assert principal_power(1.0, 2.7) == 1.0
    # (i z)^p at z = -i is 1 for any p
    z = -1j
    for p in (1.3, 2.0, 4.5):
        assert abs(principal_power(1j * z, p) - 1.0) < 1e-14
    # Arg(-1) = pi convention puts (-1)^(1/2) at +i
    assert abs(principal_power(complex(-1.0, 0.0), 0.5) - 1j) < 1e-14


def test_principal_power_addition_off_cut():
    for w in (0.5 + 0.3j, 2.0 - 1.0j, 1.2 + 0.9j):
        for p1, p2 in ((0.4, 1.1), (1.3, 2.2)):
            lhs = principal_power(w, p1 + p2)
            rhs = principal_power(w, p1) * principal_power(w, p2)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_principal_power_zero():
    assert principal_power(0.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        principal_power(0.0, -1.0)


def test_tracked_sqrt_continuity():
    assert _signed_root(4.0, 2.0 + 0j) == 2.0
    assert _signed_root(4.0, -2.1 + 0j) == -2.0


def test_tracked_sqrt_square_roundtrip():
    last = 1.0 + 0j
    for k in range(50):
        w = cmath.exp(0.3j * k) * (1.0 + 0.1 * k)
        last = _signed_root(w, last)
        assert abs(last * last - w) <= 1e-13 * abs(w)


def test_tracked_sqrt_monodromy():
    # One loop around the simple zero of w at the origin flips the branch.
    first = None
    val = 1.0 + 0j
    for k in range(201):
        w = cmath.exp(2j * math.pi * k / 200)
        val = _signed_root(w, val)
        if first is None:
            first = val
    assert abs(val + first) < 1e-12


def test_tracked_sqrt_ambiguity():
    with pytest.raises(BranchAmbiguityError):
        _signed_root(1e-16 + 0j, 1.0 + 0j)
