import math

import pytest

from ptspec.asymptotic import solve_condition, wkb_eigenvalue
from ptspec.special import recip_gamma
from ptspec.verify import (branch_point_prefactor, h_sequence,
                           quantization_equivalence,
                           turning_point_matching_ratio,
                           turning_point_prefactor)

TWO_PI = 2.0 * math.pi


def test_h_sequence_start_values():
    for p in (0.5, 1.3, 2.7):
        seq = h_sequence(p, 10)
        vals = seq.float_values()
        assert vals[0] == 1.0
        # bridging value from the closed form: h_1 = -p/2
        assert abs(vals[1] - (-p / 2.0)) < 1e-12
    with pytest.raises(ValueError):
        h_sequence(2.0, 10)


def test_h_sequence_ratio_tends_to_half_n():
    seq = h_sequence(1.5, 60)
    vals = seq.float_values()
    for n in (40, 50):
        assert abs(vals[n + 1] / vals[n] - n / 2.0) < 1.0


def test_h_sequence_log_matches_direct():
    p = 1.7
    seq = h_sequence(p, 120)
    direct = [1.0]
    for n in range(30):
        direct.append(direct[-1] * (n - p) / 2.0)
    for n, d in enumerate(direct):
        got = seq.float_values()[n]
        assert abs(got - d) <= 1e-12 * max(1.0, abs(d))


def test_h_sequence_deep_values_stay_representable_in_log_space():
    seq = h_sequence(0.5, 400)
    assert math.isfinite(seq.log_abs[-1])
    assert seq.log_abs[-1] > 700.0  # would overflow as a plain float


def test_branch_point_prefactor_values():
    rep = branch_point_prefactor(1.5)
    want = -recip_gamma(-1.5) / 2.0 ** 3.5
    assert abs(rep.limit - want) < 1e-14
    assert abs(want - (-0.0374008)) < 1e-6
    assert rep.max_dev_tail <= 1e-9
    spread = max(rep.estimates) - min(rep.estimates)
    assert spread <= 1e-12


def test_branch_point_prefactor_vanishes_toward_integer():
    rep = branch_point_prefactor(2.0001)
    assert abs(rep.limit) < 1e-3


def test_turning_point_prefactor_exact():
    rep = turning_point_prefactor()
    assert abs(rep.limit - 1.0 / TWO_PI) < 1e-16
    assert max(abs(e - rep.limit) for e in rep.estimates) <= 1e-11
    assert rep.n_values[0] == 1 and rep.n_values[-1] == 60


def test_turning_point_matching_ratio_converges():
    rep = turning_point_matching_ratio()
    # raw matching sequence: first term 5/36, approaches 1/(2 pi) like
    # 1 - 5/(36 n)
    assert abs(rep.estimates[0] - 5.0 / 36.0) < 1e-14
    for n in (50, 100, 399):
        got = rep.estimates[n - 1] * TWO_PI
        want = 1.0 - 5.0 / (36.0 * n)
        assert abs(got - want) < 0.2 / n ** 2
    assert abs(rep.estimates[-1] - rep.limit) < 1e-3 * rep.limit


def test_all_constants_jointly():
    for p in (1.3, 1.5, 1.7, 2.5, 3.5):
        rep = branch_point_prefactor(p)
        assert rep.max_dev_tail <= 1e-9
    assert turning_point_prefactor().max_dev_tail <= 1e-11


def test_quantization_equivalence():
    assert quantization_equivalence(3.0) <= 1e-9
    assert quantization_equivalence(5.0) <= 1e-9
    # the harmonic ladder, from the ground state up
    for n in range(8):
        closed = wkb_eigenvalue(n, 2.0)
        assert abs(solve_condition(n, 2.0, "wkb").E.real - closed) <= 1e-12 * closed
