"""The vectorised quadrature engine against a sample-by-sample reference."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ptspec import geometry
from ptspec._quadrature import (_segment_points, _signed_root, _signed_roots,
                               integrate_legs)
from ptspec.geometry import ModelSpec, TraceError
from ptspec.special import BRANCH_AMBIGUITY_TOL, BranchAmbiguityError

#: Integrands: the model closures of every kind, and the bare simple zero.
_Q = {
    "z": lambda z: z,
    "p=2": ModelSpec.power_law(2.0).q_callable(),
    "p=3": ModelSpec.power_law(3.0).q_callable(),
    "p=1.5": ModelSpec.power_law(1.5).q_callable(),
    "p=2.5084": ModelSpec.power_law(2.5084).q_callable(),
    "quartic a=0.7": ModelSpec.quartic(0.7).q_callable(),
    "quartic a=1+0.5i": ModelSpec.quartic(1.0 + 0.5j).q_callable(),
}


def _path(q, nodes, order=40, seed=None, singular_start=False, singular_end=False):
    """(integral, last sample) of the one leg nodes."""
    return integrate_legs(lambda _: q, [(nodes, seed, singular_start, singular_end, None)],
                          order)[0]


def _integrals(q, legs, order, singular_end=False):
    """The integrals of the legs (nodes, seed), in one pass."""
    legs = [(nodes, seed, False, singular_end, None) for nodes, seed in legs]
    return [val for val, _ in integrate_legs(lambda _: q, legs, order)]


def _reference(q, nodes, order, seed, singular_start, singular_end):
    """The same integral with one _signed_root per sample, in path order.

    q is sampled on the same points as the engine samples it, so the test
    compares the sign chain and the sum, not two spellings of q.  Returns
    (integral, last sample, sum of the moduli of the terms).
    """
    last = 1.0 if seed is None else seed
    total, scale = 0j, 0.0
    last_seg = len(nodes) - 2
    for i, (z0, z1) in enumerate(zip(nodes, nodes[1:])):
        d = z1 - z0
        u, wu = _segment_points(order, singular_start and i == 0,
                                singular_end and i == last_seg)
        points = [z0 + uk * d for uk in u.tolist()]
        samples = q(np.array(points)).tolist()
        acc = 0j
        for wk, w in zip(wu.tolist(), samples):
            last = _signed_root(w, last)
            term = wk * last
            acc += term
            scale += abs(term * d)
        total += acc * d
    return total, last, scale


_coord = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 2))
_point = st.builds(complex, _coord, _coord)


@settings(deadline=None, max_examples=300)
@given(q_name=st.sampled_from(sorted(_Q)),
       nodes=st.lists(_point, min_size=2, max_size=5),
       order=st.integers(1, 24),
       seed=st.none() | _point,
       singular_start=st.booleans(),
       singular_end=st.booleans())
def test_engine_matches_the_sample_by_sample_chain(q_name, nodes, order, seed,
                                                   singular_start, singular_end):
    assume(all(z0 != z1 for z0, z1 in zip(nodes, nodes[1:])))
    q = _Q[q_name]
    args = (nodes, order, seed, singular_start, singular_end)
    try:
        ref, ref_last, scale = _reference(q, *args)
    except (BranchAmbiguityError, ValueError) as err:
        with pytest.raises(type(err)):
            _path(q, nodes, order, seed, singular_start, singular_end)
        return
    val, last = _path(q, nodes, order, seed, singular_start, singular_end)
    assert abs(last - ref_last) < abs(last + ref_last), (last, ref_last)
    assert abs(val - ref) <= 1e-13 * scale, (val, ref)


def test_exact_tie_keeps_the_principal_root_after_a_negated_sample():
    # Even order on [-1, 1] puts the two middle samples at -x and +x, whose
    # principal roots i sqrt(x) and sqrt(x) are exactly as near each other
    # as either is to the other's negative.  Seeding at -i negates the
    # samples before the tie; the tie then keeps the principal root.
    q = _Q["z"]
    for order in (2, 4, 8):
        ref, ref_last, _ = _reference(q, [-1.0, 1.0], order, -1j, False, False)
        val, last = _path(q, [-1.0, 1.0], order=order, seed=-1j)
        assert last == ref_last
        assert last.real > 0
        assert abs(val - ref) <= 1e-15


def test_fractional_power_sample_at_the_origin_raises_without_warning():
    q = ModelSpec.power_law(1.5).q_callable()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            _path(q, [-1.0, 1.0], order=5)
        with pytest.raises(ValueError):
            q(np.array([0.5, 0.0, -0.5], dtype=complex))


@pytest.mark.parametrize("singular_start", [False, True])
@pytest.mark.parametrize("singular_end", [False, True])
def test_segment_points_integrate_powers_exactly(singular_start, singular_end):
    # The square-root substitution maps u^k to a polynomial of degree 2k + 1
    # in v, so every piece stays exact for k < order.
    for order in (1, 3, 8, 24, 40):
        u, w = _segment_points(order, singular_start, singular_end)
        for k in range(order):
            assert abs(complex(u ** k @ w) - 1.0 / (k + 1)) <= 1e-14, (order, k)


def test_singular_ends_integrate_the_square_root_zero():
    for order in (24, 40):
        u, w = _segment_points(order, True, False)
        assert abs(complex(np.sqrt(u) @ w) - 2.0 / 3.0) <= 1e-13
        u, w = _segment_points(order, False, True)
        assert abs(complex(np.sqrt(1.0 - u) @ w) - 2.0 / 3.0) <= 1e-13


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _separately(q, legs, order, singular_end):
    """The legs as separate one-leg passes, in their bits."""
    return [_bits(_path(q, nodes, order, seed, singular_end=singular_end)[0])
            for nodes, seed in legs]


@settings(deadline=None, max_examples=300)
@given(q_name=st.sampled_from(sorted(_Q)),
       legs=st.lists(st.tuples(st.lists(_point, min_size=2, max_size=4),
                               st.none() | _point), min_size=1, max_size=3),
       order=st.integers(1, 24),
       singular_end=st.booleans())
def test_legs_in_one_pass_equal_separate_integrals(q_name, legs, order, singular_end):
    assume(all(z0 != z1 for nodes, _ in legs for z0, z1 in zip(nodes, nodes[1:])))
    q = _Q[q_name]
    try:
        ref = _separately(q, legs, order, singular_end)
    except (BranchAmbiguityError, ValueError) as err:
        with pytest.raises(type(err)):
            _integrals(q, legs, order=order, singular_end=singular_end)
        return
    one = _integrals(q, legs, order=order, singular_end=singular_end)
    assert list(map(_bits, one)) == ref


def _outcome(q, legs, order, moment):
    """Each leg's integral and last sample in their bits, or the error type."""
    try:
        out = integrate_legs(lambda _: q, [(*leg, None) for leg in legs], order, moment=moment)
    except (BranchAmbiguityError, ValueError) as err:
        return type(err)
    return [(_bits(val), _bits(last)) for val, last, *_ in out]


@settings(deadline=None, max_examples=300)
@given(q_name=st.sampled_from(sorted(_Q)),
       legs=st.lists(st.tuples(st.lists(_point, min_size=2, max_size=4),
                               st.none() | _point, st.booleans(), st.booleans()),
                     min_size=1, max_size=3),
       order=st.integers(1, 24))
def test_moment_leaves_the_integrals_bit_for_bit(q_name, legs, order):
    # The quartic action always asks for the moment: the integral and the
    # last sample must be those of a pass without it, and so must an error.
    q = _Q[q_name]
    assert _outcome(q, legs, order, True) == _outcome(q, legs, order, False)


_coupling = (st.floats(-12.0, 12.0).map(complex)
             | st.builds(lambda r, t: r * cmath.exp(1j * t),
                         st.floats(0.0, 12.0), st.floats(-math.pi, math.pi)))


@settings(deadline=None, max_examples=200)
@given(a=_coupling)
def test_quartic_legs_in_one_pass_equal_separate_integrals(a):
    # The four legs of both quartic actions, mid -> z_e and mid -> z_C for
    # z_e = z_A and z_B, seeded from the coupling walk as the action seeds
    # them, on the real and the complex coupling plane.
    try:
        wp = geometry._quartic_walk(a)
    except TraceError:  # the walk passes where two turning points meet
        assume(False)
    q = ModelSpec.quartic(wp.a).q_callable()
    z_c, legs = wp.roots.z_c, []
    for z_e, seed in ((wp.roots.z_a, wp.seed_a), (wp.roots.z_b, wp.seed_b)):
        mid = 0.5 * (z_c + z_e)
        legs += [([mid, z_e], seed), ([mid, z_c], seed)]
    one = _integrals(q, legs, order=40, singular_end=True)
    assert list(map(_bits, one)) == _separately(q, legs, 40, True)


def test_each_leg_restarts_the_sign_chain_from_its_own_seed():
    # Along -1 + 0.5i -> -1 - 0.5i, q = z crosses the negative axis, so the
    # chain flips once and the last sample is the negated principal root.
    # A second leg starts afresh from its own seed: the flip does not carry
    # into it, nor into the exact tie of [-1, 1] seeded at -i (see
    # test_exact_tie_keeps_the_principal_root_after_a_negated_sample).
    q = _Q["z"]
    flip = ([-1 + 0.5j, -1 - 0.5j], None)
    _, last = _path(q, flip[0], order=8)
    assert last.real < 0
    for order in (2, 4, 8):
        tie = ([-1.0, 1.0], -1j)
        for legs in ([flip, tie], [flip, flip], [tie, flip]):
            one = _integrals(q, legs, order=order)
            assert list(map(_bits, one)) == _separately(q, legs, order, False)
        one = _integrals(q, [flip, flip], order=order)
        assert one[0] == one[1]


def _polar(modulus, angle):
    return modulus * cmath.exp(1j * angle)


def _tie_ratio(s, r):
    d = s * r.conjugate()
    return abs(d.real) / abs(d)


_angle = st.floats(-math.pi, math.pi)
_modulus = st.floats(1e-13, 10.0) | st.sampled_from([1e-16, 5e-15])
#: Rotations of one root against the other: any, or a near tie (a quarter
#: turn off by far less than the tie tolerance of 1e-12).
_turn = _angle | st.builds(lambda k, e: k * math.pi / 2 + e,
                           st.sampled_from([-1, 1]), st.floats(-1e-13, 1e-13))


@settings(deadline=None, max_examples=500)
@given(w0=st.builds(_polar, _modulus, _angle), turn=_turn, m1=_modulus,
       seed=st.none() | st.tuples(st.floats(0.1, 3.0), _turn))
def test_scalar_sign_rule_matches_the_array_engine(w0, turn, m1, seed):
    # Two-sample paths: the second root is the first turned by turn, and a
    # seed is given relative to the first root the same way, so flips, near
    # ties and exact quarter turns all occur.  The samples reach the engine
    # unchanged through a q that returns them.
    r0 = cmath.sqrt(w0)
    w1 = (m1 ** 0.5 * r0 / abs(r0) * cmath.exp(1j * turn)) ** 2
    if seed is not None:
        seed = seed[0] * r0 / abs(r0) * cmath.exp(1j * seed[1])
    samples = np.array([w0, w1])

    def q(z):
        return samples

    start = 1.0 if seed is None else seed
    if min(abs(w0), abs(w1)) < BRANCH_AMBIGUITY_TOL:
        with pytest.raises(BranchAmbiguityError):
            _signed_root(w1, _signed_root(w0, start))
        with pytest.raises(BranchAmbiguityError):
            _path(q, [0.0, 1.0], order=2, seed=seed)
        return
    # numpy's and cmath's roots may differ in the last bits: keep clear of
    # the tie tolerance, where that difference could decide.
    principal = [cmath.sqrt(w) for w in samples.tolist()]
    for s, r in ((principal[0], start), (principal[1], principal[0])):
        assume(not 0.5e-12 <= _tie_ratio(s, r) <= 2e-12)
    s0 = _signed_root(w0, start)
    s1 = _signed_root(w1, s0)
    roots = _signed_roots(samples, [0], [seed])
    for s, r in zip((s0, s1), roots.tolist()):
        assert abs(s - r) <= 1e-15 * abs(s), (s, r)
    assert _path(q, [0.0, 1.0], order=2, seed=seed)[1] == roots[1]
