"""The vectorised quadrature engine against a sample-by-sample reference."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ptspec._quadrature import _segment_points, sqrt_path_integral, SqrtTracker
from ptspec.geometry import ModelSpec
from ptspec.special import BranchAmbiguityError

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


def _reference(q, nodes, order, seed, singular_start, singular_end):
    """The same integral with one SqrtTracker.take per sample, in path order.

    q is sampled on the same points as the engine samples it, so the test
    compares the sign chain and the sum, not two spellings of q.  Returns
    (integral, last sample, sum of the moduli of the terms).
    """
    tracker = SqrtTracker(1.0 if seed is None else seed)
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
            term = wk * tracker.take(w)
            acc += term
            scale += abs(term * d)
        total += acc * d
    return total, tracker.last, scale


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
            sqrt_path_integral(q, nodes, order=order, seed=seed,
                               singular_start=singular_start,
                               singular_end=singular_end)
        return
    val, last = sqrt_path_integral(q, nodes, order=order, seed=seed,
                                   singular_start=singular_start,
                                   singular_end=singular_end)
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
        val, last = sqrt_path_integral(q, [-1.0, 1.0], order=order, seed=-1j)
        assert last == ref_last
        assert last.real > 0
        assert abs(val - ref) <= 1e-15


def test_fractional_power_sample_at_the_origin_raises_without_warning():
    q = ModelSpec.power_law(1.5).q_callable()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            sqrt_path_integral(q, [-1.0, 1.0], order=5)
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
