import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptspec import action as action_module, geometry
from ptspec._quadrature import integrate_legs
from ptspec.action import (action_between, action_scale,
                           action_to_turning_points, quartic_action,
                           quartic_critical_a, singulant,
                           _quartic_end_actions, _quartic_end_actions_batch)
from ptspec.geometry import ModelSpec, TraceError, quartic_turning_points, turning_points
from ptspec.special import BranchAmbiguityError

PI = math.pi


def test_action_same_endpoints_is_zero():
    model = ModelSpec.power_law(2.0)
    assert action_between(0.3 + 0.1j, 0.3 + 0.1j, model) == 0


def test_quarter_circle_integral():
    # p = 2: integral_0^1 sqrt(1 - t^2) dt = pi/4, endpoint is a turning point
    model = ModelSpec.power_law(2.0)
    val = action_between(0, 1.0, model)
    assert abs(val - PI / 4) < 1e-13
    # brute-force oracle on a fine grid (integrand real on [0, 1))
    t = np.linspace(0.0, 1.0, 1_000_001)
    brute = np.trapezoid(np.sqrt(np.clip(1.0 - t * t, 0.0, None)), t)
    assert abs(val.real - brute) < 1e-8


def test_action_scale_values():
    assert abs(action_scale(1.0) - 2.0 / 3.0) < 1e-12
    assert abs(action_scale(2.0) - PI / 4) < 1e-12
    assert abs(action_scale(1e9) - 1.0) < 1e-6


def test_closed_form_turning_point_action():
    for p in (1.3, 1.7, 2.5, 3.0, 5.0):
        model = ModelSpec.power_law(p)
        za, zb = turning_points(p)
        phi_a, phi_b = action_to_turning_points(p)
        assert abs(action_between(0, za, model) - phi_a) <= 1e-10
        assert abs(action_between(0, zb, model) - phi_b) <= 1e-10


def test_closed_form_p3_orientation():
    phi_a, _ = action_to_turning_points(3.0)
    want = complex(-math.sin(PI / 3), -math.cos(PI / 3)) * action_scale(3.0)
    assert abs(phi_a - want) < 1e-14


def test_path_additivity():
    model = ModelSpec.power_law(2.5)
    z_mid = 0.4 - 0.3j
    z_end = 1.1 - 0.6j
    whole = action_between(0, z_end, model, via=[z_mid])
    first = action_between(0, z_mid, model)
    second = action_between(z_mid, z_end, model)
    assert abs(whole - (first + second)) < 1e-12


def test_path_through_the_branch_point_is_split_there():
    # Gauss across the kink of (i t)^p at an interior z = 0 was 5.5e-10 off
    model = ModelSpec.power_law(1.5)
    z0, z1 = -0.7 - 0.4j, 0.3 - 0.9j
    via = action_between(z0, z1, model, via=[0])
    assert abs(via - (action_between(0, z1, model) - action_between(0, z0, model))) <= 1e-13


def test_path_ending_at_the_branch_point_is_the_reversed_path_negated():
    model = ModelSpec.power_law(1.5)
    z0, node = 0.3 - 0.9j, 0.5 - 0.2j
    assert (action_between(z0, 0, model, via=[node])
            == -action_between(0, z0, model, via=[node]))


def test_quadrature_order_convergence():
    for p in (1.3, 2.0, 3.0):
        model = ModelSpec.power_law(p)
        za, _ = turning_points(p)
        v40 = action_between(0, za, model, order=40)
        v80 = action_between(0, za, model, order=80)
        assert abs(v80 - v40) < 1e-11


def test_path_independence_homotopic():
    for p in (1.5, 2.5, 3.0):
        model = ModelSpec.power_law(p)
        za, _ = turning_points(p)
        straight = action_between(0, za, model)
        detour_node = 0.5 * za - 0.25j
        detour = action_between(0, za, model, via=[detour_node])
        assert abs(straight - detour) <= 1e-10


def test_action_pt_symmetry():
    for p in (1.2, 1.6, 2.0, 2.7, 3.5, 5.0):
        model = ModelSpec.power_law(p)
        za, zb = turning_points(p)
        left = action_between(0, zb, model)
        right = -action_between(0, za, model).conjugate()
        assert abs(left - right) <= 1e-10


def test_cut_guard():
    model = ModelSpec.power_law(1.5)
    with pytest.raises(ValueError):
        action_between(cmath.exp(3j * PI / 4), cmath.exp(1j * PI / 4), model)


def test_singulant_basics():
    model = ModelSpec.power_law(2.0)
    assert singulant(1.0, 1.0, model) == 0
    # chi on the p = 2 Stokes line from z = 1: real, matches brute force
    chi = singulant(2.0, 1.0, model)
    t = np.linspace(1.0, 2.0, 400_001)
    brute = 2.0 * np.trapezoid(np.sqrt(t * t - 1.0), t)  # 2i * i * integral
    assert abs(chi.imag) < 1e-10
    if chi.real < 0:
        chi = -chi
    assert abs(chi.real - brute) < 1e-7


def test_singulant_telescoping():
    model = ModelSpec.power_law(2.5)
    za, zb = turning_points(2.5)
    diffs = []
    for z in (1.4 - 0.2j, 2.0 - 0.5j, 0.3 - 0.9j):
        ca = 2j * (action_between(0, z, model) - action_between(0, za, model))
        cb = 2j * (action_between(0, z, model) - action_between(0, zb, model))
        diffs.append(ca - cb)
    assert abs(diffs[0] - diffs[1]) < 1e-12
    assert abs(diffs[1] - diffs[2]) < 1e-12


def test_quartic_action_calibration():
    w0 = quartic_action(0.0)
    assert abs(w0.imag - 0.87402) <= 1e-4
    assert abs(w0.real - 0.87402) <= 1e-4


def test_quartic_v_monotone():
    a_vals = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    v_vals = [quartic_action(a).imag for a in a_vals]
    assert all(v2 < v1 for v1, v2 in zip(v_vals, v_vals[1:]))


def test_quartic_z_b_action_mirrors_z_a_at_real_coupling():
    # z_B = -conj(z_A) for real a, so the z_B action integrated on the
    # coupling walk's own z_b leg and seed must land on the mirror image of
    # the z_A action, -conj(U + iV): the pair _quartic_end_actions returns.
    for a in (0.0, 0.3, 0.9, 1.2, 1.7, 2.5, 3.3, 4.0):
        wp = geometry._quartic_walk(a)
        z_b, z_c = wp.roots.z_b, wp.roots.z_c
        mid = 0.5 * (z_c + z_b)
        (to_b, _, mom_b), (to_c, _, mom_c) = integrate_legs(
            geometry._quartic_q, [([mid, z_b], wp.seed_b, False, True, 1j * wp.a),
                                  ([mid, z_c], wp.seed_b, False, True, 1j * wp.a)],
            40, moment=True)
        (w_a, dw_a), (w_b, dw_b) = _quartic_end_actions(a)
        assert w_a == quartic_action(a)
        assert (w_b, dw_b) == (-w_a.conjugate(), -dw_a.conjugate()), a
        assert abs(-(to_b - to_c) - w_b) <= 1e-14, a
        assert abs(0.5j * (mom_b - mom_c) - dw_b) <= 1e-14, a


@pytest.mark.parametrize("a, legs", [(0.0, 2), (1.3, 2), (-0.7, 2), (1.1 + 0.3j, 4),
                                     (0.5j, 4)])
def test_quartic_end_actions_integrate_z_b_only_off_the_real_axis(monkeypatch, a, legs):
    # at real a z_b's pair is z_a's mirrored, not integrated
    counts = []
    plain = action_module.integrate_legs

    def counting(q, given, *args, **kwargs):
        counts.append(len(given))
        return plain(q, given, *args, **kwargs)

    monkeypatch.setattr(action_module, "integrate_legs", counting)
    ends = _quartic_end_actions(a)
    assert counts == [legs] and len(ends) == 2


def test_quartic_action_is_a_pure_function_of_the_coupling(monkeypatch):
    # The coupling walk memoises its waypoints; whatever the memo holds and
    # whichever coupling came before, each coupling must give the same bits.
    # 0.2 k are waypoints themselves; 3.45 precedes 3.5 on the same leg.
    couplings = [0.0, 0.2 * 1, 0.9, 0.2 * 5, 0.2 * 17, 3.45, 3.5, 1.1 + 0.3j]

    def evaluate(a):
        return quartic_action(a), _quartic_end_actions(a), quartic_turning_points(a)

    cold = {}
    for a in couplings:
        origin = geometry._ORIGIN_WAYPOINT
        monkeypatch.setattr(geometry, "_WAYPOINT_MEMO",
                            {1.0: [origin], -1.0: [origin]})
        cold[a] = evaluate(a)
    for a in reversed(couplings):
        assert evaluate(a) == cold[a], a


def test_warm_quartic_action_polishes_one_leg(monkeypatch):
    # 3.5 lies 0.1 past the waypoint 3.4: a warm call polishes the roots on
    # that one leg, not on every step of the walk from a = 0.  At real a it
    # polishes three of them: z_b is z_a mirrored.
    quartic_action(3.5)
    calls = [0]
    plain = geometry._polish_turning_point

    def counting(z, ia):
        calls[0] += 1
        return plain(z, ia)

    monkeypatch.setattr(geometry, "_polish_turning_point", counting)
    quartic_action(3.5)
    assert calls[0] == 3


def _walked_legs(monkeypatch, couplings):
    """(start, end) of every leg that cold walks to the couplings take."""
    origin = geometry._ORIGIN_WAYPOINT
    monkeypatch.setattr(geometry, "_WAYPOINT_MEMO", {1.0: [origin], -1.0: [origin]})
    legs, plain = [], geometry._walk_leg

    def recording(start, a):
        legs.append((start, plain(start, a)))
        return legs[-1][1]

    monkeypatch.setattr(geometry, "_walk_leg", recording)
    for a in couplings:
        geometry._quartic_walk(a)
    return legs


def test_walked_z_b_is_the_mirror_and_the_polish_at_real_coupling(monkeypatch):
    # The polish commutes with z -> -conj z bit for bit at real a, so the
    # mirrored z_b is the root a direct polish of the start's z_b finds.
    couplings = [s * 0.013 * k for k in range(1, 1000) for s in (1, -1)]
    legs = _walked_legs(monkeypatch, couplings)
    assert len(legs) > 2000
    for start, end in legs:
        z_a, z_b = end.roots.z_a, end.roots.z_b
        polished = geometry._polish_turning_point(start.roots.z_b, 1j * end.a)
        assert repr(z_b) == repr(-z_a.conjugate()) == repr(polished), end.a


def test_complex_coupling_polishes_four_roots_per_leg(monkeypatch):
    calls = [0]
    plain = geometry._polish_turning_point

    def counting(z, ia):
        calls[0] += 1
        return plain(z, ia)

    monkeypatch.setattr(geometry, "_polish_turning_point", counting)
    legs = _walked_legs(monkeypatch, [1.1 + 0.3j])  # five waypoints, then a
    assert len(legs) == 6 and calls[0] == 4 * len(legs)


@pytest.mark.parametrize("order", [1, 5, 41])
def test_path_integral_refuses_a_sample_at_a_zero_of_q(order):
    # An odd Gauss order puts a node at the segment midpoint, here z = 0,
    # where the sign of sqrt(q) cannot be carried through; at order 1 it is
    # the first sample, which gets the same check as every later one.
    with pytest.raises(BranchAmbiguityError):
        integrate_legs(lambda _: lambda z: z, [([-1.0, 1.0], None, False, False, None)], order)


def test_quartic_critical_coupling():
    a_star = quartic_critical_a()
    assert abs(a_star - 1.18384) <= 1e-4
    assert quartic_action(a_star - 0.1).imag > 0
    assert quartic_action(a_star + 0.1).imag < 0


def test_one_quadrature_pass_per_quartic_condition(monkeypatch):
    # One engine pass for both halves of the z_C -> z_A segment at real
    # coupling, and one for both actions (four legs) at complex coupling,
    # after one walk of the coupling ray.
    from ptspec import action
    from ptspec.asymptotic import quartic_condition
    passes, walks = [], [0]
    plain_pass, plain_walk = action.integrate_legs, geometry._walk_leg

    def counting_pass(q, legs, *args, **kwargs):
        passes.append(len(legs))
        return plain_pass(q, legs, *args, **kwargs)

    def counting_walk(start, a):
        walks[0] += 1
        return plain_walk(start, a)

    monkeypatch.setattr(action, "integrate_legs", counting_pass)
    monkeypatch.setattr(geometry, "_walk_leg", counting_walk)
    quartic_condition(0.3, 2.0)
    assert passes == [2]
    passes.clear()
    walks[0] = 0
    eps = 0.3 + 0.01j  # a = 0.6 + 0.02i: three waypoints, then a itself
    quartic_condition(eps, 2.0)
    assert passes == [4]
    assert walks[0] == 4


def _end_bits(ends):
    """The end actions of one coupling in their bits, or its error's type and text."""
    if isinstance(ends, Exception):
        return type(ends), str(ends)
    return [(w.real.hex(), w.imag.hex(), dw.real.hex(), dw.imag.hex()) for w, dw in ends]


def _single(a):
    try:
        return _quartic_end_actions(a)
    except Exception as exc:
        return exc


#: Couplings of every kind a lane asks for: zero, real (beyond the phase's
#: cap of 4 too), and complex, near the turning points' meeting included.
_lane_coupling = (st.sampled_from([0.0, 0j, -0.0, 4.0, 1.2408 + 1.2408j])
                  | st.floats(-12.0, 12.0)
                  | st.builds(lambda r, t: r * cmath.exp(1j * t),
                              st.floats(0.0, 12.0), st.floats(-math.pi, math.pi)))


@settings(deadline=None, max_examples=40)
@given(base=st.lists(_lane_coupling, min_size=1, max_size=6), lanes=st.integers(1, 200))
def test_batched_end_actions_equal_single_passes(base, lanes):
    # Up to 200 lanes, so that a batch spans several passes: each lane must
    # carry the bits of its own single pass, or the error that pass raises.
    couplings = [base[k % len(base)] + 0.01 * k for k in range(lanes)]
    batch = _quartic_end_actions_batch(couplings)
    assert list(map(_end_bits, batch)) == [_end_bits(_single(a)) for a in couplings]


def test_a_failing_lane_fails_alone(monkeypatch):
    # One coupling's walk raises TraceError, another's samples hit a zero
    # of q (BranchAmbiguityError): each fails with the text of its single
    # call, and every other lane of their passes keeps its bits.
    couplings = [0.05 * k + (0.02j if k % 3 == 0 else 0) for k in range(150)]
    bad_walk, bad_samples = couplings[40], couplings[121]
    plain_walk, plain_q = action_module._quartic_walk, action_module._quartic_q

    def walk(a):
        if a == bad_walk:
            raise TraceError(f"two turning points meet near a = {a:.6g}")
        return plain_walk(a)

    def q(ia):
        radicand = plain_q(ia)
        return lambda z: radicand(z) * np.where(np.asarray(ia) == 1j * bad_samples, 0.0, 1.0)

    monkeypatch.setattr(action_module, "_quartic_walk", walk)
    monkeypatch.setattr(action_module, "_quartic_q", q)
    batch = _quartic_end_actions_batch(couplings)
    assert [k for k, ends in enumerate(batch) if isinstance(ends, Exception)] == [40, 121]
    assert isinstance(batch[40], TraceError) and isinstance(batch[121], BranchAmbiguityError)
    assert list(map(_end_bits, batch)) == [_end_bits(_single(a)) for a in couplings]


def test_no_pass_reaches_the_elision_size(monkeypatch):
    # From 2**14 complex samples numpy elides temporaries and rounds
    # differently: a batch of 300 complex couplings (four legs each) takes
    # several passes, each below that size.
    sizes, plain_q = [], action_module._quartic_q

    def counted_q(ia):
        radicand = plain_q(ia)

        def q(z):
            sizes.append(z.size)
            return radicand(z)

        return q

    monkeypatch.setattr(action_module, "_quartic_q", counted_q)
    _quartic_end_actions_batch([0.01 * k + 0.1j for k in range(300)])
    assert len(sizes) > 1 and max(sizes) < 2 ** 14
    assert sum(sizes) == 300 * 4 * 80  # four legs of 40 + 40 samples each
