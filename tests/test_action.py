import cmath
import math

import numpy as np
import pytest

from ptspec.action import (action_between, action_scale,
                           action_to_turning_points, quartic_action,
                           quartic_critical_a, singulant,
                           _quartic_end_action)
from ptspec.geometry import ModelSpec, turning_points

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
    # z_B = -conj(z_A) for real a, so the coupling walk to z_B must land on
    # the mirror image of the z_A action: -conj(U + iV).
    for a in (0.0, 0.3, 0.9, 1.2, 1.7, 2.5, 3.3, 4.0):
        w_b = _quartic_end_action(a, "z_b")
        assert abs(w_b + quartic_action(a).conjugate()) <= 1e-14, a


def test_quartic_critical_coupling():
    a_star = quartic_critical_a()
    assert abs(a_star - 1.18384) <= 1e-4
    assert quartic_action(a_star - 0.1).imag > 0
    assert quartic_action(a_star + 0.1).imag < 0
