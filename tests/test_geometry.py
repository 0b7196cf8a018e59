import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptspec._quadrature import sqrt_path_integral
from ptspec.action import singulant
from ptspec.geometry import (ModelSpec, TraceError, path_crosses_cut,
                             quartic_turning_points, seed_directions,
                             trace_matching_path, trace_stokes_line,
                             turning_points, wedge_angles)
from ptspec.special import recip_gamma

PI = math.pi


def test_wedge_angles_examples():
    left, right, width = wedge_angles(2.0)
    assert abs(left + PI) < 1e-14
    assert abs(right) < 1e-14
    assert abs(width - PI / 2) < 1e-14
    left, right, width = wedge_angles(1.0)
    assert abs(left + 7 * PI / 6) < 1e-14
    assert abs(right - PI / 6) < 1e-14
    assert abs(width - 2 * PI / 3) < 1e-14
    left, right, _ = wedge_angles(1e7)
    assert abs(left + PI / 2) < 1e-6
    assert abs(right + PI / 2) < 1e-6


def test_wedge_width_relation():
    for p in (1.1, 1.5, 2.0, 3.3, 7.0):
        left, right, width = wedge_angles(p)
        assert abs((right - left) - 4 * PI / (p + 2)) < 1e-13
        assert abs((right - left) - 2 * width) < 1e-13


def test_turning_points_examples():
    za, zb = turning_points(2.0)
    assert abs(za + 1.0) < 1e-14 and abs(zb - 1.0) < 1e-14
    za, zb = turning_points(1.0)
    assert abs(za - 1j) < 1e-14 and abs(zb - 1j) < 1e-14
    za, zb = turning_points(3.0)
    assert abs(za - cmath.exp(-5j * PI / 6)) < 1e-14
    assert abs(zb - cmath.exp(-1j * PI / 6)) < 1e-14


def test_turning_points_are_roots_and_pt_symmetric():
    for p in (1.2, 1.7, 2.0, 2.6, 3.0, 4.5):
        model = ModelSpec.power_law(p)
        za, zb = turning_points(p)
        assert abs(model.q(za)) < 1e-12
        assert abs(model.q(zb)) < 1e-12
        assert abs(zb + za.conjugate()) < 1e-13


def test_quartic_roots_a0():
    roots = quartic_turning_points(0.0)
    assert abs(roots.z_a - 1.0) < 1e-12
    assert abs(roots.z_b + 1.0) < 1e-12
    assert abs(roots.z_c + 1j) < 1e-12
    assert abs(roots.z_d - 1j) < 1e-12


def test_quartic_roots_properties():
    for a in (0.0, 0.5, 1.0, 1.5, 2.5, 5.0, 10.0):
        roots = quartic_turning_points(a)
        for r in roots.all:
            assert abs(r ** 4 + 1j * a * r - 1.0) <= 1e-12
        # imaginary-axis pair, z_c below
        assert abs(roots.z_c.real) < 1e-10 and abs(roots.z_d.real) < 1e-10
        assert roots.z_c.imag < 0 < roots.z_d.imag
        assert abs(roots.z_a.imag - roots.z_b.imag) < 1e-10
        # closed under z -> -conj(z)
        for r in roots.all:
            assert min(abs(-r.conjugate() - s) for s in roots.all) < 1e-10


@settings(deadline=None)
@given(A=st.floats(0.0, 6.0), x=st.floats(0.05, 1.5), t=st.floats(-0.1, 0.1))
def test_quartic_walk_labels_match_nearest_real_coupling(A, x, t):
    """The walk's roots are numpy's, each labelled like its nearest root at Re a."""
    a = A * complex(x, x * t)
    roots = quartic_turning_points(a)
    ref = np.roots([1.0, 0.0, 0.0, 1j * a, -1.0])
    for r in roots.all:
        assert np.min(np.abs(ref - r)) <= 1e-12
    assert min(abs(u - v) for i, u in enumerate(roots.all)
               for v in roots.all[i + 1:]) > 1e-3
    at_real = quartic_turning_points(a.real)
    for r, anchor in zip(roots.all, at_real.all):
        assert r == min(roots.all, key=lambda s: abs(s - anchor))


def test_quartic_walk_stops_where_turning_points_meet():
    # A double root of z^4 + i a z - 1 sits at |a| = 4 * 3^(-3/4), arg a = pi/4;
    # a walk through it cannot tell the two labels apart.
    a_branch = 4 * 3 ** -0.75 * cmath.exp(1j * PI / 4)
    assert len(set(quartic_turning_points(0.9 * a_branch).all)) == 4
    for scale in (1.0, 1.1):
        with pytest.raises(TraceError, match="meet"):
            quartic_turning_points(scale * a_branch)


@pytest.mark.parametrize("make", [
    lambda: ModelSpec.power_law(math.nan),
    lambda: ModelSpec.power_law(math.inf),
    lambda: ModelSpec.quartic(math.nan),
    lambda: ModelSpec.quartic(math.inf),
    lambda: ModelSpec.quartic(complex(1.0, math.nan)),
    lambda: ModelSpec.quartic(complex(math.inf, 0.5)),
])
def test_model_spec_rejects_non_finite_parameters(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_path_crosses_cut_basics():
    model = ModelSpec.power_law(1.5)
    assert not path_crosses_cut([-2 - 0.1j, 2 - 0.1j], model)
    assert path_crosses_cut([cmath.exp(3j * PI / 4), cmath.exp(1j * PI / 4)], model)


def test_path_crosses_cut_needs_a_cut():
    # Only a fractional power of (i z) has a cut; the same chord over the
    # positive imaginary axis is clear for integer p and the quartic.
    chord = [cmath.exp(3j * PI / 4), cmath.exp(1j * PI / 4)]
    assert path_crosses_cut(chord, ModelSpec.power_law(1.5))
    for model in (ModelSpec.power_law(2.0), ModelSpec.power_law(3.0),
                  ModelSpec.quartic(1.0)):
        assert not path_crosses_cut(chord, model)


def test_straight_segment_between_turning_points_vs_cut():
    # The chord z_A -> z_B passes above the origin exactly when p < 2.
    for p in (1.1, 1.3, 1.5, 1.7, 1.9):
        model = ModelSpec.power_law(p)
        assert path_crosses_cut(list(turning_points(p)), model)
    for p in (2.1, 2.5, 3.0, 4.0, 5.0):
        model = ModelSpec.power_law(p)
        assert not path_crosses_cut(list(turning_points(p)), model)


def test_seed_directions_turning_point():
    model = ModelSpec.power_law(3.0)
    _, zb = turning_points(3.0)
    dirs = seed_directions(zb, model)
    assert len(dirs) == 3
    gaps = sorted((dirs[1] - dirs[0], dirs[2] - dirs[1],
                   2 * PI - (dirs[2] - dirs[0])))
    for g in gaps:
        assert abs(g - 2 * PI / 3) < 0.05


def test_seed_directions_branch_point():
    model = ModelSpec.power_law(1.3)
    dirs = seed_directions(0j, model)
    assert len(dirs) == 1
    assert abs(dirs[0] - 3 * PI / 2) < 0.02


def test_seed_directions_sit_on_the_held_line():
    # Three lines leave a simple turning point and one the branch point
    # z = 0; at the tracer's start radius chi, integrated independently,
    # has its held part at zero to rounding on every seed.
    cases = []
    for p in (1.05, 1.3, 1.5, 2.0, 2.4, 3.0, 5.0):
        model = ModelSpec.power_law(p)
        za, zb = turning_points(p)
        cases += [(model, za, "stokes", 3), (model, zb, "stokes", 3),
                  (model, za, "anti", 3)]
        if model.has_branch_cut:
            cases.append((model, 0j, "stokes", 1))
    for a in (0.0, 0.5, 1.0, 2.3, 3.5):
        model = ModelSpec.quartic(a)
        cases += [(model, z, "stokes", 3) for z in quartic_turning_points(a).all]
    for model, origin, kind, count in cases:
        dirs = seed_directions(origin, model, kind)
        assert len(dirs) == count, (model, origin, kind, dirs)
        assert dirs == sorted(dirs) and 0.0 <= dirs[0] and dirs[-1] < 2 * PI
        for d in dirs:
            chi = singulant(origin + 1e-3 * cmath.exp(1j * d), origin, model)
            held = chi.imag if kind == "stokes" else chi.real
            assert abs(held) <= 1e-12, (model, origin, kind, d, chi)
    with pytest.raises(ValueError, match="kind"):
        seed_directions(0j, ModelSpec.power_law(1.5), kind="matching")


@pytest.mark.parametrize("model, origin", [
    (ModelSpec.power_law(1.5), 0j),
    (ModelSpec.power_law(3.0), turning_points(3.0)[0]),
    (ModelSpec.quartic(1.0), quartic_turning_points(1.0).z_a),
])
def test_tracer_starts_on_the_singulant(model, origin):
    # The tracer's first chi and singulant come from the one path integral
    # of sqrt(q), so they agree bit for bit, up to the orientation of chi.
    for d in seed_directions(origin, model):
        trace = trace_stokes_line(origin, model, d, max_arclen=0.01)
        chi = singulant(trace.points[0], origin, model, order=24)
        assert trace.chi[0] in (chi, -chi), (d, trace.chi[0], chi)


def test_integer_p_origin_line_has_zero_weight():
    # The tracer finds an equal-phase line from z = 0 at p = 2, but the
    # attached switching weight 1/Gamma(-2) vanishes.
    model = ModelSpec.power_law(2.0)
    dirs = seed_directions(0j, model)
    assert len(dirs) >= 1
    assert recip_gamma(-2.0) == 0.0


def test_trace_real_axis_line_p2():
    model = ModelSpec.power_law(2.0)
    dirs = seed_directions(1.0 + 0j, model)
    best = min(dirs, key=lambda t: min(abs(t), 2 * PI - t))
    trace = trace_stokes_line(1.0 + 0j, model, best, max_arclen=12.0)
    assert trace.terminated == "escape"
    assert max(abs(z.imag) for z in trace.points) <= 1e-8
    assert max(trace.residuals) <= 1e-8


def test_trace_invariants_and_escape_p3():
    model = ModelSpec.power_law(3.0)
    za, zb = turning_points(3.0)
    escape_angles = []
    for origin in (za, zb):
        for d in seed_directions(origin, model):
            trace = trace_stokes_line(origin, model, d, max_arclen=25.0)
            assert trace.terminated == "escape"
            assert max(trace.residuals) <= 1e-8
            re = [c.real for c in trace.chi]
            assert all(re[i] >= -1e-10 for i in range(len(re)))
            assert all(re[i + 1] >= re[i] - 1e-12 for i in range(len(re) - 1))
            escape_angles.append(cmath.phase(trace.points[-1]))
    # three lines per point, mirrored left/right
    assert len(escape_angles) == 6
    expected = (0.699, -0.899, -0.501, 0.301, -0.499, -0.101)
    for got, want in zip(escape_angles, expected):
        assert abs(got / PI - want) < 0.02


def test_branch_point_line_crosses_continuation_region():
    # p = 1.3: the z = 0 Stokes line runs down the negative imaginary axis,
    # through any contour connecting the wedges below the turning points.
    model = ModelSpec.power_law(1.3)
    dirs = seed_directions(0j, model)
    trace = trace_stokes_line(0j, model, dirs[0], max_arclen=12.0)
    assert trace.terminated == "escape"
    assert any(z.imag < -0.5 and abs(z.real) < 0.05 for z in trace.points)


def test_quartic_stokes_lines_cross_real_axis():
    model = ModelSpec.quartic(1.0)
    roots = quartic_turning_points(1.0)
    dirs = seed_directions(roots.z_c, model)
    assert dirs
    crossed = False
    for d in dirs:
        try:
            trace = trace_stokes_line(roots.z_c, model, d, max_arclen=10.0)
        except TraceError:
            continue
        signs = [z.imag for z in trace.points]
        if any(s1 * s2 < 0 for s1, s2 in zip(signs, signs[1:])):
            crossed = True
    assert crossed


def test_quartic_traces_pass_the_power_law_cut_ray():
    # The quartic potential is entire: no line stops at a cut.  From z_C
    # two lines escape and the third climbs the imaginary axis, where
    # Im chi = 0 holds only up to z_D; it must stop there, not run through.
    model = ModelSpec.quartic(1.0)
    roots = quartic_turning_points(1.0)
    ends = []
    for d in seed_directions(roots.z_c, model):
        trace = trace_stokes_line(roots.z_c, model, d, max_arclen=15.0)
        assert trace.terminated != "cut"
        ends.append((trace.terminated, trace.points[-1]))
    assert sorted(t for t, _ in ends) == ["escape", "escape", "singularity"]
    stop = next(z for t, z in ends if t == "singularity")
    assert abs(stop - roots.z_d) < 1e-2


def test_stokes_lines_keep_chi_on_the_principal_sheet_up_to_the_cut():
    # At p = 1.5 the lines from z_A and z_B run into the cut; every point
    # before it must carry Im chi = 0 when chi is re-integrated along the
    # traced points, i.e. no corrector leg may detour across the cut.
    model = ModelSpec.power_law(1.5)
    cut_lines = 0
    for origin in turning_points(1.5):
        for d in seed_directions(origin, model):
            trace = trace_stokes_line(origin, model, d, max_arclen=25.0)
            if trace.terminated != "cut":
                continue
            cut_lines += 1
            pts = trace.points
            chi, last = sqrt_path_integral(model.q, [origin, pts[0]],
                                           singular_start=True)
            chi *= 2j
            for z0, z1 in zip(pts, pts[1:]):
                if path_crosses_cut([z0, z1], model):
                    break
                val, last = sqrt_path_integral(model.q, [z0, z1], order=8,
                                               seed=last)
                chi += 2j * val
                assert abs(chi.imag) <= 1e-7, (origin, z1, chi)
    assert cut_lines == 2


def test_matching_path_cut_crossing_iff_broken():
    for p in (1.3, 1.7, 1.9):
        model = ModelSpec.power_law(p)
        trace = trace_matching_path(model)
        assert trace.terminated == "cut"
        assert path_crosses_cut(trace.points, model)
    for p in (2.5, 3.0, 5.0):
        model = ModelSpec.power_law(p)
        trace = trace_matching_path(model)
        assert trace.terminated == "target"
        assert not path_crosses_cut(trace.points, model)
        assert max(abs(c.real) for c in trace.chi) <= 1e-8


def test_matching_path_residuals_are_re_chi():
    # The matching path holds Re chi at zero; Im chi grows along it.
    for p in (1.5, 3.0):
        trace = trace_matching_path(ModelSpec.power_law(p))
        assert max(trace.residuals) <= 1e-8
        assert max(abs(c.imag) for c in trace.chi) > 0.5


def test_stokes_line_points_grow_with_log_chi():
    # |chi| reaches ~340 by |z| = 8 at A = 1; a step relative to |chi| keeps
    # each line to ~700 points, where a fixed chi step took ~34k.
    model = ModelSpec.quartic(1.0)
    escaping = []
    for origin in quartic_turning_points(1.0).all:
        for d in seed_directions(origin, model):
            trace = trace_stokes_line(origin, model, d, max_arclen=25.0)
            assert len(trace.points) <= 2000, (origin, d, len(trace.points))
            if trace.terminated == "escape":
                escaping.append(trace)
    assert escaping
    # The longer steps keep chi right: re-integrate one escaping line point
    # to point and compare with the chi the tracer reports.
    trace = escaping[0]
    pts = trace.points
    chi, last = sqrt_path_integral(model.q, [trace.origin, pts[0]],
                                   singular_start=True)
    chi *= 2j
    if chi.real < 0.0:  # the tracer orients chi so that Re chi >= 0
        chi, last = -chi, -last
    for z0, z1, reported in zip(pts, pts[1:], trace.chi[1:]):
        val, last = sqrt_path_integral(model.q, [z0, z1], order=8, seed=last)
        chi += 2j * val
        bound = 1e-8 * max(1.0, abs(chi))
        assert abs(chi - reported) <= bound, (z1, chi, reported)
        assert abs(chi.imag) <= bound, (z1, chi)
    assert abs(pts[-1]) > 8.0


def test_stokes_tracer_z_step_is_a_tenth_of_the_length_scale():
    # |dz| = h/|chi'| <= 0.1 |chi'/chi''| = 0.2 |q/q'|, which keeps each
    # escaping line at A = 1 to about 700 points; capping h, a step in chi,
    # by that length in z shrank the steps by |chi'| (1,489-1,518 points).
    model = ModelSpec.quartic(1.0)
    for origin in quartic_turning_points(1.0).all:
        for d in seed_directions(origin, model):
            trace = trace_stokes_line(origin, model, d, max_arclen=25.0)
            assert len(trace.points) <= 1000, (origin, d, len(trace.points))
            for z0, z1 in zip(trace.points, trace.points[1:]):
                scale = 2.0 * abs(model.q(z0) / model.dq(z0))
                assert abs(z1 - z0) <= 0.1 * scale * (1 + 1e-6), (origin, d, z0)


def test_model_q_takes_the_origin_in_an_array():
    model = ModelSpec.power_law(1.5)
    z = np.array([-0.5, 0.0, 0.5j], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = model.q(z)
    scalar = np.array([model.q(complex(x)) for x in z])
    assert np.all(np.abs(values - scalar) <= 1e-14 * np.abs(scalar))
    assert values[1] == 1.0


@pytest.mark.parametrize("model", [
    ModelSpec.power_law(2.0), ModelSpec.power_law(3.0),
    ModelSpec.power_law(1.5), ModelSpec.power_law(2.5084),
    ModelSpec.quartic(0.7), ModelSpec.quartic(1.0 + 0.5j),
], ids=lambda m: f"{m.family}-{m.p if m.a is None else m.a}")
def test_scalar_and_array_q_agree(model):
    rng = np.random.default_rng(7)
    z = rng.uniform(-3.0, 3.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400)
    closure = model.q_callable()
    for q in (closure, model.q):
        array = q(z)
        scalar = np.array([q(complex(x)) for x in z])
        assert array.shape == z.shape
        assert np.all(np.abs(array - scalar)
                      <= 1e-14 * np.maximum(1.0, np.abs(scalar)))
