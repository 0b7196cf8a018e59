import cmath
import math
import re
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from ptspec.asymptotic import E_to_eps, _off_axis, condition_spectrum, solve_condition
from ptspec import shooting
from ptspec.geometry import ModelSpec, path_crosses_cut, wedge_angles
from ptspec.shooting import (ShootConfig, ShootingError, ShootState, _contour,
                             _contour_eigenvalues, _muller_step, _ray, _start_radius,
                             find_eigen, integrate_ray, mismatch, scan_spectrum, wkb_init)

PI = math.pi


def test_wkb_init_harmonic_asymptote():
    model = ModelSpec.power_law(2.0)
    z = complex(-7.0)
    state = wkb_init(z, 1.0 / 3.0, model)
    ratio = state.df / state.f  # eps f'/f
    assert abs(ratio - (-z)) <= 2.5 * abs(z) / abs(z) ** 2
    assert state.log_scale == 0.0


def _riccati_y2_size(model, eps, z):
    # |eps^2 y2|, the next term of eps f'/f after the start's two
    q, dq, d2q = model.q(z), model.dq(z), model.d2q(z)
    return abs(eps) ** 2 * abs(5 * dq * dq - 4 * q * d2q) / (32 * abs(q) ** 2.5)


def test_wkb_init_misses_the_decaying_solution_by_the_next_riccati_term():
    # the true eps f'/f comes from a tight ray started at radius 7; the start
    # misses it by eps^2 |y2| to within 10% (0.92-0.98 measured), and the
    # leading-order start i sqrt(q) by 10 times as much or more
    tight = ShootConfig(rtol=1e-13, atol=1e-15)
    for p, E, radius in ((3.0, 10.0, 2.0), (3.0, 10.0, 3.0), (2.0, 4.0, 3.0), (1.5, 10 + 2j, 2.0)):
        model = ModelSpec.power_law(p)
        eps = E_to_eps(complex(E), p)
        z_dir = cmath.exp(1j * wedge_angles(p)[0])
        far, z = 7.0 * z_dir, radius * z_dir
        end = integrate_ray(wkb_init(far, eps, model), (far, z), eps, model, tight)
        start = wkb_init(z, eps, model).df
        miss = abs(end.df / end.f - start)
        assert 0.9 <= miss / _riccati_y2_size(model, eps, z) <= 1.1
        leading = start + eps * model.dq(z) / (4 * model.q(z))
        assert abs(end.df / end.f - leading) >= 10 * miss


def test_start_radius_solves_its_decay_rule():
    # D(r) = 2 int_{r_tp}^r |Re(i sqrt(q) z_dir / eps)| against ln(2^53 c),
    # c = |eps^2 y2| / (2 |y0|), on a fine trapezoid: within 0.25 e-fold
    # (-0.04 to +0.07 measured), or r_max when even r_max falls short
    cases = [(ModelSpec.power_law(p), 7.0) for p in (1.2, 2.0, 3.0, 5.0)]
    cases += [(ModelSpec.quartic(a), 5.0) for a in (0.0, 2.0)]
    u = np.linspace(0.0, 1.0, 20001)
    for model, r_max in cases:
        for E in (0.5, 4.0, 40.0, 160.0, 9.09 + 2j):
            eps = E_to_eps(complex(E), model.degree)
            scaled = model.at(eps)
            z_l, z_r, _ = _contour(scaled, eps, ShootConfig(r_max=r_max))
            r_tp = _ray(scaled)[1]
            for z_dir in (z_l / abs(z_l), z_r / abs(z_r)):
                r = _start_radius(scaled, z_dir, r_tp, eps, r_max)
                rs = r_tp + (r - r_tp) * u * u
                q = scaled.q_callable()(rs * z_dir)
                rate = 2 * np.abs((1j * np.sqrt(q) * z_dir / eps).real)
                decay = np.trapezoid(rate * 2 * (r - r_tp) * u, u)
                z = r * z_dir
                need = 53 * math.log(2) + math.log(
                    _riccati_y2_size(scaled, eps, z) / (2 * abs(scaled.q(z)) ** 0.5))
                assert decay - need <= 0.25
                assert decay - need >= -0.25 or r == r_max


def test_wkb_init_decays_outward_grows_inward():
    model = ModelSpec.power_law(2.0)
    cfg = ShootConfig()
    th_l, _, _ = wedge_angles(2.0)
    z0 = cfg.r_max * cmath.exp(1j * th_l)
    unit_in = (shooting._Z_MID - z0) / abs(shooting._Z_MID - z0)
    state = wkb_init(z0, 1.0 / 3.0, model)
    out = integrate_ray(state, (z0, z0 + unit_in), 1.0 / 3.0, model, cfg)
    grown = out.log_scale + math.log(max(abs(out.f), abs(out.df)))
    assert grown > 1.0


def test_wkb_init_pt_symmetry():
    for p in (2.0, 3.0, 1.6):
        model = ModelSpec.power_law(p)
        th_l, th_r, _ = wedge_angles(p)
        z_l = 7.0 * cmath.exp(1j * th_l)
        z_r = 7.0 * cmath.exp(1j * th_r)
        assert abs(z_l + z_r.conjugate()) < 1e-12
        s_l = wkb_init(z_l, 0.21, model)
        s_r = wkb_init(z_r, 0.21, model)
        assert abs(s_l.df + s_r.df.conjugate()) < 1e-10 * abs(s_l.df)


def test_wkb_init_branch_stable_under_eps_phase():
    # the decaying branch is chosen relative to eps, so a small rotation of
    # eps into the complex plane must not flip it
    model = ModelSpec.power_law(1.5)
    th_l, _, _ = wedge_angles(1.5)
    z = 7.0 * cmath.exp(1j * th_l)
    base = wkb_init(z, 0.2, model).df
    rotated = wkb_init(z, 0.2 * cmath.exp(0.15j), model).df
    assert abs(rotated - base) < 0.2 * abs(base)


def test_integrate_ray_quiet_at_large_eps():
    model = ModelSpec.power_law(2.0)
    cfg = ShootConfig()
    state = ShootState(f=1.0 + 0j, df=0.3 + 0.1j)
    out = integrate_ray(state, (-2.0 + 0j, -0.5j), 10.0, model, cfg)
    assert abs(out.log_scale) < 5.0


def test_integrate_ray_scale_invariance():
    model = ModelSpec.power_law(2.0)
    cfg = ShootConfig()
    th_l, _, _ = wedge_angles(2.0)
    z0 = 7.0 * cmath.exp(1j * th_l)
    eps = 1.0 / 3.0
    base = wkb_init(z0, eps, model)
    big = ShootState(f=1000.0 * base.f, df=1000.0 * base.df)
    out1 = integrate_ray(base, (z0, -0.5j), eps, model, cfg)
    out2 = integrate_ray(big, (z0, -0.5j), eps, model, cfg)
    ratio1 = out1.df / out1.f
    ratio2 = out2.df / out2.f
    assert abs(ratio1 - ratio2) < 1e-12 * abs(ratio1)
    mag1 = math.log(abs(out1.f)) + out1.log_scale
    mag2 = math.log(abs(out2.f)) + out2.log_scale
    assert abs(mag2 - mag1 - math.log(1000.0)) < 1e-9


def test_integrate_ray_tolerance_convergence():
    model = ModelSpec.power_law(2.0)
    th_l, _, _ = wedge_angles(2.0)
    z0 = 7.0 * cmath.exp(1j * th_l)
    eps = 1.0 / 3.0
    outs = []
    for rtol in (1e-10, 5e-11):
        cfg = ShootConfig(rtol=rtol)
        state = wkb_init(z0, eps, model)
        out = integrate_ray(state, (z0, -0.5j), eps, model, cfg)
        outs.append(out.df / out.f)
    assert abs(outs[0] - outs[1]) < 1e-8 * abs(outs[0])


def test_shoot_config_rejects_invalid_tolerances():
    for kwargs in ({"rtol": -1.0}, {"rtol": math.nan}, {"atol": -1e-12},
                   {"atol": math.inf}, {"rtol": 0.0, "atol": 0.0}):
        with pytest.raises(ValueError):
            ShootConfig(**kwargs)
    assert ShootConfig(rtol=0.0).atol > 0


def test_shoot_config_rejects_unusable_contours():
    # r_max = 0 used to divide by zero in mismatch, r_max < 0 shot rays away
    # from the wedges
    for kwargs in ({"r_max": 0.0}, {"r_max": -7.0}, {"r_max": math.inf},
                   {"r_max": math.nan}):
        with pytest.raises(ValueError):
            ShootConfig(**kwargs)
    assert ShootConfig(r_max=4.5).r_max == 4.5


def _hermite_state(n, eps, z):
    # f = H_n(x) e^(-x^2/2) and eps f' at x = z / sqrt(eps): at p = 2 and
    # eps = 1/(2n + 1) an exact solution of -eps^2 f'' - (i z)^2 f = f
    x = z / math.sqrt(eps)
    h_prev, h = 0j, 1 + 0j
    for k in range(n):
        h_prev, h = h, 2 * x * h - 2 * k * h_prev
    gauss = cmath.exp(-x * x / 2)
    return h * gauss, math.sqrt(eps) * (2 * n * h_prev - x * h) * gauss


def test_integrate_ray_carries_hermite_functions_exactly():
    # from the exact state at either ray's start to the match point, f and
    # eps f' within 1e-12 of the exact ones (worst 3.3e-14 measured); and
    # the odd functions from z = 0, where every even Taylor coefficient
    # vanishes, out to -3i, where they grow (2.8e-14)
    model, cfg = ModelSpec.power_law(2.0), ShootConfig()
    for n in range(5):
        eps = 1.0 / (2 * n + 1)
        z_l, z_r, z_mid = _contour(model, eps, cfg)
        segments = [(z_l, z_mid), (z_r, z_mid)] + ([(0j, -3j)] if n % 2 else [])
        for z0, z1 in segments:
            f, g = _hermite_state(n, eps, z0)
            size = max(abs(f), abs(g))
            end = integrate_ray(ShootState(f / size, g / size, math.log(size)), (z0, z1),
                                eps, model, cfg)
            scale = math.exp(end.log_scale)
            for got, exact in zip((end.f, end.df), _hermite_state(n, eps, z1)):
                assert abs(got * scale - exact) <= 1e-12 * abs(exact)


def test_q_series_matches_q_and_its_derivatives():
    rng = np.random.default_rng(5)
    for model in (ModelSpec.power_law(2.0), ModelSpec.power_law(3.0), ModelSpec.power_law(5.0),
                  ModelSpec.power_law(1.5), ModelSpec.power_law(2.5084),
                  ModelSpec.quartic(0.0), ModelSpec.quartic(0.75), ModelSpec.quartic(1 + 0.5j)):
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), -rng.uniform(0, 3))  # the cut is at Im z > 0
            d = complex(*rng.uniform(-2, 2, 2))
            coef = model.q_series(z, d, 30)
            for got, want in ((coef[0], model.q(z)), (coef[1], model.dq(z) * d),
                              (coef[2], model.d2q(z) * d * d / 2)):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
            if model.family == "quartic":
                assert len(coef) == 5
            elif model.is_integer_power:
                assert len(coef) == int(model.p) + 1
            else:
                # the series sums to q inside its radius |z|, clear of the cut
                tau = 0.4 * abs(z) / abs(d)
                total = sum(c * tau ** k for k, c in enumerate(model.q_series(z, d, 120)))
                assert abs(total - model.q(z + tau * d)) <= 1e-12 * abs(model.q(z + tau * d))
    assert ModelSpec.power_law(3.0).q_series(0j, 2 + 1j, 30) == [1, 0, 0, (2j - 1) ** 3]
    with pytest.raises(ValueError, match="branch point"):
        ModelSpec.power_law(1.5).q_series(0j, 1.0, 30)


@pytest.mark.parametrize("case", ["nan start", "overflow", "collapse", "budget",
                                  "budget run out", "eps underflow", "zero-length segment",
                                  "ray at eps = 0", "start at z = 0", "start at eps = 0",
                                  "start at a zero of q"])
def test_integration_failures_are_shooting_errors(case, monkeypatch):
    # each must raise ShootingError at once: no hang, no OverflowError or
    # ZeroDivisionError
    p3 = ModelSpec.power_law(3.0)
    if case == "nan start":
        match, run = "non-finite", lambda: integrate_ray(
            ShootState(complex(math.nan), 1.0), (-3 + 0j, -0.5j), 0.1, p3, ShootConfig())
    elif case == "overflow":  # eps ~ 2e-17: the Taylor coefficients overflow
        match, run = "non-finite", lambda: mismatch(1e20, p3)
    elif case == "collapse":  # toward a fractional power's branch point
        match, run = "step collapsed", lambda: integrate_ray(
            ShootState(1.0, 1.0), (-1 + 0j, 0j), 0.5, ModelSpec.power_law(1.5), ShootConfig())
    elif case == "budget":
        monkeypatch.setattr(shooting, "_MAX_STEPS", 3)
        match, run = "step budget", lambda: mismatch(10.0, p3)
    elif case == "budget run out":
        # p = 1.5, E = 300: 220 steps, past a budget of 200 before the first
        # projection at 1,024 steps
        monkeypatch.setattr(shooting, "_MAX_STEPS", 200)
        match, run = "step budget exhausted", lambda: mismatch(300.0, ModelSpec.power_law(1.5))
    elif case == "eps underflow":
        match, run = "underflows", lambda: mismatch(1e300, ModelSpec.power_law(1.5))
    elif case == "zero-length segment":
        match, run = "no ray from -3", lambda: integrate_ray(
            ShootState(1.0, 1.0), (-3 + 0j, -3 + 0j), 0.1, p3, ShootConfig())
    elif case == "ray at eps = 0":
        match, run = "at eps = 0", lambda: integrate_ray(
            ShootState(1.0, 1.0), (-3 + 0j, -0.5j), 0.0, p3, ShootConfig())
    elif case == "start at z = 0":
        match, run = "no WKB start at z = 0", lambda: wkb_init(0j, 0.1, p3)
    elif case == "start at eps = 0":
        match, run = "no WKB start at z = -3.*eps = 0", lambda: wkb_init(-3 + 0j, 0.0, p3)
    else:  # q(1) = 0 exactly at p = 2
        match, run = "ambiguous decay branch", lambda: wkb_init(
            1 + 0j, 0.1, ModelSpec.power_law(2.0))
    with pytest.raises(ShootingError, match=match):
        run()


def test_a_ray_past_the_step_budget_fails_at_its_first_projection(monkeypatch):
    # p = 1.5, E = 1e6: the ray turns through 1.1e7 radians, and the budget
    # used to run out only after 150,000 steps (6.7 s).  (1.05, 1e4),
    # (1.2, 3e4) and (1.5, 2e5) turn through 0.89e6, 1.21e6 and 1.75e6
    # radians, about 0.24 steps each, and ran 7 to 10 s before the budget ran
    # out.  Each is refused at the first projection, after 1,024 steps.
    steps, plain = [0], ModelSpec.q_series

    def q_series(*args):
        steps[0] += 1
        return plain(*args)

    monkeypatch.setattr(ModelSpec, "q_series", q_series)
    for p, E, radians, z_l in ((1.5, 1e6, "1.14e+07", "-0.975+0.223j"),
                               (1.05, 1e4, "8.91e+05", "-0.883+0.47j"),
                               (1.2, 3e4, "1.21e+06", "-0.924+0.383j"),
                               (1.5, 2e5, "1.75e+06", "-0.975+0.223j")):
        steps[0] = 0
        text = (f"step budget of 150000 steps cannot cover the {radians} radians "
                f"along {z_l} -> -0-0.5j")
        with pytest.raises(ShootingError, match=f"^{re.escape(text)}$"):
            mismatch(E, ModelSpec.power_law(p))
        assert steps[0] == 1024, (p, E)


def test_budget_check_allows_for_a_loose_tolerance(monkeypatch):
    # p = 1.2, E = 1000: the ray turns through 12,966 radians.  At rtol 1e-3
    # it takes 1,787 steps, within a budget of 2,000; at the default
    # tolerances it takes 3,114 and is refused at the first projection.
    monkeypatch.setattr(shooting, "_MAX_STEPS", 2000)
    model = ModelSpec.power_law(1.2)
    assert cmath.isfinite(mismatch(1000.0, model, ShootConfig(rtol=1e-3)))
    with pytest.raises(ShootingError, match="step budget of 2000 steps cannot cover"):
        mismatch(1000.0, model)


def test_a_ray_that_its_steps_so_far_cannot_finish_fails_partway(monkeypatch):
    # p = 1.2: E = 1000 takes 3,114 steps over 12,966 radians and E = 1250
    # 4,192 over 17,454; after 1,024 steps the second is projected past a
    # budget of 4,096, the first not.
    monkeypatch.setattr(shooting, "_MAX_STEPS", 4096)
    model = ModelSpec.power_law(1.2)
    steps, plain = [0], ModelSpec.q_series

    def q_series(*args):
        steps[0] += 1
        return plain(*args)

    monkeypatch.setattr(ModelSpec, "q_series", q_series)
    assert cmath.isfinite(mismatch(1000.0, model))
    assert steps[0] == 3114
    steps[0] = 0
    with pytest.raises(ShootingError, match="step budget of 4096 steps cannot cover"):
        mismatch(1250.0, model)
    assert steps[0] <= 1024


class _Stepped(Exception):
    """Raised by a stubbed q_series: integrate_ray reached its first step."""


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0, 8.0, 20.0, 40.0])
def test_budget_check_lets_every_ray_within_the_budget_through(monkeypatch, p):
    # No ray is refused before its first step: the budget is checked only
    # against the steps a ray has taken, so these rays, at 0.226 to 0.60
    # steps per radian of the Gauss-rule phase, keep the bits of W.
    def q_series(model, z, d, n):
        raise _Stepped

    monkeypatch.setattr(ModelSpec, "q_series", q_series)
    for E in (1.0, 10.0, 100.0, 1e3, 1e4):
        try:
            mismatch(E, ModelSpec.power_law(p))
        except _Stepped:
            continue
        except ShootingError as exc:  # p = 2, E >= 1e3: no match point
            assert p == 2.0 and "match point" in str(exc), (E, exc)


def _match_ratios(model, cfg, E):
    eps = E_to_eps(complex(E), model.degree)
    scaled = model.at(eps)
    z_l, z_r, z_mid = _contour(scaled, eps, cfg)
    out = []
    for z in (z_l, z_r):
        end = integrate_ray(wkb_init(z, eps, scaled), (z, z_mid), eps, scaled, cfg)
        out.append(end.df / end.f)
    return out


def test_integrate_ray_matches_tight_tolerance():
    # eps f'/f at the match point, default tolerances against rtol = 1e-13
    cases = [(ModelSpec.power_law(p), 7.0) for p in (1.5, 2.0, 2.5, 3.0)]
    cases += [(ModelSpec.quartic(a), 5.0) for a in (0.75, 2.0)]
    for model, r_max in cases:
        tight = ShootConfig(r_max=r_max, rtol=1e-13, atol=1e-15)
        for E in (1.0, 10.0, 40.0):
            got = _match_ratios(model, ShootConfig(r_max=r_max), E)
            want = _match_ratios(model, tight, E)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 * abs(w)


def test_right_ray_is_mirror_of_left_at_real_E():
    # PT symmetry: integrating the right ray from z_r = -conj z_l gives
    # (conj f, -conj eps f') of the left ray, which mismatch takes instead
    cases = [(ModelSpec.power_law(p), ShootConfig()) for p in (1.5, 2.0, 2.5, 3.0, 5.0)]
    cases += [(ModelSpec.quartic(a), ShootConfig(r_max=5.0)) for a in (0.0, 0.75, 2.0)]
    for model, cfg in cases:
        for E in (1.0, 10.0, 40.0):
            eps = E_to_eps(complex(E), model.degree)
            scaled = model.at(eps)
            z_l, z_r, z_mid = _contour(scaled, eps, cfg)
            assert z_r == -z_l.conjugate() and z_mid.real == 0
            left = integrate_ray(wkb_init(z_l, eps, scaled), (z_l, z_mid), eps, scaled, cfg)
            right = integrate_ray(wkb_init(z_r, eps, scaled), (z_r, z_mid), eps, scaled, cfg)
            size = max(abs(left.f), abs(left.df))
            assert abs(right.f - left.f.conjugate()) <= 1e-13 * size
            assert abs(right.df + left.df.conjugate()) <= 1e-13 * size
            assert abs(right.log_scale - left.log_scale) <= 1e-13 * max(1.0, abs(left.log_scale))


def test_one_ray_per_real_mismatch(monkeypatch):
    calls = [0]
    plain = shooting.integrate_ray

    def counting(*args):
        calls[0] += 1
        return plain(*args)

    monkeypatch.setattr(shooting, "integrate_ray", counting)
    for model, E, rays in ((ModelSpec.power_law(3.0), 10.0, 1),
                           (ModelSpec.power_law(1.5), 10.0, 1),
                           (ModelSpec.quartic(0.75), 10.0, 1),
                           (ModelSpec.power_law(3.0), 10.0 + 0.5j, 2),
                           (ModelSpec.quartic(0.75j), 10.0, 2)):
        calls[0] = 0
        w = mismatch(E, model)
        assert calls[0] == rays
        if rays == 1:
            assert w.imag == 0.0


def _assert_exact_conjugation(model, E, cfg):
    # both rays are integrated at complex E; the contour takes the longer of
    # their two start radii, so it is one mirrored contour at E and conj E
    # and W(conj E) = conj W(E) holds bit for bit
    eps = E_to_eps(complex(E), model.degree)
    z_l, z_r, z_mid = _contour(model.at(eps), eps, cfg)
    assert z_r == -z_l.conjugate() and z_mid.real == 0
    assert _contour(model.at(eps.conjugate()), eps.conjugate(), cfg) == (z_l, z_r, z_mid)
    assert mismatch(E.conjugate(), model, cfg) == mismatch(E, model, cfg).conjugate()


def test_mismatch_conjugate_symmetry():
    _assert_exact_conjugation(ModelSpec.power_law(1.5), 9.09 + 2j, ShootConfig())


def test_quartic_mismatch_conjugate_symmetry():
    _assert_exact_conjugation(ModelSpec.quartic(1.0), 4.3 + 0.7j, ShootConfig(r_max=5.0))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_find_eigen_refuses_a_tolerance_that_is_not_finite_and_positive(tol, monkeypatch):
    def refuse(*args):
        raise AssertionError("a mismatch was computed")

    monkeypatch.setattr(shooting, "mismatch", refuse)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        find_eigen(1.1, ModelSpec.power_law(3.0), tol=tol)


def test_mismatch_refuses_a_match_point_where_both_solutions_vanish(monkeypatch):
    monkeypatch.setattr(shooting, "integrate_ray", lambda *args: ShootState(0j, 0j))
    with pytest.raises(ShootingError, match="both solutions vanished at the match point"):
        mismatch(10.0, ModelSpec.power_law(3.0))


# Mismatches in the order find_eigen asks for them: at the seed, at the seed
# plus the difference step h, then one per secant or Muller step.
_ROOT_SEARCH_FAILURES = {
    "flat mismatch at seed": (1.1, [0.5, 0.5]),
    "secant stalled on equal mismatches": (1.1, [0.5, 0.25, 0.5]),
    # h = 1.5e302: the first secant step overshoots, and its cap, half of
    # |E|, carries E past the largest double
    "root search diverged": (1.5e308, [1.0, 2.0, 1.0 + 1e-10]),
    # |W| falls as 1 / k and never reaches tol: the secant never stalls
    "no convergence from seed 1.1": (1.1, [1.0, 2.0] + [1 / k for k in range(2, 62)]),
}


@pytest.mark.parametrize("failure", list(_ROOT_SEARCH_FAILURES))
def test_each_way_the_root_search_fails_has_its_own_message(failure, monkeypatch):
    seed, values = _ROOT_SEARCH_FAILURES[failure]
    values = iter(values)
    monkeypatch.setattr(shooting, "mismatch", lambda E, model, cfg: next(values))
    with pytest.raises(ShootingError, match=f"^{re.escape(failure)}$"):
        find_eigen(seed, ModelSpec.power_law(3.0))
    assert next(values, None) is None


@pytest.mark.parametrize("E_max", [0.0, -1.0, math.nan, math.inf])
def test_scan_refuses_an_E_max_that_is_not_finite_and_positive(E_max):
    with pytest.raises(ValueError, match="E_max must be finite and > 0"):
        scan_spectrum(ModelSpec.power_law(1.5), E_max)


@pytest.mark.parametrize("E", [0.0, math.nan, complex(math.nan, 1.0), math.inf], ids=repr)
def test_mismatch_refuses_an_E_that_is_zero_or_not_finite(E):
    # nan raised UnboundLocalError from _start_radius, 0 ValueError from
    # principal_power
    model = ModelSpec.power_law(3.0)
    for run in (lambda: mismatch(E, model), lambda: find_eigen(E, model)):
        with pytest.raises(ShootingError, match="E must be finite and nonzero"):
            run()


def test_scan_drops_a_seed_whose_polish_fails_or_strays(monkeypatch):
    # harmonic seeds near 1, 3, 5, 7: the polish from 3 fails, the one
    # from 5 lands 1 away; the seeds from 1 and 7 are kept and relabelled
    seeds = []

    def polish(seed, model, cfg):
        seeds.append(seed)
        if round(seed.real) == 3:
            raise ShootingError("step budget exhausted")
        return shooting._record(seed + (1.0 if round(seed.real) == 5 else 0.0), 0.0, model)

    monkeypatch.setattr(shooting, "find_eigen", polish)
    recs = scan_spectrum(ModelSpec.power_law(2.0), 8.0)
    assert sorted(round(s.real) for s in seeds) == [1, 3, 5, 7]
    assert [r.E for r in recs] == sorted((s for s in seeds if round(s.real) in (1, 7)),
                                         key=lambda s: s.real)
    assert [r.n for r in recs] == [0, 1]


def test_scan_of_a_negative_coupling_is_that_of_its_mirror():
    # z -> -z maps the quartic at -A onto the one at A
    want = [r.E for r in scan_spectrum(ModelSpec.quartic(1.0), 8.0)]
    assert len(want) == 3
    for A in (-1.0, np.float64(-1), -1 + 0j):
        assert [r.E for r in scan_spectrum(ModelSpec.quartic(A), 8.0)] == want


def test_real_seed_polishes_to_a_real_eigenvalue():
    rec = find_eigen(1.1, ModelSpec.power_law(3.0))
    assert rec.E.imag == 0.0
    # the converged root (ShootConfig(rtol=1e-13, atol=1e-15), tol=1e-13);
    # the default settings land 1.2e-13 from it
    assert abs(rec.E - 1.1562670719881187) <= 1e-12


def test_scan_complex_records_come_in_exact_pairs():
    model = ModelSpec.power_law(1.5)
    recs = scan_spectrum(model, 12.0)
    cplx = [r for r in recs if r.E.imag != 0]
    assert len(cplx) >= 2
    for rec in cplx:
        mates = [r for r in cplx if r.E == rec.E.conjugate()]
        assert len(mates) == 1
        assert mates[0].residual == rec.residual
        # the conjugate record is the one its own E would give, field by
        # field: E_to_eps and the mode label commute with conj
        assert rec == shooting._record(rec.E, rec.residual, model)


def test_mismatch_harmonic_anchor():
    model = ModelSpec.power_law(2.0)
    assert abs(mismatch(3.0, model)) <= 1e-8
    assert abs(mismatch(2.0, model)) > 0.1


def test_find_eigen_harmonic_ladder():
    model = ModelSpec.power_law(2.0)
    for n in range(4):
        rec = find_eigen(2 * n + 1.05, model)
        assert abs(rec.E - (2 * n + 1)) <= 1e-6
        assert rec.method == "numeric"
        assert rec.n == n


def test_scan_finds_exactly_the_harmonic_ladder():
    recs = scan_spectrum(ModelSpec.power_law(2.0), 12.0, ShootConfig(rtol=1e-9))
    assert len(recs) == 6
    for k, rec in enumerate(recs):
        assert abs(rec.E - (2 * k + 1)) <= 1e-5


def test_match_point_independence(monkeypatch):
    model = ModelSpec.power_law(2.0)
    roots = []
    for z_mid in (-0.5j, -0.8j):
        monkeypatch.setattr(shooting, "_Z_MID", z_mid)
        roots.append(find_eigen(3.01, model, tol=5e-12).E)
    assert abs(roots[0] - roots[1]) < 1e-8


def test_match_point_keeps_clear_of_the_branch_point(monkeypatch):
    # a Taylor step cannot reach a fractional power's branch point, so a
    # match point at z = 0 moves down the axis as it would near a turning
    # point
    model = ModelSpec.power_law(1.5)
    monkeypatch.setattr(shooting, "_Z_MID", -0.15j)
    below = mismatch(10.0, model)
    monkeypatch.setattr(shooting, "_Z_MID", 0j)
    assert _contour(model, E_to_eps(10.0 + 0j, 1.5), ShootConfig())[2] == -0.15j
    assert mismatch(10.0, model) == below


def test_match_point_failure_names_what_it_keeps_clear_of():
    # at p = 2, E = 1000 the ray starts 0.06 from z_A, so the segment to
    # every candidate passes within the standoff of it; p = 2 has no branch
    # point, and the cut does not decide where the match point goes
    with pytest.raises(ShootingError) as info:
        mismatch(1000.0, ModelSpec.power_law(2.0))
    assert str(info.value) == ("could not place the match point: from every candidate "
                               "a segment to a ray end passes within 0.05 of a turning "
                               "point")
    with pytest.raises(ShootingError, match="turning point or the branch point$"):
        mismatch(750.0, ModelSpec.power_law(2.05))


def test_contour_never_meets_the_branch_cut(monkeypatch):
    # with the first match point at or below 0 the rays end off the
    # imaginary axis, so the polyline z_l -> z_mid -> z_r touches it only at
    # z_mid, below the cut
    cases = [(-0.5j, ShootConfig()), (0j, ShootConfig()), (-3j, ShootConfig()),
             (-1.2j, ShootConfig(r_max=5.0))]
    models = [ModelSpec.power_law(p) for p in (1.01, 1.2, 1.5, 2.5, 3.7, 6.0, 12.0)]
    models += [ModelSpec.quartic(a) for a in (0.0, 1.0, 5.0)]
    for model in models:
        for E in (0.05, 1.0, 10.0 + 3j, 40.0 - 1j, 400.0):
            eps = E_to_eps(complex(E), model.degree)
            scaled = model.at(eps)
            for first, cfg in cases:
                monkeypatch.setattr(shooting, "_Z_MID", first)
                z_l, z_r, z_mid = _contour(scaled, eps, cfg)
                assert not path_crosses_cut([z_l, z_mid, z_r], scaled), (model, E, first, cfg)


def test_ray_length_follows_eps():
    # rays start where the partner the start excites has decayed below
    # 2^-53, shorter than r_max once E is large, yet eps f'/f at the match
    # point is that of a ray from r_max (worst 2.3e-11 here)
    cases = [(ModelSpec.power_law(p), ShootConfig()) for p in (1.5, 2.5, 3.0)]
    cases += [(ModelSpec.quartic(a), ShootConfig(r_max=5.0)) for a in (0.75, 2.0)]
    for model, cfg in cases:
        for E in (1.0, 10.0, 40.0):
            eps = E_to_eps(complex(E), model.degree)
            scaled = model.at(eps)
            z_l, z_r, z_mid = _contour(scaled, eps, cfg)
            if E >= 10.0:
                assert max(abs(z_l), abs(z_r)) < cfg.r_max
            for z in (z_l, z_r):
                far = z * cfg.r_max / abs(z)
                near = integrate_ray(wkb_init(z, eps, scaled), (z, z_mid), eps, scaled, cfg)
                full = integrate_ray(wkb_init(far, eps, scaled), (far, z_mid), eps, scaled, cfg)
                want = full.df / full.f
                assert abs(near.df / near.f - want) <= 1e-10 * abs(want)


def test_mismatch_work_nearly_flat_in_E(monkeypatch):
    # Taylor steps (one q expansion each) per mismatch at p = 3: 7 at E = 10,
    # one ray mirrored into the other; 11 at E = 40; 14 at E = 10 + 0.5i,
    # where both rays are integrated.  The DOP853 pair took 711, 1,151 and
    # 1,422 q evaluations there (Cash-Karp 5(4) 6,168 at E = 10, rays from
    # r_max = 7 87,144).  Each bound is 5% above, rounded down.
    count = [0]
    plain = ModelSpec.q_series

    def counting(self, *args):
        count[0] += 1
        return plain(self, *args)

    monkeypatch.setattr(ModelSpec, "q_series", counting)
    model = ModelSpec.power_law(3.0)
    for E, bound in ((10.0, 7), (40.0, 11), (10.0 + 0.5j, 14)):
        count[0] = 0
        mismatch(E, model)
        assert 0 < count[0] <= bound


def test_muller_step_rejects_coincident_iterates():
    for pts in ([(1.0, 0.5), (1.0, 0.5), (2.0, 0.1)],
                [(1.0, 0.5), (2.0, 0.1), (2.0, 0.1)],
                [(2.0, 0.1), (1.0, 0.5), (2.0, 0.2)]):
        with pytest.raises(ShootingError):
            _muller_step(pts)


def test_merging_quartic_turning_points_are_a_shooting_error():
    # E = -(A / (4 3^(-3/4)))^(4/3) at A = 1 rescales the coupling onto
    # a = -1.24081(1 + i), where two quartic turning points meet; a secant
    # step landing there must end in ShootingError, which the polish and
    # the scan catch, not in the tracer's TraceError
    with pytest.raises(ShootingError, match="turning points meet"):
        mismatch(-0.47247039371057753, ModelSpec.quartic(1.0))


def test_pt_reality_unbroken():
    model = ModelSpec.power_law(2.5)
    recs = scan_spectrum(model, 8.0, ShootConfig(rtol=1e-9))
    assert len(recs) >= 3
    for rec in recs:
        assert rec.E.imag == 0.0


def test_conjugate_pair_in_broken_region():
    p = 1.5
    model = ModelSpec.power_law(p)
    seed = next(r.E for r in condition_spectrum(model, 30.0)
                if _off_axis(r.eps) and r.eps.imag > 0)
    r1 = find_eigen(seed, model, ShootConfig(rtol=1e-9))
    r2 = find_eigen(seed.conjugate(), model, ShootConfig(rtol=1e-9))
    assert abs(r1.E.imag) > 1e-4
    assert r1.E == r2.E.conjugate()


def test_broken_region_real_count_shrinks():
    cfg = ShootConfig(r_max=6.0, rtol=1e-8)
    reals = {}
    for p in (1.8, 1.2):
        recs = scan_spectrum(ModelSpec.power_law(p), 12.0, cfg)
        reals[p] = [r.E.real for r in recs if r.E.imag == 0]
    assert len(reals[1.2]) == 1
    assert abs(reals[1.2][0] - 1.388199) <= 1e-6
    assert len(reals[1.8]) == 7


def test_scan_lists_the_published_p3_ladder():
    # Bender & Boettcher, PRL 80, 5243 (1998): the ground state is no grid
    # point of any real-E scan and must come from the collocation seeds
    recs = scan_spectrum(ModelSpec.power_law(3.0), 12.0)
    want = [1.156267072, 4.109228752, 7.562273854, 11.314421818]
    assert len(recs) == len(want)
    for rec, e in zip(recs, want):
        assert rec.E.imag == 0.0
        assert abs(rec.E.real - e) <= 1e-8 * e


def _assert_spectrum(recs, want, rel):
    assert len(recs) == len(want)
    for e in want:
        assert sum(abs(r.E - e) <= rel * abs(e) for r in recs) == 1


_P15_SPECTRUM = [1.0869317, 3.1957762, 4.4219980,
                 6.6557931 + 0.9514678j, 6.6557931 - 0.9514678j,
                 9.0911098 + 1.9947373j, 9.0911098 - 1.9947373j,
                 11.3708501 + 3.0114842j, 11.3708501 - 3.0114842j]


# collocation eigenvalues at p = 1.5, E_max = 12
_P15_COLLOCATION = (1.0869317242441063, 3.1957762599142785, 4.421997912872259,
                    6.655792912346449 + 0.9514680357007428j)


def test_collocation_keeps_its_forty_e_fold_ray():
    # the collocation that seeds scan_spectrum keeps its own ray (40 e-folds
    # of asymptotic action, at least 2 r_tp); the shooting rays' shorter
    # start would move these seeds by about 1e-8
    ev = _contour_eigenvalues(ModelSpec.power_law(1.5), 12.0, ShootConfig())
    for e in _P15_COLLOCATION:
        assert np.min(np.abs(ev - e)) <= 1e-11 * abs(e)


def test_collocation_needs_no_match_point(monkeypatch):
    # the collocation takes its ray from _ray alone: no match-point search,
    # which could raise over a point the collocation never uses, and the
    # same eigenvalues bit for bit as when its ray came from _contour
    def refuse(*args, **kwargs):
        raise AssertionError("the collocation searched for a match point")

    monkeypatch.setattr(shooting, "_contour", refuse)
    ev = _contour_eigenvalues(ModelSpec.power_law(1.5), 12.0, ShootConfig())
    assert all(e in ev for e in _P15_COLLOCATION)


def test_quartic_ray_cap_never_binds():
    # quartic rays start below 4.83 for E >= 0.3 at A <= 3, so the default
    # r_max gives the W of r_max = 5 bit for bit and no caller restates a
    # cap of 5.  r_max caps only _start_radius's result: at E = 0.3 its
    # first Newton guess, 5.15, lies above 5 and the start, 4.76-4.80,
    # below.  The quartic's lowest level is E = 1.06, at A = 0.
    for A in (0.0, 0.75, 2.0):
        model = ModelSpec.quartic(A)
        for E in (0.3, 0.32, 0.4, 1.06, 20.0, 4.3 + 0.7j):
            assert mismatch(E, model) == mismatch(E, model, ShootConfig(r_max=5.0))


def test_power_law_ray_cap_acts_only_where_it_caps_the_start():
    # W under r_max 7 and 50 is the same bit for bit wherever the start
    # lies below 7; p = 1.5 at E = 1.0 and p = 2 at E = 0.7 are starts
    # whose Newton iterates pass above 7
    cfg, wide = ShootConfig(r_max=7.0), ShootConfig(r_max=50.0)
    below = []
    for p in (1.5, 2.0, 3.0):
        model = ModelSpec.power_law(p)
        for E in (round(0.4 + 0.1 * k, 10) for k in range(30)):
            eps = E_to_eps(complex(E), p)
            _, r_tp, z_dir, _ = _ray(model)
            if _start_radius(model, z_dir, r_tp, eps, wide.r_max) < cfg.r_max:
                below.append((p, E))
                assert mismatch(E, model, cfg) == mismatch(E, model, wide), (p, E)
    assert (1.5, 1.0) in below and (2.0, 0.7) in below


def test_scan_lists_the_whole_broken_spectrum():
    _assert_spectrum(scan_spectrum(ModelSpec.power_law(1.5), 12.0), _P15_SPECTRUM, 1e-6)


def test_scan_at_a_high_power():
    recs = scan_spectrum(ModelSpec.power_law(6.0), 30.0)
    _assert_spectrum(recs, [2.439346, 11.881565, 25.411553], 1e-6)


def test_scan_needs_no_condition_root(monkeypatch):
    import ptspec.asymptotic

    def refuse(*args, **kwargs):
        raise AssertionError("the numeric scan asked the asymptotic route")

    monkeypatch.setattr(ptspec.asymptotic, "condition_spectrum", refuse)
    monkeypatch.setattr(shooting, "condition_spectrum", refuse, raising=False)
    recs = scan_spectrum(ModelSpec.power_law(1.5), 12.0)
    assert len(recs) == 9


def test_find_eigen_records_a_complex_coupling():
    model = ModelSpec.quartic(0.5 + 0.05j)
    rec = find_eigen(1.09, model)
    assert rec.param == 0.5 + 0.05j
    assert abs(rec.E - (1.0931281730 + 0.0066477472j)) <= 1e-9
    assert abs(mismatch(rec.E, model)) <= 1e-9


def test_scan_refuses_a_complex_quartic_coupling():
    with pytest.raises(ValueError, match="real quartic coupling"):
        scan_spectrum(ModelSpec.quartic(1 + 0.5j), 8.0)


def test_cross_method_gap_moderate_mode():
    full = solve_condition(6, 3.0, "full")
    num = find_eigen(full.E.real, ModelSpec.power_law(3.0))
    assert abs(num.E - full.E) / abs(num.E) <= 1e-3


def _quartic_fd_oracle(levels: int) -> list[float]:
    # second-order finite differences for -u'' + x^4 u = E u on [-L, L]
    n, L = 1000, 5.5
    x = np.linspace(-L, L, n)
    h = x[1] - x[0]
    main = 2.0 / h ** 2 + x ** 4
    off = -np.ones(n - 1) / h ** 2
    mat = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    vals = np.linalg.eigvalsh(mat)
    return [float(v) for v in vals[:levels]]


def test_quartic_spectrum_matches_fd_oracle():
    model = ModelSpec.quartic(0.0)
    cfg = ShootConfig(r_max=4.5, rtol=1e-9)
    recs = scan_spectrum(model, 12.5, cfg)
    got = [r.E.real for r in recs]
    assert len(got) == 4
    frozen = [1.0603620904, 3.7996730298, 7.4556979379, 11.6447455113]
    for g, f in zip(got, frozen):
        assert abs(g - f) <= 1e-5 * f
    for g, f in zip(got, _quartic_fd_oracle(4)):
        assert abs(g - f) <= 5e-3 * f
    for r in recs:
        assert abs(r.E.imag) <= 1e-8


def _full_convolution(kq, a0, a1):
    """The coefficient recurrence as sum(map(mul, ...)) over a_k..a_0."""
    a = [a0, a1]
    for k, inv in enumerate(shooting._INV_PAIRS):
        a.append(sum(map(mul, kq, a[k::-1])) * inv)
    return a


_coefficient = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
#: Some large enough that the series overflows to inf and nan partway.
_huge = st.builds(complex, st.sampled_from([1e200, -1e300, 0.0, -0.0]),
                  st.sampled_from([1e250, -1e308, 0.0, -0.0]))
#: Signed zeros, where only sum's leading 0 + decides a sign.
_unit = st.builds(complex, st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.sampled_from([0.0, -0.0, 1.0, -1.0]))
_term = _coefficient | _huge | _unit


@settings(deadline=None, max_examples=300)
@given(kq=st.lists(_term, min_size=1, max_size=7), a0=_term, a1=_term)
@example(kq=[0j, 0j], a0=complex(-0.0, 0.0), a1=0j)
def test_sliding_window_recurrence_equals_the_full_convolution(kq, a0, a1):
    # Series of up to five terms run over a sliding window; every
    # coefficient must keep the bits of the full convolution, signed zeros,
    # inf and nan included.
    hexes = lambda a: [(x.real.hex(), x.imag.hex()) for x in a]
    assert hexes(shooting._recurrence(kq, a0, a1)) == hexes(_full_convolution(kq, a0, a1))


def test_sliding_window_recurrence_overflows_as_the_convolution_does():
    kq = [-4e200 + 1e150j, 3e100, -2.5e250j, 1e300, -7e307]
    a = shooting._recurrence(kq, 1e300 + 1e300j, -1e300)
    assert not all(map(cmath.isfinite, a))
    hexes = [(x.real.hex(), x.imag.hex()) for x in a]
    assert hexes == [(x.real.hex(), x.imag.hex())
                     for x in _full_convolution(kq, 1e300 + 1e300j, -1e300)]
