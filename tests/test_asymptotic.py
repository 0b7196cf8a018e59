import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from ptspec.action import (action_between, action_scale,
                           action_to_turning_points, quartic_action,
                           quartic_critical_a)
from ptspec.asymptotic import (SolveError, _mode_index, _newton_complex,
                               _off_axis, _scaled_condition,
                               condition_spectrum, corrected_condition,
                               cosine_seed, delta_estimate, E_to_eps, eps_to_E,
                               lowest_branch_path, quartic_closeoff,
                               quartic_condition, solve_condition,
                               solve_quartic, switched_terms, wkb_condition,
                               wkb_eigenvalue)
from ptspec.geometry import ModelSpec

PI = math.pi


def test_wkb_eigenvalue_harmonic_ladder():
    assert abs(wkb_eigenvalue(0, 2.0) - 1.0) < 1e-12
    assert abs(wkb_eigenvalue(3, 2.0) - 7.0) < 1e-12


def test_wkb_eigenvalue_monotone_and_pole():
    vals = [wkb_eigenvalue(n, 4.0) for n in range(8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        wkb_eigenvalue(0, 1.0)


def test_wkb_condition_cosine_zeros():
    for p in (2.0, 3.0, 1.6):
        for n in (0, 2, 7):
            eps = cosine_seed(n, p)
            assert abs(wkb_condition(eps, p)) < 1e-9 * math.exp(
                2 * action_scale(p) * abs(math.cos(PI / p)) / eps)


def test_wkb_condition_conjugate_symmetry():
    for eps in (0.3 + 0.1j, 0.17 - 0.05j):
        for p in (1.5, 2.5):
            lhs = wkb_condition(eps.conjugate(), p)
            rhs = -wkb_condition(eps, p).conjugate()
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_integer_p_degeneration_exact():
    for p in (2.0, 3.0, 4.0, 5.0):
        for eps in (0.31, 0.12 + 0.07j):
            assert corrected_condition(eps, p) - wkb_condition(eps, p) == 0


def test_dominance_exchange_at_p2():
    assert action_scale(1.5) * math.cos(PI / 1.5) < 0
    assert action_scale(3.0) * math.cos(PI / 3.0) > 0
    # p < 2, small eps: correction term dominates the first term
    p, eps = 1.5, 0.02
    first = abs(wkb_condition(eps, p))
    corr = abs(corrected_condition(eps, p) - wkb_condition(eps, p))
    assert corr > 1e6 * first
    # p > 2: correction is exponentially small against the first term
    p, eps = 3.0, 0.1
    first = abs(wkb_condition(eps, p))
    corr = abs(corrected_condition(eps, p) - wkb_condition(eps, p))
    c = 2 * action_scale(3.0) * math.cos(PI / 3.0)
    assert corr / first < math.exp(-c / eps)


def test_solve_condition_equivalence_with_closed_form():
    rec = solve_condition(5, 3.0, "wkb")
    want = wkb_eigenvalue(5, 3.0)
    assert abs(rec.E.real - want) <= 1e-10 * want
    assert rec.method == "wkb"


def test_solve_condition_harmonic_anchor():
    for n in range(4):
        rec = solve_condition(n, 2.0, "full")
        assert abs(rec.E - (2 * n + 1)) < 1e-9
        assert rec.residual <= 1e-12


def test_solve_condition_leaves_axis_in_broken_region():
    # at p = 1.9 the ladder is real up to E ~ 90; far beyond, only complex
    # roots remain and the real-axis search must hand over to one off the axis
    rec = solve_condition(80, 1.9, "full")
    assert abs(rec.eps.imag) > 1e-12


def test_root_solvers_reject_negative_modes():
    with pytest.raises(ValueError):
        solve_condition(-2, 2.0)
    with pytest.raises(ValueError):
        solve_quartic(-1, 1.0)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.nan])
def test_solve_condition_rejects_p_at_most_one(p):
    # the conditions have no ladder there: at p = 1 the cosine seed is 1e-16
    with pytest.raises(ValueError):
        solve_condition(0, p)


def test_newton_budget_is_100_iterations():
    # (z - 2)^2 + 1 has no real root; from a real seed every iterate stays
    # on the positive axis, and each iteration costs three evaluations
    seen = []

    def f(z):
        seen.append(z)
        return (z - 2.0) ** 2 + 1.0

    with pytest.raises(SolveError):
        _newton_complex(f, 1.0)
    assert len(seen) <= 300
    assert all(complex(z).imag == 0.0 and z > 0 for z in seen)


def test_condition_beyond_the_gamma_range_is_a_solve_error():
    # 1/Gamma(-200.5) is no finite double (math.gamma(-200.5) is -0.0), so
    # the branch-point term cannot be evaluated
    with pytest.raises(SolveError):
        solve_condition(0, 200.5, "full")


def test_newton_on_the_real_part_stays_on_the_axis():
    # a real condition from a complex seed on the axis never leaves it, and
    # lands on the root solve_condition reports
    for p in (1.5, 2.5, 3.0):
        for n in range(4):
            f = lambda e: _scaled_condition(e, p, "full").real
            z, res = _newton_complex(f, complex(cosine_seed(n, p)))
            assert z.imag == 0.0 and res <= 1e-12
            assert z == solve_condition(n, p).eps


def test_eps_scaling_roundtrip():
    for p in (1.4, 2.0, 3.7):
        for eps in (0.21, 0.07 + 0.01j):
            assert abs(E_to_eps(eps_to_E(eps, p), p) - eps) < 1e-12 * abs(eps)
    assert abs(eps_to_E(0.25, 2.0) - 4.0) < 1e-12  # E = 1/eps at p = 2
    for p in (1.3, 2.0, 4.2):
        assert abs(eps_to_E(1.0, p) - 1.0) < 1e-14


def test_record_scaling_invariant():
    rec = solve_condition(3, 2.6, "full")
    assert abs(rec.E - eps_to_E(rec.eps, 2.6)) < 1e-10 * abs(rec.E)


def real_roots(p, e_max):
    """The on-axis roots E <= e_max of the corrected condition's ladder."""
    return sorted(r.E.real for r in condition_spectrum(ModelSpec.power_law(p), e_max)
                  if not _off_axis(r.eps) and r.E.real <= e_max * (1.0 + 1e-12))


def test_count_real_roots_frozen_regression():
    counts = {p: len(real_roots(p, 30.0)) for p in (1.9, 1.7, 1.5, 1.3)}
    assert counts == {1.9: 16, 1.7: 9, 1.5: 3, 1.3: 1}


def ladder_problems(recs, residual):
    """The rules a condition spectrum keeps: no root twice (1e-7 relative in
    E), every complex root with its conjugate, real labels rising with E,
    and every record a root."""
    out = []
    same = lambda a, b: abs(a - b) <= 1e-7 * max(1.0, abs(a))
    for i, r in enumerate(recs):
        out += [f"duplicate E={r.E}" for s in recs[i + 1:] if same(r.E, s.E)]
        if r.E.imag != 0 and not any(same(r.E.conjugate(), s.E) for s in recs):
            out.append(f"no conjugate of E={r.E}")
        if not residual(r.eps) <= 1e-12:
            out.append(f"residual {residual(r.eps):.2e} at E={r.E}")
    real = sorted((r.n, r.E.real) for r in recs if r.E.imag == 0)
    out += [f"labels {a} and {b} out of order" for a, b in zip(real, real[1:])
            if not a[1] < b[1]]
    return out


@settings(deadline=None, max_examples=40)
@given(p=st.floats(1.05, 5.0), e_max=st.floats(5.0, 30.0))
def test_condition_spectrum_lists_each_root_once_with_its_conjugate(p, e_max):
    recs = condition_spectrum(ModelSpec.power_law(p), e_max)
    assert recs and all(r.E.real <= e_max * (1 + 1e-9) for r in recs)
    assert ladder_problems(recs, lambda e: abs(_scaled_condition(e, p, "full"))) == []


def test_condition_spectrum_labels_a_root_from_several_seeds_by_its_mode():
    # at A = 3.5 the seeds n = 0, 1, 2 all reach E = 7.6954, the n = 2 mode
    model = ModelSpec.quartic(3.5)
    recs = condition_spectrum(model, 20.0)
    hits = [r for r in recs if abs(r.E - 7.6954) < 1e-3]
    assert [r.n for r in hits] == [2] == [_mode_index(hits[0].eps, model)]
    assert ladder_problems(recs, lambda e: abs(quartic_condition(e, 3.5))) == []
    with pytest.raises(ValueError):
        condition_spectrum(model, 20.0, "wkb")


def real_roots_by_real_newton(p, e_max):
    """Reference: Newton on the real part of the corrected condition from
    every cosine seed with wkb_eigenvalue below 1.6 e_max + 10, once each."""
    found = []
    n_top = 3
    while wkb_eigenvalue(n_top, p) < 1.6 * e_max + 10:
        n_top += 1
    for n in range(n_top + 1):
        try:
            x, _ = _newton_complex(lambda e: _scaled_condition(e, p, "full").real,
                                   cosine_seed(n, p))
        except SolveError:
            continue
        if not any(abs(x - u) < 1e-9 * max(1.0, abs(u)) for u in found):
            found.append(x)
    return sorted(e for e in (eps_to_E(x, p).real for x in found)
                  if e <= e_max * (1.0 + 1e-12))


@pytest.mark.parametrize("p", [1.3, 1.45, 1.55, 1.7, 1.9, 2.5, 4.0])
def test_count_real_roots_matches_real_newton_from_every_seed(p):
    for e_max in (12.0, 30.0):
        assert real_roots(p, e_max) == real_roots_by_real_newton(p, e_max)


def test_conjugate_closure_of_complex_roots():
    for p in (1.5, 1.7):
        roots = [r.eps for r in condition_spectrum(ModelSpec.power_law(p), 30.0)
                 if _off_axis(r.eps) and r.eps.imag > 0]
        assert roots
        for z in roots:
            rec = solve_condition(0, p, "full", seed=z.conjugate())
            assert abs(rec.eps - z.conjugate()) <= 1e-9 * abs(z)


def test_delta_estimate_values():
    assert abs(delta_estimate(1.0) - 8.0 / PI * math.exp(-4.0 / 3.0)) < 1e-14
    # identity: delta * exp(4 E^{3/2}/3) = (8/pi) E^{3/2}
    for e in (1.0, 4.0, 9.0):
        lhs = delta_estimate(e) * math.exp(4.0 * e ** 1.5 / 3.0)
        assert abs(lhs - 8.0 * e ** 1.5 / PI) < 1e-9 * lhs
    # log-log slope tends to 3/2 from above; use the log form directly
    # (delta itself underflows past E ~ 64) after checking it matches
    def log_delta(e):
        return math.log(8.0 / PI) + 1.5 * math.log(e) - 4.0 * e ** 1.5 / 3.0

    for e in (2.0, 10.0, 30.0):
        assert abs(log_delta(e) - math.log(delta_estimate(e))) < 1e-10

    def slope(e1, e2):
        return ((math.log(abs(log_delta(e2))) - math.log(abs(log_delta(e1))))
                / (math.log(e2) - math.log(e1)))

    assert slope(20.0, 40.0) > slope(100.0, 200.0) > 1.5
    assert abs(slope(300.0, 600.0) - 1.5) < 0.005


def test_lowest_branch_persists():
    deltas = [0.5 * 0.8 ** k for k in range(20)]
    recs = lowest_branch_path(deltas)
    assert len(recs) == len(deltas)
    es = [r.E.real for r in recs]
    assert all(b > a for a, b in zip(es, es[1:]))


def test_branch_walk_follows_each_member_of_a_merging_pair():
    # Below p = 2 the excited branches merge in pairs (1, 2), (3, 4), (5, 6)
    # and leave the real axis: as delta falls the lower member (odd n) rises
    # and the upper member (even n) falls.  p = 1.66 .. 1.58 ends before the
    # pair (3, 4) merges and after the pair (5, 6) has.
    deltas = [0.66 - 0.01 * k for k in range(9)]
    for n in range(1, 6):
        recs = lowest_branch_path(deltas, n)
        assert recs
        assert all(r.n == n and r.eps.imag == 0 and r.residual <= 1e-12 for r in recs)
        es = [r.E.real for r in recs]
        if n % 2:
            assert all(b > a for a, b in zip(es, es[1:]))
        else:
            assert all(b < a for a, b in zip(es, es[1:]))
    # the walk stops where its root has left the axis
    recs = lowest_branch_path(deltas, 5)
    assert len(recs) == 2
    nxt = solve_condition(5, 1.0 + deltas[2], "full", seed=recs[-1].eps.real)
    assert abs(nxt.eps.imag) > 1e-3 * abs(nxt.eps)


@settings(deadline=None)
@given(p=st.floats(1.05, 6.0), n=st.integers(0, 60))
def test_mode_index_inverts_cosine_seed(p, n):
    assert _mode_index(cosine_seed(n, p), ModelSpec.power_law(p)) == n


def test_switched_terms_factorisation():
    p, eps = 3.0, 0.17
    model = ModelSpec.power_law(p)
    zs = (1.5 - 0.4j, 2.0 - 0.6j, 2.5 - 0.3j, 1.2 - 0.8j, 3.0 - 0.5j)
    vals = []
    for z in zs:
        phi = action_between(0, z, model)
        vals.append(switched_terms(z, eps, p) * cmath.exp(2j * phi / eps))
    spread = max(abs(v - vals[0]) for v in vals)
    assert spread <= 1e-9
    # the z-free factor is exactly the corrected condition
    assert abs(vals[0] - corrected_condition(eps, p)) <= 1e-10


def test_switched_terms_vanish_at_root():
    p = 2.5
    rec = solve_condition(4, p, "full")
    z = 1.8 - 0.5j
    val = switched_terms(z, rec.eps, p)
    phi_z = action_between(0, z, ModelSpec.power_law(p))
    scale = max(abs(cmath.exp(-2j * (phi_z - a) / rec.eps))
                for a in (0, *action_to_turning_points(p)))
    assert abs(val) <= 1e-9 * scale


def test_quartic_condition_no_root_at_cosine_maxima():
    u0 = quartic_action(0.0).real
    eps = 2.0 * u0 / (2.0 * PI)  # cosine argument hits 2 pi
    val = quartic_condition(eps, 0.0)
    assert val.real > 0.5


def test_quartic_roots_near_half_integer_rule():
    rec = solve_quartic(3, 0.5)
    a = 0.5 * rec.eps.real
    theta = 2.0 * quartic_action(a).real / rec.eps.real
    assert abs(theta - 3.5 * PI) < 0.02


def test_quartic_branch_closes_for_large_coupling():
    # Continue the ground branch upward in the coupling: it stays real to
    # A ~ 3.0 and folds into the complex plane just above.
    seed = None
    a = 0.5
    folded_at = None
    while a <= 3.6:
        try:
            rec = solve_quartic(0, a, seed=seed)
        except SolveError:
            folded_at = a
            break
        if abs(rec.eps.imag) > 1e-10:
            folded_at = a
            break
        seed = rec.eps.real
        a = round(a + 0.1, 10)
    assert folded_at is not None
    assert 2.9 <= folded_at <= 3.3


def test_quartic_unseeded_ground_root_below_first_mode():
    # Unseeded, the ground state must not land on a higher mode's root.
    for a in (1.75, 2.0, 2.25):
        assert solve_quartic(0, a).E.real < solve_quartic(1, a).E.real
    # at A = 2 it is the root the seeded walk up from A = 0.5 reaches
    seed = None
    for k in range(16):
        seed = solve_quartic(0, round(0.5 + 0.1 * k, 10), seed=seed).eps.real
    assert abs(solve_quartic(0, 2.0).eps.real - seed) < 1e-9


def test_quartic_fold_pair_is_reached_by_the_off_axis_restart():
    # at A = 3.25 the two lowest real roots have merged; their seeds stall
    # on the real axis and restart from seed (1 + 0.05i), one onto each
    # member of the pair
    recs = condition_spectrum(ModelSpec.quartic(3.25), 20.0)
    pair = [r.E for r in recs if _off_axis(r.eps)]
    assert len(pair) == 2
    assert abs(pair[0] - pair[1].conjugate()) <= 1e-9
    for e in pair:
        assert abs(e - complex(3.2189465, math.copysign(0.4612484, e.imag))) <= 1e-6
    real = [r.E.real for r in recs if not _off_axis(r.eps)]
    want = [7.6527364163, 11.7827446263, 16.3812051301]
    assert len(real) == len(want)
    assert all(abs(e - w) <= 1e-9 * w for e, w in zip(real, want))
    assert ladder_problems(recs, lambda e: abs(quartic_condition(e, 3.25))) == []


def test_quartic_roots_carry_their_mode_label():
    for a in (0.0, 0.5, 1.0, 2.0):
        model = ModelSpec.quartic(a)
        for n in range(8):
            rec = solve_quartic(n, a)
            assert rec.eps.imag == 0
            assert _mode_index(rec.eps, model) == n


def test_quartic_condition_complex_conjugate_symmetry():
    # the analytic continuation in a keeps roots closed under conjugation
    eps = 0.45 + 0.06j
    lhs = quartic_condition(eps.conjugate(), 1.0)
    rhs = quartic_condition(eps, 1.0).conjugate()
    assert abs(lhs - rhs) < 1e-10


def test_quartic_closeoff_values():
    a_star = quartic_critical_a()
    assert abs(quartic_closeoff(a_star) - 1.0) < 1e-12
    assert abs(quartic_closeoff(2 * a_star) - 2.0 ** (4.0 / 3.0)) < 1e-12
    vals = [quartic_closeoff(a) for a in (0.5, 1.0, 1.5, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
