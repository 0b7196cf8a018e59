import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ptspec.action import (_quartic_end_actions, action_between, action_scale,
                           action_to_turning_points, quartic_action,
                           quartic_critical_a)
from ptspec.asymptotic import (EigRecord, SolveError, _alone, _distinct, _listed,
                               _condition_parts, _mode_index, _newton_complex,
                               _off_axis, _phase,
                               _quartic_condition, _same_root,
                               _scaled_condition, _seed, _seeded, _seeded_root, _solver,
                               condition_spectra, condition_spectrum, corrected_condition,
                               delta_estimate, E_to_eps, eps_to_E,
                               lowest_branch_path, quartic_closeoff,
                               quartic_condition, solve_condition,
                               solve_quartic, switched_terms, wkb_condition,
                               wkb_eigenvalue)
from ptspec.geometry import ModelSpec, TraceError
from ptspec.special import principal_power, recip_gamma

PI = math.pi


def _seed_of(n, model):
    """The seed rule's eps for mode n, run alone."""
    return _alone(_seed(n, model))


def _newton(f, z0):
    """_newton_complex from z0, run on f alone."""
    return _alone(_newton_complex(z0, f))


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
            eps = _seed_of(n, ModelSpec.power_law(p))
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


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.nan])
def test_wkb_eigenvalue_rejects_p_at_most_one(p):
    # below p = 1 the closed form read 633289.79 + 1949065.56i at p = 0.5
    # and divided by zero at p = -2
    with pytest.raises(ValueError, match="p > 1"):
        wkb_eigenvalue(0, p)


@pytest.mark.parametrize("solve", [lambda n: solve_condition(n, 3.0),
                                   lambda n: solve_quartic(n, 1.0),
                                   lambda n: wkb_eigenvalue(n, 3.0)],
                         ids=["solve_condition", "solve_quartic", "wkb_eigenvalue"])
def test_mode_index_is_an_integer(solve):
    # solve_condition(1.5, 3.0) returned a root labelled n = 1.5
    for n in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            solve(n)
    assert solve(np.int64(2)) == solve(2)


def test_condition_overflow_lists_no_root_and_solves_none():
    # 1/Gamma(-p) is no finite double at p = 200.5: every solve fails
    with pytest.raises(SolveError, match="condition overflows at p = 200.5"):
        solve_condition(0, 200.5)
    assert condition_spectrum(ModelSpec.power_law(200.5), 30.0) == []


@pytest.mark.parametrize("e_max", [math.inf, math.nan, 0.0, -1.0])
def test_condition_spectrum_refuses_an_e_max_that_is_not_finite_and_positive(e_max):
    # e_max = inf never left the seed loop, and nan listed no root
    with pytest.raises(ValueError, match="e_max must be finite and > 0"):
        condition_spectrum(ModelSpec.power_law(3.0), e_max)


def test_newton_budget_is_100_iterations():
    # (z - 2)^2 + 1 has no real root; from a real seed every iterate stays
    # on the positive axis, and each iteration costs one evaluation
    seen = []

    def f(z):
        seen.append(z)
        return (z - 2.0) ** 2 + 1.0, 2.0 * (z - 2.0)

    with pytest.raises(SolveError, match="100 iterations"):
        _newton(f, 1.0)
    assert len(seen) == 100
    assert all(complex(z).imag == 0.0 and z > 0 for z in seen)


def _real_part(f):
    """f's value and slope along the real axis, as the real search takes them."""
    def real(z):
        value, slope = f(z)
        return value.real, slope.real

    return real


def _counting(f):
    """f, and the list of the points it has been called at."""
    seen = []

    def counted(z):
        seen.append(z)
        return f(z)

    return counted, seen


def _longest_capped_run(iterates):
    """Most consecutive Newton steps of length half of |z|, the step cap."""
    run = best = 0
    for a, b in zip(iterates, iterates[1:]):
        run = run + 1 if abs(abs(b - a) - 0.5 * abs(a)) <= 1e-12 * abs(a) else 0
        best = max(best, run)
    return best


def test_flat_newton_search_stops_early():
    # The restart seed of p = 1.05, n = 1: off the axis the condition is
    # flat, and Newton cycles z <-> ~conj z with every step capped and |f|
    # unmoved.  It used to run all 100 iterations (300 evaluations), then
    # 15 capped steps (48 evaluations on central differences).
    f, seen = _counting(_scaled_condition(1.05, "full"))
    with pytest.raises(SolveError, match="flat on the scale of"):
        _newton(f, 0.042744751223068006 * (1 + 0.05j))
    assert len(seen) <= 3


@pytest.mark.parametrize("n, p", [(3, 1.5), (10, 1.6)])
def test_newton_converges_after_seven_capped_steps(n, p):
    # The longest run of capped steps measured on a converging search: the
    # stop rule must leave these roots in place.
    f, seen = _counting(_real_part(_scaled_condition(p, "full")))
    x, res = _newton(f, _seed_of(n, ModelSpec.power_law(p)))
    assert _longest_capped_run(seen) == 7
    assert res <= 1e-12 and abs(f(x)[0]) <= 1e-12


@pytest.mark.parametrize("p, seed", [(3.0, 0.27), (1.5, 0.12), (1.5, 0.09 + 0.004j)])
def test_power_law_search_evaluates_once_per_newton_step(p, seed):
    # Each point after the first is the Newton step, capped at half of |z|,
    # from the value and slope at the point before: nothing is evaluated
    # between steps (the central difference took two more points each).
    f = _scaled_condition(p, "full")
    if isinstance(seed, float):
        f = _real_part(f)
    values = []

    def recorded(z):
        values.append((z, *f(z)))
        return values[-1][1:]

    x, res = _newton(recorded, seed)
    assert res <= 1e-12 and len(values) > 3
    for (z, g, dg), (z_next, *_) in zip(values, values[1:]):
        step = -g / dg
        step *= min(1.0, 0.5 * abs(z) / abs(step))
        assert abs(z_next - (z + step)) <= 1e-15 * abs(z)
    assert x == values[-1][0]


def test_each_way_newton_fails_has_its_own_message():
    messages = []
    for f, z0 in [(lambda z: (1.0 + 0j, 0j), 1.0),  # zero slope
                  (_scaled_condition(1.05, "full"),
                   0.042744751223068006 * (1 + 0.05j)),
                  (lambda z: ((z - 2.0) ** 2 + 1.0, 2.0 * (z - 2.0)), 1.0)]:  # no real root
        with pytest.raises(SolveError) as err:
            _newton(f, z0)
        messages.append(str(err.value))
    assert ["zero slope" in messages[0], "flat on the scale of |z|" in messages[1],
            "100 iterations" in messages[2]] == [True] * 3


def _overflowing(z):
    raise OverflowError("math range error")


def _untraceable(z):
    raise TraceError("two turning points meet near a = 1+1j")


# (condition as (value, slope), seed) for each way _newton_complex fails
# that the conditions themselves have not shown
_NEWTON_FAILURES = {
    "condition overflowed during Newton": (_overflowing, 1.0),
    # a quartic lane whose coupling walk meets a turning-point collision
    "condition untraceable during Newton: two turning points meet near a = 1+1j":
        (_untraceable, 1.0 + 0.1j),
    "slope not finite in Newton at z = 1.0": (lambda z: (1.0 + 0j, complex(math.inf)), 1.0),
    # the step, 1e308, is capped at half of |z|, which carries z past the
    # largest double
    "Newton diverged": (lambda z: (-1.0 + 0j, 1e-308), 1.5e308),
}


@pytest.mark.parametrize("failure", list(_NEWTON_FAILURES))
def test_newton_overflow_and_divergence_have_their_own_messages(failure):
    f, z0 = _NEWTON_FAILURES[failure]
    with pytest.raises(SolveError, match=f"^{re.escape(failure)}$"):
        _newton(f, z0)


def test_condition_spectrum_work_is_bounded(monkeypatch):
    # Deterministic work count: before the stop rule this listing took
    # 6,454 condition evaluations, most in off-axis searches that cannot
    # converge, and 1,300 on central-difference slopes; it must still
    # return the same single root (the closed-form slope lands one ulp
    # below the central difference's 0.5567693675470603).
    from ptspec import asymptotic
    calls = [0]
    plain = asymptotic._scaled_condition

    def counting(*args):
        scaled = plain(*args)

        def counted(eps):
            calls[0] += 1
            return scaled(eps)

        return counted

    monkeypatch.setattr(asymptotic, "_scaled_condition", counting)
    recs = condition_spectrum(ModelSpec.power_law(1.2), 30.0)
    assert calls[0] <= 218
    assert [(r.n, r.eps) for r in recs] == [(0, 0.5567693675470602 + 0j)]


def test_duplicate_scan_work_is_linear_in_the_roots(monkeypatch):
    # Deterministic work count: comparing every solved root with every other
    # took 577 _same_root calls here, for 21 solved roots and 23 records;
    # the sorted scan takes 63.
    from ptspec import asymptotic
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return _same_root(a, b)

    monkeypatch.setattr(asymptotic, "_same_root", counting)
    recs = condition_spectrum(ModelSpec.power_law(1.5), 30.0)
    assert len(recs) == 23
    assert calls[0] <= 3 * len(recs)


def _distinct_reference(solved, model):
    """The duplicate rule as every solved root compared with every other."""
    records = []
    for rec in solved:
        twins = [r for r in solved if _same_root(r.eps, rec.eps)]
        if twins[0] is rec:
            m = _mode_index(rec.eps, model) if twins[1:] else rec.n
            records.append(min(twins, key=lambda r: (abs(r.n - m), r.n)))
    records += [replace(r, eps=r.eps.conjugate(), E=r.E.conjugate()) for r in records
                if _off_axis(r.eps)
                and not any(_same_root(r.eps.conjugate(), s.eps) for s in records)]
    return records


_DUPLICATE_MODEL = ModelSpec.power_law(1.5)


@st.composite
def _solved_roots(draw):
    """Condition-root records in clusters at the edge of _same_root: offsets
    of 0.99e-8 and 1.01e-8 relative and chains of them (three-way near-ties,
    the ends apart), along the real or the imaginary axis (equal real parts),
    with the cluster's conjugates, labelled around each root's mode index."""
    eps = []
    for _ in range(draw(st.integers(1, 5))):
        z = complex(draw(st.floats(0.05, 2.0)),
                    draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5))))
        cluster = [z]
        for _ in range(draw(st.integers(0, 3))):
            rel = draw(st.sampled_from([0.0, 0.5e-8, 0.99e-8, 1.01e-8, 2e-8, 2.2e-8]))
            unit = draw(st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / abs(1 + 1j)]))
            base = draw(st.sampled_from(cluster))
            cluster.append(base + rel * abs(base) * unit)
        if draw(st.booleans()):
            cluster += [w.conjugate() for w in cluster if draw(st.booleans())]
        eps += cluster
    solved = []
    for z in draw(st.permutations(eps)):
        n = max(0, _mode_index(z, _DUPLICATE_MODEL) + draw(st.integers(-2, 2)))
        solved.append(EigRecord(n=n, param=1.5, eps=z, E=eps_to_E(z, 1.5),
                                method="full", residual=0.0))
    return solved


@settings(deadline=None, max_examples=300)
@given(solved=_solved_roots())
def test_sorted_duplicate_scan_selects_what_the_all_pairs_scan_did(solved):
    got = _distinct(solved, _DUPLICATE_MODEL)
    want = _distinct_reference(solved, _DUPLICATE_MODEL)
    assert got == want
    # the same records, not equal copies; the conjugates added are new
    assert [any(r is s for s in solved) for r in got] == [
        any(r is s for s in solved) for r in want]
    assert all(r is w for r, w in zip(got, want) if any(r is s for s in solved))


def _condition_parts_reference(eps, p):
    """X, Y, T2 as one function of (eps, p), the formula before p's factors
    were bound once per solve."""
    r = action_scale(p)
    x = 2.0 * r * math.cos(math.pi / p) / eps
    y = 2.0 * r * math.sin(math.pi / p) / eps
    return x, y, math.pi * principal_power(eps, p) * recip_gamma(-p) / 2.0 ** (p + 2.0)


def _scaled_condition_reference(eps, p, condition):
    x, y, t2 = _condition_parts_reference(eps, p)
    if condition == "wkb" or t2 == 0:
        return cmath.cos(y)
    l2 = math.log(abs(t2))
    if x.real >= l2:
        return cmath.cos(y) - t2 * cmath.exp(-x)
    return cmath.cos(y) * cmath.exp(x - l2) - t2 / abs(t2)


def _outcome(f):
    try:
        return repr(f())
    except (OverflowError, ValueError, ZeroDivisionError) as err:
        return type(err).__name__


@settings(deadline=None, max_examples=300)
@given(p=st.one_of(st.floats(1.0, 6.0, exclude_min=True), st.sampled_from([2.0, 3.0, 6.0])),
       x=st.floats(-5.0, 5.0), t=st.one_of(st.just(None), st.floats(-1.0, 1.0)),
       condition=st.sampled_from(["wkb", "full"]))
def test_conditions_are_the_reference_formulas_bit_for_bit(p, x, t, condition):
    # Binding p's factors once per solve moves no bit and no error.
    eps = x if t is None else complex(x, x * t)
    assert (_outcome(lambda: _scaled_condition(p, condition)(eps)[0])
            == _outcome(lambda: _scaled_condition_reference(eps, p, condition)))
    parts = lambda: _condition_parts_reference(eps, p)
    assert (_outcome(lambda: wkb_condition(eps, p))
            == _outcome(lambda: 2j * cmath.exp(parts()[0]) * cmath.cos(parts()[1])))
    assert (_outcome(lambda: corrected_condition(eps, p))
            == _outcome(lambda: 2j * (cmath.exp(parts()[0]) * cmath.cos(parts()[1])
                                      - parts()[2])))


def _branch(eps, p):
    """Which scaling _scaled_condition takes at eps: 0 with no branch-point
    term, 1 scaled by exp(X), 2 by |T2|."""
    x_num, _, t2 = _condition_parts(p)
    t2 = t2(eps)
    return 0 if t2 == 0 else 1 if (x_num / eps).real >= math.log(abs(t2)) else 2


@settings(deadline=None, max_examples=300)
@given(p=st.one_of(st.floats(1.0, 6.0, exclude_min=True), st.sampled_from([2.0, 3.0, 6.0])),
       x=st.floats(0.02, 2.0), t=st.floats(-0.3, 0.3), real=st.booleans(),
       condition=st.sampled_from(["wkb", "full"]))
def test_power_law_condition_slope_matches_the_central_difference(p, x, t, real, condition):
    # The closed-form slope is the derivative along real eps that the
    # central difference it replaces measured, in each scaling: to 1e-6
    # relative, or to the difference's own rounding, about 1e-16 |f| / h
    # (near p = 1 the slope is ~1e-30 and the difference reads 0).
    eps = complex(x) if real else x * complex(1.0, t)
    f, h = _scaled_condition(p, condition), 1e-7 * abs(eps)
    assume(len({_branch(e, p) for e in (eps - h, eps, eps + h)}) == 1)
    value, slope = f(eps)
    central = (f(eps + h)[0] - f(eps - h)[0]) / (2 * h)
    assert abs(slope - central) <= 1e-6 * abs(central) + 1e-15 * max(1.0, abs(value)) / h


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
            f = _real_part(_scaled_condition(p, "full"))
            seed = complex(_seed_of(n, ModelSpec.power_law(p)))
            z, res = _newton(f, seed)
            assert z.imag == 0.0 and res <= 1e-12
            assert z == solve_condition(n, p).eps


def test_eps_scaling_roundtrip():
    for p in (1.4, 2.0, 3.7, 4.0):
        for eps in (0.21, 0.07 + 0.01j):
            assert abs(E_to_eps(eps_to_E(eps, p), p) - eps) < 1e-12 * abs(eps)
    assert abs(eps_to_E(0.25, 2.0) - 4.0) < 1e-12  # E = 1/eps at p = 2
    for p in (1.3, 2.0, 4.2):
        assert abs(eps_to_E(1.0, p) - 1.0) < 1e-14
    # the quartic's degree 4 gives its eps = E^(-3/4), bit for bit
    assert ModelSpec.quartic(0.5).degree == 4.0
    assert ModelSpec.power_law(2.6).degree == 2.6
    for E in (0.8, 10.0, 33.3 + 2.5j):
        assert E_to_eps(E, 4.0) == principal_power(E, -0.75)
    for eps in (0.21, 0.9, 0.07 + 0.01j):
        assert eps_to_E(eps, 4.0) == principal_power(eps, -4 / 3)


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
    assert ladder_problems(recs, lambda e: abs(_scaled_condition(p, "full")(e)[0])) == []


def test_condition_spectrum_labels_a_root_from_several_seeds_by_its_mode():
    # at A = 3.5 the seeds n = 0, 1, 2 all reach E = 7.6954, the n = 2 mode
    model = ModelSpec.quartic(3.5)
    recs = condition_spectrum(model, 20.0)
    hits = [r for r in recs if abs(r.E - 7.6954) < 1e-3]
    assert [r.n for r in hits] == [2] == [_mode_index(hits[0].eps, model)]
    assert ladder_problems(recs, lambda e: abs(quartic_condition(e, 3.5))) == []


def real_roots_by_real_newton(p, e_max):
    """Reference: Newton on the real part of the corrected condition from
    every cosine seed with wkb_eigenvalue below 1.6 e_max + 10, once each."""
    found = []
    n_top = 3
    while wkb_eigenvalue(n_top, p) < 1.6 * e_max + 10:
        n_top += 1
    for n in range(n_top + 1):
        try:
            x, _ = _newton(_real_part(_scaled_condition(p, "full")),
                           _seed_of(n, ModelSpec.power_law(p)))
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


def test_branch_walk_stops_where_the_root_search_fails():
    # branch 1 is real at p = 1.5 (E = 3.2081); from that root the search
    # at p = 1.3 fails, and the walk ends there rather than skip a point
    deltas = [0.5, 0.3, 0.2]
    recs = lowest_branch_path(deltas, 1)
    assert [r.param for r in recs] == [1.5] and abs(recs[0].E - 3.2081) < 1e-4
    with pytest.raises(SolveError):
        solve_condition(1, 1.3, "full", seed=recs[0].eps.real)


@settings(deadline=None)
@given(case=st.one_of(
    st.tuples(st.floats(1.05, 6.0).map(ModelSpec.power_law), st.integers(0, 60)),
    st.tuples(st.floats(0.0, 5.0).map(ModelSpec.quartic), st.integers(0, 11))))
def test_mode_index_inverts_cosine_seed(case):
    # _seed is the cosine-zero rule for the power law and the quartic's seed
    # rule
    model, n = case
    assert _mode_index(_seed_of(n, model), model) == n


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
            rec = _solver(ModelSpec.quartic(a), "full")[0](0, seed)
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
        model = ModelSpec.quartic(round(0.5 + 0.1 * k, 10))
        seed = _solver(model, "full")[0](0, seed).eps.real
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


def test_quartic_condition_solvers_refuse_a_complex_coupling():
    # the real-axis search zeroes only Re f, a root only under the PT
    # mirror: at A = 1 + 0.5i, Re f vanishes near E = 1.2500 where
    # |quartic_condition| is 0.306
    with pytest.raises(ValueError, match="real"):
        condition_spectrum(ModelSpec.quartic(1 + 0.5j), 10.0)
    with pytest.raises(ValueError, match="real"):
        solve_quartic(0, 1 + 0.5j)


@pytest.mark.parametrize("A", [-1.0, np.float64(-1), -1 + 0j, complex(-1.0, -0.0),
                               np.complex128(-1)], ids=repr)
def test_quartic_condition_solvers_refuse_a_negative_coupling(A):
    # z -> -z maps the quartic at -A onto the one at A, but the condition
    # does not reproduce that: at A = -1 + 0j its ground state read 0.93505,
    # where A = 1 gives 1.16243.  A negative coupling of any numeric type is
    # a valid equation (ModelSpec.quartic takes it, and so does the
    # coupling walk), so the condition solvers refuse it themselves.
    with pytest.raises(ValueError, match=">= 0"):
        condition_spectrum(ModelSpec.quartic(A), 10.0)
    with pytest.raises(ValueError, match=">= 0"):
        solve_quartic(0, A)


def test_quartic_condition_solvers_accept_a_real_complex_coupling():
    assert ModelSpec.quartic(-1 + 0.5j).a == -1 + 0.5j
    rec = solve_quartic(0, 1 + 0j)
    assert rec.eps == solve_quartic(0, 1.0).eps and abs(rec.E - 1.16243) <= 1e-5


def test_quartic_condition_complex_conjugate_symmetry():
    # the analytic continuation in a keeps roots closed under conjugation
    eps = 0.45 + 0.06j
    lhs = quartic_condition(eps.conjugate(), 1.0)
    rhs = quartic_condition(eps, 1.0).conjugate()
    assert abs(lhs - rhs) < 1e-10


@settings(deadline=None, max_examples=60)
@given(A=st.floats(0.0, 6.0), x=st.floats(0.04, 0.9), t=st.floats(-0.05, 0.05),
       real=st.booleans())
def test_quartic_condition_slope_matches_the_central_difference(A, x, t, real):
    # The slope comes from the quadrature pass that gives the value: the
    # derivative along real eps that Newton's central difference measures.
    eps = complex(x) if real else x * complex(1.0, t)
    slope = _alone(_quartic_condition(eps, A))[1]
    h = 1e-7 * abs(eps)
    central = (quartic_condition(eps + h, A) - quartic_condition(eps - h, A)) / (2 * h)
    assert abs(slope - central) <= 1e-6 * abs(central)


def _counting_passes(monkeypatch):
    """A counter of quadrature passes, the cached pass at a = 0 taken first."""
    from ptspec import action, asymptotic
    asymptotic._quartic_action_at_zero()
    passes, plain = [0], action.integrate_legs

    def counting(*args, **kwargs):
        passes[0] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(action, "integrate_legs", counting)
    return passes


def test_quartic_spectrum_takes_one_quadrature_pass_per_newton_step(monkeypatch):
    # Deterministic work count: with central-difference slopes (three
    # condition evaluations per Newton step) this listing took 88 passes,
    # and 58 with fixed-point seeds (up to seven passes per seed).
    passes = _counting_passes(monkeypatch)
    recs = condition_spectrum(ModelSpec.quartic(2.0), 20.0)
    assert passes[0] <= 42
    assert [r.n for r in recs] == [0, 1, 2, 3, 4]


def test_quartic_spectrum_skips_a_search_whose_coupling_walk_fails():
    # At A = 7.8 an off-axis restart walks its coupling a = A eps into the
    # meeting of two turning points: that search fails alone, and the
    # listing goes on (it used to raise the walk's TraceError).
    recs = condition_spectrum(ModelSpec.quartic(7.8), 60.0)
    assert recs
    assert ladder_problems(recs, lambda e: abs(quartic_condition(e, 7.8))) == []


@pytest.mark.parametrize("A", [-1 + 0j, 1 + 0.5j, np.complex128(-2)], ids=repr)
def test_quartic_spectrum_refuses_a_coupling_before_its_first_seed(A, monkeypatch):
    passes = _counting_passes(monkeypatch)
    with pytest.raises(ValueError, match="real|>= 0"):
        condition_spectrum(ModelSpec.quartic(A), 10.0)
    assert passes[0] == 0


def test_quartic_seed_meets_its_rule_in_at_most_five_passes(monkeypatch):
    passes = _counting_passes(monkeypatch)
    for A in [0.0, 0.01, 0.1, *(0.25 * k for k in range(1, 33)), 3.64, 1 + 0j]:
        model = ModelSpec.quartic(A)
        for n in range(12):
            passes[0] = 0
            eps = _seed_of(n, model)
            assert passes[0] <= 5, (A, n)
            k = (n + 0.5) * PI
            phase = _alone(_phase(model, eps))[0]
            assert abs(k * eps - phase) <= 1e-15 * k * eps, (A, n)


def test_quartic_closeoff_values():
    a_star = quartic_critical_a()
    assert abs(quartic_closeoff(a_star) - 1.0) < 1e-12
    assert abs(quartic_closeoff(2 * a_star) - 2.0 ** (4.0 / 3.0)) < 1e-12
    vals = [quartic_closeoff(a) for a in (0.5, 1.0, 1.5, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def _record_bits(rec):
    return (rec.n, rec.param, rec.method, rec.eps.real.hex(), rec.eps.imag.hex(),
            rec.E.real.hex(), rec.E.imag.hex(), rec.residual.hex())


def _scalar_run(search, answer):
    """Run the generator search alone to its return value, sending it
    answer(x) for each x it yields; an exception of answer is thrown into
    the search at that yield."""
    try:
        x = next(search)
        while True:
            try:
                value = answer(x)
            except Exception as exc:
                x = search.throw(exc)
            else:
                x = search.send(value)
    except StopIteration as stop:
        return stop.value


def _asked(z):
    """A condition that has its driver evaluate it at z: the value sent in."""
    return (yield z)


def _one_by_one(model, e_max, condition="full"):
    """condition_spectrum of model with every seed and root search run
    alone (_scalar_run), one condition evaluation or action pass at a time
    in scalar order, not side by side in _lockstep: a power law's search
    asks the driver for each value of its scaled condition, a quartic's
    for each action pass."""
    from ptspec import asymptotic  # its _scaled_condition and _seed as a test patches them
    _, search, record = _solver(model, condition)

    def solve(n, seed):
        if model.family == "power":
            return record(n, _scalar_run(_seeded_root(seed, _asked),
                                         asymptotic._scaled_condition(model.p, condition)))
        return record(n, _scalar_run(search(seed), _quartic_end_actions))

    def seeds(n):
        return _scalar_run(asymptotic._seed(n, model), _quartic_end_actions)

    return _listed(model, e_max, _seeded(model, e_max, seeds), solve)


def test_quartic_spectra_equal_condition_spectrum_record_for_record():
    # The README-style sweep quartic --range 0:6 --step 0.05 --emax 30: the
    # whole grid solved side by side lists, coupling by coupling, the bits
    # of condition_spectrum, and of modes solved one at a time.
    grid = [0.05 * k for k in range(121)]
    spectra = list(condition_spectra(map(ModelSpec.quartic, grid), 30.0, "full"))
    assert len(spectra) == len(grid)
    for A, recs in zip(grid, spectra):
        got = list(map(_record_bits, recs))
        assert got == list(map(_record_bits, condition_spectrum(ModelSpec.quartic(A), 30.0))), A
        if A in grid[::12]:
            assert got == list(map(_record_bits, _one_by_one(ModelSpec.quartic(A), 30.0))), A


def test_quartic_spectra_raise_where_condition_spectrum_raises(monkeypatch):
    # An action pass that raises what is no SolveError stops the listing:
    # condition_spectrum raises it, and the side-by-side entry raises the
    # same text when it reaches that coupling, after the couplings before
    # it.  Planted at every complex coupling, which at E_max = 60 only the
    # off-axis restarts of A = 7.8 reach, the first at the same a each way.
    from ptspec import action, asymptotic
    plain = action._quartic_end_actions_batch

    def failing(couplings):
        return [RuntimeError(f"planted at a = {a!r}") if complex(a).imag else ends
                for a, ends in zip(couplings, plain(couplings))]

    monkeypatch.setattr(action, "_quartic_end_actions_batch", failing)
    monkeypatch.setattr(asymptotic, "_quartic_end_actions_batch", failing)
    with pytest.raises(RuntimeError, match="planted") as alone:
        condition_spectrum(ModelSpec.quartic(7.8), 60.0)
    spectra = condition_spectra(map(ModelSpec.quartic, [1.0, 7.8, 2.0]), 60.0, "full")
    first = next(spectra)
    assert list(map(_record_bits, first)) == list(map(_record_bits,
                                                      _one_by_one(ModelSpec.quartic(1.0), 60.0)))
    with pytest.raises(RuntimeError) as batched:
        next(spectra)
    assert str(batched.value) == str(alone.value)
    with pytest.raises(RuntimeError) as scalar:
        _one_by_one(ModelSpec.quartic(7.8), 60.0)
    assert str(scalar.value) == str(alone.value)


def test_quartic_spectra_check_every_coupling_first():
    with pytest.raises(ValueError, match=">= 0"):
        condition_spectra(map(ModelSpec.quartic, [1.0, -0.5]), 10.0, "full")
    with pytest.raises(ValueError, match="e_max"):
        condition_spectra([ModelSpec.quartic(1.0)], math.inf, "full")


@pytest.mark.parametrize("condition", ["wkb", "full"])
@pytest.mark.parametrize("grid, e_max", [([1.05 + 0.05 * k for k in range(80)], 30.0),
                                         ([1.01 + 0.01 * k for k in range(150)], 40.0)],
                         ids=["1.05:5", "1.01:2.5"])
def test_condition_spectra_equal_condition_spectrum_record_for_record(grid, e_max, condition):
    # The README bifurcation sweep and the step-0.01 sweep: every p of the
    # grid solved side by side lists the bits of its modes solved one at a
    # time, each search answered in place by the scaled condition.
    models = [ModelSpec.power_law(p) for p in grid]
    spectra = list(condition_spectra(models, e_max, condition))
    assert len(spectra) == len(grid)
    for model, recs in zip(models, spectra):
        got = list(map(_record_bits, recs))
        assert got == list(map(_record_bits, _one_by_one(model, e_max, condition))), model.p
    assert sum(map(len, spectra)) > 4 * len(grid)


def test_condition_spectra_raise_where_condition_spectrum_raises(monkeypatch):
    # A condition that raises what is no SolveError stops the listing: at
    # p = 1.5 it is planted at every off-axis point, which only the complex
    # restarts reach.  condition_spectrum raises it, and the side-by-side
    # entry raises the same text when it reaches that p, after the p
    # before it, as does the scalar-order reference.
    from ptspec import asymptotic
    plain = asymptotic._scaled_condition

    def planted(p, condition):
        scaled = plain(p, condition)

        def failing(eps):
            if eps.imag:
                raise RuntimeError(f"planted at eps = {eps!r}")
            return scaled(eps)

        return failing if p == 1.5 else scaled

    monkeypatch.setattr(asymptotic, "_scaled_condition", planted)
    models = [ModelSpec.power_law(p) for p in (3.0, 1.5, 1.2)]
    with pytest.raises(RuntimeError, match="planted") as alone:
        condition_spectrum(models[1], 30.0)
    spectra = condition_spectra(models, 30.0, "full")
    first = next(spectra)
    assert list(map(_record_bits, first)) == list(map(_record_bits, _one_by_one(models[0], 30.0)))
    with pytest.raises(RuntimeError) as batched:
        next(spectra)
    assert str(batched.value) == str(alone.value)
    with pytest.raises(RuntimeError) as scalar:
        _one_by_one(models[1], 30.0)
    assert str(scalar.value) == str(alone.value)


def test_condition_spectra_check_every_model_first():
    with pytest.raises(ValueError, match="p > 1"):
        condition_spectra([ModelSpec.power_law(2.0), ModelSpec.power_law(1.0)], 10.0, "full")
    with pytest.raises(ValueError, match="only the full"):
        condition_spectra([ModelSpec.power_law(2.0), ModelSpec.quartic(1.0)], 10.0, "wkb")


def test_condition_spectrum_seeds_a_mode_past_its_seed_table_alone(monkeypatch):
    # At p = 2 the seeds sit on the ladder E = 2n + 1, and the table of
    # seeds ends at the mode whose constant-phase seed reaches e_max.  For
    # odd e_max that top seed can round just below e_max, so the listing
    # seeds one more mode, alone: the mode whose seed reaches e_max, with
    # its bits, and its records are still those of every mode solved one
    # at a time.
    from ptspec import asymptotic
    plain, seeded_alone = asymptotic._alone, []

    def alone(lane):
        n = lane.gi_frame.f_locals["n"] if lane.__name__ == "_seed" else None
        out = plain(lane)
        if n is not None:
            seeded_alone.append((n, out))
        return out

    monkeypatch.setattr(asymptotic, "_alone", alone)
    model, past = ModelSpec.power_law(2.0), []
    for e_max in range(1, 40, 2):
        seeded_alone.clear()
        recs = condition_spectrum(model, float(e_max))
        for n, seed in seeded_alone:
            past.append(e_max)
            assert seed.hex() == plain(_seed(n, model)).hex(), (e_max, n)
            below = eps_to_E(plain(_seed(n - 1, model)), 2.0).real
            assert below < e_max <= eps_to_E(seed, 2.0).real, (e_max, n)
        assert list(map(_record_bits, recs)) == list(map(_record_bits,
                                                         _one_by_one(model, e_max))), e_max
    assert 5 in past
    assert [r.E for r in condition_spectrum(model, 5.0)] == pytest.approx([1.0, 3.0, 5.0])


@pytest.mark.parametrize("ps, e_max, planted", [((3.0, 1.5, 1.2), 30.0, (1.5, 4)),
                                                ((3.0, 2.0, 1.2), 5.0, (2.0, 3))],
                         ids=["in the seed table", "past the seed table"])
def test_condition_spectra_raise_where_a_seed_raises(ps, e_max, planted, monkeypatch):
    # A seed that raises stops the listing of its model where a scalar run
    # stops: condition_spectrum raises it, and the side-by-side entry
    # raises the same text when it reaches that model, after the model
    # before it, as does the scalar-order reference.  Mode 3 of p = 2 at
    # e_max 5 lies past the seed table and is seeded alone.
    from ptspec import asymptotic
    plain = asymptotic._seed

    def planted_seed(n, model):
        if (model.p, n) == planted:
            raise RuntimeError(f"planted at n = {n}, p = {model.p}")
        return (yield from plain(n, model))

    monkeypatch.setattr(asymptotic, "_seed", planted_seed)
    models = [ModelSpec.power_law(p) for p in ps]
    with pytest.raises(RuntimeError, match="planted") as alone:
        condition_spectrum(models[1], e_max)
    spectra = condition_spectra(models, e_max, "full")
    first = next(spectra)
    assert first and list(map(_record_bits, first)) == list(map(_record_bits,
                                                                _one_by_one(models[0], e_max)))
    with pytest.raises(RuntimeError) as batched:
        next(spectra)
    assert str(batched.value) == str(alone.value)
    with pytest.raises(RuntimeError) as scalar:
        _one_by_one(models[1], e_max)
    assert str(scalar.value) == str(alone.value)
