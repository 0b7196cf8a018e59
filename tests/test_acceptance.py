"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Criteria 7 and 10 bound the ground-state gap between the corrected
eigenvalue condition and the exact spectrum at 1e-2; the measured gap there
is the genuine asymptotic error (5e-2 at p = 3, 1e-1 for the quartic), so
those two report FAIL on the lowest mode and the remaining assertions of
each are checked independently.  See the test bodies for the measured
numbers.
"""

import cmath
import math
import time

from ptspec.action import (action_between, action_to_turning_points,
                           quartic_action, quartic_critical_a)
from ptspec.asymptotic import (_off_axis, condition_spectrum,
                               delta_estimate, lowest_branch_path,
                               solve_condition, solve_quartic, wkb_eigenvalue)
from ptspec.geometry import (ModelSpec, path_crosses_cut, seed_directions,
                             trace_matching_path, trace_stokes_line,
                             turning_points, wedge_angles)
from ptspec.shooting import ShootConfig, find_eigen, scan_spectrum
from ptspec.special import recip_gamma
from ptspec.verify import branch_point_prefactor, turning_point_prefactor

PI = math.pi


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_harmonic_anchor():
    t0 = time.time()
    model = ModelSpec.power_law(2.0)
    worst = 0.0
    for n in range(6):
        rec = find_eigen(2 * n + 1.05, model)
        worst = max(worst, abs(rec.E - (2 * n + 1)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    assert _report(1, ok, f"E in {{1..11}} worst |dE|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_action():
    t0 = time.time()
    worst = 0.0
    for p in (1.3, 1.7, 2.5, 3.0, 5.0):
        model = ModelSpec.power_law(p)
        za, _ = turning_points(p)
        phi_a, _ = action_to_turning_points(p)
        worst = max(worst, abs(action_between(0, za, model) - phi_a))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _report(2, ok, f"quadrature vs closed form worst={worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_wkb_equivalence():
    t0 = time.time()
    worst = 0.0
    for p in (2.5, 3.0, 5.0):
        for n in range(5, 16):
            rec = solve_condition(n, p, "wkb")
            want = wkb_eigenvalue(n, p)
            worst = max(worst, abs(rec.E.real - want) / want)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _report(3, ok, f"condition roots vs closed form worst rel={worst:.2e}, "
                          f"{elapsed:.2f}s")


def test_criterion_04_quartic_constants():
    t0 = time.time()
    v0 = quartic_action(0.0).imag
    a_star = quartic_critical_a()
    elapsed = time.time() - t0
    ok = (abs(v0 - 0.87402) <= 1e-4 and abs(a_star - 1.18384) <= 1e-4
          and elapsed < 5.0)
    assert _report(4, ok, f"V(0)={v0:.6f}, a*={a_star:.6f}, {elapsed:.2f}s")


def test_criterion_05_matching_constants():
    t0 = time.time()
    rep = turning_point_prefactor()
    dev_tp = max(abs(e - rep.limit) for e in rep.estimates)
    dev_bp = 0.0
    for p in (1.3, 1.5, 1.7, 2.5, 3.5):
        r = branch_point_prefactor(p)
        want = -recip_gamma(-p) / 2.0 ** (p + 2.0)
        dev_bp = max(dev_bp, abs(r.limit - want),
                     max(abs(e - want) for e in r.estimates))
    elapsed = time.time() - t0
    ok = dev_tp <= 1e-11 and dev_bp <= 1e-9 and elapsed < 1.0
    assert _report(5, ok, f"1/(2pi) dev={dev_tp:.1e}, branch-point dev={dev_bp:.1e}, "
                          f"{elapsed:.2f}s")


def test_criterion_06_broken_region_structure():
    t0 = time.time()
    frozen = {1.9: 16, 1.7: 9, 1.5: 3, 1.3: 1}
    counts = {}
    conj_dev = 0.0
    checked = {}
    for p in (1.9, 1.7, 1.5, 1.3):
        counts[p] = sum(1 for r in condition_spectrum(ModelSpec.power_law(p), 30.0)
                        if not _off_axis(r.eps) and r.E.real <= 30.0 * (1.0 + 1e-12))
        # p = 1.9 lists its first complex roots only above E = 30
        upper = [r.eps for r in condition_spectrum(ModelSpec.power_law(p), 100.0)
                 if _off_axis(r.eps) and r.eps.imag > 0]
        checked[p] = len(upper[:2])
        for z in upper[:2]:
            rec = solve_condition(0, p, "full", seed=z.conjugate())
            conj_dev = max(conj_dev, abs(rec.eps - z.conjugate()) / abs(z))
    ordered = [counts[p] for p in (1.9, 1.7, 1.5, 1.3)]
    elapsed = time.time() - t0
    ok = (counts == frozen
          and all(b <= a for a, b in zip(ordered, ordered[1:]))
          and all(k == 2 for k in checked.values())
          and conj_dev <= 1e-9 and elapsed < 30.0)
    assert _report(6, ok, f"counts={ordered} (frozen {list(frozen.values())}), "
                          f"conjugacy dev={conj_dev:.1e} over "
                          f"{sum(checked.values())} roots, {elapsed:.1f}s")


def test_criterion_07_cross_method_agreement():
    t0 = time.time()
    model = ModelSpec.power_law(3.0)
    rels = []
    for n in range(7):
        full = solve_condition(n, 3.0, "full")
        num = find_eigen(full.E.real, model)
        rels.append(abs(full.E - num.E) / abs(num.E))
    elapsed = time.time() - t0
    monotone = all(b < a for a, b in zip(rels[1:], rels[2:]))
    within = max(rels) <= 1e-2
    ok = within and monotone and elapsed < 60.0
    assert _report(7, ok, "rel dev n=0..6: "
                          + ", ".join(f"{r:.1e}" for r in rels)
                          + f"; monotone(n>=1)={monotone}, {elapsed:.1f}s"), (
        "ground-state gap between the corrected condition and the exact "
        "spectrum is the genuine asymptotic error (~5.4e-2 at n = 0); "
        "n >= 1 all satisfy the 1e-2 bound")


def test_criterion_08_p_to_one_scaling():
    t0 = time.time()
    deltas = [0.5 * 0.82 ** k for k in range(40)]
    recs = lowest_branch_path(deltas)
    assert len(recs) >= 3
    ratios = []
    for rec in recs[-3:]:
        d = rec.param - 1.0
        ratios.append(d / delta_estimate(rec.E.real))
    elapsed = time.time() - t0
    ok = all(0.8 <= r <= 1.25 for r in ratios) and elapsed < 120.0
    assert _report(8, ok, "delta ratios at three smallest delta: "
                          + ", ".join(f"{r:.4f}" for r in ratios)
                          + f", {elapsed:.1f}s")


def test_criterion_09_geometry_regressions():
    t0 = time.time()
    model = ModelSpec.power_law(3.0)
    za, zb = turning_points(3.0)
    th_l, th_r, width = wedge_angles(3.0)
    hit_left = hit_right = False
    max_res = 0.0
    for origin in (za, zb):
        for d in seed_directions(origin, model):
            trace = trace_stokes_line(origin, model, d, max_arclen=25.0)
            assert trace.terminated == "escape"
            max_res = max(max_res, max(trace.residuals))
            ang = cmath.phase(trace.points[-1])
            if abs(ang - th_l) <= width / 2:
                hit_left = True
            if abs(ang - th_r) <= width / 2:
                hit_right = True
    cut_ok = True
    for p in (1.3, 1.5, 1.7, 1.9, 2.5, 3.0, 5.0):
        m = ModelSpec.power_law(p)
        crosses = path_crosses_cut(trace_matching_path(m).points, m)
        cut_ok &= crosses == (p < 2.0)
    elapsed = time.time() - t0
    ok = hit_left and hit_right and max_res <= 1e-8 and cut_ok and elapsed < 10.0
    assert _report(9, ok, f"wedges reached={hit_left and hit_right}, "
                          f"max |Im chi|={max_res:.1e}, cut iff p<2: {cut_ok}, "
                          f"{elapsed:.1f}s")


def test_criterion_10_quartic_bifurcation():
    t0 = time.time()
    cfg = ShootConfig(r_max=5.0, rtol=1e-9)
    rels = {}
    for a_phys in (0.0, 0.5, 1.0):
        model = ModelSpec.quartic(a_phys)
        for n in range(5):
            full = solve_quartic(n, a_phys)
            num = find_eigen(full.E.real, model, cfg)
            rels[(a_phys, n)] = abs(full.E - num.E) / abs(num.E)
    agree = max(rels.values()) <= 1e-2
    # close-off: at coupling 5 the predicted close-off (~6.8) is below
    # E_max = 8 and the low branches are gone from the real spectrum
    low = scan_spectrum(ModelSpec.quartic(0.5), 8.0, cfg)
    high = scan_spectrum(ModelSpec.quartic(5.0), 8.0, cfg)
    low_real = [r for r in low if abs(r.E.imag) < 1e-6]
    high_real = [r for r in high if abs(r.E.imag) < 1e-6]
    closed_off = len(high_real) == 0 and len(low_real) >= 3
    elapsed = time.time() - t0
    worst = max(rels.values())
    worst_hi = max(v for (a, n), v in rels.items() if n >= 2)
    ok = agree and closed_off and elapsed < 120.0
    assert _report(10, ok, f"worst rel={worst:.1e} (n>=2: {worst_hi:.1e}), "
                           f"close-off clears spectrum={closed_off}, "
                           f"{elapsed:.1f}s"), (
        "the 1e-2 bound holds for n >= 2; the ground-state and first-mode "
        "gaps (~1e-1, ~1.4e-2) are the genuine asymptotic error of the "
        "eigenvalue condition")
