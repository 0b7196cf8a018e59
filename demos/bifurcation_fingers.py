"""Why the eigenvalue ladder terminates below p = 2.

The classical WKB condition predicts an infinite real ladder for every p.
The corrected condition carries an extra term weighted by 1/Gamma(-p),
which vanishes at integer p but takes over for 1 < p < 2 and removes all
but finitely many real levels: the bifurcation "fingers" close from the
top.  This script tabulates both conditions across a p sweep and prints
the surviving real levels.

Run:  python demos/bifurcation_fingers.py
"""

from ptspec import (ModelSpec, condition_spectrum, solve_condition,
                    wkb_eigenvalue)

P_SWEEP = (2.5, 2.0, 1.9, 1.7, 1.5, 1.3)
E_MAX = 30.0

print(f"real levels with E <= {E_MAX:g} per the corrected condition")
print(f"{'p':>5s} {'count':>6s}  levels")
for p in P_SWEEP:
    spectrum = condition_spectrum(ModelSpec.power_law(p), E_MAX)
    levels = sorted(r.E.real for r in spectrum if r.E.imag == 0)
    shown = ", ".join(f"{e:7.3f}" for e in levels[:6])
    more = " ..." if len(levels) > 6 else ""
    print(f"{p:5.2f} {len(levels):6d}  {shown}{more}")

print()
print("at p = 2.5 both conditions agree (correction exponentially small):")
print(f"{'n':>3s} {'wkb':>12s} {'corrected':>12s} {'closed form':>12s}")
for n in range(5):
    wkb = solve_condition(n, 2.5, "wkb")
    full = solve_condition(n, 2.5, "full")
    print(f"{n:3d} {wkb.E.real:12.7f} {full.E.real:12.7f} "
          f"{wkb_eigenvalue(n, 2.5):12.7f}")

print()
print("at p = 1.5 only three real levels survive; the next root of the")
print("corrected condition has already moved into the complex plane:")
for n in range(3):
    rec = solve_condition(n, 1.5, "full")
    print(f"  n={n}: E = {rec.E.real:.6f}")
rec = solve_condition(5, 1.5, "full")
print(f"  mode-5 seed converges to E = {rec.E.real:.4f} "
      f"{rec.E.imag:+.4f}i (broken pair)")
