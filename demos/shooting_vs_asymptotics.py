"""Three routes to the same spectrum, in the region where they differ.

At p = 1.7 the branch-point correction is active: plain WKB quantisation
predicts an infinite real ladder with the wrong positions, while the
corrected condition tracks the exact (shooting) values to ~1e-3 for the
excited states and knows that the ladder ends after nine levels.  At
integer p the corrected condition degenerates to plain WKB exactly
(the correction weight 1/Gamma(-p) vanishes).

Run:  python demos/shooting_vs_asymptotics.py   (a few seconds)
"""

from ptspec import (ModelSpec, ShootConfig, condition_spectrum, find_eigen,
                    solve_condition, wkb_eigenvalue)

P = 1.7
model = ModelSpec.power_law(P)
cfg = ShootConfig(rtol=1e-9)

print(f"p = {P}: corrected condition vs plain WKB vs shooting")
print(f"{'n':>3s} {'wkb':>11s} {'corrected':>11s} {'shooting':>11s} "
      f"{'|wkb-exact|':>12s} {'|corr-exact|':>13s}")
for n in range(5):
    wkb = wkb_eigenvalue(n, P)
    full = solve_condition(n, P, "full").E.real
    num = find_eigen(full, model, cfg).E.real
    print(f"{n:3d} {wkb:11.6f} {full:11.6f} {num:11.6f} "
          f"{abs(wkb - num):12.2e} {abs(full - num):13.2e}")

levels = [r for r in condition_spectrum(model, 30.0) if r.E.imag == 0]
print(f"\nthe corrected condition terminates the ladder: "
      f"{len(levels)} real levels below E = 30 at p = {P}")
print("plain WKB would continue it forever.")

print("\nat integer p the correction vanishes identically:")
for p in (2.0, 3.0):
    wkb = solve_condition(4, p, "wkb").E.real
    full = solve_condition(4, p, "full").E.real
    print(f"  p = {p}: wkb root {wkb:.10f}, corrected root {full:.10f}")
