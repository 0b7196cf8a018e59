"""Quartic oscillator: condition roots vs shooting, and the close-off line.

The eigenvalue condition 2 exp(2V/eps) cos(2U/eps) + 1 = 0 is driven by the
turning-point action U(a) + i V(a).  V starts at 0.87402 and crosses zero
at the critical coupling a* = 1.18384; once the scaled coupling
a = A E^{-3/4} exceeds a*, branches close off, predicted near
E = (A/a*)^{4/3}.

Run:  python demos/quartic_oscillator.py     (about a minute)
"""

from ptspec import (ModelSpec, ShootConfig, find_eigen, quartic_action,
                    quartic_closeoff, quartic_critical_a, scan_spectrum,
                    solve_quartic)

print("turning-point action U(a) + i V(a):")
for a in (0.0, 0.4, 0.8, 1.1838363, 1.4):
    w = quartic_action(a)
    print(f"  a = {a:7.5f}: U = {w.real:+.6f}  V = {w.imag:+.6f}")
print(f"critical coupling a* = {quartic_critical_a():.6f}")
print()

cfg = ShootConfig(rtol=1e-9)
print("condition roots vs shooting (physical coupling A = 0.5):")
print(f"{'n':>3s} {'condition':>12s} {'shooting':>12s} {'rel gap':>10s}")
for n in range(5):
    full = solve_quartic(n, 0.5)
    num = find_eigen(full.E.real, ModelSpec.quartic(0.5), cfg)
    rel = abs(full.E - num.E) / abs(num.E)
    print(f"{n:3d} {full.E.real:12.6f} {num.E.real:12.6f} {rel:10.2e}")
print("(the lowest modes carry the full asymptotic error ~ 0.1 E^{-3/2})")
print()

print("close-off: real spectrum below E = 8 as the coupling grows")
for a_phys in (0.5, 3.0, 5.0):
    recs = scan_spectrum(ModelSpec.quartic(a_phys), 8.0, cfg)
    real = [f"{r.E.real:.3f}" for r in recs if abs(r.E.imag) < 1e-6]
    print(f"  A = {a_phys}: predicted close-off {quartic_closeoff(a_phys):5.2f}, "
          f"real levels {real or 'none'}")
