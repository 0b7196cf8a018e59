"""Self-test of the checker: planted errors must each be reported.

    python3 perfbench/selftest.py

Also validates the oracle against the exact harmonic ladder and the
published p = 3 eigenvalues.  run.py runs the planted-error part before
every benchmark run.
"""

import sys

import numpy as np

import checks


def planted_errors() -> list[tuple[str, bool]]:
    """(name, flagged) for each planted error, plus clean controls that must
    pass (flagged is then True when the clean input passed)."""
    p = 3.0
    ladder = [(n, complex(checks.wkb_ladder(n, p))) for n in range(6)]
    oracle = [(complex(2 * n + 1), 1e-12) for n in range(6)]
    found = [e for e, _ in oracle]
    tol = checks.match_tol(oracle[2][0], oracle[2][1])
    shifted = list(found)
    shifted[2] += 10.0 * tol
    pair = [(0, 1.0 + 0j), (1, 2.0 + 0.5j), (2, 2.0 - 0.5j)]
    any_root = lambda e: 0.0

    def match_fails(values):
        _, missed, spurious = checks.match_records(values, oracle)
        return bool(missed or spurious)

    t = np.linspace(1e-3, 1.0, 200)
    line = -1j * t                                   # q = 1: chi = 2t, real
    bent = line.copy()
    bent[120:] += 1e-3
    flat = lambda z: np.ones_like(z)
    return [
        ("clean spectrum matches", not match_fails(found)),
        ("root shifted by 10x tolerance", match_fails(shifted)),
        ("polish shifted by 10x tolerance",
         checks.polish_problem(found[2] + 10.0 * tol, 2, oracle) is not None),
        ("clean ladder passes", not checks.wkb_problems(ladder, p)),
        ("ladder root shifted by 10x tolerance",
         bool(checks.wkb_problems([(n, e * (1 + 10 * checks.LADDER_TOL) if n == 3 else e)
                                   for n, e in ladder], p))),
        ("duplicated root", bool(checks.ladder_problems(ladder + [(6, ladder[2][1])], any_root))),
        ("duplicated root in a spectrum", match_fails(found + [found[3]])),
        ("clean conjugate pair passes", not checks.ladder_problems(pair, any_root)),
        ("dropped conjugate", bool(checks.ladder_problems(pair[:2], any_root))),
        ("clean Stokes line passes", not checks.stokes_line_problems(0j, line, 2 * t + 0j, flat, False)),
        ("Stokes line off Im chi = 0", bool(checks.stokes_line_problems(0j, bent, 2 * t + 0j, flat, False))),
    ]


def main() -> int:
    import oracle
    bad = 0
    for name, flagged in planted_errors():
        bad += not flagged
        print(f"{'ok  ' if flagged else 'MISS'}  {name}")
    for problem in oracle.validate():
        bad += 1
        print(f"ORACLE  {problem}")
    print("checker self-test " + ("passed" if not bad else f"FAILED ({bad})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
