"""Independent eigenvalue oracle: Chebyshev collocation on the real axis.

For 1 < p < 4 the real axis lies inside both decay wedges of
-u'' - (i x)^p u = E u, and for the quartic -u'' + (x^4 + i A x) u = E u it
always does, so both spectra are eigenvalues of a plain matrix.  The axis is
cut at x = 0 into two Chebyshev elements on [-L, 0] and [0, L] (the potential
|x|^p has a kink at the origin), with u = 0 at +-L and u, u' continuous at 0.
Each spectrum is solved at two resolutions and only eigenvalues that agree
are kept; their gap is the oracle's own error estimate.

Nothing here imports ptspec.
"""

import math

import numpy as np

#: Chebyshev points per element at the two resolutions.
RESOLUTIONS = (180, 260)

#: Two-resolution gap above which an eigenvalue is discarded as unresolved.
KEEP_GAP = 1e-5

#: An eigenvalue whose imaginary part is within this many gaps of zero is real.
REAL_GAP_FACTOR = 10.0

#: Bender & Boettcher, PRL 80, 5243 (1998): the p = 3 ladder.
PUBLISHED_P3 = (1.156267072, 4.109228752, 7.562273854, 11.314421818)


def _cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix and points x_k = cos(pi k / n)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def _two_element_eigs(potential, half_width: float, n: int) -> np.ndarray:
    """Eigenvalues of -d2/dx2 + V on [-L, L], elements split at x = 0."""
    d, x = _cheb(n)
    d1 = d * (2.0 / half_width)          # on [0, L]; node 0 is x = L, node n is 0
    d2 = d1 @ d1
    y_right = half_width * (1.0 + x) / 2.0
    inner = np.arange(1, n)
    m = n - 1
    # Mirror image for [-L, 0]: same second derivative, first derivative negated.
    # C1 matching at the shared node eliminates u(0):
    #   d1[n] . u_right - (-d1[n]) . u_left = 0.
    c0 = 2.0 * d1[n, n]
    w = -d1[n, inner] / c0               # u(0) = w . (u_right + u_left)
    h = np.zeros((2 * m, 2 * m), dtype=complex)
    lap = -d2[np.ix_(inner, inner)]
    col = -d2[inner, n]
    for off, y in ((0, y_right[inner]), (m, -y_right[inner])):
        blk = slice(off, off + m)
        h[blk, blk] = lap + np.diag(potential(y))
        h[blk, :m] += np.outer(col, w)
        h[blk, m:] += np.outer(col, w)
    return np.linalg.eigvals(h)


def power_potential(p: float):
    """V(x) = -(i x)^p on the principal branch."""
    return lambda y: -np.exp(p * np.log(1j * y.astype(complex)))


def quartic_potential(coupling: float):
    """V(x) = x^4 + i A x."""
    return lambda y: y ** 4 + 1j * coupling * y


def _half_width(family: str, param: float, e_max: float) -> float:
    """Domain half-width: past the turning point by a decay integral of ~20."""
    if family == "power":
        p = param
        decay = math.sin(math.pi * p / 4.0)
        return e_max ** (1.0 / p) + (20.0 * (p / 2.0 + 1.0) / decay) ** (1.0 / (p / 2.0 + 1.0))
    return (e_max + abs(param) ** (4.0 / 3.0)) ** 0.25 + 60.0 ** (1.0 / 3.0)


def spectrum(family: str, param: float, e_max: float):
    """Resolved eigenvalues with 0 < Re E <= e_max and |Im E| <= e_max.

    Returns a list of (E, gap) sorted by (Re E, Im E); gap is the distance
    to the nearest eigenvalue of the other resolution.
    """
    if family == "power" and not 1.0 < param < 4.0:
        raise ValueError("the real axis lies in both wedges only for 1 < p < 4")
    pot = power_potential(param) if family == "power" else quartic_potential(param)
    half = _half_width(family, param, 1.5 * e_max)
    lo, hi = (_two_element_eigs(pot, half, n) for n in RESOLUTIONS)
    out = []
    for e in hi:
        if not (0.0 < e.real <= e_max and abs(e.imag) <= e_max):
            continue
        gap = float(np.min(np.abs(lo - e)))
        if gap <= KEEP_GAP * max(1.0, abs(e)):
            if abs(e.imag) <= REAL_GAP_FACTOR * gap + 1e-10 * abs(e):
                e = complex(e.real, 0.0)
            out.append((complex(e), gap))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def validate() -> list[str]:
    """The oracle against the exact harmonic ladder and the published p = 3 values."""
    out = []
    for e, _ in spectrum("power", 2.0, 20.0):
        n = round((e.real - 1.0) / 2.0)
        if abs(e - (2 * n + 1)) > 1e-9:
            out.append(f"p = 2: {e} is not on the ladder 2n + 1")
    p3 = [e for e, _ in spectrum("power", 3.0, 12.0)]
    if len(p3) != len(PUBLISHED_P3):
        out.append(f"p = 3: {len(p3)} eigenvalues below 12, published {len(PUBLISHED_P3)}")
    for e, want in zip(p3, PUBLISHED_P3):
        if abs(e - want) > 1e-9 * want:
            out.append(f"p = 3: {e.real:.10f}, published {want}")
    return out
