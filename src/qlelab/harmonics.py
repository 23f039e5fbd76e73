"""Real spherical harmonic bases with analytic angular derivatives.

Conventions
-----------
Orthonormal real harmonics on the unit sphere (Condon-Shortley phase kept
inside the normalized associated Legendre functions):

    Y_{l,0}  = Pbar_l^0(cos th)
    Y_{l,m}  = sqrt(2) Pbar_l^m(cos th) cos(m ph),   m > 0
    Y_{l,-m} = sqrt(2) Pbar_l^m(cos th) sin(m ph),   m > 0

with int Y_{lm} Y_{l'm'} dOmega = delta delta.  Coefficients are stored in
a flat vector ordered by l ascending and m from -l to l:

    index(l, m) = l*l + l + m.

Pbar_l^m is computed by the standard stable three-term recurrence; the
colatitude derivative uses

    d(Pbar_l^m)/dth = [ l x Pbar_l^m
                        - sqrt((l^2-m^2)(2l+1)/(2l-1)) Pbar_{l-1}^m ] / sin th,

valid away from the poles (all grids in this package use Gauss-Legendre
nodes, which exclude the poles).
"""

from __future__ import annotations

import numpy as np


def sh_index(l: int, m: int) -> int:
    """Flat index of the (l, m) real harmonic, l ascending, m in [-l, l]."""
    return l * l + l + m


def sh_count(band_limit: int) -> int:
    """Number of real harmonics with degree <= band_limit."""
    return (band_limit + 1) ** 2


def sh_degrees(band_limit: int):
    """Arrays (l, m) aligned with the flat coefficient ordering."""
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(band_limit + 1)])
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(band_limit + 1)])
    return ls, ms


def _legendre_tables(band_limit, x, sin_th):
    """Normalized associated Legendre Pbar_l^m and th-derivatives at x = cos th.

    Returns dicts keyed by m >= 0 holding arrays of shape
    (band_limit + 1 - m, npts): rows are l = m .. band_limit.
    """
    L = band_limit
    p = {}
    dp = {}
    # Diagonal Pbar_m^m by upward recurrence.
    pmm = np.full_like(x, np.sqrt(1.0 / (4.0 * np.pi)))
    for m in range(L + 1):
        rows = np.empty((L + 1 - m, x.size))
        rows[0] = pmm
        if m + 1 <= L:
            rows[1] = x * np.sqrt(2.0 * m + 3.0) * pmm
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            rows[l - m] = a * (x * rows[l - m - 1] - b * rows[l - m - 2])
        p[m] = rows

        drows = np.empty_like(rows)
        for l in range(m, L + 1):
            if l == m:
                low = 0.0
            else:
                low = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) * rows[l - 1 - m]
            drows[l - m] = (l * x * rows[l - m] - low) / sin_th
        dp[m] = drows

        # Seed the next diagonal: Pbar_{m+1}^{m+1}.
        pmm = pmm * sin_th * np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0))
    return p, dp


def real_sh_basis(theta, phi, band_limit):
    """Evaluate the real harmonic basis and its first angular derivatives.

    Args:
        theta, phi: 1-d arrays of equal length; theta strictly inside (0, pi).
        band_limit: maximum degree L.

    Returns:
        (Y, dY_dtheta, dY_dphi), each (npts, (L+1)^2).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x = np.cos(theta)
    st = np.sin(theta)
    if np.any(st <= 0.0):
        raise ValueError("basis evaluation requires 0 < theta < pi")
    L = band_limit
    n = theta.size
    ncoef = sh_count(L)
    Y = np.empty((n, ncoef))
    Yt = np.empty((n, ncoef))
    Yp = np.empty((n, ncoef))

    p, dp = _legendre_tables(L, x, st)
    sqrt2 = np.sqrt(2.0)
    cosm = {m: np.cos(m * phi) for m in range(L + 1)}
    sinm = {m: np.sin(m * phi) for m in range(L + 1)}
    for l in range(L + 1):
        for m in range(0, l + 1):
            pl = p[m][l - m]
            dpl = dp[m][l - m]
            if m == 0:
                j = sh_index(l, 0)
                Y[:, j] = pl
                Yt[:, j] = dpl
                Yp[:, j] = 0.0
            else:
                jc = sh_index(l, m)
                js = sh_index(l, -m)
                Y[:, jc] = sqrt2 * pl * cosm[m]
                Y[:, js] = sqrt2 * pl * sinm[m]
                Yt[:, jc] = sqrt2 * dpl * cosm[m]
                Yt[:, js] = sqrt2 * dpl * sinm[m]
                Yp[:, jc] = -m * sqrt2 * pl * sinm[m]
                Yp[:, js] = m * sqrt2 * pl * cosm[m]
    return Y, Yt, Yp
