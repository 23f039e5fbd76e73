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

Every basis function is a colatitude factor times a longitude factor
(`real_sh_factors`), so `real_sh_basis` broadcasts theta against phi: on a
tensor grid (theta of shape (n_theta, 1), phi of shape (1, n_phi)) the
recurrence runs once per distinct colatitude and the bases are three
broadcast products.  Scattered points are two 1-d arrays of equal length.
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

    Returns two arrays of shape (band_limit + 1, band_limit + 1, npts),
    indexed [m, l] and zero where l < m.
    """
    L = band_limit
    p = np.zeros((L + 1, L + 1, x.size))
    dp = np.zeros_like(p)
    # Diagonal Pbar_m^m by upward recurrence.
    pmm = np.full_like(x, np.sqrt(1.0 / (4.0 * np.pi)))
    for m in range(L + 1):
        rows = p[m, m:]
        rows[0] = pmm
        if m + 1 <= L:
            rows[1] = x * np.sqrt(2.0 * m + 3.0) * pmm
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            rows[l - m] = a * (x * rows[l - m - 1] - b * rows[l - m - 2])

        ls = np.arange(m, L + 1)[:, None]
        c = np.sqrt((ls ** 2 - m * m) * (2.0 * ls + 1.0) / (2.0 * ls - 1.0))
        low = np.zeros_like(rows)
        low[1:] = c[1:] * rows[:-1]
        dp[m, m:] = (ls * x * rows - low) / sin_th

        # Seed the next diagonal: Pbar_{m+1}^{m+1}.
        pmm = pmm * sin_th * np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0))
    return p, dp


def real_sh_factors(theta, phi, band_limit):
    """Colatitude and longitude factors of the real harmonic basis.

    Basis function j = (l, m) and its derivatives are products

        Y_j = fY_j(th) lon_j(ph),  dY_j/dth = fYt_j(th) lon_j(ph),
        dY_j/dph = fYp_j(th) lon_p_j(ph),

    with lon_j = Lam_m and lon_p_j = Lam_{-m}, where Lam_mu(ph) is
    cos(mu ph) for mu >= 0 and sin(|mu| ph) for mu < 0.

    Args:
        theta: colatitudes of any shape, strictly inside (0, pi); the
            Legendre recurrence runs once per entry.
        phi: longitudes of any shape.
        band_limit: maximum degree L.

    Returns:
        (fY, fYt, fYp), each theta.shape + ((L+1)^2,), and (lon, lon_p),
        each phi.shape + ((L+1)^2,).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x = np.cos(theta).ravel()
    st = np.sin(theta).ravel()
    if np.any(st <= 0.0):
        raise ValueError("basis evaluation requires 0 < theta < pi")
    L = band_limit
    ls, ms = sh_degrees(L)
    am = np.abs(ms)

    # Colatitude factors.
    p, dp = _legendre_tables(L, x, st)
    sqrt2 = np.sqrt(2.0)
    # C order here makes the broadcast products of the factors C-contiguous.
    P, dP = (np.ascontiguousarray(t[am, ls].T).reshape(theta.shape + (-1,)) for t in (p, dp))
    scale = np.where(ms == 0, 1.0, sqrt2)
    fY, fYt = scale * P, scale * dP
    fYp = np.where(ms == 0, 0.0, -ms * sqrt2 * P)

    # Longitude factors: 1 for m = 0, else cos or sin.
    mphi = np.arange(L + 1) * phi[..., None]
    cosm, sinm = (np.take(f(mphi), am, axis=-1) for f in (np.cos, np.sin))
    lon = np.where(ms < 0, sinm, cosm)
    lon_p = np.where(ms > 0, sinm, cosm)
    return fY, fYt, fYp, lon, lon_p


def real_sh_basis(theta, phi, band_limit):
    """Evaluate the real harmonic basis and its first angular derivatives.

    Args:
        theta, phi: arrays that broadcast against each other, theta strictly
            inside (0, pi): two 1-d arrays of equal length for scattered
            points, or shapes (n_theta, 1) and (1, n_phi) for a tensor grid,
            where the Legendre recurrence then runs once per colatitude.
        band_limit: maximum degree L.

    Returns:
        (Y, dY_dtheta, dY_dphi), each broadcast(theta, phi).shape + ((L+1)^2,).
    """
    fY, fYt, fYp, lon, lon_p = real_sh_factors(theta, phi, band_limit)
    return fY * lon, fYt * lon, fYp * lon_p
