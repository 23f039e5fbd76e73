"""Analytic asymptotically flat initial data and coordinate-sphere extraction.

Families
--------
schwarzschild : isotropic Schwarzschild slice, g_ij = (1 + m/2r)^4 delta_ij,
                p = 0 (time symmetric).
composite     : the same conformally flat metric plus the Bowen-York
                extrinsic curvature with prescribed momentum P.  The pair
                does not solve the momentum constraint at O(mP); it is used
                purely as an analytic family with exactly known ADM charges
                and the correct decay rates.
flat          : Minkowski data (m = 0, p = 0).

`FAMILIES` maps each name to its constructor; the constructor's parameters
are the keys a family takes and hold their defaults.

Conventions
-----------
p is the second fundamental form of the slice, entering the ADM linear
momentum as P_k = (1/16pi) int 2 (p_ik - delta_ik tr p) nu^i dA.  The mean
curvature k of a coordinate sphere is positive for round spheres in flat
space (k = 2/r), nu is the outward g-unit normal, and the norm of the mean
curvature vector is |H| = sqrt(k^2 - (tr_S p)^2).

The normal-bundle connection 1-form in the frame adapted to the mean
curvature direction is

    alpha(Y) = d(theta)(Y) - p(Y, nu),    theta = arctanh(tr_S p / k),

obtained by boosting the (nu, n) frame by the hyperbolic angle theta.  This
expression is validated by two facts fixed independently of any gauge
choice: alpha vanishes identically on time-symmetric data, and the mean of
its dual vector tends to minus the ADM momentum on large spheres.

ADM surface integrals are evaluated with the Euclidean outward normal and
the flat area element; for isotropic Schwarzschild the finite-radius energy
is m (1 + m/2r)^3, converging at O(1/r).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgumentError, NotSpacelikeError, SingularPointError)
from .sphere import InducedMetric, SphereGrid, TangentField, _frozen, make_grid, pullback


def bowen_york_p(momentum):
    """Bowen-York extrinsic curvature evaluator for a given ADM momentum.

        p_ij(x) = 3/(2 r^2) [P_i n_j + P_j n_i - (delta_ij - n_i n_j) <P, n>]

    Trace free with respect to delta; the ADM momentum surface integral of
    this field equals `momentum` exactly at every radius.
    """
    return _BowenYork(_momentum_vector(momentum))


def _momentum_vector(momentum) -> np.ndarray:
    P = np.asarray(momentum, dtype=float)
    if P.shape != (3,) or not np.all(np.isfinite(P)):
        raise InvalidArgumentError(f"momentum must be a finite 3-vector, got {momentum!r}")
    return P


class _BowenYork:
    def __init__(self, P):
        self.momentum = P

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if np.any(r == 0.0):
            raise SingularPointError("Bowen-York field is singular at r = 0")
        n = x / r[..., None]
        Pn = np.einsum("i,...i->...", self.momentum, n)
        eye = np.eye(3)
        nn = n[..., :, None] * n[..., None, :]
        sym = (self.momentum[:, None] * n[..., None, :]
               + self.momentum[None, :] * n[..., :, None])
        return 1.5 / r[..., None, None] ** 2 * (sym - (eye - nn) * Pn[..., None, None])

    def deriv(self, x):
        """d_k p_ij, index order (..., k, i, j)."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if np.any(r == 0.0):
            raise SingularPointError("Bowen-York field is singular at r = 0")
        P = self.momentum
        Px = np.einsum("i,...i->...", P, x)
        eye = np.eye(3)
        r3 = r ** 3
        r5 = r ** 5
        r7 = r ** 7
        # p_ij = 1.5 [ (P_i x_j + P_j x_i - delta_ij <P,x>)/r^3
        #              + x_i x_j <P,x>/r^5 ]
        s = np.zeros(x.shape[:-1] + (3, 3, 3))
        term_a = (P[:, None] * x[..., None, :] + P[None, :] * x[..., :, None]
                  - eye * Px[..., None, None])
        for k in range(3):
            da = (P[:, None] * eye[k][None, :] + P[None, :] * eye[k][:, None]
                  - eye * P[k])
            db = (eye[k][:, None] * x[..., None, :] + x[..., :, None] * eye[k][None, :]) \
                * Px[..., None, None] + x[..., :, None] * x[..., None, :] * P[k]
            s[..., k, :, :] = (da / r3[..., None, None]
                               - 3.0 * x[..., k, None, None] * term_a / r5[..., None, None]
                               + db / r5[..., None, None]
                               - 5.0 * x[..., k, None, None] * x[..., :, None]
                               * x[..., None, :] * Px[..., None, None] / r7[..., None, None])
        return 1.5 * s


@dataclass(frozen=True)
class InitialData:
    """Asymptotically flat (g, p) on an R^3 end, conformally flat families."""

    family: str
    mass: float
    momentum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "momentum", _frozen(self.momentum))

    # -- conformal factor ----------------------------------------------------

    def _psi(self, r):
        return 1.0 + 0.5 * self.mass / r

    def metric(self, x):
        """g_ij at points x, shape (..., 3, 3)."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        psi4 = self._psi(r) ** 4
        return psi4[..., None, None] * np.eye(3)

    def dmetric(self, x):
        """d_k g_ij, index order (..., k, i, j)."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        psi = self._psi(r)
        dpsi = -0.5 * self.mass * x / r[..., None] ** 3      # (..., k)
        fac = 4.0 * psi[..., None] ** 3 * dpsi
        return fac[..., :, None, None] * np.eye(3)

    def d2metric(self, x):
        """d_l d_k g_ij, index order (..., l, k, i, j)."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        psi = self._psi(r)
        dpsi = -0.5 * self.mass * x / r[..., None] ** 3
        eye = np.eye(3)
        d2psi = -0.5 * self.mass * (eye / r[..., None, None] ** 3
                                    - 3.0 * x[..., :, None] * x[..., None, :]
                                    / r[..., None, None] ** 5)
        fac = (12.0 * psi[..., None, None] ** 2 * dpsi[..., :, None] * dpsi[..., None, :]
               + 4.0 * psi[..., None, None] ** 3 * d2psi)
        return fac[..., :, :, None, None] * eye

    def extrinsic(self, x):
        """p_ij at points x: Bowen-York for a nonzero momentum, else zero."""
        x = np.asarray(x, dtype=float)
        if np.any(self.momentum != 0.0):
            return _BowenYork(self.momentum)(x)
        return np.zeros(x.shape[:-1] + (3, 3))

    def dextrinsic(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(self.momentum != 0.0):
            return _BowenYork(self.momentum).deriv(x)
        return np.zeros(x.shape[:-1] + (3, 3, 3))


def schwarzschild_data(mass: float = 1.0) -> InitialData:
    """Time-symmetric isotropic Schwarzschild data; requires a finite mass > 0."""
    if not (np.isfinite(mass) and mass > 0.0):
        raise InvalidArgumentError(f"schwarzschild mass must be positive and finite, got {mass}")
    return InitialData("schwarzschild", float(mass), np.zeros(3))


def composite_data(mass: float = 1.0, momentum=(0.0, 0.0, 0.0)) -> InitialData:
    """Schwarzschild metric plus Bowen-York curvature with momentum P."""
    if not (np.isfinite(mass) and mass >= 0.0):
        raise InvalidArgumentError(f"composite mass must be nonnegative and finite, got {mass}")
    return InitialData("composite", float(mass), _momentum_vector(momentum))


def flat_data() -> InitialData:
    """Minkowski initial data (g = delta, p = 0)."""
    return InitialData("flat", 0.0, np.zeros(3))


FAMILIES = {"schwarzschild": schwarzschild_data, "composite": composite_data, "flat": flat_data}


def data_from_config(cfg: dict) -> InitialData:
    """Build a family from the JSON config block {"family": name, ...}.

    The other keys go to the family's constructor, which holds the defaults;
    a key it does not take is an InvalidArgumentError naming the key.
    """
    if not isinstance(cfg, dict):
        raise InvalidArgumentError("data config must be an object")
    params = dict(cfg)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in FAMILIES:
        raise InvalidArgumentError(f"unknown family {family!r}, expected one of {tuple(FAMILIES)}")
    make = FAMILIES[family]
    extra = set(params) - set(inspect.signature(make).parameters)
    if extra:
        raise InvalidArgumentError(f"family {family!r} does not take {sorted(extra)}")
    return make(**params)


@dataclass(frozen=True)
class SurfaceData:
    """Physical data extracted on a coordinate sphere S_r.

    `alpha` stores the connection 1-form through its metric-dual tangent vector.
    """

    grid: SphereGrid
    metric: InducedMetric
    k: np.ndarray            # mean curvature of S_r in (M, g), outward
    trp: np.ndarray          # tr_{S_r} p
    hnorm: np.ndarray        # |H| = sqrt(k^2 - trp^2)
    alpha: TangentField
    nu: np.ndarray           # (n, 3) outward unit normal components nu^i

    def __post_init__(self):
        for name in ("k", "trp", "hnorm", "nu"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def _sphere_fields(data: InitialData, r: float, grid: SphereGrid):
    """Nodal (g, p, nu, k, tr_S p) on the coordinate sphere |y| = r."""
    if not (np.isfinite(r) and r > 0.0):
        raise InvalidArgumentError(f"radius must be positive and finite, got {r}")
    nhat = grid.nhat()
    x = r * nhat
    g = data.metric(x)
    dg = data.dmetric(x)
    p = data.extrinsic(x)
    ginv = np.linalg.inv(g)

    # Outward unit normal nu^i = g^{ij} n_j / lambda.
    lam = np.sqrt(np.einsum("nij,ni,nj->n", ginv, nhat, nhat))
    nu = np.einsum("nij,nj->ni", ginv, nhat) / lam[:, None]

    # Mean curvature k = div_g(nu) with nu extended as the unit normal field
    # of the coordinate-sphere foliation.
    dn = (np.eye(3)[None] - nhat[:, :, None] * nhat[:, None, :]) / r  # d_i n_j
    dginv = -np.einsum("nia,nkab,nbj->nkij", ginv, dg, ginv)          # d_k g^{ij}
    dlam = (np.einsum("nikl,nk,nl->ni", dginv, nhat, nhat)
            + 2.0 * np.einsum("nkl,nk,nil->ni", ginv, nhat, dn)) / (2.0 * lam[:, None])
    dlogsqrtg = 0.5 * np.einsum("nab,nkab->nk", ginv, dg)
    # d_i nu^i expanded by the product rule:
    term1 = np.einsum("niij,nj->n", dginv, nhat) / lam
    term2 = np.einsum("nij,nij->n", ginv, dn) / lam
    term3 = -np.einsum("nij,nj,ni->n", ginv, nhat, dlam) / lam ** 2
    k = term1 + term2 + term3 + np.einsum("ni,ni->n", nu, dlogsqrtg)

    trp = np.einsum("nij,nij->n", ginv, p) - np.einsum("nij,ni,nj->n", p, nu, nu)
    return g, p, nu, k, trp


def coordinate_sphere(data: InitialData, r: float, grid: SphereGrid) -> SurfaceData:
    """Extract (h_r, k, tr_S p, |H|, alpha, nu) on the coordinate sphere |y| = r.

    Raises NotSpacelikeError unless k > |tr_S p| everywhere (spacelike mean
    curvature vector with outward-positive k).
    """
    g, p, nu, k, trp = _sphere_fields(data, r, grid)

    yt, yp = (r * d for d in grid.dnhat())
    h = pullback(grid, g, yt, yp)

    if np.any(k <= np.abs(trp)):
        raise NotSpacelikeError(
            "coordinate_sphere: |H| <= 0 somewhere (k <= |tr p|); "
            "increase the radius")
    hnorm = np.sqrt(k ** 2 - trp ** 2)

    # alpha(Y) = d(theta)(Y) - p(Y, nu) pulled back to the (th, ph) basis.
    theta_boost = np.arctanh(trp / k)
    dth_t, dth_p = grid.angular_derivatives(theta_boost)
    pnu = np.einsum("nij,nj->ni", p, nu)
    a_t = dth_t - np.einsum("ni,ni->n", pnu, yt)
    a_p = dth_p - np.einsum("ni,ni->n", pnu, yp)
    vth, vph = h.raise_form(a_t, a_p)
    alpha = TangentField(grid, vth, vph)

    return SurfaceData(grid=grid, metric=h, k=k, trp=trp, hnorm=hnorm,
                       alpha=alpha, nu=nu)


def adm_energy(data: InitialData, r: float, grid: SphereGrid | None = None) -> float:
    """Finite-radius ADM energy integral

        E(r) = (1/16pi) int_{S_r} (d_j g_ij - d_i g_jj) n^i r^2 dOmega

    with the Euclidean outward normal and flat measure; E(r) -> E as r grows.
    """
    if grid is None:
        grid = make_grid(8)
    nhat = grid.nhat()
    x = r * nhat
    dg = data.dmetric(x)
    term = np.einsum("njij,ni->n", dg, nhat) - np.einsum("nijj,ni->n", dg, nhat)
    return float(grid.weights @ term) * r ** 2 / (16.0 * np.pi)


def adm_momentum(data: InitialData, r: float, grid: SphereGrid | None = None) -> np.ndarray:
    """Finite-radius ADM linear momentum

        P_k(r) = (1/16pi) int_{S_r} 2 (p_ik - delta_ik p_jj) n^i r^2 dOmega.
    """
    if grid is None:
        grid = make_grid(8)
    nhat = grid.nhat()
    x = r * nhat
    p = data.extrinsic(x)
    tr = np.einsum("njj->n", p)
    integrand = 2.0 * (np.einsum("nik,ni->nk", p, nhat) - tr[:, None] * nhat)
    return (grid.weights @ integrand) * r ** 2 / (16.0 * np.pi)


def decay_constants(data: InitialData, radii=(10.0, 100.0, 1000.0),
                    grid: SphereGrid | None = None) -> dict:
    """Sampled decay norms of (1.8)-(1.9)-type falloff.

    Returns the maxima over the sampled spheres of r|a|, r^2|da|, r^3|dda|,
    r^2|p|, r^3|dp| with a = g - delta.  All finite for the built-in families.
    """
    if grid is None:
        grid = make_grid(8)
    out = {"r_a": 0.0, "r2_da": 0.0, "r3_dda": 0.0, "r2_p": 0.0, "r3_dp": 0.0}
    eye = np.eye(3)
    for r in radii:
        x = r * grid.nhat()
        a = data.metric(x) - eye
        da = data.dmetric(x)
        dda = data.d2metric(x)
        p = data.extrinsic(x)
        dp = data.dextrinsic(x)
        out["r_a"] = max(out["r_a"], r * np.abs(a).max())
        out["r2_da"] = max(out["r2_da"], r ** 2 * np.abs(da).max())
        out["r3_dda"] = max(out["r3_dda"], r ** 3 * np.abs(dda).max())
        out["r2_p"] = max(out["r2_p"], r ** 2 * np.abs(p).max())
        out["r3_dp"] = max(out["r3_dp"], r ** 3 * np.abs(dp).max())
    return out
