"""Isometric embedding of positive-curvature metrics on S^2 into R^3.

Gauss-Newton iteration on the degree-L harmonic coefficients of the
embedding X, driving the pointwise metric mismatch h(X) - h_target to zero.
The residual rows are equilibrated in the orthonormal round frame
(1, 1/sin th, 1/sin^2 th) so pole-adjacent nodes carry comparable weight,
and the whole problem is solved at unit scale (metric divided by
s^2 = area/4pi) so the tolerance is meaningful for spheres of any size.

The solve is continued in the band limit.  When the start does not already
meet the tolerance, the same problem is first solved on the coarse grid
L_c = max(8, L // 2) to a scaled mismatch of 1e-6; each of its steps costs
about 1/15 of a fine one at L = 24 (J^T J grows as L^5, the solve as L^6).
The coarse target is the fine metric resampled through its smooth ambient
form H_ij (`sphere.ambient_coeffs`, truncated, then
`sphere.metric_from_ambient`).  The coarse coefficients, zero-padded (the
flat index l^2 + l + m is the same at every L), start the Gauss-Newton loop
on the fine grid, which then needs 0-1 steps instead of 4-5.  The Brioschi
convexity check, the tolerance and the convergence verdict belong to the
fine grid only; the coarse stage only supplies a starting point, so a
coarse floor above 1e-6 is not an error.

Each step solves the ridged normal equations (J^T J + eps I) d = -J^T r
without forming any block of the (3n, 3 n_coef) Jacobian J
(`_normal_equations`).  Every basis function is a colatitude factor times
a longitude factor (`SphereGrid.fYt`, `.lon`), so J^T J is assembled by sum
factorisation: longitude sums first, in one batched product, then one
product over colatitude per azimuthal order m.  At L = 24 that takes 0.11 s
against 0.41 s for J^T J as rank-k updates, and 0.36 s against 1.70 s at
L = 32 (one BLAS thread).  An `embed` of the (1, 1.3, 1.6) ellipsoid peaks
at about 135 MiB RSS at L = 24 and 323 MiB at L = 32.  At L = 24 one
`solve_weyl` allocates at most 47 MiB (tracemalloc), mostly J^T J and the
longitude sums.

The embedding is unique only up to rigid motions.  The returned surface is
gauge-fixed deterministically: proper orientation (outward normals), center
of mass at the origin, and rotation chosen by orthogonal Procrustes
alignment onto the round reference sphere, which aligns principal axes with
the coordinate axes for ellipsoidal shapes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridMismatchError, InvalidArgumentError, NotConvexError
from .harmonics import sh_degrees
from .sphere import (_SYM, _UPPER, InducedMetric, ScalarField, SphereGrid, ambient_coeffs,
                     ambient_tensor, integrate, make_grid, metric_from_ambient)
from .surfaces import EmbeddedSurface, surface_geometry

log = logging.getLogger(__name__)
DEFAULT_TOL = 1e-9
MAX_NEWTON_STEPS = 50
COARSE_MIN_BAND_LIMIT = 8      # the coarse level is L_c = max(8, L // 2)
COARSE_TOL = 1e-6              # scaled mismatch at which the coarse stage stops


@dataclass(frozen=True)
class WeylSolution:
    """Converged (or best-effort) isometric embedding of a metric."""

    surface: EmbeddedSurface
    residual: float          # sup-norm metric mismatch, raw components
    residual_scaled: float   # same, on the area-normalized metric
    iterations: int
    converged: bool


def embedding_residual(surface: EmbeddedSurface, h: InducedMetric) -> float:
    """Sup-norm of the componentwise difference between X*delta and h."""
    if not surface.grid.compatible(h.grid):
        raise GridMismatchError("surface and metric live on different grids")
    hs = surface.metric
    return float(max(np.abs(hs.tt - h.tt).max(),
                     np.abs(hs.tp - h.tp).max(),
                     np.abs(hs.pp - h.pp).max()))


def _nhat_derivatives(grid: SphereGrid):
    """Analytic derivatives of the unit-sphere embedding up to third order.

    Returns a dict keyed by strings of 't'/'p' (e.g. 'tp' = d_theta d_phi),
    each an (n, 3) array.
    """
    n = grid.nhat()
    t, p = grid.dnhat()
    cot = (grid.cos_theta / grid.sin_theta)[:, None]
    flat = np.array([1.0, 1.0, 0.0])               # drops the z component
    return {"t": t, "p": p, "tt": -n, "tp": cot * p, "pp": -n * flat,
            "ttt": -t, "ttp": -p, "tpp": -t * flat, "ppp": -p}


def metric_gauss_curvature(h: InducedMetric) -> np.ndarray:
    """Gauss curvature of an abstract metric via the Brioschi formula.

    The raw (th, ph) components of h are first converted to the smooth
    ambient tensor H_ij (`sphere.ambient_tensor`).  Chart derivatives of h
    are then reconstructed from spectral derivatives of H_ij and analytic
    derivatives of nhat, and fed to Brioschi.  Spectrally accurate for every
    smooth metric; used as the convexity precondition of the solver.
    """
    g = h.grid
    dn = _nhat_derivatives(g)
    H = ambient_tensor(h)

    # Spectral derivatives of the six smooth entries, as full (n, 3, 3) tensors.
    coef = g.analysis(H[_UPPER])
    H1 = dict(zip(("t", "p"), (d[:, _SYM] for d in g.synth_deriv(coef))))
    H2 = dict(zip(("tt", "tp", "pp"), (d[:, _SYM] for d in g.second_derivatives(coef))))

    def key(*letters):
        """Canonical multi-index: all 't's before all 'p's."""
        joined = "".join(letters)
        return "t" * joined.count("t") + "p" * joined.count("p")

    def h_first(gamma, alpha, beta):
        """d_gamma h_{alpha beta} at the nodes."""
        return (np.einsum("nij,ni,nj->n", H1[gamma], dn[alpha], dn[beta])
                + np.einsum("nij,ni,nj->n", H, dn[key(gamma, alpha)], dn[beta])
                + np.einsum("nij,ni,nj->n", H, dn[alpha], dn[key(gamma, beta)]))

    def h_second(delta, gamma, alpha, beta):
        """d_delta d_gamma h_{alpha beta} at the nodes."""
        dga = dn[key(gamma, alpha)]
        dgb = dn[key(gamma, beta)]
        dda = dn[key(delta, alpha)]
        ddb = dn[key(delta, beta)]
        ddga = dn[key(delta, gamma, alpha)]
        ddgb = dn[key(delta, gamma, beta)]
        d2H = H2[key(delta, gamma)]
        return (np.einsum("nij,ni,nj->n", d2H, dn[alpha], dn[beta])
                + np.einsum("nij,ni,nj->n", H1[gamma], dda, dn[beta])
                + np.einsum("nij,ni,nj->n", H1[gamma], dn[alpha], ddb)
                + np.einsum("nij,ni,nj->n", H1[delta], dga, dn[beta])
                + np.einsum("nij,ni,nj->n", H, ddga, dn[beta])
                + np.einsum("nij,ni,nj->n", H, dga, ddb)
                + np.einsum("nij,ni,nj->n", H1[delta], dn[alpha], dgb)
                + np.einsum("nij,ni,nj->n", H, dda, dgb)
                + np.einsum("nij,ni,nj->n", H, dn[alpha], ddgb))

    E, F, G = h.tt, h.tp, h.pp
    E_u, E_v = h_first("t", "t", "t"), h_first("p", "t", "t")
    F_u, F_v = h_first("t", "t", "p"), h_first("p", "t", "p")
    G_u, G_v = h_first("t", "p", "p"), h_first("p", "p", "p")
    E_vv = h_second("p", "p", "t", "t")
    G_uu = h_second("t", "t", "p", "p")
    F_uv = h_second("t", "p", "t", "p")

    a = -0.5 * E_vv + F_uv - 0.5 * G_uu
    det1 = (a * (E * G - F * F)
            - 0.5 * E_u * ((F_v - 0.5 * G_u) * G - 0.5 * G_v * F)
            + (F_u - 0.5 * E_v) * ((F_v - 0.5 * G_u) * F - 0.5 * G_v * E))
    det2 = (-(0.5 * E_v) * (0.5 * E_v * G - 0.5 * G_u * F)
            + 0.5 * G_u * (0.5 * E_v * F - 0.5 * G_u * E))
    return (det1 - det2) / h.det ** 2


def _gauge_normalize(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Proper orientation, centering, Procrustes alignment to the round sphere.

    Acts on the (n_coef, 3) coefficients: a column sign flip, a shift of the
    l = 0 row and a rotation commute with synthesis, so nothing is re-analysed.
    """
    X = grid.synthesis(coeffs)
    cross = np.cross(*grid.synth_deriv(coeffs))
    volume = grid.weights @ (np.einsum("ni,ni->n", X, cross) / grid.sin_theta)
    flip = np.array([1.0, 1.0, 1.0 if volume >= 0.0 else -1.0])   # outward normals
    coeffs, X = coeffs * flip, X * flip
    dv = grid.weights * np.linalg.norm(cross, axis=1) / grid.sin_theta
    center = (dv @ X) / dv.sum()
    coeffs[0] -= center * np.sqrt(4.0 * np.pi)      # Y_00 = 1/sqrt(4 pi)
    B = ((X - center) * dv[:, None]).T @ grid.nhat()
    U, _, Vt = np.linalg.svd(B)
    Q = (Vt.T * np.array([1.0, 1.0, np.linalg.det(Vt.T @ U.T)])) @ U.T
    return coeffs @ Q.T


def _normal_equations(grid: SphereGrid, Xt: np.ndarray, Xp: np.ndarray,
                      res_vec: np.ndarray, row_w: np.ndarray):
    """J^T J and J^T r of the weighted metric residual, by sum factorisation.

    Columns are ordered (xyz c, coefficient j).  At a node, the Jacobian of
    metric component k (tt, tp, pp) is Q[k,T,c] Yt_j + Q[k,P,c] Yp_j, with Q
    the row weights times the frame derivatives in d(Xt.Xt) = 2 Xt dXt,
    d(Xt.Xp) = Xp dXt + Xt dXp and d(Xp.Xp) = 2 Xp dXp.  The bases factor
    as Yt_j = fYt_j(th) Lam_{m_j}(ph) and Yp_j = fYp_j(th) Lam_{-m_j}(ph),
    Lam_mu = cos(mu ph) for mu >= 0 and sin(|mu| ph) otherwise.  With s, s'
    in (T, P) = (+1, -1), f^T = fYt and f^P = fYp:

        A[(c,j),(d,l)] = sum_th sum_{s,s'} f^s_j f^s'_l G[s, m_j, s', th, cd, m_l],
        G[s, m, s', th, cd, m'] = sum_ph (sum_k Q[k,s,c] Q[k,s',d]) Lam_{s m} Lam_{s' m'}.

    G (c <= d) is one batched product over longitude.  The rows of order m
    are then one product over (s, th) of their colatitude factors with every
    column's, weighted by G at m.  The c > d blocks follow by symmetry;
    J^T r is two products with Yt and Yp.  No Jacobian block is built.
    """
    L, nc, n_theta = grid.band_limit, grid.n_coef, grid.n_theta
    ms = sh_degrees(L)[1]
    zero = np.zeros_like(Xt)
    Q = np.stack([(2.0 * Xt, zero), (Xp, Xt), (zero, 2.0 * Xp)]) * row_w[:, None, :, None]
    rq = np.einsum("kn,ksnc->scn", res_vec, Q)
    rhs = (grid.Yt[:, :nc].T @ rq[0].T + grid.Yp[:, :nc].T @ rq[1].T).T.ravel()

    cs, ds = np.triu_indices(3)
    D = np.einsum("ksnc,kund->sucdn", Q, Q)[:, :, cs, ds].reshape(2, 2, 6, n_theta, -1)
    lam = grid.lon[:, L * L: nc]                      # Lam_mu(ph), mu = -L..L
    lam = np.stack([lam, lam[:, ::-1]])               # [s, ph, mu] = Lam_{s mu}
    G = np.stack([(lam[s].T @ (D[s][..., None] * lam[:, None, None])).transpose(3, 0, 2, 1, 4)
                  for s in range(2)])                 # [s, mu, s', th, cd, mu']
    f = np.stack([grid.fYt[:, :nc], grid.fYp[:, :nc]])
    A = np.zeros((3, nc, 3, nc))
    for m in range(-L, L + 1):
        rows = np.flatnonzero(ms == m)
        R = np.take(G[:, m + L], ms + L, axis=-1)     # [s, s', th, cd, l]
        R *= f[:, :, None]
        R = (R[:, 0] + R[:, 1]).reshape(2 * n_theta, 6 * nc)
        block = (f[:, :, rows].reshape(2 * n_theta, -1).T @ R).reshape(rows.size, 6, nc)
        for p, (c, d) in enumerate(zip(cs, ds)):
            A[c, rows, d] = block[:, p]
    for c, d in zip(cs, ds):
        if c < d:
            A[d, :, c] = A[c, :, d].T
    return A.reshape(3 * nc, 3 * nc), rhs


def _gauss_newton(grid: SphereGrid, target: np.ndarray, coeffs: np.ndarray,
                  tol: float, budget: int):
    """Gauss-Newton on the (n_coef, 3) coefficients of X on `grid`.

    Drives the metric components of X toward `target` (3, n) with a ridged
    normal-equation step and a backtracking line search.  Stops when the
    sup-norm mismatch is <= tol, after `budget` steps, or when the line
    search finds no decrease.  Returns (best sup mismatch, its coefficients,
    steps taken); a budget of 0 only measures the start.
    """
    nc = grid.n_coef
    st = grid.sin_theta
    row_w = np.stack([np.ones_like(st), 1.0 / st, 1.0 / st ** 2])

    def metric_of(c):
        Xt, Xp = grid.synth_deriv(c)
        return Xt, Xp, np.stack([
            np.einsum("ni,ni->n", Xt, Xt),
            np.einsum("ni,ni->n", Xt, Xp),
            np.einsum("ni,ni->n", Xp, Xp),
        ])

    Xt, Xp, comp = metric_of(coeffs)
    res_vec = (comp - target) * row_w
    best = (float(np.abs(comp - target).max()), coeffs)
    objective = float(np.sum(res_vec ** 2))
    steps = 0

    while best[0] > tol and steps < budget:
        A, rhs = _normal_equations(grid, Xt, Xp, res_vec, row_w)
        A[np.diag_indices_from(A)] += 1e-12 * np.trace(A) / A.shape[0]
        delta = -np.linalg.solve(A, rhs).reshape(3, nc).T

        # Backtracking line search on the weighted least-squares objective.
        step = 1.0
        improved = False
        for _ in range(12):
            trial = coeffs + step * delta
            Xt_n, Xp_n, comp_n = metric_of(trial)
            res_n = (comp_n - target) * row_w
            obj_n = float(np.sum(res_n ** 2))
            if obj_n < objective:
                coeffs, Xt, Xp, comp = trial, Xt_n, Xp_n, comp_n
                res_vec, objective = res_n, obj_n
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        steps += 1
        sup = float(np.abs(comp - target).max())
        log.debug("solve_weyl: L=%d iteration %d objective %.3e step %g sup residual %.3e",
                  grid.band_limit, steps, objective, step, sup)
        if sup < best[0]:
            best = (sup, coeffs)
    return best[0], best[1], steps


def solve_weyl(h: InducedMetric, initial_guess: EmbeddedSurface | None = None,
               tol: float = DEFAULT_TOL, max_iterations: int = MAX_NEWTON_STEPS) -> WeylSolution:
    """Find an isometric embedding X of (S^2, h) into R^3.

    Preconditions: the Brioschi Gauss curvature of h must be positive
    everywhere (raises NotConvexError otherwise).  Raises ConvergenceError
    (carrying the best iterate) if the Gauss-Newton iteration fails to bring
    the scale-normalized sup-norm mismatch below `tol` within
    `max_iterations` steps, counted over the coarse and the fine grid.
    `iterations` is the number of Gauss-Newton steps taken.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidArgumentError(f"tol must be a positive finite number, got {tol!r}")
    grid = h.grid
    k_min = float(np.min(metric_gauss_curvature(h)))
    log.debug("solve_weyl: Brioschi min K %.6e", k_min)
    if not k_min > 0.0:                              # NaN fails too
        raise NotConvexError("metric has nonpositive Gauss curvature somewhere")

    area = float(integrate(ScalarField(grid, np.ones(grid.size)), h))
    s = np.sqrt(area / (4.0 * np.pi))
    target = np.stack([h.tt, h.tp, h.pp]) / s ** 2

    if initial_guess is None:
        X = grid.nhat().copy()
    else:
        if not initial_guess.grid.compatible(grid):
            raise GridMismatchError("initial guess grid does not match the metric")
        X = initial_guess.X / s
    coeffs = grid.truncate(grid.analysis(X))

    best = _gauss_newton(grid, target, coeffs, tol, 0)
    coarse_L = max(COARSE_MIN_BAND_LIMIT, grid.band_limit // 2)
    coarse_steps = fine_steps = 0
    if best[0] > tol:
        if coarse_L < grid.band_limit:
            coarse = make_grid(coarse_L)
            hc = metric_from_ambient(coarse, ambient_coeffs(h)[: coarse.n_coef_work])
            _, coarse_best, coarse_steps = _gauss_newton(
                coarse, np.stack([hc.tt, hc.tp, hc.pp]) / s ** 2,
                coeffs[: coarse.n_coef], COARSE_TOL, max_iterations)
            coeffs = np.zeros_like(coeffs)
            coeffs[: coarse.n_coef] = coarse_best
        fine = _gauss_newton(grid, target, coeffs, tol, max_iterations - coarse_steps)
        fine_steps = fine[2]
        best = min(best, fine, key=lambda b: b[0])
    iterations = coarse_steps + fine_steps

    residual_scaled = best[0]
    surface = surface_geometry(grid, coeffs=_gauge_normalize(grid, best[1] * s))
    residual = embedding_residual(surface, h)
    converged = residual_scaled <= tol
    log.info("solve_weyl: %d iterations (%d at L=%d, %d at L=%d), scaled residual %.3e, "
             "converged %s", iterations, coarse_steps, coarse_L, fine_steps,
             grid.band_limit, residual_scaled, converged)
    solution = WeylSolution(surface=surface, residual=residual,
                            residual_scaled=residual_scaled,
                            iterations=iterations, converged=converged)
    if not converged:
        raise ConvergenceError(
            f"solve_weyl: no convergence after {iterations} iterations "
            f"(best scaled residual {residual_scaled:.3e}, tol {tol:.3e})",
            best_residual=residual_scaled, iterations=iterations, best=solution)
    return solution
