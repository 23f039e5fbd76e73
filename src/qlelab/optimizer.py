"""Minimization of the quasilocal energy over boost parameters.

When the four-vector W = (m_LY, V) is future timelike the infimum of the
lower bound -<T0, W> is attained in closed form at

    T0* = W / sqrt(-<W, W>),    a* = V / sqrt(m_LY^2 - |V|^2),

and the energy at T0* is pinned between sqrt(-<W,W>) and
sqrt(-<W,W>) + C m_LY / sqrt(-<W,W>).  A derivative-free simplex descent
with deterministic restarts cross-checks the closed form and handles the
remaining cases; for spacelike or past-pointing W the lower bound is
unbounded below along boosts toward V, which is reported as a status, not
chased.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import solve_weyl
from .energy import (BoostVector, FourVectorW, bound_constant_C, e_tilde, energy_bounds,
                     momentum_four_vector)
from .errors import InvalidArgumentError, QlelabError
from .initialdata import InitialData, SurfaceData, coordinate_sphere

log = logging.getLogger(__name__)
VALUE_TOL = 1e-8
POINT_TOL = 1e-5
DEFAULT_A_SAMPLES = (
    (0.0, 0.0, 0.0),
    (0.5, 0.0, 0.0),
    (1.0, 1.0, 0.0),
    (0.0, 0.0, 2.0),
)

STATUS_CLOSED_FORM = "closed-form"
STATUS_NUMERIC_ONLY = "numeric-only"
STATUS_UNBOUNDED = "unbounded-below-suspected"


@dataclass(frozen=True)
class InfimumResult:
    status: str
    a_star: np.ndarray
    value: float
    closed_form_value: float | None
    iterations: int
    converged: bool = True


@dataclass(frozen=True)
class SweepRow:
    r: float
    m_ly: float
    V: np.ndarray
    causal: str
    C: float
    inf_numeric: float
    inf_closed: float | None
    eps_max: float
    error: str | None = None


def nelder_mead(f, x0, scale=0.25, value_tol=VALUE_TOL, point_tol=POINT_TOL,
                max_iterations=400, stall_limit=20):
    """Minimal deterministic Nelder-Mead simplex for small dimensions.

    Standard reflection/expansion/contraction/shrink coefficients
    (1, 2, 0.5, 0.5).  Terminates when the value and vertex spreads of the
    simplex fall below the tolerances, or when `stall_limit` consecutive
    iterations improve the best value by less than `value_tol` (flat
    objective), or on max_iterations.
    Returns (x_best, f_best, iterations, converged).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    simplex = [x0]
    for i in range(n):
        e = np.zeros(n)
        e[i] = scale
        simplex.append(x0 + e)
    simplex = np.array(simplex)
    values = np.array([f(x) for x in simplex])

    iterations = 0
    best_seen = values.min()
    stall = 0
    for iterations in range(1, max_iterations + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if (values[-1] - values[0] <= value_tol
                and np.abs(simplex[1:] - simplex[0]).max() <= point_tol):
            return simplex[0], values[0], iterations, True
        if best_seen - values[0] <= value_tol:
            stall += 1
            if stall >= stall_limit:
                return simplex[0], values[0], iterations, True
        else:
            stall = 0
        best_seen = min(best_seen, values[0])
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = f(xr)
        if fr < values[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = f(xc)
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [f(x) for x in simplex[1:]]
    order = np.argsort(values, kind="stable")
    return simplex[order][0], values[order][0], iterations, False


def closed_form_infimum(w: FourVectorW) -> InfimumResult:
    """Infimum over T0 from W alone, when W is future timelike."""
    if w.causal_type == "timelike-future":
        s = np.sqrt(-w.norm_squared)
        a_star = w.V / s
        return InfimumResult(status=STATUS_CLOSED_FORM, a_star=a_star,
                             value=float(s), closed_form_value=float(s),
                             iterations=0)
    status = STATUS_NUMERIC_ONLY if w.causal_type == "null" else STATUS_UNBOUNDED
    return InfimumResult(status=status, a_star=np.zeros(3), value=np.nan,
                         closed_form_value=None, iterations=0)


def numeric_infimum(surface, data: SurfaceData, a0=(0.0, 0.0, 0.0),
                    seed: int = 0) -> InfimumResult:
    """Simplex minimization of a -> E(Sigma, X, T0(a)) = Etilde(a) - <a, V>.

    Restarts from a0, the closed-form direction (when defined), and one
    seeded random point; the best result wins.  When W is future timelike
    the closed-form value is recorded alongside; for spacelike/past W only
    a bounded diagnostic descent is attempted (100 simplex iterations per
    start instead of 400).  A start a0 that is not a finite 3-vector raises
    InvalidArgumentError.
    """
    a0 = BoostVector(a0).a
    w = momentum_four_vector(surface, data)
    closed = closed_form_infimum(w)

    def objective(a):
        return e_tilde(surface, data, a) - a @ w.V

    starts = [a0]
    if closed.status == STATUS_CLOSED_FORM:
        starts.append(closed.a_star)
    elif np.linalg.norm(w.V) > 0.0:
        starts.append(w.V / np.linalg.norm(w.V))
    rng = np.random.default_rng(seed)
    starts.append(rng.uniform(-0.5, 0.5, size=3))

    budget = 400 if closed.status != STATUS_UNBOUNDED else 100
    best = None
    total_iter = 0
    all_converged = True
    for x0 in starts:
        x, fx, it, conv = nelder_mead(objective, x0, max_iterations=budget)
        total_iter += it
        all_converged = all_converged and conv
        if best is None or fx < best[1]:
            best = (x, fx)
    log.debug("numeric_infimum: %d simplex iterations, converged %s", total_iter, all_converged)
    return InfimumResult(status=closed.status, a_star=best[0], value=float(best[1]),
                         closed_form_value=closed.closed_form_value, iterations=total_iter,
                         converged=all_converged and closed.status != STATUS_UNBOUNDED)


def large_sphere_sweep(data: InitialData, radii, grid, a_samples=DEFAULT_A_SAMPLES,
                       seed: int = 0):
    """Energy infima and error indicators on a family of coordinate spheres.

    For each radius: extract surface data, solve the isometric embedding,
    form W_r and C_r, take closed-form and numeric infima, and record

        eps(r) = max over the a-samples of
                 |E(a) + <T0, W_r>| / sqrt(1 + |a|^2),

    the uniform gap of the sandwich estimate.  Per-radius failures (typed
    qlelab errors, singular linear solves) are recorded in the row and the
    sweep continues; other exceptions propagate.  Rows are ordered by r.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidArgumentError("radii must be strictly ascending")
    rows = []
    for r in radii:
        try:
            sd = coordinate_sphere(data, r, grid)
            S = solve_weyl(sd.metric).surface
            w = momentum_four_vector(S, sd)
            C = bound_constant_C(S, sd)
            numeric = numeric_infimum(S, sd, seed=seed)
            eps = 0.0
            for a in a_samples:
                t0 = BoostVector(np.asarray(a, dtype=float))
                E = e_tilde(S, sd, t0.a) - float(t0.a @ w.V)
                lower, _ = energy_bounds(w, C, t0)
                eps = max(eps, abs(E - lower) / t0.time_component)
            rows.append(SweepRow(r=r, m_ly=w.m_ly, V=w.V, causal=w.causal_type,
                                 C=C, inf_numeric=numeric.value,
                                 inf_closed=numeric.closed_form_value,
                                 eps_max=eps))
        except (QlelabError, np.linalg.LinAlgError) as exc:  # per-radius isolation
            error = f"{type(exc).__name__}: {exc}"
            log.info("large_sphere_sweep: radius %g failed: %s", r, error)
            rows.append(SweepRow(r=r, m_ly=np.nan, V=np.full(3, np.nan),
                                 causal="error", C=np.nan, inf_numeric=np.nan,
                                 inf_closed=None, eps_max=np.nan, error=error))
    return rows
