"""Weyl solver: identity cases, round trips, gauge, error taxonomy."""

import logging
import tracemalloc

import numpy as np
import pytest

from qlelab import embedding, sphere
from qlelab.embedding import embedding_residual, metric_gauss_curvature, solve_weyl
from qlelab.errors import ConvergenceError, InvalidArgumentError, NotConvexError
from qlelab.sphere import (InducedMetric, ScalarField, ambient_coeffs, integrate, make_grid,
                           metric_from_ambient, round_metric)
from qlelab.surfaces import ellipsoid, harmonic_perturbation, round_sphere


def test_embedding_residual_cases(grid16):
    S1 = round_sphere(grid16, 1.0)
    # Floor set by the spectral round trip of the metric components.
    assert embedding_residual(S1, round_metric(grid16, 1.0)) <= 5e-13
    # h_tt differs by |1.1^2 - 1| = 0.21 and dominates the other components.
    assert abs(embedding_residual(S1, round_metric(grid16, 1.1)) - 0.21) <= 1e-12


def test_round_metric_identity(grid16):
    R = 1.8
    sol = solve_weyl(round_metric(grid16, R))
    assert sol.converged and sol.residual <= 1e-12
    assert np.abs(np.linalg.norm(sol.surface.X, axis=1) - R).max() <= 1e-9


def test_ellipsoid_round_trip(grid16):
    E = ellipsoid(grid16, (1.0, 1.0, 1.1))
    sol = solve_weyl(E.metric)
    assert sol.converged and sol.residual <= 1e-8
    assert abs(sol.surface.area - E.area) <= 1e-8
    k0_int = integrate(sol.surface.k0_field, sol.surface.metric)
    assert abs(k0_int - integrate(E.k0_field, E.metric)) <= 1e-7
    assert abs(sol.surface.k0.min() - E.k0.min()) <= 1e-7
    assert abs(sol.surface.k0.max() - E.k0.max()) <= 1e-7
    # Principal axes aligned with coordinates: recover the ellipsoid nodes.
    assert np.abs(sol.surface.X - E.X).max() <= 1e-7


def test_conformal_perturbation(grid16):
    g = grid16
    z = np.cos(g.theta)
    u = 0.01 * np.sqrt(5 / (16 * np.pi)) * (3 * z ** 2 - 1)
    conf = np.exp(2 * u)
    h = InducedMetric(g, conf, np.zeros(g.size), conf * g.sin_theta ** 2)
    sol = solve_weyl(h, tol=1e-9)
    assert sol.converged and sol.residual_scaled <= 1e-8
    assert sol.surface.convex
    assert embedding_residual(sol.surface, h) <= 1e-8


def test_round_trip_perturbed_surface(grid16):
    S = harmonic_perturbation(grid16, 1.3, {(2, 1): 0.02, (3, 0): 0.015})
    sol = solve_weyl(S.metric)
    assert sol.converged
    assert abs(sol.surface.area - S.area) <= 1e-7
    k0_int = integrate(sol.surface.k0_field, sol.surface.metric)
    assert abs(k0_int - integrate(S.k0_field, S.metric)) <= 1e-7


def test_gauge_determinism(grid16):
    # Triaxial target so the aligned frame is unique; two distinct initial
    # guesses must land on the same gauged surface.
    target = ellipsoid(grid16, (1.0, 1.05, 1.12)).metric
    s1 = solve_weyl(target, initial_guess=round_sphere(grid16, 1.02))
    s2 = solve_weyl(target, initial_guess=harmonic_perturbation(
        grid16, 1.06, {(1, 1): 0.03, (2, 0): -0.01}))
    assert np.abs(s1.surface.X - s2.surface.X).max() <= 1e-7


def test_nonconvex_metric_is_rejected(grid16):
    g = grid16
    z = np.cos(g.theta)
    u = 3.0 * np.sqrt(5 / (16 * np.pi)) * (3 * z ** 2 - 1)
    conf = np.exp(2 * u)
    h = InducedMetric(g, conf, np.zeros(g.size), conf * g.sin_theta ** 2)
    assert metric_gauss_curvature(h).min() <= 0.0
    with pytest.raises(NotConvexError):
        solve_weyl(h)


def test_nan_curvature_minimum_is_not_convex(grid16, monkeypatch):
    monkeypatch.setattr(embedding, "metric_gauss_curvature",
                        lambda h: np.full(h.grid.size, np.nan))
    with pytest.raises(NotConvexError):
        solve_weyl(ellipsoid(grid16, (1.0, 1.0, 1.1)).metric)


def test_brioschi_on_conformal_metric(grid16):
    from qlelab.sphere import laplacian
    g = grid16
    z = np.cos(g.theta)
    u = 0.05 * np.sqrt(5 / (16 * np.pi)) * (3 * z ** 2 - 1)
    conf = np.exp(2 * u)
    h = InducedMetric(g, conf, np.zeros(g.size), conf * g.sin_theta ** 2)
    # K = e^{-2u} (1 - lap_round u) for h = e^{2u} sigma.
    oracle = np.exp(-2 * u) * (1.0 - laplacian(ScalarField(g, u), round_metric(g)).values)
    assert np.abs(metric_gauss_curvature(h) - oracle).max() <= 1e-9


def test_brioschi_on_nonaxisymmetric_metric(grid24):
    # m != 0 terms make h_tp nonzero, so the phi-derivative paths count.
    S = harmonic_perturbation(grid24, 1.3, {(2, 1): 0.02, (3, 0): 0.015, (4, -3): 0.01})
    assert np.abs(metric_gauss_curvature(S.metric) - S.gauss).max() <= 1e-10


def test_weyl_logs_curvature_iterations_and_summary(grid16, caplog):
    caplog.set_level(logging.DEBUG, logger="qlelab.embedding")
    sol = solve_weyl(ellipsoid(grid16, (1.0, 1.0, 1.1)).metric)
    messages = [rec.getMessage() for rec in caplog.records]
    assert sum("Brioschi min K" in m for m in messages) == 1
    steps = [rec for rec in caplog.records if "iteration" in rec.getMessage()
             and rec.levelno == logging.DEBUG]
    assert len(steps) == sol.iterations >= 1
    summary = [rec for rec in caplog.records if rec.levelno == logging.INFO]
    assert len(summary) == 1 and f"{sol.iterations} iterations" in summary[0].getMessage()


def test_no_convergence_carries_best_iterate(grid16):
    E = ellipsoid(grid16, (1.0, 1.0, 1.1))
    with pytest.raises(ConvergenceError) as err:
        solve_weyl(E.metric, tol=1e-15, max_iterations=3)
    assert err.value.best is not None
    assert err.value.best.converged is False
    assert err.value.best_residual == err.value.best.residual_scaled


def test_coarse_target_resamples_band_limited_metric(grid24):
    # For X = r nhat, h_ab = r_a r_b + r^2 sigma_ab, so H = grad r grad r
    # + r^2 (I - nhat nhat).  With r of degree <= 4, H has degree <= 10 and
    # the L_c = 12 grid (work degree 13) resamples it exactly.
    coeffs = {(2, 1): 0.02, (3, 0): 0.015, (4, -3): 0.01, (4, 2): -0.01}
    S = harmonic_perturbation(grid24, 1.3, coeffs)
    coarse = make_grid(12)
    h = harmonic_perturbation(coarse, 1.3, coeffs).metric
    hc = metric_from_ambient(coarse, ambient_coeffs(S.metric)[: coarse.n_coef_work])
    assert np.abs(np.stack([hc.tt - h.tt, hc.tp - h.tp, hc.pp - h.pp])).max() <= 1e-12


def test_weyl_continuation_polishes_in_one_fine_step(grid24, caplog):
    caplog.set_level(logging.DEBUG, logger="qlelab.embedding")
    E = ellipsoid(grid24, (1.0, 1.3, 1.6))
    sol = solve_weyl(E.metric)
    assert np.abs(sol.surface.X - E.X).max() <= 1e-7
    steps = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.DEBUG
             and "iteration" in rec.getMessage()]
    coarse_steps = [m for m in steps if "L=12 iteration" in m]
    assert len(coarse_steps) >= 1 and len(steps) - len(coarse_steps) <= 1


def test_round_metric_never_reaches_the_coarse_grid(grid24, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("make_grid called on the round fast path")
    monkeypatch.setattr(sphere, "make_grid", no_grid)
    monkeypatch.setattr(embedding, "make_grid", no_grid)
    sol = solve_weyl(round_metric(grid24, 1.8))
    assert sol.converged and sol.iterations == 0


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_tolerance_must_be_positive_and_finite(grid16, tol):
    # NaN compares false with everything: a `tol <= 0` test would let it through.
    with pytest.raises(InvalidArgumentError, match="tol"):
        solve_weyl(ellipsoid(grid16, (1.0, 1.0, 1.1)).metric, tol=tol)


@pytest.mark.parametrize("band_limit", [5, 8, 12, 16, 24])
def test_normal_equations_match_the_dense_jacobian(band_limit):
    # Oracle: the full (3n, 3 nc) weighted Jacobian J of the metric residual,
    # rows (tt, tp, pp) x node, columns (xyz, coefficient).
    g = make_grid(band_limit)
    nc = g.n_coef
    Xt, Xp = g.synth_deriv(harmonic_perturbation(
        g, 1.0, {(2, 1): 0.03, (3, -2): 0.02, (4, 3): 0.015}).coeffs)
    rng = np.random.default_rng(band_limit)
    res = rng.standard_normal((3, g.size))
    row_w = np.stack([np.ones(g.size), 1.0 / g.sin_theta, 1.0 / g.sin_theta ** 2])
    Yt, Yp = g.Yt[:, :nc], g.Yp[:, :nc]
    blocks = (2.0 * np.einsum("nj,nc->njc", Xt, Yt),
              np.einsum("nj,nc->njc", Xt, Yp) + np.einsum("nj,nc->njc", Xp, Yt),
              2.0 * np.einsum("nj,nc->njc", Xp, Yp))
    J = np.concatenate([(b * w[:, None, None]).reshape(g.size, 3 * nc)
                        for b, w in zip(blocks, row_w)])
    A, rhs = embedding._normal_equations(g, Xt, Xp, res, row_w)
    A_dense, rhs_dense = J.T @ J, J.T @ res.reshape(-1)
    assert np.abs(A - A_dense).max() <= 1e-13 * np.abs(A_dense).max()
    assert np.abs(rhs - rhs_dense).max() <= 1e-13 * np.abs(rhs_dense).max()


def test_weyl_step_peak_memory(grid24):
    # The dense (3n, 3 nc) Jacobian alone is 60 MB at L = 24, and a solve that
    # builds it peaks near 171 MiB; one (n, 3 nc) block at a time peaked near
    # 75.  The sum-factorised assembly builds no block and peaks near 47:
    # J^T J (27 MiB) and the longitude sums G (12 MiB).
    h = ellipsoid(grid24, (1.0, 1.3, 1.6)).metric
    tracemalloc.start()
    try:
        sol = solve_weyl(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged and sol.iterations >= 1
    assert peak <= 60 * 2 ** 20
