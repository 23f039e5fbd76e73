"""Grid, quadrature and intrinsic-operator contracts."""

import numpy as np
import pytest

from qlelab.errors import GridMismatchError, InvalidArgumentError, SingularMetricError
from qlelab.harmonics import sh_count, sh_index
from qlelab.sphere import (InducedMetric, ScalarField, grad_norm_squared, gradient,
                           integrate, laplacian, make_grid, round_metric)
from qlelab.surfaces import ellipsoid
from qlelab.verify import random_band_scalar


def test_make_grid_invariants(grid16):
    g = grid16
    assert abs(g.weights.sum() - 4 * np.pi) <= 1e-12 * 4 * np.pi
    assert g.size >= (16 + 1) * (2 * 16 + 1)
    z = np.cos(g.theta)
    y20 = np.sqrt(5 / (16 * np.pi)) * (3 * z ** 2 - 1)
    assert abs(g.integrate_round(y20 ** 2) - 1.0) <= 1e-12


def test_make_grid_rejects_small_band_limit():
    with pytest.raises(InvalidArgumentError):
        make_grid(3)


def test_quadrature_exactness_vs_dense_oracle():
    # Degree-8 spherical polynomial: L=8 and L=16 agree with each other and
    # with a dense Gauss-Legendre x trapezoid oracle.
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(sh_count(8))
    g8, g16 = make_grid(8), make_grid(16)
    v8 = g8.integrate_round(g8.Y[:, :coef.size] @ coef)
    v16 = g16.integrate_round(g16.Y[:, :coef.size] @ coef)
    assert abs(v8 - v16) <= 1e-12

    from qlelab.harmonics import real_sh_basis
    x, w = np.polynomial.legendre.leggauss(100)
    nphi = 256
    th = np.repeat(np.arccos(x), nphi)
    ph = np.tile(np.arange(nphi) * 2 * np.pi / nphi, 100)
    Y = real_sh_basis(th, ph, 8)[0]
    dense = (np.repeat(w, nphi) * (2 * np.pi / nphi)) @ (Y @ coef)
    assert abs(v8 - dense) <= 1e-12


def test_projection_is_identity_on_band_limited(grid16):
    g = grid16
    f = random_band_scalar(g, np.random.default_rng(2), max_degree=16, amplitude=3.0)
    assert np.abs(g.project(f) - f).max() < 1e-11


def test_integrate_round_sphere_area(grid16):
    g = grid16
    one = ScalarField(g, np.ones(g.size))
    R = 1.7
    assert abs(integrate(one, round_metric(g, R)) - 4 * np.pi * R ** 2) <= 1e-10


def test_integrate_ellipsoid_area_vs_adaptive_oracle(grid16):
    S = ellipsoid(grid16, (1.0, 1.0, 1.1))
    from scipy import integrate as spi

    def element(th, ph):
        # |X_th x X_ph| = a sin(th) sqrt(a^2 cos^2 th + c^2 sin^2 th)
        a, c = 1.0, 1.1
        st, ct = np.sin(th), np.cos(th)
        return a * st * np.sqrt(a * a * ct * ct + c * c * st * st)

    oracle, err = spi.dblquad(element, 0, 2 * np.pi, 0, np.pi, epsabs=1e-12)
    assert err < 1e-9
    one = ScalarField(grid16, np.ones(grid16.size))
    assert abs(integrate(one, S.metric) - oracle) <= 1e-8


def test_integrate_total_mean_curvature_round(grid16):
    # k0 = 2/R constant: int k0 dv = (2/R) 4 pi R^2 = 16 pi at R = 2.
    from qlelab.surfaces import round_sphere
    S = round_sphere(grid16, 2.0)
    assert abs(integrate(S.k0_field, S.metric) - 16 * np.pi) <= 1e-9


def test_integrate_grid_mismatch():
    g1, g2 = make_grid(8), make_grid(12)
    f = ScalarField(g1, np.ones(g1.size))
    with pytest.raises(GridMismatchError):
        integrate(f, round_metric(g2))


def test_gradient_constant_is_zero(grid16):
    g = grid16
    v = gradient(ScalarField(g, np.full(g.size, 3.25)), round_metric(g))
    assert np.abs(v.vth).max() < 1e-10 and np.abs(v.vph).max() < 1e-10


def test_gradient_norm_boost_potential_closed_form(grid16):
    # tau = -<a, X> on the unit round sphere with a = rho e_z:
    # |grad tau|^2 = rho^2 (1 - z^2).
    g = grid16
    rho = 0.8
    z = np.cos(g.theta)
    tau = ScalarField(g, -rho * z)
    gn2 = grad_norm_squared(tau, round_metric(g))
    assert np.abs(gn2 - rho ** 2 * (1 - z ** 2)).max() <= 1e-8


def test_gradient_vs_finite_difference_oracle():
    # Random band-limited f: spectral gradient against 4th-order FD of the
    # basis evaluated at perturbed interior angles.
    from qlelab.harmonics import real_sh_basis
    L = 8
    g = make_grid(L)
    rng = np.random.default_rng(4)
    c = np.zeros(g.n_coef_work)
    c[:sh_count(L)] = rng.standard_normal(sh_count(L))
    f = ScalarField(g, g.synthesis(c))
    v = gradient(f, round_metric(g))

    sel = np.arange(0, g.size, 37)
    th, ph = g.theta[sel], g.phi[sel]

    def value(t, p):
        return real_sh_basis(t, p, g.work_degree)[0] @ c

    h = 1e-3
    d_th = (value(th - 2 * h, ph) - 8 * value(th - h, ph)
            + 8 * value(th + h, ph) - value(th + 2 * h, ph)) / (12 * h)
    d_ph = (value(th, ph - 2 * h) - 8 * value(th, ph - h)
            + 8 * value(th, ph + h) - value(th, ph + 2 * h)) / (12 * h)
    # Round metric: v^th = d_th f, v^ph = d_ph f / sin^2.
    assert np.abs(v.vth[sel] - d_th).max() < 1e-6
    assert np.abs(v.vph[sel] - d_ph / np.sin(th) ** 2).max() < 1e-6


def test_gradient_rejects_degenerate_metric(grid16):
    g = grid16
    tt = np.ones(g.size)
    tt[0] = 0.0
    with pytest.raises(SingularMetricError):
        InducedMetric(g, tt, np.zeros(g.size), g.sin_theta ** 2)


@pytest.mark.parametrize("component", ["tt", "tp", "pp"])
def test_metric_with_a_nan_node_is_singular(grid16, component):
    # NaN compares False both ways, so the positive-definite check fails closed.
    h = round_metric(grid16)
    comps = {name: getattr(h, name).copy() for name in ("tt", "tp", "pp")}
    comps[component][7] = np.nan
    with pytest.raises(SingularMetricError):
        InducedMetric(grid16, **comps)


def test_laplacian_eigenfunction(grid16):
    g = grid16
    z = np.cos(g.theta)
    lap = laplacian(ScalarField(g, z), round_metric(g))
    assert np.abs(lap.values + 2 * z).max() <= 1e-10


def test_laplacian_coordinate_functions_give_mean_curvature(grid16):
    S = ellipsoid(grid16, (1.0, 1.0, 1.1))
    for j in range(3):
        lap = laplacian(ScalarField(grid16, S.X[:, j]), S.metric).values
        assert np.abs(lap + S.k0 * S.normal[:, j]).max() <= 1e-8


def test_laplacian_integrates_to_zero(grid16):
    g = grid16
    f = ScalarField(g, random_band_scalar(g, np.random.default_rng(9), 10, 5.0))
    h = ellipsoid(g, (1.0, 1.05, 1.1)).metric
    assert abs(integrate(laplacian(f, h), h)) <= 1e-10


def test_operator_compatibility_random_fields(grid16):
    g = grid16
    h = ellipsoid(g, (1.0, 1.0, 1.1)).metric
    rng = np.random.default_rng(14)
    for _ in range(3):
        f1 = ScalarField(g, random_band_scalar(g, rng, 8, 10.0))
        f2 = ScalarField(g, random_band_scalar(g, rng, 8, 10.0))
        lhs = integrate(ScalarField(g, f1.values * laplacian(f2, h).values), h)
        rhs = -integrate(ScalarField(g, h.inner(gradient(f1, h), gradient(f2, h))), h)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_scalar_field_rejects_nonfinite(grid16):
    vals = np.ones(grid16.size)
    vals[3] = np.nan
    with pytest.raises(InvalidArgumentError):
        ScalarField(grid16, vals)
