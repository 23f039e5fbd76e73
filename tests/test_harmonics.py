"""Basis-level checks: orthonormality, indexing, analytic derivatives."""

import numpy as np
import pytest

from qlelab.harmonics import real_sh_basis, sh_count, sh_degrees, sh_index
from qlelab.sphere import make_grid


def test_index_layout():
    assert sh_index(0, 0) == 0
    assert sh_index(1, -1) == 1 and sh_index(1, 0) == 2 and sh_index(1, 1) == 3
    assert sh_count(4) == 25
    ls, ms = sh_degrees(3)
    assert ls.size == 16 and ls[-1] == 3 and ms[-1] == 3 and ms[sh_index(2, -2)] == -2


def test_orthonormality_under_quadrature(grid16):
    g = grid16
    gram = g.WY.T @ g.Y
    assert np.abs(gram - np.eye(g.n_coef_work)).max() < 1e-13


def test_low_degree_closed_forms(grid16):
    g = grid16
    z = np.cos(g.theta)
    # Y00, Y10, Y20 against their closed forms.
    assert np.abs(g.Y[:, sh_index(0, 0)] - np.sqrt(1 / (4 * np.pi))).max() < 1e-14
    assert np.abs(g.Y[:, sh_index(1, 0)] - np.sqrt(3 / (4 * np.pi)) * z).max() < 1e-14
    y20 = np.sqrt(5 / (16 * np.pi)) * (3 * z ** 2 - 1)
    assert np.abs(g.Y[:, sh_index(2, 0)] - y20).max() < 1e-14


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("L", [4, 8, 12, 16, 24])
def test_grid_bases_match_evaluation_at_the_nodes(L):
    # make_grid evaluates on the (theta, phi) tensor; evaluating the flat
    # node list must give the same matrices bit for bit.
    g = make_grid(L)
    for got, want in zip((g.Y, g.Yt, g.Yp), real_sh_basis(g.theta, g.phi, g.work_degree)):
        assert _same_bits(got, want)
    assert _same_bits(g.WY, g.weights[:, None] * g.Y)
    # A Fortran-ordered or writable basis would slow or endanger every transform.
    for a in (g.Y, g.Yt, g.Yp, g.WY):
        assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable


@pytest.mark.parametrize("L", [4, 8, 12, 24])
def test_grid_factors_rebuild_the_bases(L):
    # The Weyl normal equations work from the stored colatitude and longitude
    # factors; their products must be the grid bases bit for bit.
    g = make_grid(L)
    for got, f, lon in ((g.Y, g.fY, g.lon), (g.Yt, g.fYt, g.lon), (g.Yp, g.fYp, g.lon_p)):
        assert f.shape == (g.n_theta, g.n_coef_work) and lon.shape == (g.n_phi, g.n_coef_work)
        assert _same_bits(got, (f[:, None] * lon).reshape(g.size, -1))
    for a in (g.fY, g.fYt, g.fYp, g.lon, g.lon_p):
        assert a.flags.c_contiguous and not a.flags.writeable


def test_basis_broadcasts_theta_against_phi():
    L = 7
    th = np.array([0.3, 1.2, 2.9])
    ph = np.array([0.0, 0.7, 2.5, 4.4, 6.1])
    tensor = real_sh_basis(th[:, None], ph[None, :], L)
    flat = real_sh_basis(np.repeat(th, ph.size), np.tile(ph, th.size), L)
    for t, f in zip(tensor, flat):
        assert t.shape == (th.size, ph.size, sh_count(L))
        assert _same_bits(t.reshape(f.shape), f)


def test_make_grid_cache_keys_on_the_integer():
    assert make_grid(np.int64(24)) is make_grid(24)


def test_angular_derivatives_vs_finite_differences():
    # 4th-order stencils at interior angles; analytic matrices must agree.
    rng = np.random.default_rng(11)
    L = 10
    c = rng.standard_normal(sh_count(L))
    th = np.array([0.4, 1.1, 1.9, 2.6])
    ph = np.array([0.2, 1.7, 3.9, 5.6])

    def value(t, p):
        return real_sh_basis(t, p, L)[0] @ c

    h = 1e-3
    d_th = (value(th - 2 * h, ph) - 8 * value(th - h, ph)
            + 8 * value(th + h, ph) - value(th + 2 * h, ph)) / (12 * h)
    d_ph = (value(th, ph - 2 * h) - 8 * value(th, ph - h)
            + 8 * value(th, ph + h) - value(th, ph + 2 * h)) / (12 * h)
    Y, Yt, Yp = real_sh_basis(th, ph, L)
    assert np.abs(Yt @ c - d_th).max() < 1e-8
    assert np.abs(Yp @ c - d_ph).max() < 1e-8


def test_second_derivatives_vs_finite_differences():
    # (f_tt, f_tp, f_pp) from the first-order bases, at every grid node,
    # against 4th-order stencils of the basis evaluated off the grid.
    rng = np.random.default_rng(5)
    g = make_grid(10)
    c = rng.standard_normal(g.n_coef)
    th, ph = g.theta, g.phi

    def value(t, p, k=0):
        return real_sh_basis(t, p, g.band_limit)[k] @ c

    h = 1e-3
    f0 = value(th, ph)
    d_tt = (-value(th - 2 * h, ph) + 16 * value(th - h, ph) - 30 * f0
            + 16 * value(th + h, ph) - value(th + 2 * h, ph)) / (12 * h ** 2)
    d_pp = (-value(th, ph - 2 * h) + 16 * value(th, ph - h) - 30 * f0
            + 16 * value(th, ph + h) - value(th, ph + 2 * h)) / (12 * h ** 2)
    d_tp = (value(th, ph - 2 * h, 1) - 8 * value(th, ph - h, 1)
            + 8 * value(th, ph + h, 1) - value(th, ph + 2 * h, 1)) / (12 * h)
    f_tt, f_tp, f_pp = g.second_derivatives(c)
    assert np.abs(f_tt - d_tt).max() < 1e-7
    assert np.abs(f_tp - d_tp).max() < 1e-7
    assert np.abs(f_pp - d_pp).max() < 1e-7
