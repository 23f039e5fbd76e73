"""Boost optimization: closed form, simplex descent, sweep contracts."""

import numpy as np
import pytest

from qlelab.energy import (BoostVector, FourVectorW, bound_constant_C, classify_causal,
                           liu_yau_mass, momentum_four_vector, wang_yau_energy)
from qlelab.errors import InvalidArgumentError
from qlelab.initialdata import composite_data, flat_data
from qlelab.optimizer import (closed_form_infimum, large_sphere_sweep, nelder_mead,
                              numeric_infimum)
# Frozen oracle: Brown-York mass of the areal-radius-4 Schwarzschild
# sphere at m = 1, from k = (2/R) sqrt(1 - 2m/R) and k0 = 2/R.
M_BY_AREAL4 = 4.0 - 2.0 * np.sqrt(2.0)


def test_closed_form_rest_frame():
    w = FourVectorW(1.0, np.zeros(3), classify_causal(1.0, np.zeros(3)))
    res = closed_form_infimum(w)
    assert res.status == "closed-form"
    assert np.abs(res.a_star).max() == 0.0 and res.value == 1.0


def test_closed_form_boosted_adm_vector():
    # W = (E, -P) with E = 1, P = 0.3 e_x: inf = sqrt(E^2 - |P|^2) = sqrt(0.91).
    w = FourVectorW(1.0, np.array([-0.3, 0.0, 0.0]), classify_causal(1.0, [-0.3, 0, 0]))
    res = closed_form_infimum(w)
    assert abs(res.value - np.sqrt(0.91)) <= 1e-15
    # a* = V / sqrt(m^2 - |V|^2); T0*(a*) has time component m/sqrt(-<W,W>).
    assert np.abs(res.a_star - np.array([-0.3, 0, 0]) / np.sqrt(0.91)).max() <= 1e-15
    t0 = BoostVector(res.a_star)
    assert abs(t0.time_component - 1.0 / np.sqrt(0.91)) <= 1e-14


def test_closed_form_degenerate_cases():
    w = FourVectorW(0.0, np.array([0.3, 0.0, 0.0]), classify_causal(0.0, [0.3, 0, 0]))
    res = closed_form_infimum(w)
    assert res.status == "unbounded-below-suspected"
    assert res.closed_form_value is None
    w_null = FourVectorW(0.5, np.array([0.5, 0.0, 0.0]), classify_causal(0.5, [0.5, 0, 0]))
    assert closed_form_infimum(w_null).status == "numeric-only"
    w_past = FourVectorW(-1.0, np.zeros(3), classify_causal(-1.0, np.zeros(3)))
    assert closed_form_infimum(w_past).status == "unbounded-below-suspected"


def test_nelder_mead_quadratic():
    target = np.array([0.3, -0.2, 0.1])
    x, fx, _, conv = nelder_mead(lambda v: ((v - target) ** 2).sum(), np.zeros(3))
    assert conv and np.abs(x - target).max() <= 1e-4 and fx <= 1e-8


def test_numeric_infimum_time_symmetric(schw_sphere4):
    S, sd = schw_sphere4
    res = numeric_infimum(S, sd)
    assert res.status == "closed-form"
    assert np.linalg.norm(res.a_star) <= 1e-3
    assert abs(res.value - M_BY_AREAL4) <= 1e-6
    # Band of width C m_LY / sqrt(-<W,W>) above the closed form.
    w = momentum_four_vector(S, sd)
    C = bound_constant_C(S, sd)
    s = np.sqrt(-w.norm_squared)
    assert s - 1e-9 <= res.value <= s + C * w.m_ly / s + 1e-6


def test_numeric_infimum_flat_energy(grid16):
    from qlelab.embedding import solve_weyl
    from qlelab.initialdata import coordinate_sphere

    sd = coordinate_sphere(flat_data(), 10.0, grid16)
    S = solve_weyl(sd.metric).surface
    res = numeric_infimum(S, sd)
    assert abs(res.value) <= 1e-9
    assert res.status in ("numeric-only", "closed-form")


def test_numeric_infimum_composite_band(composite_rows):
    row = composite_rows[-1]   # r = 200
    assert row.causal == "timelike-future"
    s = row.inf_closed
    band = row.C * row.m_ly / s
    assert s - 1e-8 <= row.inf_numeric <= s + band + 1e-6


def test_optimizer_rotation_equivariance(grid16):
    from qlelab.embedding import solve_weyl
    from qlelab.initialdata import coordinate_sphere

    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th), 0.0],
                  [np.sin(th), np.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    P = np.array([0.25, 0.0, 0.0])
    res = {}
    for tag, mom in (("base", P), ("rot", R @ P)):
        sd = coordinate_sphere(composite_data(1.0, mom), 40.0, grid16)
        S = solve_weyl(sd.metric).surface
        res[tag] = numeric_infimum(S, sd)
    assert np.abs(res["rot"].a_star - R @ res["base"].a_star).max() <= 1e-3
    assert abs(res["rot"].value - res["base"].value) <= 1e-6


def test_sweep_rows_and_trends(composite_rows):
    rows = composite_rows
    assert [row.r for row in rows] == [50.0, 100.0, 200.0]
    assert all(row.error is None for row in rows)
    assert all(row.causal == "timelike-future" for row in rows)
    eps = [row.eps_max for row in rows]
    for a, b in zip(eps, eps[1:]):
        assert b <= 1.2 * a
    Cs = [row.C for row in rows]
    for a, b in zip(Cs, Cs[1:]):
        assert b <= 0.75 * a


def test_sweep_flat_rows(grid16):
    rows = large_sphere_sweep(flat_data(), [8.0, 16.0], grid16)
    for row in rows:
        assert abs(row.m_ly) <= 1e-10
        assert abs(row.inf_numeric) <= 1e-8
        assert row.eps_max <= 1e-8


def test_sweep_rejects_unsorted_radii(grid16):
    with pytest.raises(InvalidArgumentError):
        large_sphere_sweep(flat_data(), [10.0, 5.0], grid16)


def test_sweep_records_per_radius_failures(grid16):
    # r = 0.3 is inside the Schwarzschild throat: NotSpacelikeError is
    # captured in the row, the rest of the sweep continues.
    from qlelab.initialdata import schwarzschild_data
    rows = large_sphere_sweep(schwarzschild_data(1.0), [0.3, 10.0], grid16)
    assert rows[0].error is not None and "NotSpacelike" in rows[0].error
    assert rows[1].error is None and np.isfinite(rows[1].inf_numeric)


def test_schwarzschild_sweep_approaches_adm_mass(grid16):
    # m_BY(R) = R (1 - sqrt(1 - 2/R)) = 1 + 1/(2R) + O(R^-2): the infima
    # decrease toward 1 and sit within 0.01 at r = 200.
    from qlelab.initialdata import schwarzschild_data

    rows = large_sphere_sweep(schwarzschild_data(1.0),
                              [25.0, 50.0, 100.0, 200.0], grid16)
    vals = [row.inf_numeric for row in rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > 1.0 for v in vals)
    assert abs(vals[-1] - 1.0) <= 0.01
    # Closed-form oracle at each radius (time symmetric: inf = m_BY).
    for row in rows:
        rho_a = row.r * (1 + 0.5 / row.r) ** 2
        m_by = rho_a * (1.0 - np.sqrt(1.0 - 2.0 / rho_a))
        assert abs(row.inf_numeric - m_by) <= 1e-6


def test_sweep_propagates_programming_errors(grid16, monkeypatch):
    # Only typed qlelab errors are per-radius failures; a bug must surface.
    from qlelab import optimizer

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(optimizer, "coordinate_sphere", broken)
    with pytest.raises(TypeError):
        large_sphere_sweep(flat_data(), [10.0], grid16)


def test_boost_search_is_pointwise_on_a_fixed_surface(grid16, monkeypatch):
    # Once the surface is built, energy and infimum need no spectral
    # transform; the infimum forms W and C at most once, and a sweep radius
    # forms W at most twice (its own and the infimum's) and C once.
    from qlelab import energy, optimizer
    from qlelab.embedding import solve_weyl
    from qlelab.initialdata import coordinate_sphere
    from qlelab.sphere import SphereGrid

    data = composite_data(1.0, (0.25, 0.0, 0.0))
    calls = {"momentum_four_vector": 0, "bound_constant_C": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counted(name, getattr(energy, name))
        monkeypatch.setattr(energy, name, wrapped)
        monkeypatch.setattr(optimizer, name, wrapped)

    (row,) = large_sphere_sweep(data, [40.0], grid16)
    assert row.error is None and np.isfinite(row.eps_max)
    assert calls["momentum_four_vector"] <= 2 and calls["bound_constant_C"] <= 1

    sd = coordinate_sphere(data, 40.0, grid16)
    S = solve_weyl(sd.metric).surface

    def no_transform(*args, **kwargs):
        raise AssertionError("spectral transform on a fixed surface")

    for name in ("analysis", "synthesis", "synth_deriv"):
        monkeypatch.setattr(SphereGrid, name, no_transform)

    rep = wang_yau_energy(S, sd, BoostVector(np.array([0.3, -0.2, 0.5])))
    assert np.isfinite(rep.E)
    calls.update(momentum_four_vector=0, bound_constant_C=0)
    res = numeric_infimum(S, sd)
    assert res.status == "closed-form" and res.converged
    assert calls["momentum_four_vector"] <= 1 and calls["bound_constant_C"] <= 1
