"""Initial-data families: closed forms, decay, ADM charges, connection form."""

import numpy as np
import pytest

from qlelab.errors import InvalidArgumentError, NotSpacelikeError, SingularPointError
from qlelab.initialdata import (adm_energy, adm_momentum, bowen_york_p, composite_data,
                                coordinate_sphere, data_from_config, decay_constants,
                                flat_data, schwarzschild_data)
from qlelab.sphere import ScalarField, integrate, make_grid


def schwarzschild_k(m, r):
    """Mean curvature of the isotropic coordinate sphere, closed form."""
    psi = 1.0 + 0.5 * m / r
    return 2.0 * (1.0 - 0.5 * m / r) / (r * psi ** 3)


def test_schwarzschild_metric_value():
    data = schwarzschild_data(1.0)
    g = data.metric(np.array([[10.0, 0.0, 0.0]]))[0]
    assert abs(g[0, 0] - 1.21550625) <= 1e-14          # (1.05)^4 exactly
    assert abs(g[0, 1]) == 0.0
    assert np.abs(data.extrinsic(np.array([[3.0, 4.0, 0.0]]))).max() == 0.0


def test_schwarzschild_requires_positive_mass():
    with pytest.raises(InvalidArgumentError):
        schwarzschild_data(0.0)
    with pytest.raises(InvalidArgumentError):
        schwarzschild_data(-1.0)


def test_schwarzschild_decay_bound():
    # (1 + m/2r)^4 - 1 ~ 2m/r, so r |a| stays below 4m (1 + o(1)).
    m = 1.0
    vals = decay_constants(schwarzschild_data(m))
    assert vals["r_a"] <= 4.0 * m * 1.2
    assert all(np.isfinite(v) for v in vals.values())


def test_metric_derivatives_vs_finite_differences():
    data = composite_data(1.0, (0.3, -0.1, 0.2))
    x0 = np.array([[2.1, -1.3, 0.7]])
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd_g = (data.metric(x0 + e) - data.metric(x0 - e)) / (2 * h)
        assert np.abs(data.dmetric(x0)[0, k] - fd_g[0]).max() <= 1e-8
        fd_dg = (data.dmetric(x0 + e) - data.dmetric(x0 - e)) / (2 * h)
        assert np.abs(data.d2metric(x0)[0, k] - fd_dg[0]).max() <= 1e-7
        fd_p = (data.extrinsic(x0 + e) - data.extrinsic(x0 - e)) / (2 * h)
        assert np.abs(data.dextrinsic(x0)[0, k] - fd_p[0]).max() <= 1e-8


def test_bowen_york_properties():
    P = np.array([0.3, 0.0, 0.0])
    by = bowen_york_p(P)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 3)) * 5.0
    p = by(pts)
    assert np.abs(np.einsum("nii->n", p)).max() <= 1e-14
    assert np.abs(p - p.transpose(0, 2, 1)).max() == 0.0
    assert np.abs(bowen_york_p((0.0, 0.0, 0.0))(pts)).max() == 0.0
    with pytest.raises(SingularPointError):
        by(np.zeros((1, 3)))


def test_adm_momentum_exact_and_radius_independent():
    P = np.array([0.3, 0.0, 0.0])
    data = composite_data(1.0, P)
    assert np.abs(adm_momentum(data, 50.0) - P).max() <= 1e-10
    assert np.abs(adm_momentum(data, 123.0) - P).max() <= 1e-10
    P2 = np.array([0.1, 0.2, -0.2])
    data2 = composite_data(1.0, P2)
    assert np.abs(adm_momentum(data2, 50.0) - P2).max() <= 1e-10
    assert np.abs(adm_momentum(schwarzschild_data(1.0), 50.0)).max() <= 1e-14


def test_adm_energy_convergence():
    data = schwarzschild_data(1.0)
    errs = [abs(adm_energy(data, r) - 1.0) for r in (250.0, 500.0, 1000.0)]
    assert errs[-1] <= 2e-3
    for a, b in zip(errs, errs[1:]):
        assert abs(b / a - 0.5) <= 0.1
    assert abs(adm_energy(flat_data(), 100.0)) <= 1e-12
    # Bowen-York curvature does not change the metric, hence not the energy.
    assert adm_energy(composite_data(1.0, (0.5, 0, 0)), 100.0) == adm_energy(data, 100.0)


def test_coordinate_sphere_closed_form(grid16):
    m = 1.0
    for r in (5.0, 10.0):
        sd = coordinate_sphere(schwarzschild_data(m), r, grid16)
        assert np.abs(sd.k - schwarzschild_k(m, r)).max() <= 1e-8
        rho_a = r * (1 + 0.5 * m / r) ** 2
        assert np.abs(sd.metric.tt - rho_a ** 2).max() <= 1e-10 * rho_a ** 2
        assert np.abs(sd.hnorm ** 2 + sd.trp ** 2 - sd.k ** 2).max() <= 1e-10
        assert np.abs(sd.alpha.vth).max() == 0.0 and np.abs(sd.alpha.vph).max() == 0.0


def test_coordinate_sphere_k_sign_convention(grid16):
    sd = coordinate_sphere(flat_data(), 4.0, grid16)
    assert np.abs(sd.k - 0.5).max() <= 1e-12


def test_coordinate_sphere_normal_decay(grid16):
    # nu^i = y^i/r + O(1/r): r * sup|nu - nhat| bounded across radii.
    data = composite_data(1.0, (0.3, 0.0, 0.0))
    nhat = grid16.nhat()
    bounds = []
    for r in (10.0, 40.0, 160.0):
        sd = coordinate_sphere(data, r, grid16)
        bounds.append(r * np.abs(sd.nu - nhat).max())
    assert max(bounds) <= 2.0 * min(1.1 * bounds[0], max(bounds))
    assert all(np.isfinite(b) for b in bounds)


def test_coordinate_sphere_trp_decay(grid16):
    data = composite_data(1.0, (0.3, 0.0, 0.0))
    sups = []
    for r in (50.0, 100.0, 200.0):
        sd = coordinate_sphere(data, r, grid16)
        sups.append(np.abs(sd.trp).max() * r ** 2)
    assert max(sups) <= 1.5   # tr p = O(r^-2) with constant ~ 3|P|
    assert max(sups) / min(sups) <= 1.2


def test_not_spacelike_raises(grid16):
    # Deep inside the Schwarzschild throat k flips sign (r < m/2).
    with pytest.raises(NotSpacelikeError):
        coordinate_sphere(schwarzschild_data(1.0), 0.3, grid16)


def test_connection_form_gauge_shift(grid16):
    # d(const) = 0 exactly in the spectral derivative, so shifting the boost
    # angle by a constant cannot change alpha.
    g = grid16
    const = np.full(g.size, 0.37)
    dt, dp = g.angular_derivatives(const)
    assert np.abs(dt).max() <= 1e-12 and np.abs(dp).max() <= 1e-12
    v = coordinate_sphere(composite_data(1.0, (0.3, 0, 0)), 50.0, grid16).alpha
    assert np.all(np.isfinite(v.vth)) and np.all(np.isfinite(v.vph))


def test_liu_yau_brown_york_difference_identity(grid16):
    # (1/8pi) int (k - |H|) = (1/8pi) int trp^2/(k + |H|), pointwise identity.
    data = composite_data(1.0, (0.3, 0.0, 0.0))
    sd = coordinate_sphere(data, 100.0, grid16)
    lhs = integrate(ScalarField(grid16, sd.k - sd.hnorm), sd.metric) / (8 * np.pi)
    rhs = integrate(ScalarField(grid16, sd.trp ** 2 / (sd.k + sd.hnorm)),
                    sd.metric) / (8 * np.pi)
    assert abs(lhs - rhs) <= 1e-10


def test_liu_yau_brown_york_gap_rate(grid16):
    # int (k - |H|) dv_r = O(1/r): halves (within a factor 2) per doubling.
    data = composite_data(1.0, (0.3, 0.0, 0.0))
    gaps = []
    for r in (50.0, 100.0, 200.0):
        sd = coordinate_sphere(data, r, grid16)
        gaps.append(integrate(ScalarField(grid16, sd.k - sd.hnorm), sd.metric))
    for a, b in zip(gaps, gaps[1:]):
        assert 0.25 <= b / a <= 1.0


def test_family_config_parsing():
    d = data_from_config({"family": "composite", "mass": 2.0, "momentum": [0, 0.1, 0]})
    assert d.family == "composite" and d.mass == 2.0
    assert data_from_config({"family": "flat"}).mass == 0.0
    with pytest.raises(InvalidArgumentError):
        data_from_config({"family": "kerr"})
    with pytest.raises(InvalidArgumentError):
        data_from_config({"family": "flat", "spin": 1})
    # A key the family's constructor does not take is rejected, not ignored.
    with pytest.raises(InvalidArgumentError, match="'mass'"):
        data_from_config({"family": "flat", "mass": 2})
    with pytest.raises(InvalidArgumentError, match="'momentum'"):
        data_from_config({"family": "schwarzschild", "momentum": [0.5, 0, 0]})
    # Missing keys take the constructor's defaults.
    d = data_from_config({"family": "composite"})
    assert d.mass == 1.0 and np.all(d.momentum == 0.0)


@pytest.mark.parametrize("build", [
    lambda: schwarzschild_data(float("nan")),
    lambda: schwarzschild_data(float("inf")),
    lambda: composite_data(float("nan")),
    lambda: composite_data(float("inf"), (0.3, 0.0, 0.0)),
    lambda: composite_data(1.0, (float("nan"), 0.0, 0.0)),
    lambda: coordinate_sphere(flat_data(), float("nan"), make_grid(8)),
    lambda: coordinate_sphere(flat_data(), float("inf"), make_grid(8)),
], ids=["schwarzschild-nan", "schwarzschild-inf", "composite-nan", "composite-inf",
        "momentum-nan", "radius-nan", "radius-inf"])
def test_non_finite_family_inputs_are_rejected(build):
    with pytest.raises(InvalidArgumentError):
        build()
