"""Energy functional, pointwise and tau paths, Phi, bounds, four-vector."""

import numpy as np
import pytest

from qlelab.energy import (BoostVector, FourVectorW, PhiInput, bound_constant_C,
                           classify_causal, dphi_dt, e_tilde, e_tilde_tau,
                           energy_bounds, liu_yau_mass, minkowski_dot, momentum_four_vector,
                           phi, synthetic_surface_data, tau, wang_yau_energy)
from qlelab.errors import InvalidArgumentError, NumericalDomainError
from qlelab.initialdata import composite_data, coordinate_sphere
from qlelab.sphere import ScalarField, grad_norm_squared, laplacian
from qlelab.surfaces import round_sphere
from qlelab.verify import random_convex_surface, random_surface_data

# Frozen oracle: Brown-York mass of the areal-radius-4 Schwarzschild
# sphere at m = 1, from k = (2/R) sqrt(1 - 2m/R) and k0 = 2/R.
M_BY_AREAL4 = 4.0 - 2.0 * np.sqrt(2.0)


def test_boost_vector_is_unit_timelike():
    rng = np.random.default_rng(0)
    for _ in range(10):
        t0 = BoostVector(rng.uniform(-3, 3, size=3))
        assert abs(minkowski_dot(t0.t0, t0.t0) + 1.0) <= 1e-12


def test_tau_values_and_laplacian_identity(grid16):
    # tau = -<a, X>; on the unit round sphere with a = rho e_z:
    # tau = -rho z and lap tau = rho k0 <omega, N> with k0 = 2.
    S = round_sphere(grid16, 1.0)
    rho = 1.3
    t0 = BoostVector(np.array([0.0, 0.0, rho]))
    f = tau(S, t0)
    z = np.cos(grid16.theta)
    assert np.abs(f.values + rho * z).max() <= 1e-12
    lap = laplacian(f, S.metric).values
    p = S.normal @ (t0.a / rho)
    assert np.abs(lap - rho * S.k0 * p).max() <= 1e-8
    # a = 0 gives tau = 0; Cauchy-Schwarz bound on the gradient.
    assert np.abs(tau(S, BoostVector(np.zeros(3))).values).max() == 0.0
    gn2 = grad_norm_squared(f, S.metric)
    assert gn2.max() <= rho ** 2 + 1e-10


def test_liu_yau_mass_schwarzschild(schw_sphere4):
    S, sd = schw_sphere4
    assert abs(liu_yau_mass(S, sd) - M_BY_AREAL4) <= 1e-6


def test_liu_yau_mass_flat_round(grid16):
    S = round_sphere(grid16, 2.0)
    sd = synthetic_surface_data(S, S.k0)
    assert abs(liu_yau_mass(S, sd)) <= 1e-10


def test_rest_frame_energy_is_liu_yau(schw_sphere4):
    S, sd = schw_sphere4
    rep = wang_yau_energy(S, sd, BoostVector(np.zeros(3)))
    assert abs(rep.E - liu_yau_mass(S, sd)) <= 1e-9


def test_energy_split_and_cross_path(schw_sphere4, grid24):
    # The pointwise path of wang_yau_energy against the spectral tau oracle,
    # on a round physical sphere and on a random non-round convex surface,
    # with five random boosts and two large ones (|a| = 10, 30).
    rng_surface = np.random.default_rng(40)
    S_rand = random_convex_surface(grid24, rng_surface)
    sd_rand = random_surface_data(S_rand, rng_surface)
    rng = np.random.default_rng(4)
    unit = np.array([1.0, -2.0, 2.0]) / 3.0
    for S, sd in (schw_sphere4, (S_rand, sd_rand)):
        boosts = [rng.uniform(-2, 2, size=3) for _ in range(5)] + [10.0 * unit, 30.0 * unit]
        for a in boosts:
            t0 = BoostVector(a)
            rep = wang_yau_energy(S, sd, t0)
            assert abs(rep.E - (rep.E_tilde + rep.boost_term)) <= 1e-10
            assert abs(rep.E_tilde - e_tilde_tau(S, sd, t0)) <= 1e-8
            assert rep.lower - 1e-9 <= rep.E <= rep.upper + 1e-9


def test_e_tilde_at_rho_zero_is_liu_yau(schw_sphere4):
    S, sd = schw_sphere4
    assert abs(e_tilde(S, sd, np.zeros(3)) - liu_yau_mass(S, sd)) <= 1e-10


def test_e_tilde_vanishes_when_h_equals_h0(grid16):
    rng = np.random.default_rng(9)
    S = random_convex_surface(grid16, rng)
    sd = synthetic_surface_data(S, S.k0, random_surface_data(S, rng).alpha)
    w = momentum_four_vector(S, sd)
    for _ in range(20):
        a = rng.uniform(-3, 3, size=3)
        rep = wang_yau_energy(S, sd, BoostVector(a))
        assert abs(rep.E_tilde) <= 1e-10
        assert abs(rep.E + a @ w.V) <= 1e-9
        assert abs(e_tilde(S, sd, a)) <= 1e-10


def test_e_tilde_monotone_lower_bound(grid16):
    # Etilde(a) >= sqrt(1 + |a|^2) m_LY for m_LY >= 0.
    rng = np.random.default_rng(12)
    S = random_convex_surface(grid16, rng)
    sd = random_surface_data(S, rng, ratio_band=(0.5, 1.0))   # k0 >= |H|
    mly = liu_yau_mass(S, sd)
    assert mly >= 0.0
    omega = np.array([1.0, 0.0, 0.0])
    for rho in (0.25, 0.5, 1.0, 2.0, 3.0):
        val = e_tilde(S, sd, rho * omega)
        assert val >= np.sqrt(1 + rho ** 2) * mly - 1e-10


def test_momentum_four_vector_time_symmetric(schw_sphere4):
    S, sd = schw_sphere4
    w = momentum_four_vector(S, sd)
    assert np.abs(w.V).max() <= 1e-12
    assert w.causal_type == "timelike-future"


def test_momentum_four_vector_rotation_covariance(grid24):
    data = composite_data(1.0, (0.3, 0.0, 0.0))
    sd = coordinate_sphere(data, 30.0, grid24)
    from qlelab.embedding import solve_weyl
    S = solve_weyl(sd.metric).surface
    w = momentum_four_vector(S, sd)
    th = 0.6
    R = np.array([[np.cos(th), -np.sin(th), 0.0],
                  [np.sin(th), np.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    w_rot = momentum_four_vector(S.rotated(R), sd)
    assert np.abs(w_rot.V - R @ w.V).max() <= 1e-10
    assert abs(w_rot.m_ly - w.m_ly) <= 1e-10


def test_bound_constant_arithmetic(grid16):
    # |H| = 0.5 k0 on the unit round sphere: sup term 4, integral 1/2, C = 2.
    S = round_sphere(grid16, 1.0)
    sd = synthetic_surface_data(S, 0.5 * S.k0)
    assert abs(bound_constant_C(S, sd) - 2.0) <= 1e-10
    sd_eq = synthetic_surface_data(S, S.k0)
    assert bound_constant_C(S, sd_eq) == 0.0


def test_energy_bounds_identities():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = rng.uniform(-1, 2)
        V = rng.uniform(-1, 1, size=3)
        w = FourVectorW(m, V, classify_causal(m, V))
        C = rng.uniform(0, 1)
        a0 = BoostVector(np.zeros(3))
        lower, upper = energy_bounds(w, C, a0)
        assert abs(lower - m) <= 1e-14 and abs(upper - (m + C)) <= 1e-14
        t0 = BoostVector(rng.uniform(-2, 2, size=3))
        lower, upper = energy_bounds(w, 0.0, t0)
        assert lower == upper
        lower, upper = energy_bounds(w, C, t0)
        assert abs(lower - (-minkowski_dot(t0.t0, w.components))) <= 1e-12


def test_causal_classifier():
    assert classify_causal(1.0, np.zeros(3)) == "timelike-future"
    assert classify_causal(-1.0, np.zeros(3)) == "timelike-past"
    assert classify_causal(0.0, np.array([0.3, 0, 0])) == "spacelike"
    assert classify_causal(0.5, np.array([0.5, 0, 0])) == "null"


def test_phi_max_at_one_and_derivative_oracle():
    rng = np.random.default_rng(21)
    for _ in range(500):
        rho = rng.uniform(1e-2, 5.0)
        f = rng.uniform(-rho, rho)
        t = rng.uniform(1e-2, 10.0)
        assert phi(PhiInput(t=t, f=f, rho=rho)) <= phi(PhiInput(t=1.0, f=f, rho=rho)) + 1e-12
    # dphi/dt == 0 identically when f = 0.
    for t in (0.1, 0.5, 1.0, 2.0, 9.0):
        assert abs(dphi_dt(PhiInput(t=t, f=0.0, rho=1.7))) <= 1e-12
    # Central-difference oracle for dphi/dt.
    for _ in range(50):
        rho = rng.uniform(0.1, 4.0)
        f = rng.uniform(-rho, rho)
        t = rng.uniform(0.2, 5.0)
        h = 1e-6 * max(t, 1.0)
        fd = (phi(PhiInput(t=t + h, f=f, rho=rho))
              - phi(PhiInput(t=t - h, f=f, rho=rho))) / (2 * h)
        d = dphi_dt(PhiInput(t=t, f=f, rho=rho))
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(fd))


def test_phi_input_validation():
    with pytest.raises(InvalidArgumentError):
        PhiInput(t=1.0, f=0.1, rho=0.0)
    with pytest.raises(InvalidArgumentError):
        PhiInput(t=0.0, f=0.1, rho=1.0)
    with pytest.raises(InvalidArgumentError):
        PhiInput(t=1.0, f=2.0, rho=1.0)


def test_gradient_at_origin_is_minus_V(grid16):
    rng = np.random.default_rng(3)
    S = random_convex_surface(grid16, rng)
    sd = random_surface_data(S, rng)
    w = momentum_four_vector(S, sd)
    delta = 1e-3
    grad = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = delta
        grad[i] = (wang_yau_energy(S, sd, BoostVector(e)).E
                   - wang_yau_energy(S, sd, BoostVector(-e)).E) / (2 * delta)
    assert np.linalg.norm(grad + w.V) <= 1e-4 * np.linalg.norm(w.V)


def test_energy_rotation_contract(grid16):
    # Rotating X and co-rotating a leaves E invariant.
    rng = np.random.default_rng(6)
    S = random_convex_surface(grid16, rng)
    sd = random_surface_data(S, rng)
    a = np.array([0.4, -0.2, 0.7])
    th = 1.1
    R = np.array([[np.cos(th), 0, np.sin(th)], [0, 1, 0],
                  [-np.sin(th), 0, np.cos(th)]])
    E1 = wang_yau_energy(S, sd, BoostVector(a)).E
    E2 = wang_yau_energy(S.rotated(R), sd, BoostVector(R @ a)).E
    assert abs(E1 - E2) <= 1e-9


def test_domain_guards_on_bad_data(grid16):
    import dataclasses

    S = round_sphere(grid16, 1.0)
    with pytest.raises(InvalidArgumentError):
        synthetic_surface_data(S, np.full(grid16.size, -0.5))
    sd = synthetic_surface_data(S, S.k0)
    # |H| <= 0 anywhere is a numerical-domain error for the energy ops.
    hn = S.k0.copy()
    hn[0] = -1e-3
    bad = dataclasses.replace(sd, hnorm=hn)
    with pytest.raises(NumericalDomainError):
        wang_yau_energy(S, bad, BoostVector(np.zeros(3)))


def test_momentum_vector_tends_to_minus_adm_momentum(grid16):
    # (1/8pi) int <a, V> -> -sum a^i P_i: V_r approaches -P with the oracle P
    # taken from the independently computed ADM momentum integral.
    from qlelab.embedding import solve_weyl
    from qlelab.initialdata import adm_momentum

    data = composite_data(1.0, (0.3, 0.0, 0.0))
    errs = []
    for r in (100.0, 200.0):
        P = adm_momentum(data, r)
        sd = coordinate_sphere(data, r, grid16)
        S = solve_weyl(sd.metric).surface
        w = momentum_four_vector(S, sd)
        errs.append(np.abs(w.V + P).max())
    assert errs[0] <= 5e-3 and errs[1] <= 2.5e-3
    assert errs[1] <= 0.75 * errs[0]
