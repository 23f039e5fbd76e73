"""Seeded invariant suite behind the `verify` CLI subcommand.

Each check returns (ok, detail).  `run_verify` executes all of them with a
deterministic RNG stream and reports one line per check; any failure makes
the suite fail.  The randomized-geometry generators here are also reused by
the test suite.
"""

from __future__ import annotations

import numpy as np

from .embedding import solve_weyl
from .errors import InvalidArgumentError
from .energy import (BoostVector, PhiInput, bound_constant_C, dphi_dt,
                     e_tilde_tau, energy_bounds, liu_yau_mass, minkowski_dot,
                     momentum_four_vector, phi, synthetic_surface_data,
                     wang_yau_energy)
from .initialdata import (adm_energy, adm_momentum, composite_data,
                          coordinate_sphere, decay_constants, flat_data,
                          schwarzschild_data)
from .optimizer import large_sphere_sweep, numeric_infimum
from .sphere import (DEFAULT_BAND_LIMIT, ScalarField, TangentField, gradient, integrate,
                     laplacian, make_grid)
from .surfaces import ellipsoid, harmonic_perturbation

MIN_BAND_LIMIT = 16     # the check tolerances assume L >= 16


# -- randomized-input generators (shared with tests) -------------------------

def random_convex_surface(grid, rng, max_degree=3, amplitude=0.02):
    """Perturbed convex sphere; resamples until K > 0 everywhere."""
    for _ in range(20):
        base = rng.uniform(1.0, 2.0)
        coeffs = {}
        for _ in range(rng.integers(2, 5)):
            l = int(rng.integers(1, max_degree + 1))
            m = int(rng.integers(-l, l + 1))
            coeffs[(l, m)] = rng.uniform(-amplitude, amplitude) * base
        S = harmonic_perturbation(grid, base, coeffs)
        if S.convex:
            return S
    raise RuntimeError("could not sample a convex surface")


def random_band_scalar(grid, rng, max_degree=6, amplitude=1.0):
    ncoef = (max_degree + 1) ** 2
    c = np.zeros(grid.n_coef)
    c[:ncoef] = amplitude * rng.standard_normal(ncoef) / ncoef
    return grid.synthesis(c)


def random_surface_data(surface, rng, ratio_band=(0.5, 2.0), alpha_amp=0.3):
    """Synthetic (|H|, alpha) with |H|/k0 inside `ratio_band`."""
    grid = surface.grid
    lo, hi = ratio_band
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    u = mid + 0.93 * half * np.tanh(random_band_scalar(grid, rng, 6, 6.0))
    hnorm = u * surface.k0
    W = np.stack([random_band_scalar(grid, rng, 6, alpha_amp) for _ in range(3)],
                 axis=-1)
    a_t = np.einsum("ni,ni->n", W, surface.Xt)
    a_p = np.einsum("ni,ni->n", W, surface.Xp)
    vth, vph = surface.metric.raise_form(a_t, a_p)
    return synthetic_surface_data(surface, hnorm, TangentField(grid, vth, vph))


# -- individual checks --------------------------------------------------------

def check_grid_quadrature(rng, L):
    g = make_grid(L)
    ok = abs(g.weights.sum() - 4 * np.pi) <= 1e-12 * 4 * np.pi
    z = np.cos(g.theta)
    y20 = np.sqrt(5.0 / (16.0 * np.pi)) * (3 * z ** 2 - 1)
    val = g.integrate_round(y20 ** 2)
    ok = ok and abs(val - 1.0) <= 1e-12
    return ok, f"sum(w)-4pi={g.weights.sum()-4*np.pi:.2e}, int Y20^2 - 1={val-1:.2e}"


def check_quadrature_exactness(rng, L):
    rng2 = np.random.default_rng(rng.integers(2 ** 32))
    coef = rng2.standard_normal(81)  # degree <= 8 polynomial on the sphere
    v8, v16 = (g.integrate_round(g.synthesis(np.pad(coef, (0, g.n_coef - 81))))
               for g in (make_grid(8), make_grid(16)))
    worst = abs(v8 - v16)
    return worst <= 1e-12, f"|I_8 - I_16| = {worst:.2e}"


def check_operator_compatibility(rng, L):
    g = make_grid(L)
    h = random_convex_surface(g, rng).metric
    # Field degree <= L/2 so that metric-inverse times derivative products
    # stay resolved at the grid's working degree.
    deg = min(8, L // 2)
    worst = 0.0
    for _ in range(3):
        f1 = ScalarField(g, random_band_scalar(g, rng, deg, 10.0))
        f2 = ScalarField(g, random_band_scalar(g, rng, deg, 10.0))
        lhs = integrate(ScalarField(g, f1.values * laplacian(f2, h).values), h)
        rhs = -integrate(ScalarField(g, h.inner(gradient(f1, h), gradient(f2, h))), h)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst <= 1e-8, f"max rel defect {worst:.2e}"


def check_surface_identity(rng, L):
    g = make_grid(L)
    worst = 0.0
    for S in (ellipsoid(g, (1, 1, 1.1)), random_convex_surface(g, rng)):
        for j in range(3):
            lap = laplacian(ScalarField(g, S.X[:, j]), S.metric).values
            worst = max(worst, np.abs(lap + S.k0 * S.normal[:, j]).max())
    return worst <= 1e-8, f"max |lap X + k0 N| = {worst:.2e}"


def check_rigid_motion(rng, L):
    g = make_grid(L)
    S = random_convex_surface(g, rng)
    th = rng.uniform(0, 2 * np.pi)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    Kmat = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                     [-axis[1], axis[0], 0]])
    R = np.eye(3) + np.sin(th) * Kmat + (1 - np.cos(th)) * Kmat @ Kmat
    Q = S.rotated(R)
    worst = max(np.abs(Q.k0 - S.k0).max(), np.abs(Q.gauss - S.gauss).max(),
                abs(Q.area - S.area), np.abs(Q.normal - S.normal @ R.T).max())
    return worst <= 1e-10, f"max rotation defect {worst:.2e}"


def check_weyl_roundtrip(rng, L):
    g = make_grid(L)
    E = ellipsoid(g, (1, 1, 1.1))
    sol = solve_weyl(E.metric)
    ok = sol.residual <= 1e-8
    area_err = abs(sol.surface.area - E.area)
    k0_int = integrate(sol.surface.k0_field, sol.surface.metric)
    k0_int_ref = integrate(E.k0_field, E.metric)
    ok = ok and area_err <= 1e-7 and abs(k0_int - k0_int_ref) <= 1e-7
    return ok, (f"residual={sol.residual:.2e}, area err={area_err:.2e}, "
                f"int k0 err={abs(k0_int-k0_int_ref):.2e}")


def check_schwarzschild_mass(rng, L):
    g = make_grid(L)
    r_iso = (3.0 + 2.0 * np.sqrt(2.0)) / 2.0   # areal radius 4 for m = 1
    sd = coordinate_sphere(schwarzschild_data(1.0), r_iso, g)
    S = solve_weyl(sd.metric).surface
    mly = liu_yau_mass(S, sd)
    err = abs(mly - (4.0 - 2.0 * np.sqrt(2.0)))
    return err <= 1e-6, f"|m_LY - (4-2sqrt2)| = {err:.2e}"


def check_time_symmetric_minimum(rng, L):
    g = make_grid(L)
    r_iso = (3.0 + 2.0 * np.sqrt(2.0)) / 2.0
    sd = coordinate_sphere(schwarzschild_data(1.0), r_iso, g)
    S = solve_weyl(sd.metric).surface
    mly = liu_yau_mass(S, sd)
    rest = wang_yau_energy(S, sd, BoostVector(np.zeros(3))).E
    res = numeric_infimum(S, sd, seed=int(rng.integers(2 ** 31)))
    ok = (abs(rest - mly) <= 1e-9 and np.linalg.norm(res.a_star) <= 1e-3
          and abs(res.value - mly) <= 1e-6)
    return ok, (f"|E(rest)-m_LY|={abs(rest-mly):.1e}, |a*|="
                f"{np.linalg.norm(res.a_star):.1e}, |inf-m_LY|={abs(res.value-mly):.1e}")


def check_sandwich(rng, L, trials=40):
    g = make_grid(L)
    violations = 0
    worst = 0.0
    for i in range(trials):
        if i % 8 == 0:
            S = random_convex_surface(g, rng, max_degree=4, amplitude=0.03)
        sd = random_surface_data(S, rng)
        a = rng.uniform(-1, 1, size=3)
        a *= rng.uniform(0, 3.0) / max(np.linalg.norm(a), 1e-12)
        rep = wang_yau_energy(S, sd, BoostVector(a))
        slack = 1e-9 * max(1.0, abs(rep.E), abs(rep.lower), abs(rep.upper))
        gap = max(rep.lower - rep.E, rep.E - rep.upper)
        worst = max(worst, gap)
        if gap > slack:
            violations += 1
    return violations == 0, f"{trials} trials, worst slack {worst:.2e}, violations {violations}"


def check_energy_split(rng, L):
    g = make_grid(L)
    S = random_convex_surface(g, rng)
    sd = random_surface_data(S, rng)
    worst = 0.0
    worst_cross = 0.0
    for _ in range(5):
        t0 = BoostVector(rng.uniform(-1.5, 1.5, size=3))
        rep = wang_yau_energy(S, sd, t0)
        worst = max(worst, abs(rep.E - (rep.E_tilde + rep.boost_term)))
        worst_cross = max(worst_cross, abs(rep.E_tilde - e_tilde_tau(S, sd, t0)))
    return (worst <= 1e-10 and worst_cross <= 1e-8), \
        f"split defect {worst:.2e}, cross-path defect {worst_cross:.2e}"


def check_phi_monotonicity(rng, L, samples=2000):
    bad = 0
    for _ in range(samples):
        rho = rng.uniform(1e-3, 5.0)
        f = rng.uniform(-rho, rho)
        t = rng.uniform(1e-3, 10.0)
        inp = PhiInput(t=t, f=f, rho=rho)
        if phi(inp) > phi(PhiInput(t=1.0, f=f, rho=rho)) + 1e-12:
            bad += 1
        d = dphi_dt(inp)
        if f != 0.0 and ((t < 1 and d < -1e-12) or (t > 1 and d > 1e-12)):
            bad += 1
    return bad == 0, f"{samples} samples, {bad} violations"


def check_equality_case(rng, L):
    g = make_grid(L)
    S = random_convex_surface(g, rng)
    sd = random_surface_data(S, rng)
    sd = synthetic_surface_data(S, S.k0, sd.alpha)   # force |H| = |H0|
    w = momentum_four_vector(S, sd)
    worst = 0.0
    for _ in range(5):
        a = rng.uniform(-2, 2, size=3)
        E = wang_yau_energy(S, sd, BoostVector(a)).E
        worst = max(worst, abs(E + a @ w.V))
    return worst <= 1e-9, f"max |E + <a, V>| = {worst:.2e}"


def check_gradient_at_origin(rng, L):
    g = make_grid(L)
    S = random_convex_surface(g, rng)
    sd = random_surface_data(S, rng)
    w = momentum_four_vector(S, sd)
    delta = 1e-3
    grad = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = delta
        grad[i] = (wang_yau_energy(S, sd, BoostVector(e)).E
                   - wang_yau_energy(S, sd, BoostVector(-e)).E) / (2 * delta)
    rel = np.linalg.norm(grad + w.V) / max(np.linalg.norm(w.V), 1e-12)
    return rel <= 1e-4, f"rel grad defect {rel:.2e}"


def check_bound_identity(rng, L):
    from .energy import FourVectorW, classify_causal
    worst = 0.0
    for _ in range(20):
        m = rng.uniform(-1, 2)
        V = rng.uniform(-1, 1, size=3)
        w = FourVectorW(m, V, classify_causal(m, V))
        a = rng.uniform(-2, 2, size=3)
        t0 = BoostVector(a)
        lower, upper = energy_bounds(w, abs(rng.uniform(0, 1)), t0)
        direct = -minkowski_dot(t0.t0, w.components)
        worst = max(worst, abs(lower - direct))
    return worst <= 1e-12, f"max identity defect {worst:.2e}"


def check_bowen_york_momentum(rng, L):
    P = rng.uniform(-0.5, 0.5, size=3)
    data = composite_data(1.0, P)
    worst = max(np.abs(adm_momentum(data, 50.0) - P).max(),
                np.abs(adm_momentum(data, 173.0) - P).max())
    return worst <= 1e-10, f"max |P(r) - P| = {worst:.2e}"


def check_adm_energy_convergence(rng, L):
    data = schwarzschild_data(1.0)
    errs = [abs(adm_energy(data, r) - 1.0) for r in (250.0, 500.0, 1000.0)]
    ratios = [errs[i + 1] / errs[i] for i in range(2)]
    ok = errs[-1] <= 2e-3 and all(abs(q - 0.5) < 0.1 for q in ratios)
    return ok, f"errors {[f'{e:.1e}' for e in errs]}, ratios {[f'{q:.3f}' for q in ratios]}"


def check_decay(rng, L):
    # Asymptotic flatness: each decay norm settles to a constant, so it moves
    # by less than 10 % from r = 1e3 to r = 1e4.
    data = composite_data(1.0, (0.3, -0.1, 0.2))
    near, far = decay_constants(data, (1e3,)), decay_constants(data, (1e4,))
    change = max(abs(far[k] - near[k]) / near[k] for k in near)
    return change <= 0.1, (", ".join(f"{k}={v:.2f}" for k, v in far.items())
                           + f"; max change from r=1e3 {change:.1e}")


def check_flat_zero(rng, L):
    g = make_grid(L)
    sd = coordinate_sphere(flat_data(), 10.0, g)
    S = solve_weyl(sd.metric).surface
    worst = 0.0
    for _ in range(5):
        a = rng.uniform(-2, 2, size=3)
        worst = max(worst, abs(wang_yau_energy(S, sd, BoostVector(a)).E))
    return worst <= 1e-8, f"max |E| = {worst:.2e}"


def check_cr_decay(rng, L):
    g = make_grid(L)
    data = schwarzschild_data(1.0)
    Cs = {}
    for r in (25.0, 50.0, 100.0, 200.0):
        sd = coordinate_sphere(data, r, g)
        S = solve_weyl(sd.metric).surface
        Cs[r] = bound_constant_C(S, sd)
    ratios = [Cs[50.0] / Cs[25.0], Cs[100.0] / Cs[50.0], Cs[200.0] / Cs[100.0]]
    ok = all(q <= 0.75 for q in ratios)
    return ok, f"C ratios per doubling {[f'{q:.3f}' for q in ratios]}"


def check_sweep_trend(rng, L):
    g = make_grid(L)
    rows = large_sphere_sweep(composite_data(1.0, (0.3, 0.0, 0.0)),
                              [25.0, 50.0, 100.0], g, seed=0)
    eps = [row.eps_max for row in rows]
    ok = all(row.error is None for row in rows)
    ok = ok and all(b <= 1.2 * a for a, b in zip(eps, eps[1:]))
    ok = ok and all(row.causal == "timelike-future" for row in rows)
    return ok, f"eps trend {[f'{e:.2e}' for e in eps]}"


CHECKS = [
    ("grid-quadrature", check_grid_quadrature),
    ("quadrature-exactness", check_quadrature_exactness),
    ("operator-compatibility", check_operator_compatibility),
    ("surface-identity", check_surface_identity),
    ("rigid-motion-covariance", check_rigid_motion),
    ("weyl-roundtrip", check_weyl_roundtrip),
    ("schwarzschild-mass", check_schwarzschild_mass),
    ("time-symmetric-minimum", check_time_symmetric_minimum),
    ("sandwich-estimate", check_sandwich),
    ("energy-split", check_energy_split),
    ("phi-monotonicity", check_phi_monotonicity),
    ("equality-case", check_equality_case),
    ("gradient-at-origin", check_gradient_at_origin),
    ("bound-identity", check_bound_identity),
    ("bowen-york-momentum", check_bowen_york_momentum),
    ("adm-energy-convergence", check_adm_energy_convergence),
    ("decay-constants", check_decay),
    ("flat-zero", check_flat_zero),
    ("bound-constant-decay", check_cr_decay),
    ("sweep-epsilon-trend", check_sweep_trend),
]


def run_verify(seed: int = 0, band_limit: int = DEFAULT_BAND_LIMIT, emit=print):
    """Run every check; True iff all pass.  L < MIN_BAND_LIMIT is an InvalidArgumentError."""
    if band_limit < MIN_BAND_LIMIT:
        raise InvalidArgumentError(
            f"'band_limit' must be at least {MIN_BAND_LIMIT} for verify, got {band_limit}")
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, fn in CHECKS:
        sub = np.random.default_rng(rng.integers(2 ** 32))
        try:
            ok, detail = fn(sub, band_limit)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        emit(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
