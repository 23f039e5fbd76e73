"""Quasilocal energy of a 2-surface for flat-slice isometric embeddings.

For an embedding X of the surface into R^3 = {t = 0} in Minkowski space and
an observer T0 = (sqrt(1+|a|^2), a), the energy splits as

    E(Sigma, X, T0) = Etilde(Sigma, X, T0) - <a, V>,

where V is the mean of the metric-dual of the connection 1-form pushed to
R^3 (the quasilocal momentum 3-vector), and with tau = -<a, X>,

    Etilde = (1/8pi) int [ sqrt(k0^2 (1+|grad tau|^2) + (lap tau)^2)
                           - sqrt(|H|^2 (1+|grad tau|^2) + (lap tau)^2)
                           - lap tau ( asinh(lap tau / (s k0))
                                       - asinh(lap tau / (s |H|)) ) ] dv,

    s = sqrt(1 + |grad tau|^2).

With u = <a, N>, lap tau = k0 u and |grad tau|^2 = |a|^2 - u^2, so Etilde
has the equivalent pointwise form

    t = |H|/k0,  f = u / sqrt(1 + |a|^2 - u^2),
    B = sqrt(1+|a|^2) (1 - sqrt(t^2+f^2)/sqrt(1+f^2)),
    F = u (asinh(f/t) - asinh(f)),
    Etilde(a) = (1/8pi) int k0 (B + F) dv.

On a fixed surface this is a pointwise O(n) sum: every energy evaluation
uses it (`e_tilde`, `wang_yau_energy`, the boost search).  The tau form needs
spectral derivatives at every boost and is kept as the independent oracle
`e_tilde_tau`.  The sandwich estimate is

    -<T0, W> <= E <= -<T0, W> + C sqrt(1+|a|^2),
    W = (m_LY, V),   m_LY = (1/8pi) int (k0 - |H|) dv,
    C = sup |k0^2/|H|^2 + k0/|H| - 2| * (1/8pi) int |k0 - |H||,

and the comparison function behind it, with rho = |a|,

    Phi(t) = [ -f (1+rho^2) asinh(f/t) + (rho^2-f^2) sqrt(t^2+f^2) ]
             / (rho sqrt(1+f^2) sqrt(1+rho^2))  -  rho t / sqrt(1+rho^2),

attains its maximum over t > 0 at t = 1.

Minkowski signature is (-, +, +, +) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatchError, InvalidArgumentError, NumericalDomainError)
from .initialdata import SurfaceData
from .sphere import ScalarField, grad_norm_squared, integrate, laplacian
from .surfaces import EmbeddedSurface

CAUSAL_BOUNDARY_TOL = 1e-12


def minkowski_dot(u, v) -> float:
    """<u, v> with signature (-, +, +, +)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(-u[0] * v[0] + u[1:] @ v[1:])


@dataclass(frozen=True)
class BoostVector:
    """Future timelike unit observer T0 = (sqrt(1+|a|^2), a)."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (3,) or not np.all(np.isfinite(a)):
            raise InvalidArgumentError("boost parameter a must be a finite 3-vector")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def time_component(self) -> float:
        return float(np.sqrt(1.0 + self.a @ self.a))

    @property
    def t0(self) -> np.ndarray:
        return np.concatenate([[self.time_component], self.a])


@dataclass(frozen=True)
class FourVectorW:
    """Quasilocal four-vector W = (m_LY, V) with its causal classification."""

    m_ly: float
    V: np.ndarray
    causal_type: str

    @property
    def components(self) -> np.ndarray:
        return np.concatenate([[self.m_ly], self.V])

    @property
    def norm_squared(self) -> float:
        """<W, W> = -m_LY^2 + |V|^2."""
        return float(-self.m_ly ** 2 + self.V @ self.V)


def classify_causal(m_ly: float, V) -> str:
    V = np.asarray(V, dtype=float)
    q = -m_ly ** 2 + V @ V
    tol = CAUSAL_BOUNDARY_TOL * max(1.0, m_ly ** 2 + V @ V)
    if q < -tol:
        return "timelike-future" if m_ly > 0 else "timelike-past"
    if q > tol:
        return "spacelike"
    return "null"


@dataclass(frozen=True)
class EnergyReport:
    E: float
    E_tilde: float
    boost_term: float        # -<a, V>
    m_ly: float
    C: float
    lower: float
    upper: float


@dataclass(frozen=True)
class PhiInput:
    """Pointwise arguments of the comparison function Phi."""

    t: float
    f: float
    rho: float

    def __post_init__(self):
        if not self.t > 0.0:
            raise InvalidArgumentError("Phi requires t > 0")
        if not self.rho > 0.0:
            raise InvalidArgumentError("Phi requires rho > 0 (rho appears in denominators)")
        if self.f ** 2 > self.rho ** 2 * (1.0 + 1e-12):
            raise InvalidArgumentError("Phi requires f^2 <= rho^2")


def _check_pair(surface: EmbeddedSurface, data: SurfaceData):
    if not surface.grid.compatible(data.grid):
        raise GridMismatchError("surface and surface data live on different grids")
    if np.any(data.hnorm <= 0.0):
        raise NumericalDomainError("|H| must be positive everywhere")
    if np.any(surface.k0 <= 0.0):
        raise NumericalDomainError("|H0| must be positive everywhere")


def tau(surface: EmbeddedSurface, t0: BoostVector) -> ScalarField:
    """Time function tau = -<X, T0> = -<a, X> for flat-slice embeddings."""
    return ScalarField(surface.grid, -(surface.X @ t0.a))


def liu_yau_mass(surface: EmbeddedSurface, data: SurfaceData) -> float:
    """m_LY = (1/8pi) int (k0 - |H|) dv."""
    _check_pair(surface, data)
    f = ScalarField(surface.grid, surface.k0 - data.hnorm)
    return integrate(f, surface.metric) / (8.0 * np.pi)


def momentum_four_vector(surface: EmbeddedSurface, data: SurfaceData) -> FourVectorW:
    """W = (m_LY, V), V = (1/8pi) int dX(dual alpha) dv in R^3 components."""
    _check_pair(surface, data)
    W = surface.pushforward(data.alpha)
    dv = surface.grid.weights * surface.metric.mu
    V = (dv @ W) / (8.0 * np.pi)
    m_ly = liu_yau_mass(surface, data)
    return FourVectorW(m_ly=m_ly, V=V, causal_type=classify_causal(m_ly, V))


def bound_constant_C(surface: EmbeddedSurface, data: SurfaceData) -> float:
    """C = sup |k0^2/|H|^2 + k0/|H| - 2| * (1/8pi) int |k0 - |H||."""
    _check_pair(surface, data)
    ratio = surface.k0 / data.hnorm
    sup = float(np.abs(ratio ** 2 + ratio - 2.0).max())
    mean = integrate(ScalarField(surface.grid, np.abs(surface.k0 - data.hnorm)),
                     surface.metric) / (8.0 * np.pi)
    return sup * mean


def energy_bounds(w: FourVectorW, C: float, t0: BoostVector):
    """(lower, upper) of the sandwich estimate for E(Sigma, X, T0)."""
    gamma = t0.time_component
    lower = gamma * w.m_ly - float(t0.a @ w.V)
    return lower, lower + C * gamma


def wang_yau_energy(surface: EmbeddedSurface, data: SurfaceData,
                    t0: BoostVector) -> EnergyReport:
    """Full energy evaluation, with Etilde from the pointwise form."""
    e_t = e_tilde(surface, data, t0.a)
    w = momentum_four_vector(surface, data)
    boost_term = -float(t0.a @ w.V)
    E = e_t + boost_term
    C = bound_constant_C(surface, data)
    lower, upper = energy_bounds(w, C, t0)
    return EnergyReport(E=E, E_tilde=e_t, boost_term=boost_term,
                        m_ly=w.m_ly, C=C, lower=lower, upper=upper)


def e_tilde(surface: EmbeddedSurface, data: SurfaceData, a) -> float:
    """Etilde at boost parameter a through the pointwise form in u = <a, N>."""
    _check_pair(surface, data)
    a = np.asarray(a, dtype=float)
    a2 = a @ a
    u = surface.normal @ a
    f = u / np.sqrt(1.0 + a2 - u ** 2)
    t = data.hnorm / surface.k0
    B = np.sqrt(1.0 + a2) * (1.0 - np.sqrt(t ** 2 + f ** 2) / np.sqrt(1.0 + f ** 2))
    F = u * (np.arcsinh(f / t) - np.arcsinh(f))
    vals = surface.k0 * (B + F)
    return integrate(ScalarField(surface.grid, vals), surface.metric) / (8.0 * np.pi)


def e_tilde_tau(surface: EmbeddedSurface, data: SurfaceData, t0: BoostVector) -> float:
    """Etilde through the direct (tau-based) path: the independent oracle.

    grad tau and lap tau are computed with the intrinsic spectral operators
    of the surface metric, independently of the pointwise identities, so
    the two evaluation paths can cross-validate each other.
    """
    _check_pair(surface, data)
    grid = surface.grid
    h = surface.metric
    tau_f = tau(surface, t0)
    gn2 = grad_norm_squared(tau_f, h)
    lap = laplacian(tau_f, h).values
    s2 = 1.0 + gn2
    s = np.sqrt(s2)
    k0 = surface.k0
    kH = data.hnorm

    A0 = np.sqrt(k0 ** 2 * s2 + lap ** 2)
    AH = np.sqrt(kH ** 2 * s2 + lap ** 2)
    shift = lap * (np.arcsinh(lap / (s * k0)) - np.arcsinh(lap / (s * kH)))
    return integrate(ScalarField(grid, A0 - AH - shift), h) / (8.0 * np.pi)


def phi(inp: PhiInput) -> float:
    """Comparison function Phi(t); Phi(1) = max over t > 0."""
    t, f, rho = inp.t, inp.f, inp.rho
    root = np.sqrt(t ** 2 + f ** 2)
    pref = 1.0 / (rho * np.sqrt(1.0 + f ** 2) * np.sqrt(1.0 + rho ** 2))
    return float(pref * (-f * (1.0 + rho ** 2) * np.arcsinh(f / t)
                         + (rho ** 2 - f ** 2) * root)
                 - rho * t / np.sqrt(1.0 + rho ** 2))


def dphi_dt(inp: PhiInput) -> float:
    """d Phi / d t; vanishes identically where f = 0."""
    t, f, rho = inp.t, inp.f, inp.rho
    num = (1.0 - t ** 2) * f ** 2 + rho ** 2 * (t ** 2 + f ** 2)
    frac = num / (t * rho ** 2 * np.sqrt(1.0 + f ** 2) * np.sqrt(t ** 2 + f ** 2))
    return float((frac - 1.0) * rho / np.sqrt(1.0 + rho ** 2))


def synthetic_surface_data(surface: EmbeddedSurface, hnorm, alpha=None) -> SurfaceData:
    """SurfaceData with prescribed |H| and connection form on a surface.

    Intended for tests and randomized estimates: `hnorm` is a positive nodal
    array, `alpha` an optional TangentField (defaults to zero).  k is set to
    |H| and tr_S p to zero (purely spatial synthetic data).
    """
    from .sphere import TangentField

    grid = surface.grid
    hnorm = np.asarray(hnorm, dtype=float)
    if hnorm.shape != (grid.size,) or np.any(hnorm <= 0.0):
        raise InvalidArgumentError("hnorm must be positive at every node")
    if alpha is None:
        alpha = TangentField(grid, np.zeros(grid.size), np.zeros(grid.size))
    return SurfaceData(grid=grid, metric=surface.metric, k=hnorm,
                       trp=np.zeros(grid.size), hnorm=hnorm, alpha=alpha,
                       nu=surface.normal)
