"""Pseudospectral scalar/tangent fields on topological spheres.

The grid is Gauss-Legendre in colatitude times uniform in longitude, so
quadrature against the round measure sin(th) dth dph is exact for spherical
polynomials up to degree 2L+2 and the nodes never touch the poles.  All
differentiation goes through spherical-harmonic synthesis of *smooth
scalars*; tangent-vector components in the (th, ph) coordinate basis are
only ever combined algebraically, never re-expanded, which keeps every
operation pole-safe.

Intrinsic operators for an arbitrary induced metric h are assembled
pointwise from the round-sphere reference sigma:

    grad_h f  = h^{ab} d_b f                       (algebraic raise)
    div_h V   = div_sigma V + V(log(sqrt h / sqrt sigma))
    lap_h f   = div_h(grad_h f)

and the round divergence of a tangent field V is evaluated through its
pushforward W = dX0(V) onto the unit sphere embedding X0 = nhat:

    div_sigma V = sum_j < grad_sigma W^j , e_j >,

which touches only the smooth R^3-valued components W^j.

A metric leaves its grid (for a file or another band limit) as the smooth
ambient tensor H_ij and comes back by one pullback (`metric_from_ambient`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError, SingularMetricError
from .harmonics import real_sh_factors, sh_count, sh_degrees

DEFAULT_BAND_LIMIT = 24

_UPPER = (slice(None),) + np.triu_indices(3)           # (n, 3, 3) -> its six entries
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])     # (i, j) -> entry


def _frozen(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes, weights and spectral bases at a fixed band limit.

    The grid is padded by one degree: nodes number (L+2)(2L+3) and the
    internal basis matrices run to degree L+1, so that analysis remains
    exact after one differentiation step (derivatives of degree-L fields
    have degree L+1).  User-facing fields and serialized coefficients are
    truncated at the nominal band limit L.
    """

    band_limit: int
    work_degree: int        # internal expansion degree, band_limit + 1
    theta: np.ndarray       # (n,) colatitudes, flattened C-order over (th, ph)
    phi: np.ndarray         # (n,)
    weights: np.ndarray     # (n,) quadrature weights for sin(th) dth dph
    n_theta: int
    n_phi: int
    Y: np.ndarray           # (n, n_coef_work) synthesis matrix
    Yt: np.ndarray          # (n, n_coef_work) d/dtheta synthesis
    Yp: np.ndarray          # (n, n_coef_work) d/dphi synthesis
    WY: np.ndarray = field(repr=False)  # weights[:, None] * Y
    # Factors of the bases (`harmonics.real_sh_factors`): Y = fY lon,
    # Yt = fYt lon, Yp = fYp lon_p, node (i, k) taking row i of the
    # colatitude and row k of the longitude factors.
    fY: np.ndarray = field(repr=False)      # (n_theta, n_coef_work)
    fYt: np.ndarray = field(repr=False)     # (n_theta, n_coef_work)
    fYp: np.ndarray = field(repr=False)     # (n_theta, n_coef_work)
    lon: np.ndarray = field(repr=False)     # (n_phi, n_coef_work)
    lon_p: np.ndarray = field(repr=False)   # (n_phi, n_coef_work)

    @property
    def size(self) -> int:
        return self.theta.size

    @property
    def n_coef(self) -> int:
        """Coefficient count at the nominal band limit (serialization size)."""
        return sh_count(self.band_limit)

    @property
    def n_coef_work(self) -> int:
        return sh_count(self.work_degree)

    @property
    def sin_theta(self) -> np.ndarray:
        return np.sin(self.theta)

    @property
    def cos_theta(self) -> np.ndarray:
        return np.cos(self.theta)

    def nhat(self) -> np.ndarray:
        """Unit-sphere position vectors, shape (n, 3)."""
        st, ct = self.sin_theta, self.cos_theta
        return np.stack([st * np.cos(self.phi), st * np.sin(self.phi), ct], axis=-1)

    def dnhat(self):
        """(d nhat/dth, d nhat/dph), each (n, 3)."""
        st, ct = self.sin_theta, self.cos_theta
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        dth = np.stack([ct * cp, ct * sp, -st], axis=-1)
        dph = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
        return dth, dph

    # -- spectral transforms ------------------------------------------------

    def analysis(self, values) -> np.ndarray:
        """Work-degree harmonic coefficients (exact for band <= L+1)."""
        return self.WY.T @ np.asarray(values, dtype=float)

    def _pad(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=float)
        if c.shape[0] == self.n_coef_work:
            return c
        if c.shape[0] == self.n_coef:
            out = np.zeros((self.n_coef_work,) + c.shape[1:])
            out[: self.n_coef] = c
            return out
        raise InvalidArgumentError("coefficient vector has unexpected length")

    def synthesis(self, coeffs) -> np.ndarray:
        return self.Y @ self._pad(coeffs)

    def synth_deriv(self, coeffs):
        """(df/dth, df/dph) at the nodes from coefficients."""
        c = self._pad(coeffs)
        return self.Yt @ c, self.Yp @ c

    def second_derivatives(self, coeffs):
        """(d2f/dth2, d2f/dthdph, d2f/dph2) at the nodes from coefficients.

        d/dph maps the (l, m) coefficient to m c[l, -m], so f_pp = Y (-m^2 c)
        and f_tp = Yt (m c[l, -m]); f_tt follows from the round Laplacian,
        f_tt + cot th f_t + f_pp / sin^2 th = Y (-l(l+1) c).
        """
        c = self._pad(coeffs)
        trail = (1,) * (c.ndim - 1)
        ls, ms = (a.reshape(-1, *trail) for a in sh_degrees(self.work_degree))
        st, ct = (a.reshape(-1, *trail) for a in (self.sin_theta, self.cos_theta))
        f_pp = self.Y @ (-ms ** 2 * c)
        f_tp = self.Yt @ (ms * c[np.arange(len(c)) - 2 * ms.ravel()])
        f_tt = self.Y @ (-ls * (ls + 1) * c) - ct / st * (self.Yt @ c) - f_pp / st ** 2
        return f_tt, f_tp, f_pp

    def project(self, values, degree: int | None = None) -> np.ndarray:
        """Projection onto the degree <= L subspace (identity on band-limited)."""
        c = self.analysis(values)
        c[sh_count(self.band_limit if degree is None else degree):] = 0.0
        return self.Y @ c

    def truncate(self, coeffs) -> np.ndarray:
        """Drop work-degree coefficients down to the nominal band limit."""
        return np.asarray(coeffs, dtype=float)[: self.n_coef]

    def angular_derivatives(self, values):
        """(df/dth, df/dph) of a smooth scalar sampled at the nodes."""
        return self.synth_deriv(self.analysis(values))

    def integrate_round(self, values) -> float:
        """Integral against the round measure sin(th) dth dph."""
        return float(self.weights @ np.asarray(values, dtype=float))

    def compatible(self, other: "SphereGrid") -> bool:
        return (self.band_limit == other.band_limit
                and self.n_theta == other.n_theta
                and self.n_phi == other.n_phi)


_GRID_CACHE: dict[int, SphereGrid] = {}


def make_grid(band_limit: int = DEFAULT_BAND_LIMIT) -> SphereGrid:
    """Build the Gauss-Legendre x uniform grid for a given band limit.

    Node count is (L+2)(2L+3); weights sum to 4 pi; quadrature is exact for
    spherical polynomials up to degree 2L+2.  Deterministic and cached.
    """
    if not isinstance(band_limit, (int, np.integer)):
        raise InvalidArgumentError("band_limit must be an integer")
    L = int(band_limit)
    if L < 4:
        raise InvalidArgumentError(f"band_limit must be >= 4, got {L}")
    if L in _GRID_CACHE:
        return _GRID_CACHE[L]

    work = L + 1
    n_theta = work + 1
    n_phi = 2 * work + 1
    x, wgl = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = np.arccos(x[::-1])          # ascending colatitude
    w_1d = wgl[::-1]
    phi_1d = np.arange(n_phi) * (2.0 * np.pi / n_phi)

    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(w_1d, n_phi) * (2.0 * np.pi / n_phi)

    fY, fYt, fYp, lon, lon_p = real_sh_factors(theta_1d, phi_1d, work)
    Y, Yt, Yp = ((f[:, None] * g).reshape(theta.size, -1)
                 for f, g in ((fY, lon), (fYt, lon), (fYp, lon_p)))
    grid = SphereGrid(
        band_limit=L,
        work_degree=work,
        theta=_frozen(theta),
        phi=_frozen(phi),
        weights=_frozen(weights),
        n_theta=n_theta,
        n_phi=n_phi,
        Y=_frozen(Y),
        Yt=_frozen(Yt),
        Yp=_frozen(Yp),
        WY=_frozen(weights[:, None] * Y),
        fY=_frozen(fY),
        fYt=_frozen(fYt),
        fYp=_frozen(fYp),
        lon=_frozen(lon),
        lon_p=_frozen(lon_p),
    )
    _GRID_CACHE[L] = grid
    return grid


def _check_same_grid(*objs):
    g0 = objs[0].grid
    for o in objs[1:]:
        if o.grid is not g0 and not g0.compatible(o.grid):
            raise GridMismatchError("fields live on different grids")
    return g0


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples at the grid nodes."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != (self.grid.size,):
            raise InvalidArgumentError("scalar field shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("scalar field contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class TangentField:
    """Tangent vector field, contravariant components in the (th, ph) basis."""

    grid: SphereGrid
    vth: np.ndarray
    vph: np.ndarray

    def __post_init__(self):
        for name in ("vth", "vph"):
            v = _frozen(getattr(self, name))
            if v.shape != (self.grid.size,):
                raise InvalidArgumentError("tangent field shape does not match grid")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class InducedMetric:
    """Per-node 2x2 symmetric metric in the (th, ph) coordinate basis.

    Validated positive definite on construction.  `mu` is the smooth area
    factor sqrt(det h)/sin(th) relative to the round measure.
    """

    grid: SphereGrid
    tt: np.ndarray          # h_{th th}
    tp: np.ndarray          # h_{th ph}
    pp: np.ndarray          # h_{ph ph}
    det: np.ndarray = field(init=False)
    mu: np.ndarray = field(init=False)
    inv_tt: np.ndarray = field(init=False)
    inv_tp: np.ndarray = field(init=False)
    inv_pp: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("tt", "tp", "pp"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        det = self.tt * self.pp - self.tp ** 2
        if not (np.all(det > 0.0) and np.all(self.tt > 0.0)):   # NaN fails too
            raise SingularMetricError("metric is not positive definite at some node")
        object.__setattr__(self, "det", _frozen(det))
        object.__setattr__(self, "mu", _frozen(np.sqrt(det) / self.grid.sin_theta))
        object.__setattr__(self, "inv_tt", _frozen(self.pp / det))
        object.__setattr__(self, "inv_tp", _frozen(-self.tp / det))
        object.__setattr__(self, "inv_pp", _frozen(self.tt / det))

    def raise_form(self, ath, aph):
        """Contravariant components h^{ab} a_b of a covariant pair."""
        return (self.inv_tt * ath + self.inv_tp * aph,
                self.inv_tp * ath + self.inv_pp * aph)

    def inner(self, u: TangentField, v: TangentField):
        """Pointwise h(u, v) for contravariant tangent fields."""
        return (self.tt * u.vth * v.vth + self.tp * (u.vth * v.vph + u.vph * v.vth)
                + self.pp * u.vph * v.vph)


def round_metric(grid: SphereGrid, radius: float = 1.0) -> InducedMetric:
    """Round-sphere metric of the given radius on the grid."""
    r2 = float(radius) ** 2
    n = grid.size
    return InducedMetric(grid, np.full(n, r2), np.zeros(n),
                         r2 * grid.sin_theta ** 2)


def pullback(grid: SphereGrid, H, t, p) -> InducedMetric:
    """The metric h_ab = t_a^T H t_b along the (n, 3) vectors (t_th, t_ph) = (t, p)."""
    return InducedMetric(grid, *(np.einsum("nij,ni,nj->n", H, a, b)
                                 for a, b in ((t, t), (t, p), (p, p))))


def ambient_tensor(h: InducedMetric) -> np.ndarray:
    """Smooth ambient form of h, (n, 3, 3):

        H_ij = h_ab sigma^{aa'} sigma^{bb'} (d_a' nhat_i)(d_b' nhat_j).

    The raw (th, ph) components of a smooth metric carry frame singularities
    at the poles; the six entries of H are smooth scalars on the sphere.
    Since (d_a nhat).(d_c nhat) = sigma_ac, h = pullback(grid, H, *dnhat()).
    """
    Ut, Up = h.grid.dnhat()
    Up = Up * (1.0 / h.grid.sin_theta ** 2)[:, None]
    return (h.tt[:, None, None] * Ut[:, :, None] * Ut[:, None, :]
            + h.tp[:, None, None] * (Ut[:, :, None] * Up[:, None, :]
                                     + Up[:, :, None] * Ut[:, None, :])
            + h.pp[:, None, None] * Up[:, :, None] * Up[:, None, :])


def ambient_coeffs(h: InducedMetric) -> np.ndarray:
    """(n_coef_work, 6) coefficients of H_xx, H_xy, H_xz, H_yy, H_yz, H_zz."""
    return h.grid.analysis(ambient_tensor(h)[_UPPER])


def metric_from_ambient(grid: SphereGrid, coeffs) -> InducedMetric:
    """The metric on `grid` whose H_ij has these `ambient_coeffs`-style coefficients."""
    return pullback(grid, grid.synthesis(coeffs)[:, _SYM], *grid.dnhat())


def integrate(f: ScalarField, h: InducedMetric) -> float:
    """Surface integral int f dv_h by exact round quadrature of f * mu."""
    _check_same_grid(f, h)
    return float(f.grid.weights @ (f.values * h.mu))


def gradient(f: ScalarField, h: InducedMetric) -> TangentField:
    """Intrinsic gradient of f, indices raised with h^{ab}."""
    grid = _check_same_grid(f, h)
    ft, fp = grid.angular_derivatives(f.values)
    vth, vph = h.raise_form(ft, fp)
    return TangentField(grid, vth, vph)


def grad_norm_squared(f: ScalarField, h: InducedMetric) -> np.ndarray:
    """Pointwise |grad f|^2_h."""
    grid = _check_same_grid(f, h)
    ft, fp = grid.angular_derivatives(f.values)
    vth, vph = h.raise_form(ft, fp)
    return ft * vth + fp * vph


def divergence(v: TangentField, h: InducedMetric) -> ScalarField:
    """Intrinsic divergence of a tangent field with respect to h."""
    grid = _check_same_grid(v, h)
    dnth, dnph = grid.dnhat()
    # Pushforward onto the unit round sphere: smooth R^3-valued field.
    W = v.vth[:, None] * dnth + v.vph[:, None] * dnph
    inv_s2 = 1.0 / grid.sin_theta ** 2
    div_round = np.zeros(grid.size)
    for j in range(3):
        wt, wp = grid.angular_derivatives(W[:, j])
        div_round += wt * dnth[:, j] + inv_s2 * wp * dnph[:, j]
    # Correction for the non-round volume element: V(log mu).
    lt, lp = grid.angular_derivatives(np.log(h.mu))
    return ScalarField(grid, div_round + v.vth * lt + v.vph * lp)


def laplacian(f: ScalarField, h: InducedMetric) -> ScalarField:
    """Laplace-Beltrami operator of h applied to f."""
    return divergence(gradient(f, h), h)
