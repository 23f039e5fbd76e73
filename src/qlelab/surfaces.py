"""Embedded surfaces X: S^2 -> R^3 and their derived geometry.

A surface is stored through the degree-L harmonic coefficients of its three
coordinate functions; all geometry is derived from those:

    h_ab   = <X_a, X_b>                       induced metric
    N      = X_th x X_ph / |X_th x X_ph|      outward unit normal
    S_ab   = <X_a, d_b N>                     shape form (Weingarten)
    k0     = h^{ab} S_ab                      mean curvature, k0 = 2/R > 0
                                              for round spheres
    K      = det S / det h                    Gauss curvature

Second derivatives of X are never taken: N is a smooth R^3-valued field, so
its first angular derivatives are pole-safe, and S_ab is assembled from
first derivatives only.  With the outward orientation the surface satisfies
lap_h X = -k0 N, i.e. the mean curvature vector is H0 = -k0 N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidArgumentError, SingularMetricError
from .sphere import InducedMetric, ScalarField, SphereGrid, TangentField, _frozen, integrate


@dataclass(frozen=True)
class EmbeddedSurface:
    """Immutable embedding with cached first/second fundamental form data."""

    grid: SphereGrid
    coeffs: np.ndarray      # (n_coef, 3) degree-L harmonic coefficients of X
    X: np.ndarray           # (n, 3) positions at nodes
    Xt: np.ndarray          # (n, 3) dX/dth
    Xp: np.ndarray          # (n, 3) dX/dph
    metric: InducedMetric
    normal: np.ndarray      # (n, 3) outward unit normal e^{H0}
    k0: np.ndarray          # (n,) mean curvature
    gauss: np.ndarray       # (n,) Gauss curvature
    area: float
    convex: bool            # K > 0 at every node

    @property
    def k0_field(self) -> ScalarField:
        return ScalarField(self.grid, self.k0)

    def pushforward(self, v: TangentField) -> np.ndarray:
        """dX(v) as an (n, 3) ambient vector field."""
        return v.vth[:, None] * self.Xt + v.vph[:, None] * self.Xp

    def rotated(self, R) -> "EmbeddedSurface":
        """Surface with values rotated by the 3x3 matrix R (same grid)."""
        R = np.asarray(R, dtype=float)
        return surface_geometry(self.grid, self.X @ R.T)

    def translated(self, b) -> "EmbeddedSurface":
        b = np.asarray(b, dtype=float)
        return surface_geometry(self.grid, self.X + b[None, :])


def surface_geometry(grid: SphereGrid, X_values=None, coeffs=None) -> EmbeddedSurface:
    """Build an EmbeddedSurface from nodal positions or harmonic coefficients.

    Nodal input is projected onto the degree-L subspace first, so the stored
    surface is exactly band-limited.  Raises SingularMetricError if the
    (projected) map is not an immersion on the grid.
    """
    if (X_values is None) == (coeffs is None):
        raise InvalidArgumentError("provide exactly one of X_values, coeffs")
    if coeffs is None:
        X_values = np.asarray(X_values, dtype=float)
        if X_values.shape != (grid.size, 3):
            raise InvalidArgumentError("X_values must have shape (n_nodes, 3)")
        coeffs = grid.truncate(grid.analysis(X_values))
    else:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (grid.n_coef, 3):
            raise InvalidArgumentError("coeffs must have shape (n_coef, 3)")

    X = grid.synthesis(coeffs)
    Xt, Xp = grid.synth_deriv(coeffs)

    h = InducedMetric(
        grid,
        np.einsum("ni,ni->n", Xt, Xt),
        np.einsum("ni,ni->n", Xt, Xp),
        np.einsum("ni,ni->n", Xp, Xp),
    )

    cross = np.cross(Xt, Xp)
    norm = np.linalg.norm(cross, axis=1)
    if np.any(norm <= 0.0):
        raise SingularMetricError("degenerate immersion: vanishing area element")
    N = cross / norm[:, None]

    # Shape form from first derivatives of the smooth normal field.
    Nc = grid.analysis(N)
    Nt, Np = grid.synth_deriv(Nc)
    s_tt = np.einsum("ni,ni->n", Xt, Nt)
    s_pp = np.einsum("ni,ni->n", Xp, Np)
    s_tp = 0.5 * (np.einsum("ni,ni->n", Xt, Np) + np.einsum("ni,ni->n", Xp, Nt))

    k0 = h.inv_tt * s_tt + 2.0 * h.inv_tp * s_tp + h.inv_pp * s_pp
    K = (s_tt * s_pp - s_tp ** 2) / h.det

    area = integrate(ScalarField(grid, np.ones(grid.size)), h)

    return EmbeddedSurface(
        grid=grid,
        coeffs=_frozen(coeffs),
        X=_frozen(X),
        Xt=_frozen(Xt),
        Xp=_frozen(Xp),
        metric=h,
        normal=_frozen(N),
        k0=_frozen(k0),
        gauss=_frozen(K),
        area=float(area),
        convex=bool(np.all(K > 0.0)),
    )


# -- constructors -----------------------------------------------------------

def round_sphere(grid: SphereGrid, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> EmbeddedSurface:
    if radius <= 0.0:
        raise InvalidArgumentError("radius must be positive")
    center = np.asarray(center, dtype=float)
    if center.shape != (3,):
        raise InvalidArgumentError("center must be three numbers")
    X = float(radius) * grid.nhat() + center[None, :]
    return surface_geometry(grid, X)


def ellipsoid(grid: SphereGrid, axes=(1.0, 1.0, 1.1)) -> EmbeddedSurface:
    axes = np.asarray(axes, dtype=float)
    if axes.shape != (3,) or np.any(axes <= 0.0):
        raise InvalidArgumentError("axes must be three positive numbers")
    return surface_geometry(grid, grid.nhat() * axes[None, :])


def harmonic_perturbation(grid: SphereGrid, base_radius: float = 1.0,
                          coeffs=None) -> EmbeddedSurface:
    """Radially perturbed sphere X = (R + sum c_lm Y_lm) nhat.

    `coeffs` is a mapping {(l, m): amplitude} or a flat coefficient list in
    the standard ordering.
    """
    from .harmonics import sh_index

    c = np.zeros(grid.n_coef)
    if coeffs is not None:
        if isinstance(coeffs, dict):
            for (l, m), amp in coeffs.items():
                if not abs(int(m)) <= int(l):
                    raise InvalidArgumentError(f"mode (l={l}, m={m}) needs |m| <= l")
                idx = sh_index(int(l), int(m))
                if idx >= grid.n_coef:
                    raise InvalidArgumentError(f"mode (l={l}, m={m}) exceeds band limit")
                c[idx] = float(amp)
        else:
            arr = np.asarray(coeffs, dtype=float)
            if arr.size > grid.n_coef:
                raise InvalidArgumentError("coefficient list exceeds band limit")
            c[: arr.size] = arr
    radial = float(base_radius) + grid.synthesis(c)
    if np.any(radial <= 0.0):
        raise InvalidArgumentError("perturbation makes the radial map nonpositive")
    return surface_geometry(grid, radial[:, None] * grid.nhat())


def surface_from_spec(grid: SphereGrid, spec: dict) -> EmbeddedSurface:
    """Build a surface from the JSON `X` block of a surface input file.

    Every number of the block goes through `io._numbers`: a string, bool or
    null, a list of the wrong depth or a NaN/Infinity raises ConfigError
    naming the key, as does a `coeffs` key other than "l,m" with integers.
    """
    from .io import _numbers

    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidArgumentError("surface spec must be an object with a 'kind'")
    kind = spec["kind"]
    known = {
        "round": {"kind", "radius", "center"},
        "ellipsoid": {"kind", "axes"},
        "harmonic_perturbation": {"kind", "base_radius", "coeffs"},
    }
    if kind not in known:
        raise InvalidArgumentError(f"unknown surface kind {kind!r}")
    extra = set(spec) - known[kind]
    if extra:
        raise InvalidArgumentError(f"unknown keys in surface spec: {sorted(extra)}")

    def number(key, value, ndim=0):
        arr = _numbers(value, f"surface spec {key!r}", ndim)
        return arr if ndim else float(arr)

    if kind == "round":
        return round_sphere(grid, number("radius", spec.get("radius", 1.0)),
                            number("center", spec.get("center", (0.0, 0.0, 0.0)), 1))
    if kind == "ellipsoid":
        return ellipsoid(grid, number("axes", spec.get("axes", (1.0, 1.0, 1.1)), 1))
    coeffs = spec.get("coeffs")
    if isinstance(coeffs, dict):
        modes = {}
        for key, amp in coeffs.items():
            try:
                l, m = (int(tok) for tok in key.split(","))
            except ValueError:
                raise ConfigError(f"surface spec 'coeffs' key {key!r} is not 'l,m' "
                                  "with integers l, m") from None
            modes[l, m] = number(f"coeffs[{key}]", amp)
        coeffs = modes
    elif coeffs is not None:
        coeffs = number("coeffs", coeffs, 1)
    return harmonic_perturbation(grid, number("base_radius", spec.get("base_radius", 1.0)),
                                 coeffs)
