"""EmbeddedSurface geometry against closed forms and rigid motions."""

import numpy as np
import pytest

from qlelab.errors import ConfigError, InvalidArgumentError
from qlelab.sphere import make_grid
from qlelab.surfaces import (ellipsoid, harmonic_perturbation, round_sphere,
                             surface_from_spec, surface_geometry)


def spheroid_curvatures(theta, a, c):
    """Principal-curvature closed forms for the axisymmetric ellipsoid."""
    w = np.sqrt(a ** 2 * np.cos(theta) ** 2 + c ** 2 * np.sin(theta) ** 2)
    k_meridian = a * c / w ** 3
    k_parallel = c / (a * w)
    return k_meridian + k_parallel, (a * c / w ** 3) * (c / (a * w))


def test_round_sphere_geometry(grid16):
    R = 2.0
    S = round_sphere(grid16, R)
    assert np.abs(S.k0 - 2.0 / R).max() <= 1e-10
    assert np.abs(S.gauss - 1.0 / R ** 2).max() <= 1e-10
    assert abs(S.area - 4 * np.pi * R ** 2) <= 1e-10
    radial = S.X / np.linalg.norm(S.X, axis=1)[:, None]
    assert np.abs(np.einsum("ni,ni->n", S.normal, radial) - 1.0).max() <= 1e-12


def test_normal_is_orthogonal_to_tangents(grid16):
    S = harmonic_perturbation(grid16, 1.0, {(2, 1): 0.02, (3, -2): 0.015})
    assert np.abs(np.einsum("ni,ni->n", S.normal, S.Xt)).max() <= 1e-10
    assert np.abs(np.einsum("ni,ni->n", S.normal, S.Xp)).max() <= 1e-10


def test_ellipsoid_against_closed_forms(grid16):
    a, c = 1.0, 1.1
    S = ellipsoid(grid16, (a, a, c))
    k_oracle, K_oracle = spheroid_curvatures(grid16.theta, a, c)
    assert np.abs(S.k0 - k_oracle).max() <= 1e-8
    assert np.abs(S.gauss - K_oracle).max() <= 1e-8
    assert S.convex


def test_rigid_motion_covariance(grid16):
    S = harmonic_perturbation(grid16, 1.2, {(2, 0): 0.03, (3, 1): -0.02})
    th = 0.83
    R = np.array([[np.cos(th), 0, np.sin(th)], [0, 1, 0],
                  [-np.sin(th), 0, np.cos(th)]])
    Q = S.rotated(R)
    assert np.abs(Q.k0 - S.k0).max() <= 1e-10
    assert np.abs(Q.gauss - S.gauss).max() <= 1e-10
    assert abs(Q.area - S.area) <= 1e-10
    assert np.abs(Q.normal - S.normal @ R.T).max() <= 1e-10
    T = S.translated((0.3, -0.1, 0.2))
    assert np.abs(T.k0 - S.k0).max() <= 1e-9


def test_surface_geometry_validates_input(grid16):
    with pytest.raises(InvalidArgumentError):
        surface_geometry(grid16)
    with pytest.raises(InvalidArgumentError):
        surface_geometry(grid16, X_values=np.zeros((5, 3)))
    with pytest.raises(InvalidArgumentError):
        round_sphere(grid16, -1.0)


def test_harmonic_perturbation_modes(grid16):
    with pytest.raises(InvalidArgumentError):
        harmonic_perturbation(grid16, 1.0, {(40, 0): 0.1})
    S = harmonic_perturbation(grid16, 1.0, {(2, 0): 0.01})
    assert S.convex
    assert abs(S.area - 4 * np.pi) < 0.1


def test_surface_from_spec_round_trip(grid16):
    spec = {"kind": "ellipsoid", "axes": [1.0, 1.0, 1.1]}
    S = surface_from_spec(grid16, spec)
    assert abs(S.area - ellipsoid(grid16, (1, 1, 1.1)).area) <= 1e-12
    with pytest.raises(InvalidArgumentError):
        surface_from_spec(grid16, {"kind": "torus"})
    with pytest.raises(InvalidArgumentError):
        surface_from_spec(grid16, {"kind": "round", "radius": 1.0, "junk": 2})


@pytest.mark.parametrize("spec", [
    {"kind": "ellipsoid", "axes": "abc"},
    {"kind": "ellipsoid", "axes": [[1.0, 1.0, 1.1]]},
    {"kind": "round", "radius": "x"},
    {"kind": "round", "center": [0.0, 0.0, float("inf")]},
    {"kind": "harmonic_perturbation", "base_radius": None},
    {"kind": "harmonic_perturbation", "coeffs": {"x,0": 0.01}},
    {"kind": "harmonic_perturbation", "coeffs": {"2,0,1": 0.01}},
    {"kind": "harmonic_perturbation", "coeffs": {"2.5,0": 0.01}},
    {"kind": "harmonic_perturbation", "coeffs": {"2,0": "0.01"}},
])
def test_surface_from_spec_rejects_bad_numbers(grid16, spec):
    with pytest.raises(ConfigError):
        surface_from_spec(grid16, spec)


def test_spec_shapes_and_modes_are_checked(grid16):
    with pytest.raises(InvalidArgumentError, match="center"):
        round_sphere(grid16, 1.0, (0.0, 0.0))
    # (l, m) = (1, 5) would alias the flat index of (2, 3).
    with pytest.raises(InvalidArgumentError, match=r"\|m\| <= l"):
        harmonic_perturbation(grid16, 1.0, {(1, 5): 0.01})
