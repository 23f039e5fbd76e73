"""qlelab: quasilocal energy of spacelike 2-surfaces.

Pseudospectral fields on the sphere, isometric embedding of convex metrics
into R^3, analytic asymptotically flat initial-data families, the
quasilocal energy/mass machinery for flat-slice embeddings, and boost
optimization with large-sphere sweeps toward the ADM mass.

Submodule attributes are loaded lazily so the CLI can cap BLAS thread pools
before numpy is first imported.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "embedding": ["WeylSolution", "embedding_residual", "metric_gauss_curvature",
                  "solve_weyl"],
    "energy": ["BoostVector", "EnergyReport", "FourVectorW", "PhiInput", "bound_constant_C",
               "classify_causal", "dphi_dt", "e_tilde", "e_tilde_tau",
               "energy_bounds", "liu_yau_mass", "minkowski_dot", "momentum_four_vector",
               "phi", "synthetic_surface_data", "tau", "wang_yau_energy"],
    "errors": ["ConfigError", "ConvergenceError", "GridMismatchError",
               "InvalidArgumentError", "NotConvexError", "NotSpacelikeError",
               "NumericalDomainError", "QlelabError", "SingularMetricError",
               "SingularPointError"],
    "initialdata": ["InitialData", "SurfaceData", "adm_energy", "adm_momentum",
                    "bowen_york_p", "composite_data", "coordinate_sphere",
                    "data_from_config", "decay_constants", "flat_data",
                    "schwarzschild_data"],
    "optimizer": ["InfimumResult", "SweepRow", "closed_form_infimum",
                  "large_sphere_sweep", "nelder_mead", "numeric_infimum"],
    "sphere": ["InducedMetric", "ScalarField", "SphereGrid", "TangentField",
               "divergence", "grad_norm_squared", "gradient", "integrate",
               "laplacian", "make_grid", "round_metric"],
    "surfaces": ["EmbeddedSurface", "ellipsoid", "harmonic_perturbation",
                 "round_sphere", "surface_from_spec", "surface_geometry"],
    "verify": ["run_verify"],
}

_ATTR_TO_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ATTR_TO_MODULE) + sorted(_EXPORTS)


def __getattr__(name):
    if name in _ATTR_TO_MODULE:
        module = importlib.import_module(f".{_ATTR_TO_MODULE[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
