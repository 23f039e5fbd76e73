"""The seeded benchmark workloads and their output checks.

Each workload builds its inputs from the seed with qlelab's public
constructors only (`surfaces.ellipsoid`, `surfaces.harmonic_perturbation`,
`initialdata.composite_data`), never from the `verify` helpers, so an edit
to the verify suite cannot change a workload.

A *pass* runs the workload's fixed units once.  `run_pass(run_unit)` calls
each unit through `run_unit(func, *args, **kwargs)`, which times it and
returns its result, or None if it raised; it returns one bool per unit,
True when the unit's outputs meet the paper's statements.  Library
functions are always looked up through their module, so the layer trace
sees them.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from qlelab import embedding, initialdata, io, optimizer, sphere, surfaces

# Tolerances are the library's own: the simplex value tolerance and the Weyl
# solver's default.
VALUE_TOL = optimizer.VALUE_TOL
WEYL_TOL = embedding.DEFAULT_TOL
INVARIANT_RTOL = 1e-8
MAX_REJECTIONS = 100

SWEEP_HEADER = ["r", "m_LY", "V1", "V2", "V3", "causal", "C_r",
                "inf_numeric", "inf_closed", "eps_max"]


def total_mean_curvature(S) -> float:
    """int k0 dv, a rigid-motion invariant of the embedded surface."""
    return sphere.integrate(S.k0_field, S.metric)


def _relative_error(value, reference) -> float:
    return abs(value - reference) / abs(reference)


class SweepComposite:
    """`qlelab sweep --family composite --mass 1 --momentum 0.3,0,0
    --radii 25:200:geometric`, one radius per unit.

    The seed drives the random simplex restart of `numeric_infimum`.  Each
    pass writes the sweep CSV with `io.write_csv`; every pass of a run must
    write the same bytes.
    """

    radii = (25.0, 50.0, 100.0, 200.0)
    mass = 1.0
    momentum = (0.3, 0.0, 0.0)

    def __init__(self, grid, seed, out_dir):
        self.grid = grid
        self.seed = seed
        self.data = initialdata.composite_data(self.mass, self.momentum)
        self.csv_path = os.path.join(out_dir, f"sweep_composite-seed{seed}.csv")
        self.csv_sha256 = None

    def _row_ok(self, row) -> bool:
        if row.error is not None or row.causal != "timelike-future":
            return False
        band = row.C * row.m_ly / row.inf_closed
        return (row.inf_closed - VALUE_TOL <= row.inf_numeric
                <= row.inf_closed + band + VALUE_TOL
                and row.eps_max <= row.C)

    def run_pass(self, run_unit):
        rows = []
        for r in self.radii:
            result = run_unit(optimizer.large_sphere_sweep, self.data, [r],
                              self.grid, seed=self.seed)
            rows.append(None if result is None else result[0])
        ok = [row is not None and self._row_ok(row) for row in rows]

        # W_r -> (E_ADM, -P_ADM): both gaps must shrink as r grows.
        P = np.asarray(self.momentum)
        for i in range(1, len(rows)):
            if ok[i - 1] and ok[i]:
                prev, cur = rows[i - 1], rows[i]
                ok[i] = (abs(cur.m_ly - self.mass) < abs(prev.m_ly - self.mass)
                         and np.linalg.norm(cur.V + P) < np.linalg.norm(prev.V + P))

        table = [[row.r, row.m_ly, row.V[0], row.V[1], row.V[2], row.causal, row.C,
                  row.inf_numeric, "" if row.inf_closed is None else row.inf_closed,
                  row.eps_max] for row in rows if row is not None]
        io.write_csv(self.csv_path, SWEEP_HEADER, table)
        with open(self.csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.csv_sha256 is None:
            self.csv_sha256 = digest
        elif digest != self.csv_sha256:
            ok = [False] * len(ok)
        return ok


class EmbedNonround:
    """`embedding.solve_weyl(S.metric)` from the round sphere, on non-round
    convex metrics: an ellipsoid, a radial perturbation, another ellipsoid.

    The seed draws the ellipsoid axes in [1, 1.4] at a fixed largest to
    smallest ratio per slot, and the perturbation direction among the
    degree 2-4 harmonics at a fixed coefficient norm (rejected until
    convex).  Degrees 0 and 1 only rescale or translate to first order.
    Fixing the size of each distortion keeps the Gauss-Newton work per pass
    the same across seeds, so seeds vary the inputs, not the cost.  The
    three slots cost distinct amounts, and with an odd count the median unit
    time falls inside one slot's cluster rather than in a gap between two.
    """

    def __init__(self, grid, seed, out_dir):
        self.grid = grid
        rng = np.random.default_rng(seed)
        self.sources = [self._ellipsoid(rng, 1.12), self._perturbed(rng, 0.06),
                        self._ellipsoid(rng, 1.35)]
        self.invariants = [(S.area, total_mean_curvature(S)) for S in self.sources]

    def _ellipsoid(self, rng, ratio):
        smallest = rng.uniform(1.0, 1.4 / ratio)
        axes = [smallest, rng.uniform(smallest, smallest * ratio), smallest * ratio]
        return surfaces.ellipsoid(self.grid, rng.permutation(axes))

    def _perturbed(self, rng, norm):
        first, count = 4, 21               # flat indices of degrees 2..4
        for _ in range(MAX_REJECTIONS):
            c = rng.standard_normal(count)
            coeffs = np.concatenate([np.zeros(first), c * (norm / np.linalg.norm(c))])
            S = surfaces.harmonic_perturbation(self.grid, 1.0, coeffs)
            if S.convex:
                return S
        raise RuntimeError("no convex perturbation within the rejection budget")

    def run_pass(self, run_unit):
        ok = []
        for S, (area, k_int) in zip(self.sources, self.invariants):
            sol = run_unit(embedding.solve_weyl, S.metric)
            ok.append(sol is not None and sol.converged
                      and sol.residual_scaled <= WEYL_TOL
                      and _relative_error(sol.surface.area, area) <= INVARIANT_RTOL
                      and _relative_error(total_mean_curvature(sol.surface),
                                          k_int) <= INVARIANT_RTOL)
        return ok


WORKLOADS = {
    "sweep_composite": SweepComposite,
    "embed_nonround": EmbedNonround,
}
