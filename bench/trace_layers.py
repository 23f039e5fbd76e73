"""Layer tracing of qlelab from outside the package.

`Tracer.install()` rebinds each traced function in every loaded `qlelab.*`
module namespace where the name is bound to the original function, and
replaces the `SphereGrid` transform methods on the class.  Nothing under
`src/` changes.  Function calls become spans (name, start, end, parent)
kept in memory; transform calls are only counted, with the bytes and flops
their matrix products imply (computed from array shapes, not measured).

A traced name that no longer exists is recorded in `Tracer.absent` and
skipped, so a later refactor of the package does not break the trace.
Standard library only, so it can be imported before numpy is timed.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# (module, attribute) pairs traced as spans.  The span name is "module.attr".
TRACED_FUNCTIONS = (
    ("harmonics", "real_sh_basis"),
    ("sphere", "make_grid"),
    ("sphere", "laplacian"),
    ("sphere", "grad_norm_squared"),
    ("surfaces", "surface_geometry"),
    ("initialdata", "coordinate_sphere"),
    ("embedding", "metric_gauss_curvature"),
    ("embedding", "solve_weyl"),
    ("energy", "wang_yau_energy"),
    ("energy", "momentum_four_vector"),
    ("energy", "bound_constant_C"),
    ("optimizer", "numeric_infimum"),
    ("io", "write_csv"),
)

# SphereGrid methods counted as transforms: attribute -> basis matrices used.
TRANSFORM_METHODS = {"analysis": ("WY",), "synthesis": ("Y",),
                     "synth_deriv": ("Yt", "Yp")}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, extra]
        self.absent = []
        self.transforms = 0
        self.transform_bytes = 0
        self.transform_flops = 0
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._wrapped = {}       # original function -> wrapper

    # -- spans ---------------------------------------------------------------

    def open_span(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close_span(self, index, extra=None):
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = extra

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer.open_span(name)
            extra = None
            try:
                result = func(*args, **kwargs)
                extra = _result_extra(name, args, result)
                return result
            except Exception as exc:
                extra = {"error": type(exc).__name__,
                         "iterations": getattr(exc, "iterations", None)}
                raise
            finally:
                tracer.close_span(index, extra)

        return wrapper

    def _count_transform(self, attr, func):
        tracer = self
        matrices = TRANSFORM_METHODS[attr]

        @functools.wraps(func)
        def wrapper(grid, arg, *rest, **kwargs):
            result = func(grid, arg, *rest, **kwargs)
            rows, cols = getattr(grid, matrices[0]).shape
            first = result[0] if isinstance(result, tuple) else result
            width = 1 if first.ndim == 1 else first.shape[1]
            per_product = 8 * (rows * cols + (rows + cols) * width)
            tracer.transforms += 1
            tracer.transform_bytes += per_product * len(matrices)
            tracer.transform_flops += 2 * rows * cols * width * len(matrices)
            return result

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every traced name that exists; record the rest as absent."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "qlelab" or name.startswith("qlelab."))}
        for mod_name, attr in TRACED_FUNCTIONS:
            home = modules.get(f"qlelab.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                if f"{mod_name}.{attr}" not in self.absent:
                    self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrapped.setdefault(
                original, self._wrap(f"{mod_name}.{attr}", original))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        grid_cls = getattr(modules.get("qlelab.sphere"), "SphereGrid", None)
        for attr in TRANSFORM_METHODS:
            original = getattr(grid_cls, attr, None)
            if original is None:
                if f"sphere.SphereGrid.{attr}" not in self.absent:
                    self.absent.append(f"sphere.SphereGrid.{attr}")
                continue
            self._patches.append((grid_cls, attr, original))
            setattr(grid_cls, attr, self._count_transform(attr, original))

    def uninstall(self):
        """Restore every original binding, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write_spans(self, path):
        """One JSON object per span: name, start, end, parent, extra."""
        with open(path, "w") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "extra": extra}) + "\n")


def _result_extra(name, args, result):
    """The few result fields the per-layer metrics need."""
    if name in ("embedding.solve_weyl", "optimizer.numeric_infimum"):
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "io.write_csv":
        return {"bytes": os.path.getsize(args[0])}
    return None


def layer_metrics(tracer, grid):
    """Per-layer metrics from the recorded spans and transform counters.

    busy_s sums the outermost spans of a name; self_s subtracts the time of
    their direct child spans (other traced functions, not transforms).
    """
    spans = tracer.spans
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    by_name = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_time[parent] += duration[i]

    def has_ancestor(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def outermost(name):
        return [i for i in by_name.get(name, ()) if not has_ancestor(i, name)]

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(duration[i] for i in outermost(name))

    def self_time(name):
        return sum(duration[i] - child_time[i] for i in by_name.get(name, ()))

    def extras(name):
        return [spans[i][4] or {} for i in by_name.get(name, ())]

    solves = extras("embedding.solve_weyl")
    gn = sum(e.get("iterations") or 0 for e in solves)
    jacobian_steps = sum(max((e.get("iterations") or 0) - 1, 0) for e in solves)
    weyl_self = self_time("embedding.solve_weyl")
    evals = calls("energy.wang_yau_energy")
    infima = extras("optimizer.numeric_infimum")
    evals_in_infima = sum(1 for i in by_name.get("energy.wang_yau_energy", ())
                          if has_ancestor(i, "optimizer.numeric_infimum"))
    n, nc = grid.size, grid.n_coef

    values = {
        "harmonics.real_sh_basis.calls": (calls("harmonics.real_sh_basis"), "count"),
        "harmonics.real_sh_basis.busy_s": (busy("harmonics.real_sh_basis"), "s"),
        "sphere.make_grid.busy_s": (busy("sphere.make_grid"), "s"),
        "sphere.transforms": (tracer.transforms, "count"),
        "sphere.transform_mb": (tracer.transform_bytes / 1e6, "MB_computed"),
        "sphere.transform_gflop": (tracer.transform_flops / 1e9, "GFLOP_computed"),
        "sphere.laplacian.calls": (calls("sphere.laplacian"), "count"),
        "sphere.laplacian.busy_s": (busy("sphere.laplacian"), "s"),
        "sphere.grad_norm_squared.busy_s": (busy("sphere.grad_norm_squared"), "s"),
        "surfaces.surface_geometry.calls": (calls("surfaces.surface_geometry"), "count"),
        "surfaces.surface_geometry.busy_s": (busy("surfaces.surface_geometry"), "s"),
        "initialdata.coordinate_sphere.busy_s": (busy("initialdata.coordinate_sphere"), "s"),
        "embedding.metric_gauss_curvature.calls":
            (calls("embedding.metric_gauss_curvature"), "count"),
        "embedding.metric_gauss_curvature.busy_s":
            (busy("embedding.metric_gauss_curvature"), "s"),
        "embedding.solve_weyl.busy_s": (busy("embedding.solve_weyl"), "s"),
        "embedding.solve_weyl.self_s": (weyl_self, "s"),
        "embedding.gn_iterations": (gn, "count"),
        "embedding.gn_iter_s": (weyl_self / gn if gn else 0.0, "s"),
        "embedding.jacobian_mb":
            (3 * n * 3 * nc * 8 / 1e6 if jacobian_steps else 0.0, "MB_computed"),
        "embedding.solve_weyl.failed":
            (sum(1 for e in solves if "error" in e or not e.get("converged")), "count"),
        "energy.wang_yau_energy.calls": (evals, "count"),
        "energy.wang_yau_energy.busy_s": (busy("energy.wang_yau_energy"), "s"),
        "energy.wang_yau_energy.self_s": (self_time("energy.wang_yau_energy"), "s"),
        "energy.eval_s.p50": (statistics.median(
            duration[i] for i in by_name["energy.wang_yau_energy"]) if evals else 0.0, "s"),
        "energy.surface_terms_per_eval":
            ((calls("energy.momentum_four_vector") + calls("energy.bound_constant_C"))
             / evals if evals else 0.0, "ratio"),
        "optimizer.numeric_infimum.busy_s": (busy("optimizer.numeric_infimum"), "s"),
        "optimizer.numeric_infimum.self_s": (self_time("optimizer.numeric_infimum"), "s"),
        "optimizer.evals_per_infimum": (evals_in_infima / len(infima) if infima else 0.0,
                                        "count"),
        "optimizer.simplex_iterations": (sum(e.get("iterations") or 0 for e in infima),
                                         "count"),
        "optimizer.converged_ratio":
            (sum(1 for e in infima if e.get("converged")) / len(infima) if infima else 0.0,
             "ratio"),
        "io.write_csv.busy_s": (busy("io.write_csv"), "s"),
        "io.bytes_written": (sum(e.get("bytes") or 0 for e in extras("io.write_csv")),
                             "bytes"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
