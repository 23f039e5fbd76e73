"""Command-line front end: embed | energy | infimum | sweep | verify.

`_COMMANDS` lists the options each command reads; `_OPTIONS` gives each
option its flag, its coercion and input check, and its default.  A value
comes from the flag, else from the flat JSON file of --config (keys mirror
the flags), else from the default.  An option the run would not read is a
configuration error naming it: a flag or config key the command lacks, a
data-family key, --radius or --band-limit next to `energy --surface`, and a
key the family does not take (`initialdata.data_from_config`).

Machine-readable output goes to --out (JSON or CSV, written atomically); a
short human summary goes to stdout.  Exit codes: 0 success, 1 verification
failure, 2 configuration error, 3 numerical-domain error, 4 no convergence.

numpy thread pools are capped before numpy is first imported, so
`--threads 1` gives bit-reproducible output.  Parsing therefore loads no
numpy: the table names coercions and library defaults as "module.name",
looked up when a run resolves its options.  Set QLELAB_LOG to error, info or
debug to control logging.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import sys
from typing import NamedTuple

from .errors import (ConfigError, ConvergenceError, InvalidArgumentError, NotConvexError,
                     NotSpacelikeError, NumericalDomainError, SingularMetricError,
                     SingularPointError)


class _Option(NamedTuple):
    help: str | None                # help of the flag; None for a config-only key
    check: str                      # "module.function" that coerces and checks a value
    flag_type: type | None = None   # argparse type of the flag (None: the string)
    default: object = None          # a value, or "module.NAME" of a library constant


_AT_REST = (0.0, 0.0, 0.0)
_OPTIONS = {
    "metric": _Option("metric file (harmonic coefficients of H_ij)", "io.check_str"),
    "surface": _Option("surface file (flat-space reference data)", "io.check_str"),
    "family": _Option("initial-data family (initialdata.FAMILIES)", "io.check_str"),
    "mass": _Option("mass parameter m of the family", "io.check_finite", float),
    "momentum": _Option("ADM momentum P1,P2,P3 of the family", "io.parse_vector"),
    "radius": _Option("coordinate radius of the sphere", "io.check_finite", float),
    "radii": _Option("'25,50,100' or 'start:end:geometric'", "io.parse_radii"),
    "band_limit": _Option("spectral band limit L", "io.check_int", int,
                          "sphere.DEFAULT_BAND_LIMIT"),
    "tol": _Option("embedding residual tolerance", "io.check_finite", float,
                   "embedding.DEFAULT_TOL"),
    "a": _Option("boost parameter a1,a2,a3", "io.parse_vector", default=_AT_REST),
    "a0": _Option("numeric start point a1,a2,a3", "io.parse_vector", default=_AT_REST),
    "a_samples": _Option(None, "io.parse_vectors", default="optimizer.DEFAULT_A_SAMPLES"),
    "seed": _Option("random seed", "io.check_int", int, 0),
    "out": _Option("output path (JSON or CSV)", "io.check_str"),
    "csv": _Option("also write the report as a one-row CSV", "io.check_str"),
}
_DATA_KEYS = ("family", "mass", "momentum")


def _lib(path):
    """The qlelab attribute named "module.name", imported on first use."""
    module, name = path.split(".")
    return getattr(importlib.import_module(f".{module}", __package__), name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlelab",
        description="Quasilocal energy estimates on spacelike 2-surfaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config; flags override its keys")
        p.add_argument("--threads", type=int, help="BLAS thread cap (1 = bit-reproducible)")
        for key in keys:
            opt = _OPTIONS[key]
            if opt.help is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=opt.flag_type,
                               help=opt.help)
    return parser


class _Options:
    """The options of one run: each key's flag, else its config key, else its default.

    Every given value is coerced and checked once, here; a bad value or a
    config key the command does not read is a ConfigError naming the key.
    """

    def __init__(self, args, config):
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
        keys = _COMMANDS[args.command][2]
        unknown = set(config) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command!r}: {sorted(unknown)}")
        self.given = {}
        for key in keys:
            value = getattr(args, key, None)
            if value is None:
                value = config.get(key)
            if value is None:
                continue
            try:
                self.given[key] = _lib(_OPTIONS[key].check)(value)
            except (TypeError, ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    def __getitem__(self, key):
        if key in self.given:
            return self.given[key]
        default = _OPTIONS[key].default
        return _lib(default) if isinstance(default, str) else default

    def require(self, key, message):
        if key not in self.given:
            raise ConfigError(message)
        return self.given[key]


def _data_from_options(opts):
    from .initialdata import data_from_config

    opts.require("family", "a data family is required (--family or config key)")
    return data_from_config({key: opts.given[key] for key in _DATA_KEYS if key in opts.given})


def _embedded_sphere(data, radius, grid):
    from .embedding import solve_weyl
    from .initialdata import coordinate_sphere

    sd = coordinate_sphere(data, radius, grid)
    return solve_weyl(sd.metric).surface, sd


def _cmd_embed(opts):
    from .embedding import solve_weyl
    from .io import load_json, metric_from_file, surface_payload, write_json

    grid, h = metric_from_file(load_json(opts.require("metric", "embed requires --metric FILE")))
    sol = solve_weyl(h, tol=opts["tol"])
    payload = surface_payload(sol.surface)
    payload.update({
        "residual": sol.residual,
        "residual_scaled": sol.residual_scaled,
        "iterations": sol.iterations,
        "converged": sol.converged,
    })
    out = opts["out"]
    if out:
        write_json(out, payload)
    print(f"embed: converged={sol.converged} iterations={sol.iterations} "
          f"residual={sol.residual:.3e} (band_limit={grid.band_limit})"
          + (f" -> {out}" if out else ""))
    return 0


def _cmd_energy(opts):
    from .energy import BoostVector, synthetic_surface_data, wang_yau_energy
    from .io import fmt, load_json, surface_from_file, write_csv, write_json
    from .sphere import make_grid

    t0 = BoostVector(opts["a"])
    if "surface" in opts.given:
        unread = sorted(set(opts.given) & {*_DATA_KEYS, "radius", "band_limit"})
        if unread:
            raise ConfigError(f"{unread} not read with --surface: the file sets the surface and L")
        surface_path = opts["surface"]
        grid, surface = surface_from_file(load_json(surface_path))
        data = synthetic_surface_data(surface, surface.k0)
        source = {"surface": surface_path, "band_limit": grid.band_limit}
    else:
        radius = opts.require("radius", "energy on a data family requires --radius")
        ini = _data_from_options(opts)
        band_limit = opts["band_limit"]
        surface, data = _embedded_sphere(ini, radius, make_grid(band_limit))
        source = {"family": ini.family, "mass": ini.mass,
                  "momentum": ini.momentum, "radius": radius,
                  "band_limit": band_limit}

    rep = wang_yau_energy(surface, data, t0)
    payload = {
        "E": rep.E, "E_tilde": rep.E_tilde, "boost_term": rep.boost_term,
        "m_LY": rep.m_ly, "C": rep.C, "lower": rep.lower, "upper": rep.upper,
        "a": list(t0.a), "inputs": source,
    }
    out = opts["out"]
    if out:
        write_json(out, payload)
    csv_path = opts["csv"]
    if csv_path:
        write_csv(csv_path,
                  ["E", "E_tilde", "boost_term", "m_LY", "C", "lower", "upper"],
                  [[rep.E, rep.E_tilde, rep.boost_term, rep.m_ly, rep.C,
                    rep.lower, rep.upper]])
    print(f"energy: E={fmt(rep.E)} E_tilde={fmt(rep.E_tilde)} m_LY={fmt(rep.m_ly)} "
          f"C={fmt(rep.C)} bounds=[{fmt(rep.lower)}, {fmt(rep.upper)}]"
          + (f" -> {out}" if out else ""))
    return 0


def _cmd_infimum(opts):
    from .io import fmt, write_json
    from .optimizer import numeric_infimum
    from .sphere import make_grid

    radius = opts.require("radius", "infimum requires --radius")
    ini = _data_from_options(opts)
    surface, data = _embedded_sphere(ini, radius, make_grid(opts["band_limit"]))
    res = numeric_infimum(surface, data, a0=opts["a0"], seed=opts["seed"])
    payload = {
        "status": res.status,
        "a_star": list(res.a_star),
        "value": res.value,
        "closed_form_value": res.closed_form_value,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    out = opts["out"]
    if out:
        write_json(out, payload)
    closed = "none" if res.closed_form_value is None else fmt(res.closed_form_value)
    print(f"infimum: status={res.status} value={fmt(res.value)} closed_form={closed} "
          f"a_star=({', '.join(fmt(v) for v in res.a_star)})"
          + (f" -> {out}" if out else ""))
    return 0


def _cmd_sweep(opts):
    from .io import fmt, write_csv
    from .optimizer import large_sphere_sweep
    from .sphere import make_grid

    radii = opts.require("radii", "sweep requires --radii")
    ini = _data_from_options(opts)
    rows = large_sphere_sweep(ini, radii, make_grid(opts["band_limit"]),
                              a_samples=opts["a_samples"], seed=opts["seed"])

    header = ["r", "m_LY", "V1", "V2", "V3", "causal", "C_r",
              "inf_numeric", "inf_closed", "eps_max"]
    table = []
    for row in rows:
        table.append([row.r, row.m_ly, row.V[0], row.V[1], row.V[2], row.causal,
                      row.C, row.inf_numeric,
                      "" if row.inf_closed is None else row.inf_closed,
                      row.eps_max])
    out = opts["out"]
    if out:
        write_csv(out, header, table)
    for row in rows:
        status = row.error or f"inf={fmt(row.inf_numeric)} eps={fmt(row.eps_max)}"
        print(f"sweep r={row.r:g}: m_LY={fmt(row.m_ly)} causal={row.causal} {status}")
    if out:
        print(f"sweep: {len(rows)} rows -> {out}")
    return 0


def _cmd_verify(opts):
    from .verify import run_verify

    seed, band_limit = opts["seed"], opts["band_limit"]
    ok = run_verify(seed=seed, band_limit=band_limit)
    print(f"verify: {'all checks passed' if ok else 'VIOLATIONS FOUND'} "
          f"(seed={seed}, band_limit={band_limit})")
    return 0 if ok else 1


# command: (handler, help, the option keys it reads)
_COMMANDS = {
    "embed": (_cmd_embed, "solve the isometric embedding of a metric file",
              ("metric", "tol", "out")),
    "energy": (_cmd_energy, "compute the energy on a data family sphere or a surface file",
               ("family", "mass", "momentum", "radius", "band_limit", "surface", "a",
                "out", "csv")),
    "infimum": (_cmd_infimum, "compute the infimum on a data family sphere",
                ("family", "mass", "momentum", "radius", "band_limit", "a0", "seed", "out")),
    "sweep": (_cmd_sweep, "large-sphere sweep of the energy infimum",
              ("family", "mass", "momentum", "radii", "band_limit", "a_samples", "seed",
               "out")),
    "verify": (_cmd_verify, "run the invariant suite; nonzero exit on violation",
               ("seed", "band_limit")),
}


def run(argv) -> int:
    """Parse argv, dispatch, and map failures to stable exit codes."""
    args = build_parser().parse_args(argv)

    threads = args.threads
    if threads is not None:
        if threads < 1:
            print("qlelab: --threads must be >= 1", file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)

    level = os.environ.get("QLELAB_LOG", "error").lower()
    logging.basicConfig(level={"error": logging.ERROR, "info": logging.INFO,
                               "debug": logging.DEBUG}.get(level, logging.ERROR))

    try:
        config = _lib("io.load_json")(args.config) if args.config else {}
        return _COMMANDS[args.command][0](_Options(args, config))
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"qlelab {args.command}: {exc}", file=sys.stderr)
        return 2
    except (NumericalDomainError, NotSpacelikeError, NotConvexError,
            SingularMetricError, SingularPointError) as exc:
        print(f"qlelab {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"qlelab {args.command}: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
