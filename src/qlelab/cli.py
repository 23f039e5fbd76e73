"""Command-line front end: embed | energy | infimum | sweep | verify.

Configuration comes from a flat JSON file (--config) with keys mirroring the
subcommand flags; explicit flags override file keys and unknown keys are
rejected.  Machine-readable output goes to --out (JSON or CSV, written
atomically); a short human summary goes to stdout.  Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 numerical-domain error,
4 no convergence.

numpy thread pools are capped before numpy is first imported, so
`--threads 1` gives bit-reproducible output.  Set QLELAB_LOG to error, info
or debug to control logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

_COMMON_KEYS = {"out", "seed", "band_limit"}
_ALLOWED_KEYS = {
    "embed": _COMMON_KEYS | {"metric", "tol"},
    "energy": _COMMON_KEYS | {"family", "mass", "momentum", "radius", "a",
                              "surface", "csv"},
    "infimum": _COMMON_KEYS | {"family", "mass", "momentum", "radius", "a0"},
    "sweep": _COMMON_KEYS | {"family", "mass", "momentum", "radii", "a_samples"},
    "verify": _COMMON_KEYS,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON config; flags override its keys")
    common.add_argument("--out", help="output path (JSON or CSV)")
    common.add_argument("--threads", type=int, help="BLAS thread cap (1 = bit-reproducible)")
    common.add_argument("--seed", type=int, help="seed for randomized suites")
    common.add_argument("--band-limit", type=int, dest="band_limit",
                        help="spectral band limit L (default 24)")

    parser = argparse.ArgumentParser(
        prog="qlelab",
        description="Quasilocal energy estimates on spacelike 2-surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", parents=[common],
                       help="solve the isometric embedding of a metric file")
    p.add_argument("--metric", help="metric file (harmonic coefficients of h)")
    p.add_argument("--tol", type=float, help="embedding residual tolerance")

    for name in ("energy", "infimum"):
        p = sub.add_parser(name, parents=[common],
                           help=f"compute the {name} on a data family sphere")
        p.add_argument("--family", choices=["schwarzschild", "composite", "flat"])
        p.add_argument("--mass", type=float)
        p.add_argument("--momentum", help="P1,P2,P3")
        p.add_argument("--radius", type=float)
        if name == "energy":
            p.add_argument("--a", help="boost parameter a1,a2,a3")
            p.add_argument("--surface", help="surface file (flat-space reference data)")
            p.add_argument("--csv", help="also write the report as a one-row CSV")
        else:
            p.add_argument("--a0", help="numeric start point a1,a2,a3")

    p = sub.add_parser("sweep", parents=[common],
                       help="large-sphere sweep of the energy infimum")
    p.add_argument("--family", choices=["schwarzschild", "composite", "flat"])
    p.add_argument("--mass", type=float)
    p.add_argument("--momentum", help="P1,P2,P3")
    p.add_argument("--radii", help="'25,50,100' or 'start:end:geometric'")

    sub.add_parser("verify", parents=[common],
                   help="run the invariant suite; nonzero exit on violation")
    return parser


def _vector(value):
    import numpy as np

    from .io import parse_vector

    if isinstance(value, str):
        return parse_vector(value)
    vec = np.asarray(value, dtype=float)
    if vec.shape != (3,):
        raise ValueError(f"expected three numbers, got {value!r}")
    return vec


def _radii(value):
    from .io import parse_radii

    return parse_radii(value) if isinstance(value, str) else [float(r) for r in value]


_COERCE = {"seed": int, "band_limit": int, "mass": float, "radius": float, "tol": float,
           "momentum": _vector, "a": _vector, "a0": _vector, "radii": _radii,
           "a_samples": lambda samples: [_vector(a) for a in samples]}


def _merge(args, config, key, default=None):
    """The flag, else the config key, else `default`, coerced to the key's type.

    A value of the wrong type raises ConfigError naming the key (exit 2).
    """
    from .errors import ConfigError

    val = getattr(args, key, None)
    if val is None:
        val = config.get(key, default)
    if val is None or key not in _COERCE:
        return val
    try:
        return _COERCE[key](val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _data_from_options(args, config):
    from .errors import ConfigError
    from .initialdata import data_from_config

    family = _merge(args, config, "family")
    if family is None:
        raise ConfigError("a data family is required (--family or config key)")
    block = {"family": family}
    if family != "flat":
        block["mass"] = _merge(args, config, "mass", 1.0)
        if family == "composite":
            block["momentum"] = _merge(args, config, "momentum", (0.0, 0.0, 0.0))
    return data_from_config(block)


def _embedded_sphere(data, radius, grid):
    from .embedding import solve_weyl
    from .initialdata import coordinate_sphere

    sd = coordinate_sphere(data, radius, grid)
    return solve_weyl(sd.metric).surface, sd


def _cmd_embed(args, config):
    from .embedding import solve_weyl
    from .errors import ConfigError
    from .io import load_json, metric_from_file, surface_payload, write_json

    metric_path = _merge(args, config, "metric")
    if metric_path is None:
        raise ConfigError("embed requires --metric FILE")
    grid, h = metric_from_file(load_json(metric_path))
    tol = _merge(args, config, "tol", 1e-9)
    sol = solve_weyl(h, tol=tol)
    payload = surface_payload(sol.surface)
    payload.update({
        "residual": sol.residual,
        "residual_scaled": sol.residual_scaled,
        "iterations": sol.iterations,
        "converged": sol.converged,
    })
    out = _merge(args, config, "out")
    if out:
        write_json(out, payload)
    print(f"embed: converged={sol.converged} iterations={sol.iterations} "
          f"residual={sol.residual:.3e} (band_limit={grid.band_limit})"
          + (f" -> {out}" if out else ""))
    return 0


def _surface_reference_data(surface):
    from .energy import synthetic_surface_data
    return synthetic_surface_data(surface, surface.k0)


def _cmd_energy(args, config):
    from .energy import BoostVector, wang_yau_energy
    from .errors import ConfigError
    from .io import fmt, load_json, surface_from_file, write_csv, write_json
    from .sphere import make_grid

    t0 = BoostVector(_merge(args, config, "a", (0.0, 0.0, 0.0)))

    band_limit = _merge(args, config, "band_limit", 24)
    surface_path = _merge(args, config, "surface")
    family = _merge(args, config, "family")
    if surface_path and family:
        raise ConfigError("give either --surface or --family, not both")
    if surface_path:
        grid, surface = surface_from_file(load_json(surface_path))
        data = _surface_reference_data(surface)
        source = {"surface": surface_path, "band_limit": grid.band_limit}
    else:
        grid = make_grid(band_limit)
        radius = _merge(args, config, "radius")
        if radius is None:
            raise ConfigError("energy on a data family requires --radius")
        ini = _data_from_options(args, config)
        surface, data = _embedded_sphere(ini, radius, grid)
        source = {"family": ini.family, "mass": ini.mass,
                  "momentum": ini.momentum, "radius": radius,
                  "band_limit": band_limit}

    rep = wang_yau_energy(surface, data, t0)
    payload = {
        "E": rep.E, "E_tilde": rep.E_tilde, "boost_term": rep.boost_term,
        "m_LY": rep.m_ly, "C": rep.C, "lower": rep.lower, "upper": rep.upper,
        "a": list(t0.a), "inputs": source,
    }
    out = _merge(args, config, "out")
    if out:
        write_json(out, payload)
    csv_path = _merge(args, config, "csv")
    if csv_path:
        write_csv(csv_path,
                  ["E", "E_tilde", "boost_term", "m_LY", "C", "lower", "upper"],
                  [[rep.E, rep.E_tilde, rep.boost_term, rep.m_ly, rep.C,
                    rep.lower, rep.upper]])
    print(f"energy: E={fmt(rep.E)} E_tilde={fmt(rep.E_tilde)} m_LY={fmt(rep.m_ly)} "
          f"C={fmt(rep.C)} bounds=[{fmt(rep.lower)}, {fmt(rep.upper)}]"
          + (f" -> {out}" if out else ""))
    return 0


def _cmd_infimum(args, config):
    from .errors import ConfigError
    from .io import fmt, write_json
    from .optimizer import numeric_infimum
    from .sphere import make_grid

    band_limit = _merge(args, config, "band_limit", 24)
    radius = _merge(args, config, "radius")
    if radius is None:
        raise ConfigError("infimum requires --radius")
    a0 = _merge(args, config, "a0", (0.0, 0.0, 0.0))
    seed = _merge(args, config, "seed", 0)

    grid = make_grid(band_limit)
    ini = _data_from_options(args, config)
    surface, data = _embedded_sphere(ini, radius, grid)
    res = numeric_infimum(surface, data, a0=a0, seed=seed)
    payload = {
        "status": res.status,
        "a_star": list(res.a_star),
        "value": res.value,
        "closed_form_value": res.closed_form_value,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    out = _merge(args, config, "out")
    if out:
        write_json(out, payload)
    closed = "none" if res.closed_form_value is None else fmt(res.closed_form_value)
    print(f"infimum: status={res.status} value={fmt(res.value)} closed_form={closed} "
          f"a_star=({', '.join(fmt(v) for v in res.a_star)})"
          + (f" -> {out}" if out else ""))
    return 0


def _cmd_sweep(args, config):
    from .errors import ConfigError
    from .io import fmt, write_csv
    from .optimizer import DEFAULT_A_SAMPLES, large_sphere_sweep
    from .sphere import make_grid

    radii = _merge(args, config, "radii")
    if radii is None:
        raise ConfigError("sweep requires --radii")
    band_limit = _merge(args, config, "band_limit", 24)
    seed = _merge(args, config, "seed", 0)
    a_samples = _merge(args, config, "a_samples", DEFAULT_A_SAMPLES)

    ini = _data_from_options(args, config)
    grid = make_grid(band_limit)
    rows = large_sphere_sweep(ini, radii, grid, a_samples=a_samples, seed=seed)

    header = ["r", "m_LY", "V1", "V2", "V3", "causal", "C_r",
              "inf_numeric", "inf_closed", "eps_max"]
    table = []
    for row in rows:
        table.append([row.r, row.m_ly, row.V[0], row.V[1], row.V[2], row.causal,
                      row.C, row.inf_numeric,
                      "" if row.inf_closed is None else row.inf_closed,
                      row.eps_max])
    out = _merge(args, config, "out")
    if out:
        write_csv(out, header, table)
    for row in rows:
        status = row.error or f"inf={fmt(row.inf_numeric)} eps={fmt(row.eps_max)}"
        print(f"sweep r={row.r:g}: m_LY={fmt(row.m_ly)} causal={row.causal} {status}")
    if out:
        print(f"sweep: {len(rows)} rows -> {out}")
    return 0


def _cmd_verify(args, config):
    from .verify import run_verify

    seed = _merge(args, config, "seed", 0)
    band_limit = _merge(args, config, "band_limit", 24)
    ok = run_verify(seed=seed, band_limit=band_limit)
    print(f"verify: {'all checks passed' if ok else 'VIOLATIONS FOUND'} "
          f"(seed={seed}, band_limit={band_limit})")
    return 0 if ok else 1


_HANDLERS = {
    "embed": _cmd_embed,
    "energy": _cmd_energy,
    "infimum": _cmd_infimum,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    """Parse argv, dispatch, and map failures to stable exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)

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

    from .errors import (ConfigError, ConvergenceError, InvalidArgumentError,
                         NotConvexError, NotSpacelikeError, NumericalDomainError,
                         SingularMetricError, SingularPointError)

    config = {}
    if args.config:
        from .io import load_json
        try:
            config = load_json(args.config)
            if not isinstance(config, dict):
                raise ConfigError("config file must hold a JSON object")
            extra = set(config) - _ALLOWED_KEYS[args.command]
            if extra:
                raise ConfigError(
                    f"unknown config keys for {args.command!r}: {sorted(extra)}")
        except ConfigError as exc:
            print(f"qlelab {args.command}: {exc}", file=sys.stderr)
            return 2

    try:
        return _HANDLERS[args.command](args, config)
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
