"""Benchmark of qlelab: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_composite --seed 1 --seconds 45 --trace 0

Workloads (see bench/README.md and BENCHMARK.json for why each exists):
sweep_composite, embed_nonround.

One process runs one workload.  The BLAS pools are pinned to one thread
before numpy loads.  After set-up (import, `make_grid(L)`, one warm-up
`metric_gauss_curvature` call), the workload's fixed units run as passes
until the passes have taken `--seconds`; every unit's outputs are checked.
After each pass a fresh child process times its own set-up.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics of set-up plus the first
traced pass, with the tracing overhead.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the full
record, with the environment, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("sweep_composite", "embed_nonround")
BAND_LIMIT = 24
WARMUP_RADIUS = 1.3        # round metric outside every workload
MIN_TAIL_BEYOND = 10       # units beyond the reported tail percentile
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up and print it (used for setup_s samples)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- set-up -----------------------------------------------------------------

def setup(tracer=None):
    """Import qlelab from this checkout, build the grid, fill lazy bases.

    Returns (grid, seconds).  Exits with a nonzero status, printing no
    result, if the package sources are not in this checkout.
    """
    start = time.perf_counter()
    if not (SRC / "qlelab" / "__init__.py").is_file():
        sys.exit(f"bench: no qlelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qlelab
    if Path(qlelab.__file__).resolve().parent != SRC / "qlelab":
        sys.exit(f"bench: imported qlelab from {qlelab.__file__}, not from {SRC}")
    from qlelab import (embedding, energy, initialdata, io,  # noqa: F401
                        optimizer, sphere, surfaces)
    if tracer is not None:
        tracer.install()
    grid = sphere.make_grid(BAND_LIMIT)
    embedding.metric_gauss_curvature(sphere.round_metric(grid, WARMUP_RADIUS))
    if tracer is not None:
        tracer.uninstall()
    return grid, time.perf_counter() - start


def child_setup_seconds(workload):
    """Set-up time of a fresh process, which waits for it to end."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# -- measurement ------------------------------------------------------------

class UnitRunner:
    """Times units and records failures.  While `tracer` is set, each unit
    is a span instead and its time is left out of `times`."""

    def __init__(self):
        self.times = []
        self.errors = []
        self.tracer = None

    def __call__(self, func, *args, **kwargs):
        span = self.tracer.open_span("unit") if self.tracer is not None else None
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        except Exception:              # a failed unit is counted, not fatal
            self.errors.append(traceback.format_exc(limit=3))
            return None
        finally:
            if span is None:
                self.times.append(time.perf_counter() - start)
            else:
                self.tracer.close_span(span)


def tail_percentile(times):
    """(p, value): the highest whole percentile >= 50 with at least
    MIN_TAIL_BEYOND units above it (nearest rank), or None."""
    n = len(times)
    ordered = sorted(times)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)           # ceil(p n / 100)
        if n - rank >= MIN_TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlelab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "band_limit": BAND_LIMIT,
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        _, seconds = setup()
        print(json.dumps({"setup_s": seconds}))
        return 0

    tracer = None
    if args.trace:
        from trace_layers import Tracer, layer_metrics
        tracer = Tracer()
    grid, own_setup = setup(tracer)
    setup_samples = [own_setup]

    from workloads import WORKLOADS
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](grid, args.seed, str(OUT_DIR))

    runner = UnitRunner()
    ok = []
    walls = {False: [], True: []}         # traced? -> pass wall times
    layers = None
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            # Only the first traced pass is reported; later ones give wall time.
            runner.tracer = tracer if layers is None else Tracer()
            runner.tracer.install()
        t0 = time.perf_counter()
        ok += workload.run_pass(runner)
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            runner.tracer.uninstall()
            runner.tracer = None
            if layers is None:
                layers = layer_metrics(tracer, grid)
        # One set-up sample per pass, so that they span the run as passes do.
        setup_samples.append(child_setup_seconds(args.workload))
        # Stop when one more pass would end nearer past --seconds than now.
        passes = walls[False] + walls[True]
        if sum(passes) + 0.5 * statistics.median(passes) >= args.seconds and (
                not args.trace or walls[True]):
            break
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")

    attempted, failed = len(ok), ok.count(False)
    end_to_end = {
        "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
        "unit_s.p50": {"value": statistics.median(runner.times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
    }
    tail = tail_percentile(runner.times)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "passes": {"untraced": walls[False], "traced": walls[True]},
        "units_per_pass": attempted // (len(walls[False]) + len(walls[True])),
        "setup_samples_s": setup_samples,
        "unit_s.tail": None if tail is None else
        {"percentile": tail[0], "value": tail[1], "units": len(runner.times)},
        "end_to_end": end_to_end,
        "errors": runner.errors[:5],
    }
    if hasattr(workload, "csv_sha256"):
        record["csv_sha256"] = workload.csv_sha256
    if args.trace:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        layers["trace.wall_s"] = {"value": statistics.median(walls[True]), "unit": "s"}
        layers["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        record["per_layer"] = layers
        record["absent"] = tracer.absent

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record)
    metrics = record["per_layer"] if args.trace else end_to_end
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_summary(record):
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  L={env['band_limit']}")
    print(f"  env: commit {env['git_commit']}  src {env['src_sha256'][:12]}  "
          f"numpy {env['numpy']}  {env['blas']}  nproc {env['nproc']}  "
          f"threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}")
    passes = record["passes"]
    print(f"  {len(passes['untraced'])} untraced + {len(passes['traced'])} traced passes "
          f"of {record['units_per_pass']} units")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    tail = record["unit_s.tail"]
    if tail is None:
        print(f"  unit_s.tail    n/a (fewer than {2 * MIN_TAIL_BEYOND} units)")
    else:
        print(f"  unit_s.tail    {tail['value']:.6g} s  (p{tail['percentile']} "
              f"of {tail['units']} units)")
    print(f"  failed_frac    {record['failed_frac']:.6g}  "
          f"({record['failed']}/{record['attempted']} units)")
    for error in record["errors"]:
        print("  error: " + error.strip().replace("\n", "\n         "))
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if record.get("absent"):
        print(f"  absent from the package: {', '.join(record['absent'])}")


if __name__ == "__main__":
    sys.exit(main())
