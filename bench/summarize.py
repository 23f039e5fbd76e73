"""Median and quartile spread of run records, per workload and metric.

    python3 bench/summarize.py bench/out/*-trace0.json [--out summary.json]

The spread is (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, the figure the benchmark's bounds are
checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(paths):
    groups = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        key = f"{record['workload']} trace{record['trace']}"
        metrics = record.get("per_layer") if record["trace"] else record["end_to_end"]
        group = groups.setdefault(key, {"runs": 0, "failed": 0, "seeds": [],
                                        "metrics": {}})
        group["runs"] += 1
        group["failed"] += record["failed"]
        group["seeds"].append(record["seed"])
        for name, m in metrics.items():
            group["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            group["metrics"][name]["values"].append(m["value"])
    for group in groups.values():
        for m in group["metrics"].values():
            values = m["values"]
            m["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m["q1"], m["q3"] = q1, q3
                if m["median"] > 0:
                    m["spread"] = (q3 - q1) / m["median"]
    return groups


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("records", nargs="+")
    p.add_argument("--out", help="also write the summary as JSON")
    args = p.parse_args()
    groups = summarize(args.records)
    for key, group in sorted(groups.items()):
        print(f"{key}: {group['runs']} runs, {group['failed']} failed units")
        for name, m in group["metrics"].items():
            spread = f"  spread {m['spread']:.4f}" if "spread" in m else ""
            print(f"  {name:<40} median {m['median']:.6g} {m['unit']}{spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(groups, indent=1) + "\n")


if __name__ == "__main__":
    main()
