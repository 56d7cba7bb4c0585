#!/usr/bin/env python3
"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files or directories of them (``perfbench/out/``
of two checkouts).  For every workload and metric the script prints both
medians, the change, and a verdict against the metric's bound in
``BENCHMARK.json``: ``worse`` when the new median is worse by more than the
bound, ``unresolved`` when the base runs themselves spread wider than the
bound, otherwise ``ok``.  Per-layer metrics have no bound and get no
verdict.  Records made with different elimination backends measure
different programs, so such a comparison is refused (exit 2).  The exit
code is 1 when any metric is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def by_metric(records: list) -> dict:
    """{(workload, metric): [values]} over the records."""
    out = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            out[(rec["workload"], name)].append(m["value"])
    return out


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)

    base, new = load(args.base), load(args.new)
    backends = {r["environment"]["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare records from different backends: {sorted(backends)}")
        return 2
    spec = json.loads(BENCHMARK.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old_values, new_values = by_metric(base), by_metric(new)
    worse = False
    print(f"{'workload':18} {'metric':34} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for key in sorted(old_values.keys() & new_values.keys()):
        workload, name = key
        before = statistics.median(old_values[key])
        after = statistics.median(new_values[key])
        change = (after - before) / abs(before) if before else 0.0
        meta = declared.get(name, {})
        verdict = ""
        if "bound" in meta:
            loss = change if meta["better"] == "lower" else -change
            if spread(old_values[key]) > meta["bound"]:
                verdict = "unresolved"
            elif loss > meta["bound"]:
                verdict, worse = "worse", True
            else:
                verdict = "ok"
        print(f"{workload:18} {name:34} {before:12.6g} {after:12.6g} {change:+8.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
