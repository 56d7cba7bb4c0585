#!/usr/bin/env python3
"""End-to-end benchmark of linca's certified answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload invert-sigma --seed 1 --seconds 20 --trace 0

Each run starts fresh single-threaded worker processes (``worker.py``) with
BLAS/OpenMP pinned to one thread and ``src/`` on the import path, so the
library is used straight from source.  ``--trace 0`` measures the
end-to-end metrics: set-up (several fresh processes, median), then the
workload's batch of queries repeated in a closed loop for ``--seconds``.
``--trace 1`` runs one untraced and one traced batch and reports the
per-layer metrics.  Every answer's certificate is re-verified after a JSON
round trip and checked by an independent oracle; a failure makes the run
exit nonzero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(metrics, counts and the environment: backend, numpy and Python versions,
nproc, thread pins, seed) is written under ``perfbench/out/``; compare
records with ``compare.py``.

``--smoke`` shrinks every workload to a few small instances, and
``--corrupt`` flips one inverse block entry of the first reversible
certificate before it is verified; both exist for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("invert-sigma", "preimage-plateau", "mixed-small")
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Fresh processes that only set up; with the measured worker's own set-up
# they give the median reported as setup_s.
SETUP_PROBES = 6
# Every run must end within this many seconds, workers included.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")] + args,
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc


def quantile(values: list, q: float) -> float:
    """The q-quantile, interpolating between neighbouring values (Python's
    ``statistics.quantiles`` with the inclusive method)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def fastest(batches: list, key: str, reference: Optional[str] = None, nominal=None) -> list:
    """Each query's fastest time over the batches, optionally rescaled to
    the reference speed: time * nominal / reference time nearby."""
    per_batch = []
    for b in batches:
        times = b[key]
        if reference is not None:
            times = [t * nominal / r for t, r in zip(times, b[reference])]
        per_batch.append(times)
    return [min(ts) for ts in zip(*per_batch)]


def end_to_end(setups: list, result: dict, certified_ratio: float) -> dict:
    """Times are read against the reference computation (see
    ``worker.HostSpeed``) and each query counts at its fastest repeat."""
    batches = result["batches"]
    nominal = result["reference_nominal_s"]
    wall = fastest(batches, "wall", "ref_wall", nominal)
    cpu = fastest(batches, "cpu", "ref_cpu", nominal)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "query_p50_s": (quantile(wall, 0.5), "s"),
        "query_p90_s": (quantile(wall, 0.9), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "certified_ratio": (certified_ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def raw_times(batches: list) -> dict:
    """The same statistics without the speed correction."""
    wall = fastest(batches, "wall")
    return {
        "wall_s": sum(wall),
        "cpu_s": sum(fastest(batches, "cpu")),
        "query_p50_s": quantile(wall, 0.5),
        "query_p90_s": quantile(wall, 0.9),
        "reference_s": statistics.median(r for b in batches for r in b["ref_wall"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "linca" / "__init__.py").is_file():
        print(f"no linca sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--smoke"] * args.smoke
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans = OUT / f"{stem}.spans.jsonl"
            result = worker(
                common + ["--trace", "--spans", str(spans)] + ["--corrupt"] * args.corrupt,
                deadline,
            )
        else:
            setups = [
                worker(common + ["--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            result = worker(
                common + ["--seconds", str(args.seconds)] + ["--corrupt"] * args.corrupt,
                deadline,
            )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    batches = result["batches"]
    attempted = sum(len(b["wall"]) for b in batches)
    failed = sum(b["failed"] for b in batches)
    unknown = sum(b["unknown"] for b in batches)
    if args.trace:
        metrics = result["layers"]
    else:
        certified = (attempted - unknown - failed) / attempted
        metrics = end_to_end(setups + [result["setup_s"]], result, certified)
        raw = raw_times(batches)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": result["environment"],
        "batch_wall_s": [sum(b["wall"]) for b in batches],
        "query_samples": len(batches[0]["wall"]),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "unknown_ratio": unknown / attempted,
        "metrics": metrics,
    }
    if not args.trace:
        record["raw"] = raw
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = result["environment"]
    print(
        f"workload {args.workload} seed {args.seed}: backend {env['backend']}, "
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        + " ".join(f"{k}={v}" for k, v in env["thread_pins"].items())
    )
    print(
        f"{len(batches)} batches of {len(batches[0]['wall'])} queries, {attempted} attempted; "
        f"latency percentiles over {len(batches[0]['wall'])} queries, each at its fastest run; "
        f"failed_ratio {failed / attempted:.4f}, unknown_ratio {unknown / attempted:.4f}"
    )
    for message in [m for b in batches for m in b["messages"]][:5]:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"  {name:36} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print("uncorrected: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
