"""One benchmark process: set up a workload, run its queries, print JSON.

``run.py`` starts this file in a fresh interpreter with the thread pins
already in the environment, so numpy's BLAS and OpenMP pools start
single-threaded.  Queries run in a closed loop, one at a time.

Modes:
* ``--setup-only``: import linca, build the inputs, report the time.
* untraced: repeat the whole batch while whole batches fit in
  ``--seconds`` (at least once); report each query's wall and CPU time
  with the reference time measured around it (see ``HostSpeed``).
* ``--trace``: an untraced, a traced and another untraced batch of the
  same queries; report the per-layer metrics of the traced batch and the
  tracing overhead.  The amount of work is fixed by the seed, so the
  counts repeat exactly.

The JSON result is the last line on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# How many failure messages a result carries; the counts are always complete.
MAX_MESSAGES = 5


def environment(seed: int) -> dict:
    import linca
    import numpy

    return {
        "backend": linca.backend(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "seed": seed,
    }


class HostSpeed:
    """Times a fixed reference computation between queries.

    The host's speed drifts by up to 1.6x for seconds to minutes, for wall
    and CPU time alike, so a query's time is read against a reference
    computation timed next to it.  The reference uses the same kinds of
    operations as the library and none of its code, so a change to the
    library moves the query times but not the reference.  The drift hits
    memory-bound and interpreter-bound code differently, so a workload
    names the profile it follows (``workloads.SPEED_PROFILE``):

    * ``small``: row reduction mod p of a matrix that fits in cache, plus
      Python dict and tuple work, like the many tiny eliminations;
    * ``large``: row updates over a matrix larger than the last-level
      cache, like the eliminations of millions of entries.

    ``NOMINAL_S`` is about each profile's time on a quiet host; corrected
    times are expressed at that speed."""

    EVERY_S = 1.0
    WINDOW_S = 1.5
    NOMINAL_S = {"small": 0.012, "large": 0.018}

    def __init__(self, profile: str):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self.profile = profile
        if profile == "small":
            self._matrix = rng.integers(0, 3, size=(100, 110)).astype(np.int64)
        else:
            self._matrix = rng.integers(0, 3, size=(1200, 1500)).astype(np.int64)
        self.samples = []  # (time, wall, cpu)

    def _work(self) -> None:
        np = self._np
        if self.profile == "large":
            a = self._matrix
            for r in range(0, a.shape[0], 600):
                hit = np.nonzero(a[:, r])[0]
                (a[hit, r:] + a[r, r:]) % 3
            return
        a = self._matrix.copy()
        for r in range(a.shape[0]):
            hit = np.nonzero(a[:, r])[0]
            if hit.size:
                a[hit] = (a[hit] - np.outer(a[hit, r], a[r])) % 3
        table = {}
        for i in range(6000):
            key = (i % 31, (i * 7) % 17)
            table[key] = table.get(key, 0) + i

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= self.EVERY_S:
            c0 = time.process_time()
            self._work()
            end = time.perf_counter()
            self.samples.append((end, end - now, time.process_time() - c0))

    def around(self, start: float, end: float) -> tuple[float, float]:
        """Median reference wall and CPU time near [start, end]."""
        near = [s for s in self.samples if start - self.WINDOW_S <= s[0] <= end + self.WINDOW_S]
        return statistics.median(s[1] for s in near), statistics.median(s[2] for s in near)


@dataclass
class Batch:
    """Per-query timings and outcomes of one pass over the queries, with
    the reference time measured around each query (see HostSpeed)."""

    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    ref_wall: list = field(default_factory=list)
    ref_cpu: list = field(default_factory=list)
    failed: int = 0
    unknown: int = 0
    cert_bytes: int = 0
    messages: list = field(default_factory=list)


def run_batch(queries, session, tracer=None, speed=None) -> Batch:
    """Run every query once, timing the call and its certificate round
    trip; oracles run after the clock stops."""
    batch = Batch()
    spans = []
    for qid, query in enumerate(queries):
        if speed is not None:
            speed.sample()
        if tracer is not None:
            tracer.query = qid
            span = tracer.begin("query")
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            answer = query.run(session)
        except Exception:  # a crash is a failed query, not a crashed run
            answer = None
            error = traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.end(span)
        batch.wall.append(t1 - t0)
        batch.cpu.append(c1 - c0)
        spans.append((t0, t1))
        problems = [error] if error else []
        if answer is not None:
            batch.cert_bytes += answer.cert_bytes
            batch.unknown += answer.status == "unknown"
            if not answer.verified:
                problems.append(f"certificate rejected: {answer.detail}")
            problems += query.check(answer)
        if problems:
            batch.failed += 1
            if len(batch.messages) < MAX_MESSAGES:
                batch.messages.append(f"{query.label}: {'; '.join(problems)}")
    if speed is not None:
        speed.sample(force=True)
        for t0, t1 in spans:
            ref_wall, ref_cpu = speed.around(t0, t1)
            batch.ref_wall.append(ref_wall)
            batch.ref_cpu.append(ref_cpu)
    return batch


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import linca

    if not Path(linca.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"linca imported from {linca.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    queries = workloads.build(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    session = workloads.Session(corrupt=args.corrupt)
    batches = []
    if args.trace:
        from tracing import Tracer

        # The traced batch sits between two untraced ones; the overhead is
        # its wall time minus their mean.
        batches.append(run_batch(queries, session))
        tracer = Tracer()
        untraced_span, session.io_span = session.io_span, tracer.span
        tracer.install()
        try:
            batches.append(run_batch(queries, session, tracer))
        finally:
            tracer.uninstall()
            session.io_span = untraced_span
        batches.append(run_batch(queries, session))
        walls = [sum(b.wall) for b in batches]
        layers = tracer.layer_metrics()
        layers["jsonio.cert_bytes"] = {"value": batches[1].cert_bytes, "unit": "bytes"}
        layers["trace.wall_s"] = {"value": walls[1], "unit": "s"}
        layers["trace.overhead_s"] = {
            "value": walls[1] - (walls[0] + walls[2]) / 2, "unit": "s"
        }
        out["layers"] = layers
        if args.spans is not None:
            tracer.write(args.spans)
    else:
        # Whole batches only, and only those that still fit in --seconds.
        start = time.perf_counter()
        longest = 0.0
        speed = HostSpeed(workloads.SPEED_PROFILE[args.workload])
        out["reference_nominal_s"] = speed.NOMINAL_S[speed.profile]
        while not batches or time.perf_counter() - start + longest <= args.seconds:
            t0 = time.perf_counter()
            batches.append(run_batch(queries, session, speed=speed))
            longest = max(longest, time.perf_counter() - t0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["batches"] = [asdict(b) for b in batches]
    out["environment"] = environment(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
