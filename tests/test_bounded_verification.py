"""Verification costs what the certificate holds, not what its integers say.

Every integer in a certificate's payload, and every sparse index of a sigma
round trip, is set in turn to 10^k for large k; a large level or window is
also paired with a cell list that repeats one cell.  Each copy must be answered
by ``verify_certificate`` within 2 s, without raising, in a process whose
address space is capped at 1 GB.  The cases run in one subprocess, so the
cap and a runaway case cannot touch the test runner.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linca
from linca import (
    IntegerGroup,
    LinearCA,
    Pattern,
    PreimageResult,
    WindowSystem,
    finite_support,
    gallery,
    jsonio,
)
from test_certificates import CASES, certificate

EXPONENTS = (3, 4, 6, 9, 12, 18)
ADDRESS_SPACE = 1 << 30
SECONDS = 2.0
# Fields the rebuild copies without using them: any value is as valid.
UNCHECKED = {("preimage", "payload", "cutoff")}
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Reads [label, certificate] pairs on stdin; prints one result per case.  A
# case that overruns its time is stopped by an alarm, so a parent-side
# timeout only guards against a hang inside C code.
WORKER = f"""
import json, resource, signal, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))

def overrun(signum, frame):
    raise TimeoutError("over {SECONDS} s")

signal.signal(signal.SIGALRM, overrun)
from linca import jsonio
results = []
for label, cert in json.load(sys.stdin):
    signal.setitimer(signal.ITIMER_REAL, {SECONDS})
    start = time.perf_counter()
    try:
        ok, detail = jsonio.verify_certificate(cert)
    except Exception as exc:  # MemoryError and the overrun included
        ok, detail = None, f"raised {{type(exc).__name__}}: {{exc}}"
    signal.setitimer(signal.ITIMER_REAL, 0)
    results.append([label, ok, detail, time.perf_counter() - start])
print(json.dumps(results))
"""


def _integer_paths(doc, prefix=()):
    """The path of every int (not bool) below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        if isinstance(value, int) and not isinstance(value, bool):
            yield prefix + (key,)
        else:
            yield from _integer_paths(value, prefix + (key,))


def _round_trip_indices(cert):
    """Paths of the sparse indices of every round-trip configuration."""
    for t, trip in enumerate(cert["transcript"].get("round_trips", ())):
        for c, (_, vector) in enumerate(trip["config"]["cells"]):
            for e in range(len(vector)):
                yield ("transcript", "round_trips", t, "config", "cells", c, 1, e, 0)


def _cases():
    """(label, checked, certificate) for every field and exponent."""
    out = []
    for kind, with_target in CASES:
        original = certificate(kind, with_target)
        paths = [("payload",) + path for path in _integer_paths(original["payload"])]
        paths += list(_round_trip_indices(original))
        assert paths, kind
        for path in paths:
            for k in EXPONENTS:
                cert = copy.deepcopy(original)
                parent = cert
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = 10**k
                label = f"{kind}{'+target' if with_target else ''} {'/'.join(map(str, path))} = 10^{k}"
                checked = (kind,) + path not in UNCHECKED
                out.append((label, checked, cert))
    return out + _repeated_cell_cases()


def _repeated_cell_cases():
    """A large level or window whose cell list repeats one cell to the
    length of the ball: as many entries as the ball, few distinct cells."""
    level = 10**4
    count = 2 * level + 1
    fiber = certificate("empty-fiber")
    fiber["payload"]["level"] = level
    fiber["payload"]["window"] = fiber["payload"]["window"][:1] * count
    image = certificate("preimage")
    image["payload"]["window"] = level
    image["payload"]["pattern"]["cells"] = image["payload"]["pattern"]["cells"][:1] * count
    return [
        ("empty-fiber level = 10^4, window repeats one cell", True, fiber),
        ("preimage window = 10^4, pattern repeats one cell", True, image),
    ]


def _verify_bounded(cases) -> list:
    """[label, ok, detail, seconds] for each (label, _, certificate) case,
    verified in one subprocess under the address-space cap."""
    proc = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=json.dumps([[label, cert] for label, _, cert in cases]),
        capture_output=True,
        text=True,
        timeout=60,
        cwd=Path(linca.__file__).parents[1],
        # Every BLAS thread reserves address space that the cap counts.
        env={**os.environ, **{v: "1" for v in BLAS_THREADS}},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    return results


def test_huge_integers_are_answered_within_bounds():
    cases = _cases()
    results = _verify_bounded(cases)
    failures = []
    for (label, checked, _), (_, ok, detail, seconds) in zip(cases, results):
        if ok is None or seconds > SECONDS:
            failures.append(f"{label}: {detail} after {seconds:.2f} s")
        elif checked and ok:
            failures.append(f"{label}: accepted")
    assert not failures, "\n".join(failures[:20])


def test_sigma_builder_holds_round_trips_to_block_j0_plus_1():
    witness = gallery.sigma_nonreversibility_witness(3, 3, 2)
    edge = gallery.block_end(4)
    ok = jsonio.sigma_witness_certificate(
        witness, [gallery.lazy_config(2, {0: gallery.basis(2, edge)})]
    )
    assert jsonio.verify_certificate(ok)[0]
    far = [gallery.lazy_config(2, {0: gallery.basis(2, edge + 1)})]
    with pytest.raises(jsonio.CertificateError, match="past block j0 \\+ 1"):
        jsonio.sigma_witness_certificate(witness, far)


def test_valid_preimage_certificate_at_window_10_4_verifies_within_bounds():
    """A valid certificate of 20,003 listed cells: the image is evaluated
    cell by cell, so neither the build nor the verifier's rebuild forms the
    20,002 x 20,003 window matrix (3.2 GB) that the cap would refuse."""
    window = 10**4
    ca = LinearCA(IntegerGroup(), 2, 1, (0, 1), ([[1]], [[1]]))
    rng = random.Random(5)
    cells = {g: np.array([rng.randrange(2)]) for g in WindowSystem(ca).cells(window)[0]}
    target = ca.apply_config(finite_support(2, 1, cells))
    result = PreimageResult("ok", pattern=Pattern(cells))
    cert = jsonio.preimage_certificate(ca, target, result, window, 0)
    assert (len(cells), len(cert["transcript"]["matched_cells"])) == (20_003, 20_002)
    [(_, ok, detail, seconds)] = _verify_bounded([("preimage window = 10^4", True, cert)])
    assert ok is True, detail
    assert seconds <= SECONDS
