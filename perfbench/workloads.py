"""Seeded inputs, timed queries and independent oracles for each workload.

A query is one call of a public entry point (``invert_ca`` or
``preimage_extract``) followed by its certificate round trip: the answer is
encoded with ``jsonio.*_certificate``, written as canonical JSON, read back
and re-checked by ``jsonio.verify_certificate``.  That is the timed part.
Each query also carries an oracle that checks the answer against facts
known independently of the solver; oracles run outside the timed region.

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``invert-sigma``: ``invert_ca`` on block truncations of the gallery's
  ``sigma`` and on seeded conjugates ``P^-1 sigma P``.  Few, large
  eliminations plus witness searches at every radius below the inverse's.
* ``preimage-plateau``: ``preimage_extract`` on sigma and its conjugates,
  whose image chains shrink for J levels before they plateau, and on a
  seeded rule over Z that is not surjective (empty-fiber path).
* ``mixed-small``: many small seeded rules over Z, Z^2, Z^3, F_2, S_3 and
  Z/6, each inverted and then asked for a preimage of a known image.
"""

from __future__ import annotations

import contextlib
import functools
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from linca import (
    FreeGroup,
    IntegerGroup,
    LatticeGroup,
    LinearCA,
    NotInvertible,
    ReversibilityCertificate,
    SolverUnknown,
    cyclic_group,
    finite_support,
    invert_ca,
    jsonio,
    preimage_extract,
    symmetric_group_3,
)
from linca.gallery import sigma_inverse_truncated_ca, sigma_truncated_ca

# A prime near the top of the documented modulus range p < 2^20.
LARGE_PRIME = 1048573


@dataclass
class Answer:
    """What one query produced: its verdict, the certificate bytes it wrote,
    and whether the certificate re-verified after the JSON round trip."""

    status: str  # "certified" or "unknown"
    result: object
    cert_bytes: int = 0
    verified: bool = True
    detail: str = ""


@dataclass
class Query:
    """One public call plus its certificate path (``run``, timed) and an
    oracle (``check``, untimed) that returns failure messages."""

    label: str
    run: Callable[["Session"], Answer]
    check: Callable[[Answer], list]


@dataclass
class Session:
    """Per-run state shared by the queries: certificate corruption for the
    self-test, and the hook that lets the tracer wrap certificate I/O."""

    corrupt: bool = False
    io_span: Callable = lambda name: contextlib.nullcontext()


# -- certificate round trip ----------------------------------------------------


def _round_trip(session: Session, cert: dict) -> tuple[int, bool, str]:
    """Write the certificate as canonical JSON, read it back and verify it.
    With ``session.corrupt`` set, the first reversible certificate gets one
    inverse block entry flipped before verification."""
    with session.io_span("jsonio.encode"):
        text = jsonio.dumps(cert)
    with session.io_span("jsonio.verify"):
        loaded = jsonio.loads(text)
        if session.corrupt and loaded["kind"] == "reversible":
            session.corrupt = False
            p = loaded["ca"]["p"]
            block = loaded["payload"]["inverse"]["blocks"][0]
            block[0][0] = (block[0][0] + 1) % p
        ok, detail = jsonio.verify_certificate(loaded)
    return len(text.encode()), ok, detail


def _invert_query(label: str, ca: LinearCA, max_radius: int, oracle) -> Query:
    def run(session: Session) -> Answer:
        result = invert_ca(ca, max_radius=max_radius)
        if isinstance(result, SolverUnknown):
            return Answer("unknown", result)
        with session.io_span("jsonio.encode"):
            if isinstance(result, ReversibilityCertificate):
                cert = jsonio.reversible_certificate(result)
            elif hasattr(result.witness, "config"):
                cert = jsonio.kernel_witness_certificate(result.witness)
            else:
                cert = jsonio.empty_fiber_certificate(result.witness)
        size, ok, detail = _round_trip(session, cert)
        return Answer("certified", result, size, ok, detail)

    def check(answer: Answer) -> list:
        return oracle(answer.result) if answer.status == "certified" else []

    return Query(label, run, check)


def _preimage_query(
    label: str, ca: LinearCA, target, window: int, cutoff: int, oracle
) -> Query:
    def run(session: Session) -> Answer:
        result = preimage_extract(ca, target, window_index=window, cutoff=cutoff)
        if result.status == "unknown":
            return Answer("unknown", result)
        with session.io_span("jsonio.encode"):
            if result.status == "ok":
                cert = jsonio.preimage_certificate(ca, target, result, window, cutoff)
            else:
                cert = jsonio.empty_fiber_certificate(result.witness, target)
        size, ok, detail = _round_trip(session, cert)
        return Answer("certified", result, size, ok, detail)

    def check(answer: Answer) -> list:
        return oracle(answer.result) if answer.status == "certified" else []

    return Query(label, run, check)


# -- independent arithmetic for the oracles --------------------------------------


def _rank_mod_p(rows: list, p: int) -> int:
    """Rank over GF(p) by plain integer Gaussian elimination; deliberately
    shares no code with the library's elimination kernel."""
    m = [[int(x) % p for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _full_group_bijective(ca: LinearCA) -> bool:
    """Whether the global map on a finite group is bijective, from the rank
    of its |G|dimV x |G|dimV matrix."""
    g = ca.group
    d = ca.dim_v
    elements = list(g.elements())
    pos = {h: i for i, h in enumerate(elements)}
    n = len(elements) * d
    rows = [[0] * n for _ in range(n)]
    for i, h in enumerate(elements):
        for m, b in zip(ca.memory, ca.blocks):
            j = pos[g.multiply(h, m)]
            for r in range(d):
                for c in range(d):
                    rows[i * d + r][j * d + c] += int(b[r, c])
    return _rank_mod_p(rows, ca.p) == n


def _apply_at(ca: LinearCA, cells: dict, g) -> np.ndarray:
    """out(g) = sum_m block[m] x(g m), read straight from the rule."""
    acc = np.zeros(ca.dim_v, dtype=np.int64)
    for m, b in zip(ca.memory, ca.blocks):
        x = cells.get(ca.group.multiply(g, m))
        if x is not None:
            acc = (acc + b.astype(np.int64) @ np.asarray(x, dtype=np.int64)) % ca.p
    return acc


def _image_of_finite(ca: LinearCA, cells: dict) -> dict:
    """The image of a finitely supported configuration, cell by cell."""
    g = ca.group
    support = {
        g.multiply(s, g.inverse(m)) for s in cells for m in ca.memory
    }
    return {h: _apply_at(ca, cells, h) for h in support}


def _reapply_pattern(ca: LinearCA, target, result) -> list:
    """Re-apply an extracted preimage pattern through the rule on every
    matched cell and compare with the target."""
    errors = []
    cells = result.pattern.cells
    if set(cells) != set(result.window_cells):
        errors.append("pattern domain differs from the reported window")
    for g in result.matched_cells:
        if not np.array_equal(_apply_at(ca, cells, g), target.value_at(g, ca.dim_v) % ca.p):
            errors.append(f"pattern image differs from the target at {g!r}")
            break
    return errors


def _expect_preimage(ca: LinearCA, target) -> Callable:
    """Oracle for a target known to lie in the image."""

    def oracle(result) -> list:
        if result.status != "ok":
            return [f"target is in the image but status is {result.status!r}"]
        return _reapply_pattern(ca, target, result)

    return oracle


# -- invert-sigma and preimage-plateau inputs -------------------------------------


def _unit_triangular(rng: random.Random, d: int, p: int, lower: bool) -> np.ndarray:
    t = np.eye(d, dtype=np.int64)
    for i in range(d):
        for j in range(d):
            if (i > j) if lower else (i < j):
                t[i, j] = rng.randrange(p)
    return t


def _unipotent_inverse(t: np.ndarray, p: int) -> np.ndarray:
    """(I - N)^-1 = I + N + ... + N^(d-1) for a unit triangular I - N."""
    d = t.shape[0]
    n = (np.eye(d, dtype=np.int64) - t) % p
    inv = np.eye(d, dtype=np.int64)
    power = np.eye(d, dtype=np.int64)
    for _ in range(d - 1):
        power = (power @ n) % p
        inv = (inv + power) % p
    return inv


def _random_change_of_basis(rng: random.Random, d: int, p: int):
    """A dense invertible P = L U with its inverse, built without
    elimination so the oracle does not lean on the code under test."""
    lower = _unit_triangular(rng, d, p, lower=True)
    upper = _unit_triangular(rng, d, p, lower=False)
    mat = (lower @ upper) % p
    inv = (_unipotent_inverse(upper, p) @ _unipotent_inverse(lower, p)) % p
    if not np.array_equal((mat @ inv) % p, np.eye(d, dtype=np.int64)):
        raise RuntimeError("change of basis is not invertible")
    return mat, inv


def _conjugate(ca: LinearCA, mat: np.ndarray, inv: np.ndarray) -> LinearCA:
    """The rule P^-1 ca P, blockwise."""
    blocks = tuple((((inv @ b) % ca.p) @ mat) % ca.p for b in ca.blocks)
    return LinearCA(ca.group, ca.p, ca.dim_v, ca.memory, blocks)


def _sigma_pair(rng: Optional[random.Random], j: int, p: int):
    """sigma_J and its closed-form inverse, conjugated by a seeded P when an
    rng is given."""
    ca = sigma_truncated_ca(j, p)
    inverse = sigma_inverse_truncated_ca(j, p)
    if rng is not None:
        mat, inv = _random_change_of_basis(rng, ca.dim_v, p)
        ca, inverse = _conjugate(ca, mat, inv), _conjugate(inverse, mat, inv)
    return ca, inverse


def _expect_sigma_inverse(j: int, inverse: LinearCA) -> Callable:
    def oracle(result) -> list:
        if not isinstance(result, ReversibilityCertificate):
            return [f"sigma_{j} is reversible but got {type(result).__name__}"]
        errors = []
        if result.radius != j - 1:
            errors.append(f"inverse radius {result.radius}, expected {j - 1}")
        if result.inverse != inverse:
            errors.append("inverse differs from the closed form")
        return errors

    return oracle


def _random_target(rng: random.Random, ca: LinearCA, cells) -> object:
    return finite_support(
        ca.p, ca.dim_v,
        {g: [rng.randrange(ca.p) for _ in range(ca.dim_v)] for g in cells},
    )


def invert_sigma(rng: random.Random, smoke: bool) -> list:
    plain = [(2, 2), (3, 3)] if smoke else [(8, 2), (10, 2), (12, 2), (8, 3)]
    conj = [(2, 2), (3, 3)] if smoke else [(8, 2), (8, 3)]
    queries = []
    for j, p, seeded in [(j, p, False) for j, p in plain] + [(j, p, True) for j, p in conj]:
        ca, inverse = _sigma_pair(rng if seeded else None, j, p)
        label = f"{'conj-' if seeded else ''}sigma{j}-p{p}"
        queries.append(_invert_query(label, ca, j, _expect_sigma_inverse(j, inverse)))
    return queries


def _non_surjective_rule(rng: random.Random, p: int, d: int) -> tuple:
    """A rule over Z whose blocks share the left null vector u, so every
    output cell satisfies u . y(g) = 0."""
    k = rng.randrange(d)
    u = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
    u[k] = 1
    proj = (np.eye(d, dtype=np.int64) - np.outer(np.eye(d, dtype=np.int64)[k], u)) % p
    blocks = tuple(
        (proj @ np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)])) % p
        for _ in range(3)
    )
    return LinearCA(IntegerGroup(), p, d, (-1, 0, 1), blocks), u


def _violating_target(rng: random.Random, ca: LinearCA, u: np.ndarray, cells, bad):
    """A random target on ``cells`` with u . y(bad) != 0."""
    values = {g: [rng.randrange(ca.p) for _ in range(ca.dim_v)] for g in cells}
    k = int(np.nonzero(u)[0][0])
    if int(np.dot(u, values[bad])) % ca.p == 0:
        values[bad][k] = (values[bad][k] + 1) % ca.p
    return finite_support(ca.p, ca.dim_v, values)


def _expect_outside_image(u: np.ndarray, p: int) -> Callable:
    def oracle(result) -> list:
        if result.status != "not-in-image":
            return [f"target violates a left null vector but status is {result.status!r}"]
        cells = result.witness.pattern.cells
        if not any(int(np.dot(u, v)) % p for v in cells.values()):
            return ["empty-fiber pattern does not violate the left null vector"]
        return []

    return oracle


def preimage_plateau(rng: random.Random, smoke: bool) -> list:
    window = 1 if smoke else 4
    sigma = [(2, False), (2, True)] if smoke else [(8, False), (10, False), (6, True), (7, True)]
    queries = []
    for j, seeded in sigma:
        ca, _ = _sigma_pair(rng if seeded else None, j, 2)
        target = _random_target(rng, ca, range(-2, 3))
        label = f"{'conj-' if seeded else ''}sigma{j}"
        queries.append(
            _preimage_query(label, ca, target, window, window + 2 * j, _expect_preimage(ca, target))
        )
    ca, u = _non_surjective_rule(rng, 2, 3 if smoke else 8)
    cutoff = window + 4
    for i in range(2):
        # The violation sits on the edge of the requested window, so the
        # answer must be "not in image" but levels below the window are
        # nonempty and their image chains get computed first.
        cells = tuple(range(window - 1, window + 3))
        target = _violating_target(rng, ca, u, cells, bad=window)
        queries.append(
            _preimage_query(f"nonsurj-{i}", ca, target, window, cutoff, _expect_outside_image(u, 2))
        )
    return queries


# -- mixed-small -------------------------------------------------------------------


def _mixed_groups() -> list:
    return [
        IntegerGroup(),
        LatticeGroup(2),
        LatticeGroup(3),
        FreeGroup(2),
        symmetric_group_3(),
        cyclic_group(6),
    ]


def _expect_finite_verdict(ca: LinearCA) -> Callable:
    @functools.cache
    def bijective() -> bool:
        return _full_group_bijective(ca)

    def oracle(result) -> list:
        got = isinstance(result, ReversibilityCertificate)
        if got != bijective() or not (got or isinstance(result, NotInvertible)):
            return [f"full-group rank says bijective={bijective()}, solver gave {type(result).__name__}"]
        return []

    return oracle


# The rule catalogue of mixed-small is drawn from this fixed seed; the run's
# seed then conjugates every rule by its own change of basis P and draws the
# preimage sources.  Conjugation keeps each rule's verdict, radii and matrix
# shapes, so seeds exercise different matrices at the same cost; with
# freshly drawn rules the batch cost moved by about 10% between seeds.
CATALOGUE_SEED = 2009


def _mixed_schedule(smoke: bool) -> list:
    """(group, p, dimV, memory size) for every rule.

    Z and the finite groups get three rules per (group, p, dimV) cell, one
    of each memory size; Z^2, Z^3 and F_2, whose balls grow faster, get one
    rule per cell with the memory size rotating.  Small eliminations stay
    the majority, and the median query lies inside their cluster rather
    than on the edge between clusters."""
    groups = _mixed_groups()
    if smoke:
        return [(g, 2, 2, 1) for g in groups] + [(g, 3, 3, 2) for g in groups]
    schedule = []
    for group in groups:
        small = group.is_finite() or isinstance(group, IntegerGroup)
        for p in (2, 3, 5, LARGE_PRIME):
            for d in (2, 3, 4):
                for k in range(3 if small else 1):
                    schedule.append((group, p, d, 1 + (k + len(schedule)) % 3))
    return schedule


def mixed_small(rng: random.Random, smoke: bool) -> list:
    shapes = random.Random(CATALOGUE_SEED)
    queries = []
    for i, (group, p, d, size) in enumerate(_mixed_schedule(smoke)):
        others = [g for g in group.ball(1) if g != group.identity()]
        memory = [group.identity()] + shapes.sample(others, min(size, len(others)))
        blocks = [
            [[shapes.randrange(p) for _ in range(d)] for _ in range(d)] for _ in memory
        ]
        ca = _conjugate(LinearCA(group, p, d, memory, blocks), *_random_change_of_basis(rng, d, p))
        label = f"{group.kind}-p{p}-d{d}-{i}"
        oracle = _expect_finite_verdict(ca) if group.is_finite() else (lambda result: [])
        queries.append(_invert_query(f"invert-{label}", ca, 3, oracle))
        source = {
            g: np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
            for g in group.ball(1)
        }
        cells = {g: v for g, v in _image_of_finite(ca, source).items() if np.any(v)}
        target = finite_support(p, d, cells)
        queries.append(
            _preimage_query(f"preimage-{label}", ca, target, 1, 3, _expect_preimage(ca, target))
        )
    return queries


BUILDERS = {
    "invert-sigma": invert_sigma,
    "preimage-plateau": preimage_plateau,
    "mixed-small": mixed_small,
}

# Which reference computation tracks each workload's speed on a drifting
# host (see worker.HostSpeed): the sigma workloads spend their time in
# eliminations of millions of entries, mixed-small in tiny ones.
SPEED_PROFILE = {
    "invert-sigma": "large",
    "preimage-plateau": "large",
    "mixed-small": "small",
}


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's queries, generated from the seed alone."""
    return BUILDERS[workload](random.Random(seed), smoke)
