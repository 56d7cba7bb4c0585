"""Executable counterexamples over an infinite-dimensional alphabet.

The alphabet is the span of a basis v_1, v_2, ... partitioned into blocks
E_1, E_2, ... with dim E_j = j: block j owns the indices
(j-1)j/2 + 1 .. j(j+1)/2.  Two linear cell maps drive everything:

* ``phi`` acts blockwise as the nilpotent lowering map, v_i -> v_{i-1}
  inside a block and v_i -> 0 at the block bottom; restricted to block j it
  is nilpotent of degree exactly j.  ``phi_power`` is its k-th power, and
  the only place the map is written down.
* ``psi`` is the global raising map v_i -> v_{i+1}.

On two-sided sequences of such vectors this module implements

* ``sigma``:  out(n) = x(n) - phi(x(n+1)).  Blockwise it is invertible with
  inverse out(n) = sum_{k<j} phi^k(x(n+k)), a lookahead that grows with the
  block index, so the global inverse exists but admits no finite memory:
  bijective yet not reversible.  Witness pairs exhibit this at any block.
* ``sigma_prime``:  out(n) = x(n+1) - psi(x(n)).  The constant target v_1
  is approximated arbitrarily well by images of partial-sum configurations
  but every exact preimage would need unboundedly many coordinates, so the
  image is not closed.  Both halves are generated as machine-checkable
  reports: window agreement for the approximants, forced coordinates for
  the non-membership.

Everything is exact over a configurable prime field (default GF(2));
finite truncations to blocks j <= J round-trip into ordinary finite
dimensional automata for cross-validation against the generic engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .ca import LinearCA
from .groups import IntegerGroup


class GalleryError(ValueError):
    """Invalid sparse data or unsupported lazy-tail operation."""


def block_of(i: int) -> int:
    """The block j with (j-1)j/2 < i <= j(j+1)/2."""
    if i < 1:
        raise GalleryError("basis indices start at 1")
    return (math.isqrt(8 * i - 7) + 1) // 2


def block_start(j: int) -> int:
    return (j - 1) * j // 2 + 1


def block_end(j: int) -> int:
    return j * (j + 1) // 2


@dataclass(eq=False)
class SparseVector:
    """Finitely many nonzero coordinates over the basis (v_i)_{i>=1}."""

    p: int
    entries: dict

    def is_zero(self) -> bool:
        return not self.entries

    def max_index(self) -> int:
        return max(self.entries, default=0)

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self.entries)
        for i, c in other.entries.items():
            out[i] = out.get(i, 0) + c
        return sparse_vector(self.p, out)

    def __neg__(self) -> "SparseVector":
        return sparse_vector(self.p, {i: -c for i, c in self.entries.items()})

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + -other

    def __eq__(self, other):
        return (
            isinstance(other, SparseVector)
            and self.p == other.p
            and self.entries == other.entries
        )

    def __repr__(self):
        body = " + ".join(
            (f"v{i}" if c == 1 else f"{c}*v{i}")
            for i, c in sorted(self.entries.items())
        )
        return body or "0"


def sparse_vector(p: int, entries: dict) -> SparseVector:
    out = {}
    for i, c in entries.items():
        if i < 1:
            raise GalleryError("basis indices start at 1")
        c = c % p
        if c:
            out[int(i)] = int(c)
    return SparseVector(p, out)


def basis(p: int, i: int, coeff: int = 1) -> SparseVector:
    return sparse_vector(p, {i: coeff})


def zero_vector(p: int) -> SparseVector:
    return SparseVector(p, {})


def phi_power(v: SparseVector, k: int) -> SparseVector:
    """phi^k, blockwise lowering k steps: v_i -> v_{i-k} while i - k stays in
    the block of i, else 0.  The one definition of phi: sigma, its inverse
    and the truncated matrices all apply it."""
    if k < 0:
        raise GalleryError("phi powers need k >= 0")
    # The kept coefficients are v's own, already reduced and nonzero.
    return SparseVector(
        v.p,
        {
            i - k: c
            for i, c in v.entries.items()
            if i - k >= block_start(block_of(i))
        },
    )


def psi(v: SparseVector) -> SparseVector:
    """Global raising: v_i -> v_{i+1}."""
    return sparse_vector(v.p, {i + 1: c for i, c in v.entries.items()})


# -- configurations ----------------------------------------------------------


@dataclass(frozen=True)
class Tail:
    """Closed-form right tail: 'partial-sum' gives v_1 + ... + v_{n-start+1}
    at cell n >= start; 'constant' repeats a fixed vector from start on."""

    kind: str
    start: int
    value: Optional[SparseVector] = None


@dataclass(eq=False)
class LazySparseConfig:
    """Finitely many explicit cells plus an optional closed-form tail."""

    p: int
    cells: dict
    tail: Optional[Tail] = None

    def value_at(self, n: int) -> SparseVector:
        v = self.cells.get(n)
        if v is not None:
            return v
        if self.tail is not None and n >= self.tail.start:
            if self.tail.kind == "partial-sum":
                return sparse_vector(
                    self.p, {i: 1 for i in range(1, n - self.tail.start + 2)}
                )
            if self.tail.kind == "constant":
                return self.tail.value
            raise GalleryError(f"unknown tail kind {self.tail.kind!r}")
        return zero_vector(self.p)

    def __eq__(self, other):
        return (
            isinstance(other, LazySparseConfig)
            and self.p == other.p
            and self.cells == other.cells
            and self.tail == other.tail
        )


def lazy_config(p: int, cells: dict, tail: Optional[Tail] = None) -> LazySparseConfig:
    if tail is not None:
        if tail.kind not in ("partial-sum", "constant"):
            raise GalleryError(f"unknown tail kind {tail.kind!r}")
        if tail.kind == "constant" and not isinstance(tail.value, SparseVector):
            raise GalleryError("constant tails need a sparse-vector value")
        if tail.kind == "partial-sum" and tail.value is not None:
            raise GalleryError("partial-sum tails carry no explicit value")
    out = {}
    for n, v in cells.items():
        if not isinstance(v, SparseVector):
            v = sparse_vector(p, v)
        if v.p != p:
            raise GalleryError("mixed field moduli in one configuration")
        if tail is not None and n >= tail.start:
            raise GalleryError("explicit cells must lie below the tail start")
        if not v.is_zero():
            out[int(n)] = v
    return LazySparseConfig(p, out, tail)


def _require_sparse(x: LazySparseConfig, op: str) -> None:
    if x.tail is not None:
        raise GalleryError(f"{op} supports finitely supported configurations only")


# -- the bijective, non-reversible automaton ---------------------------------


def sigma_apply(x: LazySparseConfig) -> LazySparseConfig:
    """out(n) = x(n) - phi(x(n+1))."""
    _require_sparse(x, "sigma_apply")
    candidates = set(x.cells) | {n - 1 for n in x.cells}
    cells = {n: x.value_at(n) - phi_power(x.value_at(n + 1), 1) for n in candidates}
    return lazy_config(x.p, cells)


def sigma_inverse_apply(x: LazySparseConfig) -> LazySparseConfig:
    """Blockwise inverse of sigma: out(n) = sum_{k<j} phi^k(x_j(n+k));
    well defined on sparse input because every occupied block is finite."""
    _require_sparse(x, "sigma_inverse_apply")
    acc: dict = {}
    for n, v in x.cells.items():
        # phi^k(v) = phi(phi^(k-1)(v)) keeps only the entries still above
        # their block bottom, so each entry is carried as far as its block.
        k, term = 0, v
        while not term.is_zero():
            acc[n - k] = acc[n - k] + term if n - k in acc else term
            k, term = k + 1, phi_power(term, 1)
    return lazy_config(x.p, acc)


@dataclass
class NonreversibilityWitness:
    """Two configurations equal on a left half-window whose preimages under
    sigma differ at cell 0, pushing the inverse's memory past any bound."""

    p: int
    j0: int
    window_radius: int
    z: LazySparseConfig
    preimage_of_z: LazySparseConfig
    value_at_zero: SparseVector
    agree_cells: tuple
    ok: bool
    note: str

    def checks(self) -> dict:
        y_zero = lazy_config(self.p, {})
        round_trip = sigma_apply(self.preimage_of_z) == self.z
        agree = all(
            self.z.value_at(n) == y_zero.value_at(n) for n in self.agree_cells
        )
        differ = (not self.value_at_zero.is_zero()) and (
            self.preimage_of_z.value_at(0) == self.value_at_zero
        )
        expected = basis(self.p, block_start(self.j0))
        return {
            "round_trip": round_trip,
            "window_agreement": agree,
            "values_at_zero_differ": differ,
            "closed_form_value": self.value_at_zero == expected,
        }


def sigma_nonreversibility_witness(
    j0: int, window_radius: Optional[int] = None, p: int = 2
) -> NonreversibilityWitness:
    """Build the block-j0 witness pair: the zero configuration and the top
    basis vector of block j0 placed at cell j0 - 1.  Both vanish on the
    window left of j0 - 1, yet their preimages differ at cell 0, where the
    nonzero one equals the bottom basis vector of block j0."""
    if j0 < 2:
        raise GalleryError("witness needs a block of dimension >= 2")
    if window_radius is None:
        window_radius = j0
    if window_radius < j0:
        raise GalleryError("window radius must be at least j0")
    z = lazy_config(p, {j0 - 1: basis(p, block_end(j0))})
    w = sigma_inverse_apply(z)
    value = w.value_at(0)
    agree_cells = tuple(range(-window_radius, j0 - 1))
    witness = NonreversibilityWitness(
        p=p,
        j0=j0,
        window_radius=window_radius,
        z=z,
        preimage_of_z=w,
        value_at_zero=value,
        agree_cells=agree_cells,
        ok=False,
        note=(
            "the displayed definition of z with index j0(j0-1)/2 lands in "
            "block j0-1, where the block-j0 lowering map does not act; this "
            "witness uses the top index j0(j0+1)/2 of block j0, which makes "
            "the stated preimage value (j0-1)j0/2+1 exact"
        ),
    )
    witness.ok = all(witness.checks().values())
    return witness


# -- the non-closed-image automaton ------------------------------------------


def sigma_prime_apply(x: LazySparseConfig) -> LazySparseConfig:
    """out(n) = x(n+1) - psi(x(n)); the two closed-form tails are mapped to
    closed-form tails again."""
    explicit = set(x.cells) | {n - 1 for n in x.cells}
    if x.tail is None:
        cells = {n: x.value_at(n + 1) - psi(x.value_at(n)) for n in explicit}
        return lazy_config(x.p, cells)
    if x.tail.kind == "partial-sum":
        out_tail = Tail("constant", x.tail.start, basis(x.p, 1))
    elif x.tail.kind == "constant":
        v = x.tail.value
        out_tail = Tail("constant", x.tail.start, v - psi(v))
    else:
        raise GalleryError(f"unknown tail kind {x.tail.kind!r}")
    lo = min(explicit | {x.tail.start}) - 1
    cells = {
        n: x.value_at(n + 1) - psi(x.value_at(n))
        for n in range(lo, x.tail.start)
    }
    return lazy_config(x.p, cells, out_tail)


@dataclass
class ClosureWitness:
    """A partial-sum approximant whose image agrees with the constant-v_1
    target on the whole requested window.  The 2m + 1 window values are
    computed on first use, so building the witness costs nothing in m."""

    p: int
    m: int
    tail_start: int
    approximant: LazySparseConfig

    @cached_property
    def window_values(self) -> list:
        image = sigma_prime_apply(self.approximant)
        return [(n, image.value_at(n)) for n in range(-self.m, self.m + 1)]

    @cached_property
    def ok(self) -> bool:
        v1 = basis(self.p, 1)
        vanishes = self.approximant.value_at(self.tail_start - 1).is_zero()
        return vanishes and all(v == v1 for _, v in self.window_values)


def sigma_prime_closure_witness(m: int, p: int = 2) -> ClosureWitness:
    """The approximant vanishing below n0 = -m and growing by one basis
    vector per cell from there; its image is v_1 on every cell of
    [-m, m] (in fact on all of [n0, infinity))."""
    if m < 0:
        raise GalleryError("window radius must be nonnegative")
    return ClosureWitness(p, m, -m, lazy_config(p, {}, Tail("partial-sum", -m)))


@dataclass
class ForcedSupportReport:
    """Exact window solve showing that any preimage of the constant-v_1
    target carries i forced unit coordinates after i constrained cells, so
    preimage supports grow without bound."""

    p: int
    depth: int
    forced: dict
    forced_unit_coordinates: list
    solution_dim: int
    ok: bool


# The forced-support system is a dense depth(depth + 1) x (depth + 1)^2
# matrix, so its memory grows as depth^4: on a 2-vCPU host depth 32 peaks at
# 63 MB RSS in 0.1 s, depth 60 at 469 MB in 1.7 s.
MAX_FORCED_DEPTH = 32


def sigma_prime_forced_support(depth: int, p: int = 2) -> ForcedSupportReport:
    """Solve out(n) = v_1 on ``depth`` consecutive cells over coordinates
    1..depth+1 and report which coordinates of the rightmost cell every
    solution shares; depth runs from 1 to MAX_FORCED_DEPTH."""
    if not 1 <= depth <= MAX_FORCED_DEPTH:
        raise GalleryError(f"depth must be in 1..{MAX_FORCED_DEPTH}, got {depth}")
    t_max = depth + 1
    eye = np.eye(t_max, dtype=np.int64)
    # sigma' truncated to coordinates 1..t_max, on the cells 0..depth-1 of
    # a configuration on 0..depth; the target is v_1 on every cell.
    rule = LinearCA(IntegerGroup(), p, t_max, (0, 1), (-np.eye(t_max, k=-1), eye))
    mat = rule.block_matrix(range(depth), range(depth + 1))
    sols = linalg.solve_affine(mat, np.tile(eye[0], depth), p)
    if sols.is_empty:
        raise AssertionError("the forced-support window system is always solvable")
    forced = {}
    last = depth * t_max
    for t in range(1, t_max + 1):
        c = last + t - 1
        if not np.any(sols.directions.basis[:, c]):
            forced[t] = int(sols.point[c])
    forced_units = sorted(t for t, val in forced.items() if val == 1)
    ok = forced_units == list(range(1, depth + 1))
    return ForcedSupportReport(p, depth, forced, forced_units, sols.dim, ok)


# -- finite truncations -------------------------------------------------------


def truncation_dim(j_max: int) -> int:
    return block_end(j_max)


def _phi_power_matrix(j_max: int, k: int, p: int) -> np.ndarray:
    """Matrix of phi^k on blocks 1..j_max: column i - 1 is phi^k(v_i)."""
    d = truncation_dim(j_max)
    mat = np.zeros((d, d), dtype=np.int64)
    for i in range(1, d + 1):
        mat[:, i - 1] = sparse_to_array(phi_power(basis(p, i), k), d)
    return mat


def phi_matrix(j_max: int, p: int) -> np.ndarray:
    """Matrix of phi on blocks 1..j_max (basis v_1..v_D, 0-indexed rows)."""
    return _phi_power_matrix(j_max, 1, p)


def sigma_truncated_ca(j_max: int, p: int) -> LinearCA:
    """The finite shadow of sigma on blocks <= j_max as an ordinary CA."""
    d = truncation_dim(j_max)
    return LinearCA(
        IntegerGroup(),
        p,
        d,
        (0, 1),
        (np.eye(d, dtype=np.int64), (-phi_matrix(j_max, p)) % p),
    )


def sigma_inverse_truncated_ca(j_max: int, p: int) -> LinearCA:
    """The closed-form inverse of the truncation: block k of the memory
    carries the k-th power of the lowering map."""
    blocks = tuple(_phi_power_matrix(j_max, k, p) for k in range(j_max))
    return LinearCA(IntegerGroup(), p, truncation_dim(j_max), tuple(range(j_max)), blocks)


def sparse_to_array(v: SparseVector, dim: int) -> np.ndarray:
    """Coordinates 1..dim of a sparse vector as an array (entries beyond
    the truncation are rejected)."""
    if v.max_index() > dim:
        raise GalleryError(f"vector exceeds truncation dimension {dim}")
    out = np.zeros(dim, dtype=np.int64)
    for i, c in v.entries.items():
        out[i - 1] = c
    return out
