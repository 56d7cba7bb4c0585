"""Exact linear and affine algebra over prime fields GF(p).

Matrices are dense numpy int64 arrays with entries reduced into [0, p);
all arithmetic is exact.  Subspaces are stored through their unique reduced
row-echelon basis, affine subspaces as a canonical point plus a direction
subspace, with the point's coordinates at the direction pivots zeroed out.
Those canonical forms make set equality a structural comparison: two
subspaces (or affine subspaces) are equal as sets iff their stored data
compare equal, and the canonical point is the lexicographically smallest
member.

The single hot primitive, in-place Gauss-Jordan elimination, is
``rref_inplace`` in this module; everything else here is thin bookkeeping
on top of it.  Every solve is one elimination whose kernel comes out already
canonical, by two facts:

* Reversed columns.  Eliminate [a reversed | b].  For a free column f, the
  kernel vector in reversed order is 1 at f and nonzero only at earlier
  pivots, so in the original order it leads at f and is zero at every other
  free column.  Read off with its rows sorted by f, it is the RREF basis of
  ker a, and the particular solution, zero at the free columns, is the
  canonical point.
* Reduced products.  Let S be in RREF with its rows sorted by pivot and K
  in RREF.  Then K S is in RREF, and its row i leads at the pivot of S's
  row f, f being the pivot of K's row i: row i of K S is S's row f plus
  rows of S past f, which are zero up to and at that pivot, and at that
  pivot every other row of K S reads K's zero entry at column f.
  ``solve_in_lift`` applies it to S = [[B, 0], [0, I]], B an RREF basis
  and I the unit rows of new coordinates, without building S: on B's
  columns K S is a copy of B's row f for each row of K that leads at f,
  plus a product with B's rows at K's non-pivot parameters that only the
  rows of K nonzero there take; on the new columns it is K's own columns.

``kernel_basis``, ``solve_affine_multi`` and ``solve_in_lift`` rest on
them; ``solve_in_lift`` has one caller, the preimage levels.
``Subspace.from_spanning`` remains only for spanning sets from outside.

The bonds of a projective sequence are prefixes: each window lists the one
below it first, so x -> x[:k].  ``image_of_subspace``, ``image_of_affine``
and ``constrain_affine`` take the length k and read their results off the
RREF rows with no elimination.  The rows with pivot < k, cut to [:k], are
the RREF basis of the image; the rows with pivot >= k are zero on [:k].

Coercion happens once, at the edge: ``rref`` and the public functions
accept any integer array-like (lists, read-only or non-contiguous arrays)
and ``as_matrix`` makes the single C-ordered int64 copy that the kernel
reduces in place, so no caller's array is ever written.  ``as_int64``, under
``as_matrix`` and ``as_vector``, is the only coercion of outside numbers,
and it rejects what int64 would truncate, parse or wrap (1.5, "1", None,
2^70) instead of converting it; ``groups.FiniteGroup`` reads its table
through it too.  ``ca.normalize_rule`` coerces a rule's blocks in one
``as_matrix`` call.  Internal callers pass int64 arrays and do not reduce
them mod p first.

Moduli are primes p < 2^20 (``require_prime``).  ``exact_float`` is the
one rule for exact float arithmetic: the float type that holds every sum
of k products of entries in [0, p), float32 when k (p-1)^2 < 2^24 and
float64 when k (p-1)^2 < 2^53.  ``matmul`` computes every matrix product
through BLAS in the type it gives for the inner dimension k (float32 for
p = 2, 3 and 5 at every size in scope), and past float64 in blocks of the
inner dimension short enough that each partial sum stays below 2^53 (see
its docstring).  ``ca.compose`` applies the same rule to the terms of one
output cell.  The products of ``matmul``, ``as_matrix``'s copy and
``_solve``'s system are reduced mod p by one helper, ``_reduce``: a floor
division by p, about twice as fast per entry as int64 ``%``.  The
elimination kernel keeps its own ``%=`` on each pivot row and row block:
those are a few rows long, and a floor division there made many small
eliminations slower when tried.  The kernel and
``Subspace.reduce`` stay in int64, accumulating up to dim * (p-1)^2,
which is below 2^63 for the dimensions in scope (< 10^4); they are why
the bound p < 2^20 is still required, since a larger p would wrap
silently and give a wrong "exact" answer.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

ENUMERATION_CAP = 200_000
MODULUS_BOUND = 1 << 20
INT64_BOUND = 1 << 63
FLOAT_EXACT_BOUND = 1 << 53  # float64 holds every integer below it exactly
FLOAT32_EXACT_BOUND = 1 << 24  # float32 holds every integer below it exactly
REDUCE_BLOCK = 1 << 14  # entries per quotient temporary in _reduce


class LinalgError(ValueError):
    """Invalid matrix data or incompatible dimensions."""


def require_prime(p: int) -> int:
    if isinstance(p, bool) or not isinstance(p, int) or p < 2:
        raise LinalgError(f"modulus must be a prime integer, got {p!r}")
    if p >= MODULUS_BOUND:
        raise LinalgError(f"modulus {p} is not below 2^20, the exact int64 range")
    if not _is_prime(p):
        raise LinalgError(f"modulus {p} is not prime")
    return p


@functools.lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    """Trial division of an int in [2, 2^20), so the cache stays bounded."""
    return all(p % d for d in range(2, math.isqrt(p) + 1))


def _require_int64(a: np.ndarray) -> None:
    """Check that int64 holds every entry of ``a`` exactly.  Bools count,
    and so do integral floats below 2^53, where float64 is exact; anything
    that would be truncated, parsed, rounded or wrapped (1.5, "1", None,
    2^70) does not.  An int64 array passes with no pass over its entries."""
    kind = a.dtype.kind
    exact = kind in "bi"
    if kind == "u":
        exact = not a.size or a.max() < INT64_BOUND
    elif kind == "f":
        exact = bool(np.all((np.trunc(a) == a) & (np.abs(a) < FLOAT_EXACT_BOUND)))
    if not exact:
        raise LinalgError(f"entries must be integers in the int64 range, got {a.dtype} data")


def as_int64(data, ndim: int) -> np.ndarray:
    """A fresh C-ordered int64 copy of ``data``, which must have ``ndim``
    axes of integers that ``_require_int64`` accepts: the one int64 rule
    for outside numbers, which ``as_matrix``, ``as_vector`` and the
    multiplication tables of ``groups.FiniteGroup`` share."""
    a = np.asarray(data)
    _require_int64(a)
    if a.ndim != ndim:
        raise LinalgError(f"expected an array of ndim {ndim}, got ndim {a.ndim}")
    return np.array(a, dtype=np.int64, order="C")


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce the C-contiguous int64 array ``a`` mod p in place; return it.

    a - (a // p) p equals a % p, floor rule included, for every int64 a:
    near -2^63 the product (a // p) p wraps, but the true result lies in
    [0, p), so the wrapped difference is exact.  numpy divides by a scalar
    through multiplication by a precomputed reciprocal, about twice as
    fast per entry as its int64 ``%``.  The quotient is taken over blocks
    of ``REDUCE_BLOCK`` entries, so it stays in cache and a large array
    costs no second copy."""
    flat = a.reshape(-1)
    for s in range(0, flat.size, REDUCE_BLOCK):
        part = flat[s : s + REDUCE_BLOCK]
        q = part // p
        q *= p
        part -= q
    return a


def as_matrix(data, p: int) -> np.ndarray:
    """A fresh C-ordered 2-d int64 copy of ``data``, reduced mod p."""
    return _reduce(as_int64(data, 2), p)


def as_vector(data, p: int) -> np.ndarray:
    """A fresh 1-d int64 copy of ``data``, reduced mod p."""
    a = as_int64(data, 1)
    a %= p
    return a


def exact_float(k: int, p: int):
    """The float type that holds every sum of k products of two entries
    in [0, p) exactly, or None when neither does.

    Each product is at most (p-1)^2, so every partial sum is a non-negative
    integer of at most k (p-1)^2, in any summation order and with or
    without FMA: float32 holds them all when k (p-1)^2 < 2^24, float64
    when k (p-1)^2 < 2^53.  This is the one exactness rule of the float
    products: ``matmul`` applies it to its inner dimension, and
    ``ca.compose`` to the terms of one output cell, the pairs of memory
    elements that land on it times dimV."""
    top = k * (p - 1) ** 2
    if top < FLOAT32_EXACT_BOUND:
        return np.float32
    if top < FLOAT_EXACT_BOUND:
        return np.float64
    return None


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact mod-p product as int64, computed in float32 or float64 through
    BLAS.

    Precondition: both operands are already reduced into [0, p), as every
    caller in ``linalg``, ``solver``, ``laurent`` and ``ca`` guarantees.
    The float type is ``exact_float`` of the inner dimension k; float32
    takes about half the time of float64.  When neither holds k (p-1)^2,
    the inner dimension is cut into blocks of ``step = (2^53 - 1) //
    (p-1)^2``, and each block's float64 product is reduced mod p before
    the blocks are summed.  For p < 2^20, ``step`` >= 8192.  Every
    reduction goes through ``_reduce``."""
    if a.shape[-1] != b.shape[0]:
        raise LinalgError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    k = b.shape[0]
    dtype = exact_float(k, p)
    if dtype is not None:
        out = np.asarray(a, dtype=dtype) @ np.asarray(b, dtype=dtype)
        return _reduce(out.astype(np.int64), p)
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    step = (FLOAT_EXACT_BOUND - 1) // (p - 1) ** 2
    blocks = range(0, k, step)
    out = sum(_reduce((x[..., s : s + step] @ y[s : s + step]).astype(np.int64), p) for s in blocks)
    return _reduce(out, p)


def rref_inplace(a: np.ndarray, p: int) -> list[int]:
    """Reduce ``a`` to reduced row-echelon form over GF(p), in place, and
    return its pivot columns in increasing order.

    Precondition: ``a`` is a writable 2-d int64 array with every entry
    already in [0, p), and p is a prime below 2^20, so every product of two
    entries fits int64.  Each pivot row is scaled to lead with 1 and every
    other row is cleared at its pivot column.  Row operations are
    vectorized; the outer loop is one pass per column until the rows run
    out.  Every elimination in the library goes through this function.

    No row moves during the loop.  One ``nonzero`` over each column gives
    both the rows to clear and the pivot candidates, and the pivot row is
    the first candidate that is not a pivot row yet.  A row that is not a
    pivot row is zero at every column already passed, so the new pivot row
    leads at this column; the RREF is unique, so any candidate gives the
    same result.  The rows are ordered once, at the end: one gather moves
    the pivot rows to the top in pivot order, and every other row is zero,
    so the rows below them are set to zero."""
    rows, cols = a.shape
    pivots: list[int] = []
    order: list[int] = []  # the pivot rows, in pivot order
    taken = np.zeros(rows, dtype=bool)
    for c in range(cols):
        if len(order) == rows:
            break
        nz = a[:, c].nonzero()[0]
        if not nz.size:
            continue
        pivot_rows = taken[nz]
        first = int(pivot_rows.argmin())  # the first row not yet a pivot row
        if pivot_rows[first]:
            continue
        r = int(nz[first])
        inv = pow(int(a[r, c]), -1, p)
        row = a[r, c:]
        if inv != 1:
            row *= inv
            row %= p
        if nz.size > 1:
            hit = nz[nz != r]
            block = a[hit, c:]
            block -= np.multiply.outer(block[:, 0], row)
            block %= p
            a[hit, c:] = block
        taken[r] = True
        order.append(r)
        pivots.append(c)
    rank = len(order)
    if order != list(range(rank)):
        a[:rank] = a[order]
        a[rank:] = 0
    return pivots


def rref(mat, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Reduced row-echelon form over GF(p): (matrix, pivot columns, rank)."""
    a = as_matrix(mat, p)
    pivots = rref_inplace(a, p)
    return a, tuple(pivots), len(pivots)


def rank(mat, p: int) -> int:
    return rref(mat, p)[2]


def complement(indices, size: int) -> np.ndarray:
    """The indices in range(size) that are not in ``indices``, ascending."""
    keep = np.ones(size, dtype=bool)
    keep[indices] = False
    return np.flatnonzero(keep)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of GF(p)^ambient stored via its RREF basis.

    The solves build that basis directly (see the module docstring) and
    construct the class from it; ``from_spanning`` reduces any other
    spanning set."""

    ambient: int
    p: int
    basis: np.ndarray  # dim x ambient, reduced row-echelon, read-only
    pivots: tuple[int, ...]

    @classmethod
    def from_spanning(cls, vectors, ambient: int, p: int) -> "Subspace":
        arr = np.asarray(vectors)
        r, pivots, rk = rref(arr.reshape(-1 if arr.size else 0, ambient), p)
        basis = r[:rk].copy()
        basis.setflags(write=False)
        return cls(ambient, p, basis, pivots)

    @classmethod
    def zero(cls, ambient: int, p: int) -> "Subspace":
        basis = np.zeros((0, ambient), dtype=np.int64)
        basis.setflags(write=False)
        return cls(ambient, p, basis, ())

    @classmethod
    def full(cls, ambient: int, p: int) -> "Subspace":
        basis = np.eye(ambient, dtype=np.int64)
        basis.setflags(write=False)
        return cls(ambient, p, basis, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residue of v modulo the subspace (pivot coordinates eliminated)."""
        w = as_vector(v, self.p)
        # Exact in one product: basis row i is zero at every other pivot.
        return (w - w[list(self.pivots)] @ self.basis) % self.p

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def members(self) -> Iterator[np.ndarray]:
        """All member vectors; guarded against combinatorial blowup."""
        if self.p ** self.dim > ENUMERATION_CAP:
            raise LinalgError("subspace too large to enumerate")
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            yield (np.array(coeffs, dtype=np.int64) @ self.basis) % self.p

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.p == other.p
            and np.array_equal(self.basis, other.basis)
        )

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, p={self.p}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """An affine subspace: EMPTY, or canonical point + direction subspace."""

    ambient: int
    p: int
    point: Optional[np.ndarray]
    directions: Optional[Subspace]

    @classmethod
    def empty(cls, ambient: int, p: int) -> "AffineSubspace":
        return cls(ambient, p, None, None)

    @classmethod
    def from_point_subspace(cls, point, directions: Subspace) -> "AffineSubspace":
        pt = directions.reduce(point)
        pt.setflags(write=False)
        return cls(directions.ambient, directions.p, pt, directions)

    @classmethod
    def full(cls, ambient: int, p: int) -> "AffineSubspace":
        return cls.from_point_subspace(
            np.zeros(ambient, dtype=np.int64), Subspace.full(ambient, p)
        )

    @property
    def is_empty(self) -> bool:
        return self.point is None

    @property
    def dim(self) -> int:
        """Dimension, with -1 denoting the empty set."""
        return -1 if self.is_empty else self.directions.dim

    def contains(self, v) -> bool:
        if self.is_empty:
            return False
        return self.directions.contains((as_vector(v, self.p) - self.point) % self.p)

    def members(self) -> Iterator[np.ndarray]:
        if self.is_empty:
            return
        for d in self.directions.members():
            yield (self.point + d) % self.p

    def __eq__(self, other):
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        if self.ambient != other.ambient or self.p != other.p:
            return False
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return np.array_equal(self.point, other.point) and self.directions == other.directions

    def __repr__(self):
        if self.is_empty:
            return f"AffineSubspace(ambient={self.ambient}, p={self.p}, EMPTY)"
        return f"AffineSubspace(ambient={self.ambient}, p={self.p}, dim={self.dim})"


def kernel_basis(mat, p: int) -> Subspace:
    """Basis of the right null space of ``mat`` over GF(p)."""
    a = np.asarray(mat)
    return _solve(a, np.zeros((len(a) if a.ndim else 0, 0), dtype=np.int64), p)[0]


def solve_affine(mat, rhs, p: int) -> AffineSubspace:
    """The full solution set {x : mat x = rhs} in canonical form."""
    kernel, points = solve_affine_multi(mat, as_vector(rhs, p).reshape(-1, 1), p)
    if points[0] is None:
        return AffineSubspace.empty(kernel.ambient, p)
    return AffineSubspace.from_point_subspace(points[0], kernel)


def solve_affine_multi(
    mat: np.ndarray, rhs_cols: np.ndarray, p: int
) -> tuple[Subspace, list[Optional[np.ndarray]]]:
    """Solve mat x = b for every column b of ``rhs_cols`` with one
    elimination; the kernel is shared by all right-hand sides.  A column
    without a solution yields None in the returned point list, and every
    other point is canonical, zero at the kernel's pivots."""
    kernel, points, solvable = _solve(mat, rhs_cols, p)
    return kernel, [x if ok else None for x, ok in zip(points, solvable)]


def _solve(mat, rhs_cols, p: int) -> tuple[Subspace, np.ndarray, np.ndarray]:
    """One elimination of [mat reversed | rhs_cols]: the kernel of ``mat``
    in RREF, one point per column of ``rhs_cols`` and whether it solves it.
    The reversed-columns fact of the module docstring makes the kernel and
    the points canonical as read off.  The system is the one copy of the
    inputs: checked like ``as_matrix``'s, written once and reduced in
    place."""
    a, b = np.asarray(mat), np.asarray(rhs_cols)
    if a.ndim != 2 or b.ndim != 2:
        raise LinalgError(f"expected matrices, got arrays of ndim {a.ndim} and {b.ndim}")
    rows, cols = a.shape
    if b.shape[0] != rows:
        raise LinalgError(f"rhs rows {b.shape[0]} do not match matrix rows {rows}")
    _require_int64(a)
    _require_int64(b)
    aug = np.empty((rows, cols + b.shape[1]), dtype=np.int64)
    aug[:, :cols] = a[:, ::-1]
    aug[:, cols:] = b
    _reduce(aug, p)
    pivots = np.array(rref_inplace(aug, p), dtype=np.intp)
    rk = np.count_nonzero(pivots < cols)
    bound = cols - 1 - pivots[:rk]  # original columns, decreasing
    free = complement(bound, cols)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, bound] = -aug[:rk, cols - 1 - free].T % p
    basis.setflags(write=False)
    points = np.zeros((b.shape[1], cols), dtype=np.int64)
    points[:, bound] = aug[:rk, cols:].T
    solvable = ~np.any(aug[rk:, cols:], axis=0)
    return Subspace(cols, p, basis, tuple(free.tolist())), points, solvable


def _prefix(k, ambient: int) -> int:
    """``k`` checked as the length of a prefix of GF(p)^ambient."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= ambient:
        raise LinalgError(f"prefix length must be an int in [0, {ambient}], got {k!r}")
    return int(k)


def image_of_subspace(k, subspace: Subspace) -> Subspace:
    """Exact image of a subspace under the prefix x -> x[:k]: its basis rows
    with pivot < k, cut to [:k]."""
    k = _prefix(k, subspace.ambient)
    r = bisect.bisect_left(subspace.pivots, k)
    return Subspace(k, subspace.p, subspace.basis[:r, :k], subspace.pivots[:r])


def image_of_affine(k, affine: AffineSubspace) -> AffineSubspace:
    """Exact image of an affine subspace under x -> x[:k].  The point is
    zero at every pivot, so its prefix is canonical for the image."""
    k = _prefix(k, affine.ambient)
    if affine.is_empty:
        return AffineSubspace.empty(k, affine.p)
    return AffineSubspace(k, affine.p, affine.point[:k], image_of_subspace(k, affine.directions))


def constrain_affine(affine: AffineSubspace, k, target) -> AffineSubspace:
    """The subset {x in affine : x[:k] = target}, again affine canonical.
    The basis rows with pivot < k fix its coefficients, target at their
    pivots, so y = point + target[P] @ those rows is the one candidate for
    the prefix; the rows with pivot >= k are zero on [:k] and zero at those
    pivots, so they are the directions and y is canonical for them."""
    k, p = _prefix(k, affine.ambient), affine.p
    t = as_vector(target, p)
    if t.shape != (k,):
        raise LinalgError(f"target has {t.size} coordinates, the prefix {k}")
    if affine.is_empty:
        return AffineSubspace.empty(affine.ambient, p)
    span = affine.directions
    r = bisect.bisect_left(span.pivots, k)
    y = (affine.point + matmul(t[list(span.pivots[:r])], span.basis[:r], p)) % p
    if not np.array_equal(y[:k], t):
        return AffineSubspace.empty(affine.ambient, p)
    y.setflags(write=False)
    dirs = Subspace(affine.ambient, p, span.basis[r:], span.pivots[r:])
    return AffineSubspace(affine.ambient, p, y, dirs)


def solve_in_lift(below: AffineSubspace, new: int, coeff, rhs) -> AffineSubspace:
    """The lift of a nonempty ``below`` by ``new`` free coordinates,
    {[below.point + c @ B | e] : coeff [c | e] = rhs} in canonical form, B
    being below's RREF basis, solved in the parameters [c | e]; ``rhs``
    need not be reduced.

    The lift spans the rows of S = [[B, 0], [0, I]], and S is the RREF basis
    of that span, so by the reduced-products fact of the module docstring
    the directions K S are in RREF as computed, K being the system's kernel,
    itself in RREF.  S is never built.  K is the identity at its pivots and
    the point is zero there, so the B part of K S starts as one copy: B's
    row f on each row of K that leads at a parameter f of B, zero on K's
    other rows, and below's point on the point row.  The rest is a product
    with B's rows at the parameters that K does not lead at, and only the
    rows with a nonzero at those parameters take it.  The I part is K's own
    columns past B's dimension."""
    span, k, p = below.directions, below.ambient, below.p
    d = span.dim
    kernel, points, solvable = _solve(coeff, np.reshape(rhs, (-1, 1)), p)
    if not solvable[0]:
        return AffineSubspace.empty(k + new, p)
    split = bisect.bisect_left(kernel.pivots, d)
    old = list(kernel.pivots[:split])  # K's first rows lead in B's parameters
    bound = complement(old, d)
    rows = np.vstack([kernel.basis, points])  # the last row is the point
    lifted = np.zeros((len(rows), k + new), dtype=np.int64)
    lifted[:split, :k] = span.basis[old]
    lifted[-1, :k] = below.point
    lifted[:, k:] = rows[:, d:]
    reads = rows[:, bound]
    hit = reads.any(axis=1).nonzero()[0]
    if hit.size:
        # Both terms lie in [0, p), so one subtract folds the sum back.
        part = lifted[hit, :k] + matmul(reads[hit], span.basis[bound], p)
        np.subtract(part, p, out=part, where=part >= p)
        lifted[hit, :k] = part
    lifted.setflags(write=False)
    pivots = [span.pivots[f] for f in old] + [f + k - d for f in kernel.pivots[split:]]
    dirs = Subspace(k + new, p, lifted[:-1], tuple(pivots))
    # The point is zero at every pivot: the point below is zero at B's, and
    # the solution is zero at K's, the rows of S that lead at the others.
    return AffineSubspace(k + new, p, lifted[-1], dirs)
