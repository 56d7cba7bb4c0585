"""Exact arithmetic, canonical forms and ball enumeration for finitely
generated groups.

Four kinds are supported: the integers, integer lattices Z^d, finite groups
given by an explicit multiplication table, and free groups of finite rank.
Elements are plain hashable Python values in a canonical form unique per
element (an int for Z, a tuple of ints for Z^d, a table id for finite
groups, a freely reduced word as a tuple of nonzero signed generator
indices for free groups), so element equality is value equality and
elements can key dictionaries directly.

Word-metric balls about the identity supply the exhausting window sequences
A_0 subset A_1 subset ..., which ``solver.WindowSystem`` orders, together
with the interior operator interior(A, M) = {g : gM subset A}.  Subgroup
construction covers the cases needed downstream: dZ inside Z, sublattices
of Z^d, table subgroups of finite groups, and cyclic subgroups of free
groups.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterable, Optional

import numpy as np

from . import linalg

DEFAULT_BALL_LIMIT = 2_000_000


class GroupError(ValueError):
    """Invalid group data or element."""


class UnsupportedSubgroupError(GroupError):
    """Subgroup construction outside the supported cases."""


class ResourceLimitError(GroupError):
    """A ball or closure enumeration exceeded its size limit."""


class Group:
    """Common interface of the four group kinds."""

    kind = "?"

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def check(self, a):
        """Validate ``a`` and return its canonical form."""
        raise NotImplementedError

    def generators(self) -> tuple:
        raise NotImplementedError

    def sort_key(self, a):
        """Key of the canonical total order on elements."""
        raise NotImplementedError

    def word_norm(self, a) -> int:
        """Word-metric distance from ``a`` to the identity."""
        raise NotImplementedError

    def ball(self, radius: int, limit: int = DEFAULT_BALL_LIMIT) -> tuple:
        """Word-metric ball of the given radius, sorted canonically."""
        raise NotImplementedError

    def is_finite(self) -> bool:
        return False

    def sort_elements(self, elements: Iterable) -> tuple:
        return tuple(sorted(elements, key=self.sort_key))

    def descriptor(self) -> dict:
        """JSON-serializable description of the group."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Group) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(repr(self.descriptor()))

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor()})"


class IntegerGroup(Group):
    """The additive group of integers with generating set {1}."""

    kind = "integers"

    def identity(self):
        return 0

    def multiply(self, a, b):
        return a + b

    def inverse(self, a):
        return -a

    def check(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise GroupError(f"not an integer element: {a!r}")
        return a

    def generators(self):
        return (1,)

    def sort_key(self, a):
        return a

    def word_norm(self, a):
        return abs(a)

    def ball(self, radius, limit=DEFAULT_BALL_LIMIT):
        if radius < 0:
            raise GroupError("radius must be nonnegative")
        if 2 * radius + 1 > limit:
            raise ResourceLimitError(f"ball of radius {radius} exceeds limit {limit}")
        return tuple(range(-radius, radius + 1))

    def descriptor(self):
        return {"kind": "integers"}


class LatticeGroup(Group):
    """The lattice Z^d with the standard basis as generating set."""

    kind = "lattice"

    def __init__(self, dim: int):
        if dim < 1:
            raise GroupError("lattice dimension must be >= 1")
        self.dim = dim

    def identity(self):
        return (0,) * self.dim

    def multiply(self, a, b):
        return tuple(map(operator.add, a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def check(self, a):
        a = tuple(a) if not isinstance(a, tuple) else a
        if len(a) != self.dim or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in a
        ):
            raise GroupError(f"not a Z^{self.dim} element: {a!r}")
        return a

    def generators(self):
        gens = []
        for i in range(self.dim):
            e = [0] * self.dim
            e[i] = 1
            gens.append(tuple(e))
        return tuple(gens)

    def sort_key(self, a):
        return a

    def word_norm(self, a):
        return sum(map(abs, a))

    def ball(self, radius, limit=DEFAULT_BALL_LIMIT):
        if radius < 0:
            raise GroupError("radius must be nonnegative")

        def l1_points(d, budget):
            if d == 1:
                for k in range(-budget, budget + 1):
                    yield (k,)
                return
            for k in range(-budget, budget + 1):
                for rest in l1_points(d - 1, budget - abs(k)):
                    yield (k,) + rest

        out = []
        for point in l1_points(self.dim, radius):
            out.append(point)
            if len(out) > limit:
                raise ResourceLimitError(
                    f"ball of radius {radius} in Z^{self.dim} exceeds limit {limit}"
                )
        return tuple(sorted(out))

    def descriptor(self):
        return {"kind": "lattice", "dim": self.dim}


def _reach(table: tuple, starts, steps) -> dict:
    """Breadth-first distances from the ids ``starts`` in ``table`` under
    right multiplication by the ids ``steps``, keyed by the ids reached."""
    dist = dict.fromkeys(starts, 0)
    frontier, d = list(dist), 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            row = table[x]
            for s in steps:
                y = row[s]
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def _check_associative(table: tuple, t: np.ndarray, e: int) -> None:
    """Raise unless ``table`` (also as the array ``t``), with identity ``e``
    and inverses, is associative: Light's test, in O(n^2 log n).

    The z with (x y) z = x (y z) for all x, y include e and are closed
    under products: (x y)(z w) = ((x y) z) w = (x (y z)) w = x ((y z) w) =
    x (y (z w)).  So it is enough to check generators, picked greedily:
    each id that right multiplication by those checked so far does not
    reach from e.  Those reach a subgroup, since each has its inverse among
    its own powers, so each new one at least doubles the reach and at most
    log2 n are checked."""
    reached = {e: 0}
    gens: list[int] = []
    for g in range(len(table)):
        if g in reached:
            continue
        # (x y) g = t[t[x, y], g] against x (y g) = t[x, t[y, g]].
        if not np.array_equal(t[t, g], t[:, t[:, g]]):
            raise GroupError("table is not associative")
        gens.append(g)
        reached = _reach(table, reached, gens)


class FiniteGroup(Group):
    """A finite group given by its multiplication table.

    ``table[i][j]`` is the id of the product of elements i and j.  The
    group axioms (identity, inverses, associativity) are verified at
    construction.  Balls use the provided generator ids, by default all
    non-identity elements, which makes ball(1) the whole group.
    """

    kind = "finite"

    def __init__(self, table, generator_ids: Optional[Iterable[int]] = None):
        try:
            t = np.asarray(table)
            square = t.ndim == 2 and t.shape[0] == t.shape[1] > 0
        except ValueError:  # ragged rows
            square = False
        if not square:
            raise GroupError("multiplication table must be square and nonempty")
        # Entries go through linalg's int64 rule: 1.0 and True read as 1,
        # while 0.5, "1", None and 2^70 are rejected, not converted.
        try:
            t = linalg.as_int64(t, 2)
        except linalg.LinalgError as exc:
            raise GroupError(f"table entries must be element ids: {exc}") from None
        n = len(t)
        if t.min() < 0 or t.max() >= n:
            raise GroupError("table entries must be element ids")
        tbl = tuple(map(tuple, t.tolist()))
        self.table = tbl
        self.order = n
        ids = np.arange(n)
        # The identity: the first e whose row and column read 0, ..., n-1.
        found = ((t == ids) & (t.T == ids)).all(axis=1)
        if not found.any():
            raise GroupError("table has no identity element")
        self._identity = e = int(found.argmax())
        # The inverse of i: the first j with i j = j i = e.
        mutual = (t == e) & (t.T == e)
        found = mutual.any(axis=1)
        if not found.all():
            raise GroupError(f"element {found.argmin()} has no inverse")
        self._inverse = tuple(mutual.argmax(axis=1).tolist())
        _check_associative(tbl, t, e)
        if generator_ids is None:
            # Every other element is a generator: norm 1, the identity 0.
            self._generators = tuple(i for i in range(n) if i != e) or (e,)
            self._distances = {i: int(i != e) for i in range(n)}
        else:
            gens = tuple(self.check(g) for g in generator_ids)
            self._generators = gens
            self._distances = _reach(tbl, [e], set(gens) | {self._inverse[g] for g in gens})
        if len(self._distances) != n:
            raise GroupError("generators do not generate the whole group")

    def identity(self):
        return self._identity

    def multiply(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self._inverse[a]

    def check(self, a):
        if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < self.order:
            raise GroupError(f"not an element id of this finite group: {a!r}")
        return a

    def generators(self):
        return self._generators

    def sort_key(self, a):
        return a

    def word_norm(self, a):
        return self._distances[a]

    def ball(self, radius, limit=DEFAULT_BALL_LIMIT):
        if radius < 0:
            raise GroupError("radius must be nonnegative")
        return tuple(sorted(g for g, d in self._distances.items() if d <= radius))

    def is_finite(self):
        return True

    def elements(self):
        return tuple(range(self.order))

    def descriptor(self):
        return {
            "kind": "finite",
            "table": [list(row) for row in self.table],
            "generators": list(self._generators),
        }


class FreeGroup(Group):
    """The free group of finite rank.

    Elements are freely reduced words stored as tuples of nonzero signed
    indices: +k is the k-th generator, -k its inverse (1-based, k <= rank).
    """

    kind = "free"

    def __init__(self, rank: int):
        if rank < 1:
            raise GroupError("free group rank must be >= 1")
        self.rank = rank

    def identity(self):
        return ()

    def word(self, letters) -> tuple:
        """Freely reduce a letter sequence into canonical form."""
        out = []
        for x in letters:
            if isinstance(x, bool) or not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise GroupError(f"bad free-group letter: {x!r}")
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def multiply(self, a, b):
        """The product of two reduced words.  Like every group's
        ``multiply`` it trusts its operands: ``a`` and ``b`` are tuples from
        ``check``/``word`` or ``ball``, or products and inverses of those.
        Two reduced words cancel only where ``a`` ends and ``b`` begins."""
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return a[: len(a) - k] + b[k:]

    def inverse(self, a):
        return tuple(-x for x in reversed(a))

    def check(self, a):
        return self.word(tuple(a))

    def generators(self):
        return tuple((k,) for k in range(1, self.rank + 1))

    def sort_key(self, a):
        return (len(a), tuple((abs(x), 0 if x > 0 else 1) for x in a))

    def word_norm(self, a):
        return len(a)

    def ball(self, radius, limit=DEFAULT_BALL_LIMIT):
        if radius < 0:
            raise GroupError("radius must be nonnegative")
        letters = [k for k in range(1, self.rank + 1)] + [
            -k for k in range(1, self.rank + 1)
        ]
        out = [()]
        frontier = [()]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for x in letters:
                    if w and w[-1] == -x:
                        continue
                    nxt.append(w + (x,))
            out.extend(nxt)
            if len(out) > limit:
                raise ResourceLimitError(
                    f"free-group ball of radius {radius} exceeds limit {limit}"
                )
            frontier = nxt
        return self.sort_elements(out)

    def descriptor(self):
        return {"kind": "free", "rank": self.rank}


def interior(group: Group, window: Iterable, memory: Iterable) -> tuple:
    """The set {g : g m in window for all m in memory}, sorted canonically.

    When the identity belongs to ``memory`` the result is contained in the
    window.  ``memory`` must be nonempty.
    """
    window_set = set(window)
    memory = tuple(memory)
    if not memory:
        raise GroupError("memory must be nonempty")
    m0_inv = group.inverse(memory[0])
    candidates = {group.multiply(a, m0_inv) for a in window_set}
    good = [
        g
        for g in candidates
        if all(group.multiply(g, m) in window_set for m in memory)
    ]
    return group.sort_elements(good)


def ball_fits(group: Group, radius: int, count: int) -> bool:
    """Whether ball(radius) has at most ``count`` elements.  The ball is
    enumerated only until it passes ``count`` (a free group finishes the
    word length it is on), so the answer costs about ``count`` elements
    however large the radius."""
    try:
        group.ball(radius, count)
    except ResourceLimitError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup with its own canonical forms plus transfer maps.

    ``embed`` is an injective homomorphism from the subgroup into the
    parent; ``recognize`` maps a parent element to its subgroup form when
    it lies in the subgroup and returns None otherwise.
    """

    parent: Group
    group: Group
    embed: Callable = field(repr=False)
    recognize: Callable = field(repr=False)


def trivial_subgroup(parent: Group) -> Subgroup:
    triv = FiniteGroup(((0,),))
    e = parent.identity()
    return Subgroup(
        parent,
        triv,
        embed=lambda h: e,
        recognize=lambda g: 0 if g == e else None,
    )


def _hermite_normal_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns (basis, pivots): the nonzero echelon rows with positive pivots
    and entries above each pivot reduced into [0, pivot).
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return [], []
    cols = len(mat[0])
    r = 0
    pivots = []
    for c in range(cols):
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if len(live) <= 1:
                break
            i_min = min(live, key=lambda i: abs(mat[i][c]))
            for i in live:
                if i != i_min:
                    q = mat[i][c] // mat[i_min][c]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[i_min])]
        live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        if not live:
            continue
        i0 = live[0]
        mat[r], mat[i0] = mat[i0], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _lattice_subgroup(parent: LatticeGroup, elements) -> Subgroup:
    basis, pivots = _hermite_normal_form([list(e) for e in elements])
    rank = len(basis)
    if rank == 0:
        return trivial_subgroup(parent)
    basis_rows = [tuple(row) for row in basis]

    def coeffs_of(g):
        rem = list(g)
        coeffs = []
        for row, piv in zip(basis_rows, pivots):
            q, r = divmod(rem[piv], row[piv])
            if r != 0:
                return None
            coeffs.append(q)
            rem = [x - q * y for x, y in zip(rem, row)]
        if any(rem):
            return None
        return tuple(coeffs)

    def combine(coeffs):
        out = [0] * parent.dim
        for coeff, row in zip(coeffs, basis_rows):
            for i, x in enumerate(row):
                out[i] += coeff * x
        return tuple(out)

    if rank == 1:
        return Subgroup(
            parent,
            IntegerGroup(),
            embed=lambda h: combine((h,)),
            recognize=lambda g: (lambda c: c[0] if c is not None else None)(
                coeffs_of(g)
            ),
        )
    sub = LatticeGroup(rank)
    return Subgroup(parent, sub, embed=combine, recognize=coeffs_of)


def _finite_subgroup(parent: FiniteGroup, elements) -> Subgroup:
    gens = [parent.check(g) for g in elements]
    closure = {parent.identity()}
    frontier = [parent.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = parent.multiply(g, s)
                if h not in closure:
                    closure.add(h)
                    nxt.append(h)
        frontier = nxt
    ids = sorted(closure)
    index = {g: i for i, g in enumerate(ids)}
    table = [[index[parent.multiply(a, b)] for b in ids] for a in ids]
    gen_ids = sorted({index[g] for g in gens if g != parent.identity()})
    sub = FiniteGroup(table, generator_ids=gen_ids or None)

    def embed(h):
        return ids[h]

    def recognize(g):
        return index.get(g)

    return Subgroup(parent, sub, embed=embed, recognize=recognize)


def _integer_subgroup(parent: IntegerGroup, elements) -> Subgroup:
    d = 0
    for m in elements:
        d = gcd(d, abs(parent.check(m)))
    if d == 0:
        return trivial_subgroup(parent)
    sub = IntegerGroup()
    return Subgroup(
        parent,
        sub,
        embed=lambda h: h * d,
        recognize=lambda g: g // d if g % d == 0 else None,
    )


def _free_cyclic_subgroup(parent: FreeGroup, elements) -> Subgroup:
    words = {parent.check(w) for w in elements}
    words.discard(parent.identity())
    if not words:
        return trivial_subgroup(parent)
    if len(words) > 1:
        raise UnsupportedSubgroupError(
            "free-group subgroups are supported for a single generating word only"
        )
    w = next(iter(words))
    w_inv = parent.inverse(w)
    sub = IntegerGroup()

    def embed(k):
        out = parent.identity()
        step = w if k >= 0 else w_inv
        for _ in range(abs(k)):
            out = parent.multiply(out, step)
        return out

    def recognize(g):
        if g == ():
            return 0
        # |w^k| grows at least linearly in k, so len(g) bounds the exponent.
        for sign, step in ((1, w), (-1, w_inv)):
            acc = parent.identity()
            for k in range(1, len(g) + 1):
                acc = parent.multiply(acc, step)
                if acc == g:
                    return sign * k
                if len(acc) > len(g):
                    break
        return None

    return Subgroup(parent, sub, embed=embed, recognize=recognize)


def subgroup_generated(group: Group, elements: Iterable) -> Subgroup:
    """The subgroup generated by ``elements`` with embed/recognize maps.

    Supported: any subset of Z (gives dZ), of Z^d (gives the sublattice in
    Hermite basis), of a finite group (closure enumeration), and a single
    nontrivial word of a free group (gives an infinite cyclic subgroup).
    """
    elements = tuple(elements)
    if isinstance(group, IntegerGroup):
        return _integer_subgroup(group, elements)
    if isinstance(group, LatticeGroup):
        return _lattice_subgroup(group, [group.check(e) for e in elements])
    if isinstance(group, FiniteGroup):
        return _finite_subgroup(group, elements)
    if isinstance(group, FreeGroup):
        return _free_cyclic_subgroup(group, elements)
    raise UnsupportedSubgroupError(f"unsupported group kind: {group.kind}")


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group Z/nZ as an explicit table."""
    if n < 1:
        raise GroupError("cyclic group order must be >= 1")
    ids = np.arange(n)
    return FiniteGroup(((ids[:, None] + ids) % n).tolist())


def symmetric_group_3() -> FiniteGroup:
    """The symmetric group on three letters as an explicit table."""
    perms = list(itertools.permutations((0, 1, 2)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(table)
