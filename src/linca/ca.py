"""Linear cellular automata as data.

A rule is a finite ordered memory set M in the group together with one
dimV x dimV block per memory element; the local map sends a pattern y on M
to sum_m block[m] y(m), and the automaton evaluates cellwise as
out(g) = sum_m block[m] x(g m).  Rules are kept normalized: the identity
element always belongs to the memory (with a zero block if need be), every
other zero block is pruned, and memory follows the canonical element
order.  Two automata are equal iff their normalized rules are equal, which
makes identity testing exact.

Patterns live on finite windows; configurations come in three decidable
families: finitely supported (any group), periodic (integers only) and
constant.  ``LinearCA.block_matrix`` is the one assembler of rule blocks
into a GF(p) matrix; it writes each block once, as stored, and reduces
nothing.  ``LinearCA.window_map`` wraps it for the source and target cells
it is given and decides no window: ``solver.WindowSystem`` owns the
windows, A_n = ball(r0 + n) in its layer order and B_n = interior(A_n, M)
in the canonical cell order.  Every other solver system is in the
canonical cell order, read directly, transposed or with columns folded.
This module also owns the one evaluator, the plain loop
``LinearCA._evaluate`` that checks those matrices independently, and the
cell layout of window vectors (``cell_view``).  ``_sum_by_cell`` is the one
loop that sums rule blocks by cell, for ``push_forward`` and ``compose``.

A rule's blocks are coerced once, in ``normalize_rule``: one
``linalg.as_matrix`` call on their (k dimV) x dimV stack checks, copies
and reduces them all, and the blocks kept are read-only views of it, or of
a compact copy when some are pruned, so no pruned block stays alive.
``compose`` hands it its float sums unconverted, so they are converted to
int64 and reduced in that one call.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import linalg
from .groups import Group, IntegerGroup, interior


class CAError(ValueError):
    """Invalid rule data or incompatible operands."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def normalize_rule(group: Group, p: int, dim_v: int, memory, blocks) -> tuple[tuple, tuple]:
    """Canonical form of a rule, as (memory, blocks): identity present, zero
    blocks pruned, memory in canonical order, blocks read-only.  The
    represented global map is unchanged.  The blocks are coerced in one
    ``linalg.as_matrix`` call (``_block_stack``), and the kept blocks are
    views of that stack, or of a compact copy of it when some are pruned."""
    mem = [group.check(m) for m in memory]
    if len(set(mem)) != len(mem):
        raise CAError("memory elements must be pairwise distinct")
    stack = _block_stack(blocks, p, dim_v, len(mem))
    e = group.identity()
    live = stack.reshape(len(mem), dim_v * dim_v).any(axis=1)
    keep = [i for i, m in enumerate(mem) if live[i] or m == e]
    if len(keep) < len(mem):  # a compact copy: the kept views hold no pruned block
        stack = stack[keep]
    kept = dict(zip([mem[i] for i in keep], stack))
    if e not in kept:
        kept[e] = np.zeros((dim_v, dim_v), dtype=np.int64)
    ordered = group.sort_elements(kept)
    return ordered, tuple(_freeze(kept[m]) for m in ordered)


def _block_stack(blocks, p: int, dim_v: int, count: int) -> np.ndarray:
    """The ``count`` blocks as one (count, dimV, dimV) int64 array reduced
    mod p, from one ``linalg.as_matrix`` call on their (count dimV) x dimV
    stack.  Blocks that do not stack to that shape (ragged, too many or too
    few) or whose stack ``as_matrix`` rejects are coerced one by one, so
    each check raises what it raises on the block alone, in the same order:
    the entries, then the count, then the shapes."""
    try:
        stack = np.asarray(blocks)
        if stack.shape == (count, dim_v, dim_v):
            return linalg.as_matrix(stack.reshape(count * dim_v, dim_v), p).reshape(stack.shape)
    except ValueError:  # ragged blocks, or entries outside int64 (a LinalgError)
        pass
    mats = [linalg.as_matrix(b, p) for b in blocks]
    if len(mats) != count:
        raise CAError("block count must match memory size")
    for b in mats:
        if b.shape != (dim_v, dim_v):
            raise CAError(f"block shape {b.shape} does not match dimV={dim_v}")
    return np.array(mats, dtype=np.int64).reshape(count, dim_v, dim_v)


class LinearCA:
    """A linear cellular automaton over a group, GF(p) and alphabet V."""

    def __init__(self, group: Group, p: int, dim_v: int, memory, blocks):
        linalg.require_prime(p)
        if dim_v < 0:
            raise CAError("dimV must be nonnegative")
        self.group = group
        self.p = p
        self.dim_v = dim_v
        self.memory, self.blocks = normalize_rule(group, p, dim_v, memory, blocks)

    @property
    def support_memory(self) -> tuple:
        """The cells the rule actually reads: memory elements with nonzero
        blocks (the identity alone for the zero rule).  Evaluation windows
        use this, so a padded zero block never shrinks an output domain."""
        live = tuple(
            m for m, b in zip(self.memory, self.blocks) if np.any(b)
        )
        return live or (self.group.identity(),)

    def block(self, m) -> np.ndarray:
        return self.blocks[self.memory.index(m)]

    def zero_vector(self) -> np.ndarray:
        return np.zeros(self.dim_v, dtype=np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, LinearCA)
            and self.group == other.group
            and self.p == other.p
            and self.dim_v == other.dim_v
            and self.memory == other.memory
            and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def __repr__(self):
        return (
            f"LinearCA(group={self.group.kind}, p={self.p}, dimV={self.dim_v}, "
            f"memory={self.memory!r})"
        )

    # -- evaluation ---------------------------------------------------

    def _evaluate(self, cells: Iterable, read: Callable) -> dict:
        """out(g) = sum_m b_m x(g m) mod p at each of ``cells``, read(h) being
        x(h), or None where x is zero.  A plain loop, not ``block_matrix``,
        so it checks independently what the solvers find through it."""
        mul = self.group.multiply
        out = {}
        for g in cells:
            acc = self.zero_vector()
            for m, b in zip(self.memory, self.blocks):
                v = read(mul(g, m))
                if v is not None:
                    acc = acc + b @ v
            out[g] = acc % self.p
        return out

    def apply_pattern(self, pattern: "Pattern") -> "Pattern":
        """Evaluate on a finite window; the output lives on the interior of
        the domain with respect to the support memory, where every needed
        neighbor is present.  The empty pattern, and windows with empty
        interior, are legal."""
        cells = interior(self.group, pattern.cells, self.support_memory)
        return Pattern(self._evaluate(cells, pattern.cells.get))

    def apply_config(self, config: "Configuration") -> "Configuration":
        check_on_group(self.group, config)
        d = self.dim_v
        if isinstance(config, FiniteSupportConfig):
            g = self.group
            cells = {
                g.multiply(s, g.inverse(m)) for s in config.cells for m in self.support_memory
            }
            return finite_support(self.p, d, self._evaluate(cells, config.cells.get))
        if isinstance(config, PeriodicConfig):
            out = self._evaluate(range(config.period), lambda h: config.value_at(h, d))
            return PeriodicConfig(tuple(_freeze(v) for v in out.values()))
        if isinstance(config, ConstantConfig):
            e = self.group.identity()
            return constant(self.p, d, self._evaluate((e,), lambda h: config.value)[e])
        raise CAError(f"unsupported configuration kind: {type(config).__name__}")

    # -- block matrices and window maps ------------------------------------

    def block_matrix(self, rows: Sequence, cols: Sequence) -> np.ndarray:
        """The matrix, from V^cols to V^rows, of x -> (r -> sum_m b_m x(r m)),
        cells in the given orders; a product r m outside ``cols`` reads zero.

        In a group r m = r m' forces m = m', so each cell gets at most one
        block, already reduced, and no other entry is written: the matrix
        needs no reduction."""
        d = self.dim_v
        mul = self.group.multiply
        index = {c: j for j, c in enumerate(cols)}
        mat = np.zeros((d * len(rows), d * len(cols)), dtype=np.int64)
        cells = mat.reshape(len(rows), d, len(cols), d)
        for m, b in zip(self.memory, self.blocks):
            if not b.any():
                continue
            js = np.array([index.get(mul(r, m), -1) for r in rows], dtype=np.int64)
            ri = np.flatnonzero(js >= 0)
            cells[ri, :, js[ri], :] = b
        return mat

    def window_map(self, source: tuple, target: tuple) -> "WindowMap":
        """The window map V^source -> V^target as a read-only block matrix,
        columns in the order of ``source`` and rows in that of ``target``.
        ``solver.WindowSystem`` decides the cells: A_n and its interior B_n."""
        return WindowMap(source, target, _freeze(self.block_matrix(target, source)))


@dataclass(frozen=True, eq=False)
class WindowMap:
    """Window evaluation as an explicit matrix: rows index the target cells
    (the interior), columns the source cells, dimV coordinates per cell."""

    source: tuple
    target: tuple
    matrix: np.ndarray


# -- patterns ------------------------------------------------------------


@dataclass(eq=False)
class Pattern:
    """A finite partial configuration: cell -> vector."""

    cells: dict

    def value_at(self, g, dim_v: int) -> np.ndarray:
        return self.cells[g]

    def restrict(self, elements: Iterable) -> "Pattern":
        return Pattern({g: self.cells[g] for g in elements})

    def __eq__(self, other):
        return (
            isinstance(other, Pattern)
            and set(self.cells) == set(other.cells)
            and all(np.array_equal(v, other.cells[g]) for g, v in self.cells.items())
        )

    def __repr__(self):
        return f"Pattern(domain={sorted(self.cells, key=repr)!r})"


def cell_view(vec: np.ndarray, order: Sequence, dim_v: int) -> np.ndarray:
    """The cell layout: a window vector over ``order`` (or a matrix with
    rows indexed like one) holds cell order[i] at coordinates i dimV to
    (i + 1) dimV - 1.  This view of shape (len(order), dimV, ...), which
    writes through to ``vec``, is the only code that knows it."""
    vec = np.asarray(vec)
    return vec.reshape(len(order), dim_v, *vec.shape[1:])


def coordinates(cells: Iterable, order: Sequence, dim_v: int) -> np.ndarray:
    """Indices ``idx`` with x[idx] the window vector of x restricted to
    ``cells``, for x a window vector over ``order``."""
    pos = {g: j for j, g in enumerate(order)}
    every = cell_view(np.arange(dim_v * len(order)), order, dim_v)
    return every[np.array([pos[g] for g in cells], dtype=np.intp)].reshape(-1)


def pattern_to_vec(x, order: Sequence, dim_v: int, p: int) -> np.ndarray:
    """The window vector over ``order`` of a pattern or configuration x."""
    out = np.zeros(dim_v * len(order), dtype=np.int64)
    for value, g in zip(cell_view(out, order, dim_v), order):
        value[:] = x.value_at(g, dim_v)
    return out % p


def vec_to_pattern(vec: np.ndarray, order: Sequence, dim_v: int) -> Pattern:
    values = cell_view(vec, order, dim_v)
    return Pattern({g: _freeze(np.array(v, dtype=np.int64)) for g, v in zip(order, values)})


# -- configurations -------------------------------------------------------


@dataclass(eq=False)
class FiniteSupportConfig:
    """Zero outside a finite support; zero vectors are never stored."""

    cells: dict

    def value_at(self, g, dim_v: int) -> np.ndarray:
        v = self.cells.get(g)
        return np.zeros(dim_v, dtype=np.int64) if v is None else v

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSupportConfig)
            and set(self.cells) == set(other.cells)
            and all(np.array_equal(v, other.cells[g]) for g, v in self.cells.items())
        )


@dataclass(eq=False)
class PeriodicConfig:
    """One period of values on the integers; value_at(n) = values[n mod q]."""

    values: tuple

    @property
    def period(self) -> int:
        return len(self.values)

    def value_at(self, g, dim_v: int) -> np.ndarray:
        return self.values[g % self.period]

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicConfig)
            and self.period == other.period
            and all(np.array_equal(a, b) for a, b in zip(self.values, other.values))
        )


@dataclass(eq=False)
class ConstantConfig:
    value: np.ndarray

    def value_at(self, g, dim_v: int) -> np.ndarray:
        return self.value

    def __eq__(self, other):
        return isinstance(other, ConstantConfig) and np.array_equal(
            self.value, other.value
        )


Configuration = Union[FiniteSupportConfig, PeriodicConfig, ConstantConfig]


def value_vector(p: int, dim_v: int, value) -> np.ndarray:
    """One cell value as a read-only vector of V = GF(p)^dimV; patterns and
    configurations build every value from outside data through here."""
    w = linalg.as_vector(value, p)
    if w.shape[0] != dim_v:
        raise CAError(f"value length {w.shape[0]} does not match dimV={dim_v}")
    return _freeze(w)


def finite_support(p: int, dim_v: int, cells: dict) -> FiniteSupportConfig:
    values = {g: value_vector(p, dim_v, v) for g, v in cells.items()}
    return FiniteSupportConfig({g: w for g, w in values.items() if np.any(w)})


def periodic(p: int, dim_v: int, values: Sequence) -> PeriodicConfig:
    if len(values) < 1:
        raise CAError("period must be >= 1")
    return PeriodicConfig(tuple(value_vector(p, dim_v, v) for v in values))


def constant(p: int, dim_v: int, value) -> ConstantConfig:
    return ConstantConfig(value_vector(p, dim_v, value))


def zero_config() -> FiniteSupportConfig:
    return FiniteSupportConfig({})


def check_on_group(group: Group, config: Configuration) -> None:
    """Raise CAError unless ``config`` is a configuration on ``group``:
    periodic ones are defined on the integers only."""
    if isinstance(config, PeriodicConfig) and not isinstance(group, IntegerGroup):
        raise CAError("periodic configurations require the integer group")


def shift_config(group: Group, g, config: Configuration) -> Configuration:
    """The left shift action: (g x)(h) = x(g^{-1} h)."""
    check_on_group(group, config)
    if isinstance(config, FiniteSupportConfig):
        return FiniteSupportConfig(
            {group.multiply(g, h): v for h, v in config.cells.items()}
        )
    if isinstance(config, PeriodicConfig):
        q = config.period
        return PeriodicConfig(tuple(config.values[(i - g) % q] for i in range(q)))
    if isinstance(config, ConstantConfig):
        return config
    raise CAError(f"unsupported configuration kind: {type(config).__name__}")


def config_equal(group: Group, dim_v: int, a: Configuration, b: Configuration) -> bool:
    """Equality as global configurations, decided on canonical data."""
    if type(a) is type(b):
        if isinstance(a, PeriodicConfig):
            q = math.lcm(a.period, b.period)
            return all(
                np.array_equal(a.value_at(i, dim_v), b.value_at(i, dim_v))
                for i in range(q)
            )
        return a == b
    # Mixed kinds: a finite group is covered by direct comparison; on
    # infinite groups the families only overlap in degenerate cases.
    if group.is_finite():
        return all(
            np.array_equal(a.value_at(g, dim_v), b.value_at(g, dim_v))
            for g in group.elements()
        )
    kinds = {type(a): a, type(b): b}
    fs = kinds.get(FiniteSupportConfig)
    const = kinds.get(ConstantConfig)
    per = kinds.get(PeriodicConfig)
    if fs is not None and const is not None:
        return not np.any(const.value) and not fs.cells
    if fs is not None and per is not None:
        return not fs.cells and not any(np.any(v) for v in per.values)
    return all(np.array_equal(const.value, v) for v in per.values)


# -- rule-level operations -------------------------------------------------


def _sum_by_cell(group: Group, p: int, dim_v: int, cells: Sequence, blocks, dtype) -> LinearCA:
    """The rule on ``group`` whose block at u is the sum of the blocks whose
    cell is u.  The sums are taken in place in ``dtype``, which must hold
    each of them exactly; ``LinearCA`` converts them to int64 and reduces
    them mod p, in one ``linalg.as_matrix`` call."""
    order = dict.fromkeys(cells)
    sums = np.zeros((len(order), dim_v, dim_v), dtype=dtype)
    views = dict(zip(order, sums))  # each cell's sum, a view into ``sums``
    for u, b in zip(cells, blocks):
        view = views[u]
        view += b
    return LinearCA(group, p, dim_v, tuple(order), sums)


def push_forward(ca: LinearCA, group: Group, phi: Callable) -> LinearCA:
    """The rule on ``group`` whose block at v sums, mod p, the b_m with
    phi(m) = v.  A homomorphism phi induces a ring map on the matrices over
    the group rings, so pushing commutes with ``compose``: nu o A = identity
    gives phi(nu) phi(A) = I, and on Z^k det phi(A) is then a unit; on a
    finite H, tau(v o phi)(g) = tau_H(v)(phi(g)) (Ceccherini-Silberstein &
    Coornaert, Cellular Automata and Groups, ch. 8).  Nothing is summed
    along a map injective on the memory."""
    cells = [phi(m) for m in ca.memory]
    return _sum_by_cell(group, ca.p, ca.dim_v, cells, ca.blocks, np.int64)


def compose(outer: LinearCA, inner: LinearCA) -> LinearCA:
    """The automaton computing outer(inner(x)): the block at u sums b2 b1
    over m2 m1 = u.

    All |M2| |M1| products come from one BLAS product of inner dimension
    dimV, in the float type that ``linalg.exact_float`` gives for the
    terms of the fullest cell, its pairs m2 m1 = u times dimV, so every
    sum of a cell is exact.  They are summed per cell on views of that
    product, with no copy of it, and ``LinearCA`` converts only the sums
    to int64 and reduces them, once.  When float64 cannot hold a cell's sum
    (for p < 2^20 that takes more than 8192 terms on one cell), each
    product is reduced first by ``linalg.matmul`` and the sums are taken
    in int64."""
    if outer.group != inner.group or outer.p != inner.p or outer.dim_v != inner.dim_v:
        raise CAError("composition requires matching group, field and dimV")
    g, p, d = outer.group, outer.p, outer.dim_v
    cells = [g.multiply(m2, m1) for m2 in outer.memory for m1 in inner.memory]
    dtype = linalg.exact_float(max(Counter(cells).values()) * d, p)
    if dtype is None:
        prods = linalg.matmul(np.concatenate(outer.blocks), np.concatenate(inner.blocks, 1), p)
    else:
        prods = np.concatenate(outer.blocks, dtype=dtype) @ np.concatenate(inner.blocks, 1, dtype=dtype)
    # Block (i, j) of the product is b2_i b1_j.  The swapped axes are a
    # view, and iterating it yields those blocks as views, in pair order.
    grid = prods.reshape(len(outer.memory), d, len(inner.memory), d).swapaxes(1, 2)
    return _sum_by_cell(g, p, d, cells, itertools.chain.from_iterable(grid), prods.dtype)


def identity_ca(group: Group, p: int, dim_v: int) -> LinearCA:
    return LinearCA(group, p, dim_v, (group.identity(),), (np.eye(dim_v, dtype=np.int64),))


def equals_identity(ca: LinearCA) -> bool:
    """Exact identity test on the normalized rule."""
    if ca.memory != (ca.group.identity(),):
        return False
    return np.array_equal(ca.blocks[0], np.eye(ca.dim_v, dtype=np.int64))


def equivariance_check(
    automaton: Union[LinearCA, Callable[[Configuration], Configuration]],
    group: Group,
    dim_v: int,
    samples: Iterable[tuple],
) -> bool:
    """Check tau(g x) = g tau(x) on the given (g, configuration) samples.
    Accepts any configuration map, so a non-equivariant double fails."""
    apply = automaton.apply_config if isinstance(automaton, LinearCA) else automaton
    for g, x in samples:
        lhs = apply(shift_config(group, g, x))
        rhs = shift_config(group, g, apply(x))
        if not config_equal(group, dim_v, lhs, rhs):
            return False
    return True
