"""Shared helpers for the test suite: seeded random generators for rules,
configurations and matrices, a textbook Gauss-Jordan oracle, and exact
containment checks on universal chains."""

import random

import numpy as np

from linca import FiniteSupportConfig, IntegerGroup, LinearCA, compose, finite_support, identity_ca
from linca.linalg import AffineSubspace, Subspace


def random_matrix(rng: random.Random, rows: int, cols: int, p: int) -> np.ndarray:
    flat = [rng.randrange(p) for _ in range(rows * cols)]
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


def random_ca(rng: random.Random, group, p: int, dim_v: int, memory) -> LinearCA:
    blocks = [random_matrix(rng, dim_v, dim_v, p) for _ in memory]
    return LinearCA(group, p, dim_v, tuple(memory), tuple(blocks))


def random_integer_ca(rng: random.Random, p: int, dim_v: int, span=1) -> LinearCA:
    memory = tuple(range(-span, span + 1))
    return random_ca(rng, IntegerGroup(), p, dim_v, memory)


def free_group_map(target, images):
    """The homomorphism F_k -> target sending letter i to images[i - 1]: a
    word goes to the product of its letters' images."""

    def phi(word):
        out = target.identity()
        for x in word:
            g = images[abs(x) - 1]
            out = target.multiply(out, g if x > 0 else target.inverse(g))
        return out

    return phi


def random_finite_support(
    rng: random.Random, group, p: int, dim_v: int, cells
) -> FiniteSupportConfig:
    values = {}
    for g in cells:
        values[g] = [rng.randrange(p) for _ in range(dim_v)]
    return finite_support(p, dim_v, values)


def unit_det_rule(rng: random.Random, group, p: int, dim_v: int, factors: int = 3) -> LinearCA:
    """A rule on Z or Z^d whose Laurent determinant is a unit: a product of
    elementary matrices I + c t^m E_ij (i != j) and monomial diagonals
    diag(c_i t^(m_i)), every m in ball(1).  A diagonal with distinct m_i
    makes end blocks singular."""
    rule = identity_ca(group, p, dim_v)
    cells = group.ball(1)
    for _ in range(factors):
        blocks: dict = {}
        if dim_v >= 2 and rng.random() < 0.6:
            i, j = rng.sample(range(dim_v), 2)
            blocks[group.identity()] = np.eye(dim_v, dtype=np.int64)
            block = blocks.setdefault(rng.choice(cells), np.zeros((dim_v, dim_v), dtype=np.int64))
            block[i, j] = rng.randrange(1, p)
        else:
            for i in range(dim_v):
                block = blocks.setdefault(rng.choice(cells), np.zeros((dim_v, dim_v), dtype=np.int64))
                block[i, i] = rng.randrange(1, p)
        rule = compose(LinearCA(group, p, dim_v, tuple(blocks), tuple(blocks.values())), rule)
    return rule


def reference_rref(rows: list, cols: int, p: int) -> tuple[list, list]:
    """Textbook Gauss-Jordan over GF(p) on lists of Python integers."""
    m = [list(row) for row in rows]
    pivots: list = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def reference_solve(mat, rhs, p: int) -> AffineSubspace:
    """{x : mat x = rhs} by ``reference_rref`` of [mat | rhs], its kernel
    read off the free columns, then put in canonical form by
    ``Subspace.from_spanning``; shares no code with the library's solves."""
    mat = np.asarray(mat, dtype=np.int64) % p
    cols = mat.shape[1]
    rows = [row + [int(b) % p] for row, b in zip(mat.tolist(), rhs)]
    m, pivots = reference_rref(rows, cols + 1, p)
    if cols in pivots:
        return AffineSubspace.empty(cols, p)
    point = [0] * cols
    kernel = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -m[i][f] % p
        kernel.append(v)
    for i, c in enumerate(pivots):
        point[c] = m[i][cols]
    kernel = np.array(kernel, dtype=np.int64).reshape(len(kernel), cols)
    directions = Subspace.from_spanning(kernel, cols, p)
    return AffineSubspace.from_point_subspace(np.array(point, dtype=np.int64), directions)


def contains_subspace(big: Subspace, small: Subspace) -> bool:
    return all(big.contains(row) for row in small.basis)


def nonincreasing(chain) -> bool:
    """Each image of a universal chain contains the next (set containment,
    checked exactly)."""
    for a, b in zip(chain.images, chain.images[1:]):
        if b.is_empty:
            continue
        if a.is_empty or not a.contains(b.point):
            return False
        if not contains_subspace(a.directions, b.directions):
            return False
    return True


def chains_nonincreasing(result) -> bool:
    return all(nonincreasing(chain) for chain in result.chains.values())
