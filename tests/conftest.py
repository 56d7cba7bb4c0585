"""Shared helpers for the test suite: seeded random generators for rules,
configurations and matrices."""

import random

import numpy as np

from linca import FiniteSupportConfig, IntegerGroup, LinearCA, compose, finite_support, identity_ca


def random_matrix(rng: random.Random, rows: int, cols: int, p: int) -> np.ndarray:
    flat = [rng.randrange(p) for _ in range(rows * cols)]
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


def random_ca(rng: random.Random, group, p: int, dim_v: int, memory) -> LinearCA:
    blocks = [random_matrix(rng, dim_v, dim_v, p) for _ in memory]
    return LinearCA(group, p, dim_v, tuple(memory), tuple(blocks))


def random_integer_ca(rng: random.Random, p: int, dim_v: int, span=1) -> LinearCA:
    memory = tuple(range(-span, span + 1))
    return random_ca(rng, IntegerGroup(), p, dim_v, memory)


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
