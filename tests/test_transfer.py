"""Restriction and induction round trips and property transfer."""

import random

import numpy as np
import pytest

from conftest import random_ca, random_finite_support
from linca import (
    FreeGroup,
    IntegerGroup,
    LatticeGroup,
    LinearCA,
    WindowSystem,
    cyclic_group,
    finite_support,
    identity_ca,
    induce,
    restrict,
    subgroup_generated,
)
from linca.linalg import rank
from linca.transfer import TransferError

Z = IntegerGroup()


def full_group_matrix(ca):
    """The square matrix of a CA on a finite group (windows saturate)."""
    w = WindowSystem(ca).window(1)
    assert set(w.source) == set(w.target) == set(ca.group.elements())
    return w.matrix


def test_restrict_even_memory_to_index_two():
    ca = LinearCA(Z, 2, 1, (0, 2), ([[1]], [[1]]))
    sub = subgroup_generated(Z, (2,))
    res = restrict(ca, sub)
    assert isinstance(res.group, IntegerGroup)
    assert res.memory == (0, 1)
    assert [b.tolist() for b in res.blocks] == [[[1]], [[1]]]


def test_restrict_to_whole_group_is_identity_operation():
    ca = LinearCA(Z, 3, 1, (-1, 0, 1), ([[1]], [[2]], [[1]]))
    sub = subgroup_generated(Z, (1,))
    assert restrict(ca, sub) == ca


def test_restrict_finite_table_case():
    z6 = cyclic_group(6)
    ca = LinearCA(z6, 2, 1, (0, 2), ([[1]], [[1]]))
    sub = subgroup_generated(z6, (2,))
    res = restrict(ca, sub)
    assert res.group.order == 3
    assert res.memory == (0, 1)


def test_restrict_rejects_outside_memory():
    ca = LinearCA(Z, 2, 1, (0, 1), ([[1]], [[1]]))
    sub = subgroup_generated(Z, (2,))
    with pytest.raises(TransferError):
        restrict(ca, sub)


def test_induce_identity():
    sub = subgroup_generated(LatticeGroup(2), ((1, 0),))
    ca = identity_ca(IntegerGroup(), 2, 2)
    up = induce(ca, sub)
    assert up.group == LatticeGroup(2)
    assert up.memory == ((0, 0),)


def test_induce_block_rule_into_lattice():
    n = np.array([[0, 1], [0, 0]], dtype=np.int64)
    ca = LinearCA(Z, 2, 2, (0, 1), (np.eye(2, dtype=np.int64), n))
    sub = subgroup_generated(LatticeGroup(2), ((1, 0),))
    up = induce(ca, sub)
    assert up.memory == ((0, 0), (1, 0))
    assert restrict(up, sub) == ca


def test_round_trips_randomized():
    rng = random.Random(53)
    z2 = LatticeGroup(2)
    f2 = FreeGroup(2)
    z6 = cyclic_group(6)
    cases = []
    for _ in range(15):
        p = rng.choice((2, 3))
        d = rng.choice((1, 2))
        cases.append((subgroup_generated(Z, (2,)), [0, 2, 4], p, d))
        cases.append((subgroup_generated(z2, ((2, 0), (0, 3))), [(0, 0), (2, 0), (0, 3)], p, d))
        cases.append((subgroup_generated(z6, (2,)), [0, 2, 4], p, d))
        cases.append((subgroup_generated(f2, (f2.word([1, 2]),)), [(), (1, 2)], p, d))
    for sub, memory, p, d in cases:
        tau = random_ca(rng, sub.parent, p, d, memory)
        assert induce(restrict(tau, sub), sub) == tau
        h_memory = [sub.recognize(m) for m in memory]
        sigma = random_ca(rng, sub.group, p, d, h_memory)
        assert restrict(induce(sigma, sub), sub) == sigma


def test_bijectivity_transfers_on_finite_case():
    """On Z/6 with the index-two subgroup, full-group invertibility of the
    automaton and of its restriction agree for every GF(2) rule with
    memory {0, 2, 4}."""
    z6 = cyclic_group(6)
    sub = subgroup_generated(z6, (2,))
    import itertools

    for bits in itertools.product((0, 1), repeat=3):
        ca = LinearCA(z6, 2, 1, (0, 2, 4), tuple([[b]] for b in bits))
        res = restrict(ca, sub)
        m_big = full_group_matrix(ca)
        m_small = full_group_matrix(res)
        big_bijective = rank(m_big, 2) == m_big.shape[0]
        small_bijective = rank(m_small, 2) == m_small.shape[0]
        assert big_bijective == small_bijective


def test_induced_value_depends_only_on_coset():
    """The induced automaton's output at g reads x only on the coset g*H."""
    rng = random.Random(59)
    z2 = LatticeGroup(2)
    sub = subgroup_generated(z2, ((1, 0),))
    sigma = random_ca(rng, IntegerGroup(), 3, 1, (0, 1))
    up = induce(sigma, sub)
    x = random_finite_support(rng, z2, 3, 1, [(i, j) for i in range(-1, 2) for j in range(-1, 2)])
    base = up.apply_config(x)
    g = (0, 0)
    off_coset = {c: v for c, v in x.cells.items() if c[1] != 0}
    tampered_cells = dict(x.cells)
    for c in off_coset:
        tampered_cells[c] = (x.cells[c] + 1) % 3
    tampered = finite_support(3, 1, tampered_cells)
    out = up.apply_config(tampered)
    assert np.array_equal(
        base.value_at(g, 1), out.value_at(g, 1)
    )
