"""The decisions that prune the witness searches off Z and Z^d, each checked
against an oracle that shares no code with it: one elimination on a finite
group, and on F_2 the rule's image on Z^2 and its vertex blocks.  Pruning
only skips searches that cannot succeed, so every entry point answers as
the search with every family does."""

import random
from functools import partial

import pytest

from conftest import free_group_map, random_ca, random_matrix, reference_rref, unit_det_rule
from linca import (
    FiniteGroup,
    FreeGroup,
    IntegerGroup,
    LatticeGroup,
    LinearCA,
    NotInvertible,
    ReversibilityCertificate,
    SolverUnknown,
    WindowSystem,
    compose,
    cyclic_group,
    invert_ca,
    jsonio,
    laurent,
    push_forward,
    solver,
    subgroup_generated,
    symmetric_group_3,
)
from linca.solver import (
    KernelWitness,
    _decide,
    _possible_families,
    _radius_search,
    _solve_left_inverse,
    vertex_block,
)

F2, Z2 = FreeGroup(2), LatticeGroup(2)
S3, Z6 = symmetric_group_3(), cyclic_group(6)
EVERY = frozenset({"left-inverse", "support", "constant", "periodic", "fiber"})


def _rules(group, count, seed, factors):
    """Seeded rules: every third a unit (a product of ``factors``
    elementary and monomial diagonal matrices, so bijective), the rest with
    memory in ball(1), either rank-1 blocks sharing a row or random ones."""
    rng = random.Random(seed)
    for i in range(count):
        p, d = rng.choice((2, 3, 5)), rng.randint(1, 2)
        if i % 3 == 0:
            yield unit_det_rule(rng, group, p, d, factors)
            continue
        memory = rng.sample(group.ball(1), rng.randint(1, 3))
        if i % 3 == 1:
            v = random_matrix(rng, 1, d, p)
            yield LinearCA(group, p, d, memory, [random_matrix(rng, d, 1, p) @ v % p for _ in memory])
        else:
            yield random_ca(rng, group, p, d, memory)


def _full_group_rows(ca):
    """The rule on all of a finite group as a square matrix, by a plain
    loop: the block b_m at the cells (g, g m)."""
    cells, d = ca.group.elements(), ca.dim_v
    rows = [[0] * (d * len(cells)) for _ in range(d * len(cells))]
    for g in cells:
        for m, b in zip(ca.memory, ca.blocks):
            h = ca.group.multiply(g, m)
            for i in range(d):
                for j in range(d):
                    rows[g * d + i][h * d + j] = int(b[i, j])
    return rows


@pytest.mark.parametrize("group", [S3, Z6], ids=["S3", "Z6"])
def test_finite_decision_is_the_full_group_rank(group):
    verdicts = []
    for ca in _rules(group, 24, 61, 3):
        rows = _full_group_rows(ca)
        bijective = len(reference_rref(rows, len(rows), ca.p)[1]) == len(rows)
        series = _decide(ca, 1)  # ball(1) is the whole group
        assert series.ends is bijective, ca
        if bijective:
            assert ReversibilityCertificate(ca, series.inverse).verify()
            assert _possible_families(ca, series) == {"left-inverse"}
        else:
            assert series.inverse is None
            assert _possible_families(ca, series) == EVERY - {"left-inverse"}
        verdicts.append(bijective)
    assert 8 <= verdicts.count(False) <= 16


def test_finite_decision_waits_for_the_search_to_reach_the_whole_group():
    """On Z/12 generated by 1, ball(r) is the whole group from r = 6 on.
    Below that the search never builds the |G| dimV system, and neither
    does the decision; the answers are the search's either way."""
    cycle = FiniteGroup(cyclic_group(12).table, generator_ids=[1])
    for ca in _rules(cycle, 6, 83, 2):
        assert _decide(ca, 5).ends is None
        assert _decide(ca, 6).ends is not None
        for radius in (2, 6):
            assert _text(invert_ca(ca, radius)) == _text(_radius_search(ca, EVERY, radius))


@pytest.mark.parametrize("group", [F2, Z2], ids=["F2", "Z2"])
def test_vertex_block_makes_every_window_map_onto(group):
    found = 0
    for ca in _rules(group, 15, 67, 1):
        if vertex_block(ca) is None:
            continue
        found += 1
        ws = WindowSystem(ca)
        for n in range(4):
            w = ws.window(n).matrix
            assert len(reference_rref(w.tolist(), w.shape[1], ca.p)[1]) == w.shape[0], (ca, n)
    assert 5 <= found < 15


def test_vertex_block_needs_a_unique_minimiser_with_an_invertible_block():
    """Tied minimisers prove nothing, and neither does a singular block."""
    ab, ba = F2.word((1, 2)), F2.word((2, 1))
    assert vertex_block(LinearCA(F2, 2, 1, (ab, ba), ([[1]], [[1]]))) is None
    singular, eye = [[1, 0], [0, 0]], [[1, 0], [0, 1]]
    assert vertex_block(LinearCA(F2, 3, 2, ((), (1,)), (singular, singular))) is None
    assert vertex_block(LinearCA(F2, 3, 2, ((), (1,)), (singular, eye))) == (1,)
    assert vertex_block(LinearCA(Z2, 3, 2, ((0, 0), (0, 1)), (singular, eye))) == (0, 1)


def test_push_forward_is_a_ring_map():
    """push(B o A) = push(B) o push(A): composition multiplies the matrices
    over the group rings, and each map below is a homomorphism, so it
    induces a ring map on them."""
    z = IntegerGroup()
    word = F2.word((1, 2, 2))
    sub = subgroup_generated(F2, (word,))
    maps = [
        ("F2 -> Z^2", F2, Z2, partial(laurent.abelian_point, F2)),
        ("Z^2 -> Z", Z2, z, lambda m: m[0] + 3 * m[1]),
        *((f"Z -> Z/{q}", z, cyclic_group(q), lambda m, q=q: m % q) for q in range(1, 7)),
        ("F2 -> S3", F2, S3, free_group_map(S3, (1, 3))),
        ("<abb> -> F2", sub.group, F2, sub.embed),
    ]
    rng = random.Random(79)
    for name, source, target, phi in maps:
        for _ in range(6):
            p, d = rng.choice((2, 3, 5)), rng.randint(0, 3)
            a, b = (random_ca(rng, source, p, d, rng.sample(source.ball(2), 3)) for _ in range(2))
            push = partial(push_forward, group=target, phi=phi)
            assert push(compose(b, a)) == compose(push(b), push(a)), (name, a, b)


def test_free_image_series_rules_out_left_inverses():
    """Where the series of phi(A) does not end no left inverse exists on
    the balls the search tries; units, whose image is a unit, keep theirs."""
    rng = random.Random(71)
    ruled_out = 0
    for i in range(18):
        p, d = rng.choice((2, 3, 5)), rng.randint(1, 3)
        if i % 3 == 0:
            ca = unit_det_rule(rng, F2, p, d, 2)
        else:
            ca = random_ca(rng, F2, p, d, rng.sample(F2.ball(1), rng.randint(2, 3)))
        image = push_forward(ca, Z2, partial(laurent.abelian_point, F2))
        ends = laurent.inverse_series(image).ends
        families = _possible_families(ca, laurent.inverse_series(ca))
        if i % 3 == 0:
            assert ends is not False
            assert "left-inverse" in families
        if ends is False:
            ruled_out += 1
            assert "left-inverse" not in families
            for n in range(4):
                assert _solve_left_inverse(ca, F2.ball(n)) is None, (ca, n)
    assert ruled_out >= 6


def _text(result):
    """What a caller sees of an answer: certificate bytes or the reason."""
    if result is None:
        return None
    if isinstance(result, SolverUnknown):
        return result.reason
    if isinstance(result, ReversibilityCertificate):
        return jsonio.dumps(jsonio.reversible_certificate(result))
    witness = result.witness if isinstance(result, NotInvertible) else result
    if isinstance(witness, KernelWitness):
        return jsonio.dumps(jsonio.kernel_witness_certificate(witness))
    return jsonio.dumps(jsonio.empty_fiber_certificate(witness))


@pytest.mark.parametrize("group", [S3, Z6, F2, Z2], ids=["S3", "Z6", "F2", "Z2"])
def test_pruned_entry_points_answer_as_every_family(group, monkeypatch):
    """invert_ca gives the bytes of the radius search run with every family,
    at the inverse's radius and below it; kernel_witness and
    surjectivity_counterexample give what they give unpruned."""
    kinds = set()
    for ca in _rules(group, 12, 73, 2):
        for radius in (1, 3):
            answer = invert_ca(ca, radius)
            kinds.add(type(answer).__name__)
            assert _text(answer) == _text(_radius_search(ca, EVERY, radius)), (ca, radius)
        pruned = solver.kernel_witness(ca, 2, 2), solver.surjectivity_counterexample(ca, 2)
        with monkeypatch.context() as m:
            m.setattr(solver, "_possible_families", lambda ca, series=None: EVERY)
            full = solver.kernel_witness(ca, 2, 2), solver.surjectivity_counterexample(ca, 2)
        assert _text(KernelWitness(ca, pruned[0]) if pruned[0] else None) == _text(
            KernelWitness(ca, full[0]) if full[0] else None
        )
        assert _text(pruned[1]) == _text(full[1])
    assert {"ReversibilityCertificate", "NotInvertible"} <= kinds
