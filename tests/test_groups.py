"""Group arithmetic, balls, interiors and subgroup construction."""

import itertools
import random

import pytest

from linca.groups import (
    FiniteGroup,
    FreeGroup,
    GroupError,
    IntegerGroup,
    LatticeGroup,
    UnsupportedSubgroupError,
    cyclic_group,
    interior,
    subgroup_generated,
    symmetric_group_3,
)


def brute_force_interior(group, window, memory):
    window_set = set(window)
    hull = {group.multiply(a, group.inverse(m)) for a in window for m in memory}
    return group.sort_elements(
        g for g in hull if all(group.multiply(g, m) in window_set for m in memory)
    )


# -- arithmetic ---------------------------------------------------------------


def test_integer_examples():
    z = IntegerGroup()
    assert z.multiply(2, 3) == 5
    assert z.inverse(5) == -5
    assert z.identity() == 0


def test_free_reduction_examples():
    f = FreeGroup(2)
    a = f.word([1])
    assert f.multiply(a, f.inverse(a)) == ()
    assert f.inverse(f.word([1, 1])) == (-1, -1)
    assert f.word([1, 2, -2, -1]) == ()


def test_cyclic_table_examples():
    z3 = cyclic_group(3)
    assert z3.multiply(2, 2) == 1
    assert z3.inverse(2) == 1
    assert z3.identity() == 0


def test_group_laws_randomized():
    rng = random.Random(7)
    groups = [
        (IntegerGroup(), lambda: rng.randrange(-20, 21)),
        (LatticeGroup(3), lambda: tuple(rng.randrange(-5, 6) for _ in range(3))),
        (cyclic_group(6), lambda: rng.randrange(6)),
        (symmetric_group_3(), lambda: rng.randrange(6)),
        (FreeGroup(2), lambda: FreeGroup(2).word(
            [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(6))]
        )),
    ]
    for group, sample in groups:
        e = group.identity()
        for _ in range(50):
            a, b, c = sample(), sample(), sample()
            assert group.multiply(group.multiply(a, b), c) == group.multiply(
                a, group.multiply(b, c)
            )
            assert group.multiply(a, group.inverse(a)) == e
            assert group.multiply(e, a) == a


@pytest.mark.parametrize("rank", [2, 3])
def test_free_product_equals_reducing_the_concatenation(rank):
    """``multiply`` cancels only at the junction of two reduced words; the
    reference reduces the whole concatenation letter by letter."""
    f = FreeGroup(rank)
    ball = f.ball(3)
    for a in ball:
        for b in ball:
            assert f.multiply(a, b) == f.word(a + b)
    rng = random.Random(rank)
    letters = [k for k in range(-rank, rank + 1) if k]

    def sample(n):
        return f.word(rng.choice(letters) for _ in range(n))

    for _ in range(300):
        a = sample(rng.randrange(60))
        # b starts by undoing a suffix of a, so long cancellations occur.
        k = rng.randrange(len(a) + 1)
        b = f.word(f.inverse(a[len(a) - k:]) + sample(rng.randrange(60)))
        assert f.multiply(a, b) == f.word(a + b)


def test_bad_elements_rejected():
    with pytest.raises(GroupError):
        IntegerGroup().check("x")
    with pytest.raises(GroupError):
        LatticeGroup(2).check((1, 2, 3))
    with pytest.raises(GroupError):
        cyclic_group(3).check(5)
    with pytest.raises(GroupError):
        FreeGroup(1).check((2,))


def reference_axioms(table):
    """The group axioms by plain loops: (identity, inverses), or the message
    of the first axiom that fails, checked in the order identity, inverses,
    associativity."""
    ids = tuple(range(len(table)))
    e = next(
        (e for e in ids if tuple(table[e]) == ids and all(table[i][e] == i for i in ids)),
        None,
    )
    if e is None:
        return "table has no identity element"
    inverses = []
    for i in ids:
        j = next((j for j in ids if table[i][j] == e and table[j][i] == e), None)
        if j is None:
            return f"element {i} has no inverse"
        inverses.append(j)
    for i, j, k in itertools.product(ids, repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return "table is not associative"
    return e, tuple(inverses)


def test_finite_table_validation():
    cases = [
        ([[0, 0], [0, 0]], "table has no identity element"),
        ([[0, 0], [0, 1]], "element 0 has no inverse"),  # 1 is the identity
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "element 1 has no inverse"),
        # A commutative loop on identity 1 that is not a group: (0 0) 2 = 2
        # but 0 (0 2) = 0.
        ([[0, 0, 1], [0, 1, 2], [1, 2, 0]], "table is not associative"),
    ]
    for table, message in cases:
        assert reference_axioms(table) == message
        with pytest.raises(GroupError, match=f"^{message}$"):
            FiniteGroup(table)
    with pytest.raises(GroupError, match="generators do not generate the whole group"):
        FiniteGroup([[0, 1], [1, 0]], generator_ids=[0])  # identity generates nothing
    # S3 and Z/6 pass.
    assert symmetric_group_3().order == 6
    assert cyclic_group(6).order == 6


def test_table_entries_follow_the_int64_rule():
    """Table entries are read like every other outside number: 1.0 and
    True are 1, while 0.5, "1", None and 2^70 are rejected, not converted.
    The built-in tables come out as tuples of Python ints, as before."""
    for bad in (0.5, "1", None, 2**70):
        with pytest.raises(GroupError, match="^table entries must be element ids"):
            FiniteGroup([[0, 1], [1, bad]])
    for ragged in ([[0, 1], [1]], [], [[]], [0, 1], [[[0]]]):
        with pytest.raises(GroupError, match="^multiplication table must be square and nonempty$"):
            FiniteGroup(ragged)
    assert FiniteGroup([[0, 1.0], [True, 0]]).table == ((0, 1), (1, 0))
    z5 = cyclic_group(5).table
    assert z5 == tuple(tuple((i + j) % 5 for j in range(5)) for i in range(5))
    assert all(type(x) is int for row in z5 for x in row)
    assert symmetric_group_3().table == (
        (0, 1, 2, 3, 4, 5),
        (1, 0, 4, 5, 2, 3),
        (2, 3, 0, 1, 5, 4),
        (3, 2, 5, 4, 0, 1),
        (4, 5, 1, 0, 3, 2),
        (5, 4, 3, 2, 1, 0),
    )


@pytest.mark.parametrize("n", [2, 3])
def test_finite_table_checks_match_the_loop_reference(n):
    """Every n x n table over {0, ..., n-1}: the vectorized checks accept
    exactly the groups, reject the rest with the loops' first message, and
    find the same identity and inverses."""
    verdicts = set()
    for flat in itertools.product(range(n), repeat=n * n):
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        want = reference_axioms(table)
        try:
            group = FiniteGroup(table)
        except GroupError as exc:
            got = str(exc)
        else:
            got = group.identity(), tuple(map(group.inverse, range(n)))
        assert got == want, table
        verdicts.add(want if isinstance(want, str) else "group")
    assert {"group", "table has no identity element", "element 1 has no inverse"} <= verdicts
    assert ("table is not associative" in verdicts) == (n == 3)


def test_large_table_associativity_runs_in_blocks():
    """Associativity is checked in one n-by-n block per greedily picked
    generator (Light's test).  Z/120 passes; swapping the intercalate at
    rows 100, 40 and columns 110, 50 keeps a latin square with identity 0
    and every inverse, but not a group, and the generators catch it."""
    table = [list(row) for row in cyclic_group(120).table]
    assert FiniteGroup(table).order == 120
    for r, c in ((100, 110), (100, 50), (40, 110), (40, 50)):
        table[r][c] = (table[r][c] + 60) % 120
    with pytest.raises(GroupError, match="^table is not associative$"):
        FiniteGroup(table)


def test_generator_checks_match_the_loop_reference_on_perturbed_groups():
    """Tables one or two entry swaps away from a group, most of them with
    an identity and inverses: the checks at generators reject exactly the
    tables that the full triple loop rejects."""
    rng = random.Random(61)
    verdicts = set()
    for base in (cyclic_group(4), cyclic_group(8), symmetric_group_3(), cyclic_group(2)):
        n = base.order
        for _ in range(60):
            table = [list(row) for row in base.table]
            for _ in range(rng.randint(1, 2)):
                r, c1, c2 = (rng.randrange(n) for _ in range(3))
                table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
            want = reference_axioms(table)
            try:
                group = FiniteGroup(table)
            except GroupError as exc:
                got = str(exc)
            else:
                got = group.identity(), tuple(map(group.inverse, range(n)))
            assert got == want, table
            verdicts.add(want if isinstance(want, str) else "group")
    assert {"group", "table is not associative"} <= verdicts


def test_associativity_checks_at_most_log2_n_generators(monkeypatch):
    """Light's test makes the associativity check O(n^2 log n): one n-by-n
    comparison per greedily picked generator, at most log2 n of them, where
    the n^3 check took seconds at order 600."""
    import linca.groups as groups_module

    checks = []
    real = groups_module.np.array_equal

    def counting(x, y):
        checks.append(x.shape)
        return real(x, y)

    monkeypatch.setattr(groups_module.np, "array_equal", counting)
    group = cyclic_group(600)
    assert checks == [(600, 600)]  # 1 generates Z/600
    assert group.order == 600 and group.multiply(599, 2) == 1 and group.inverse(1) == 599
    checks.clear()
    FiniteGroup([[i ^ j for j in range(64)] for i in range(64)])  # (Z/2)^6
    assert len(checks) == 6  # 1, 2, 4, 8, 16, 32


# -- balls ---------------------------------------------------------------------


def test_ball_examples():
    assert IntegerGroup().ball(2) == (-2, -1, 0, 1, 2)
    assert set(LatticeGroup(2).ball(1)) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    f = FreeGroup(2)
    assert set(f.ball(1)) == {(), (1,), (-1,), (2,), (-2,)}


def test_ball_counts_closed_form():
    assert len(IntegerGroup().ball(7)) == 15
    # L1 ball in Z^d against a brute-force box scan.
    for d in (1, 2, 3):
        lattice = LatticeGroup(d)
        for n in (0, 1, 3):
            import itertools

            box = [
                pt
                for pt in itertools.product(range(-n, n + 1), repeat=d)
                if sum(abs(x) for x in pt) <= n
            ]
            assert len(lattice.ball(n)) == len(box)
    # Free group count: 1 + sum 2r (2r-1)^(k-1).
    for r in (1, 2):
        f = FreeGroup(r)
        for n in (0, 1, 2, 3):
            expect = 1 + sum(2 * r * (2 * r - 1) ** (k - 1) for k in range(1, n + 1))
            assert len(f.ball(n)) == expect


def test_balls_nested_and_sorted():
    for group in (IntegerGroup(), LatticeGroup(2), FreeGroup(2), cyclic_group(6)):
        prev = set()
        for n in range(4):
            ball = group.ball(n)
            assert list(ball) == sorted(ball, key=group.sort_key)
            assert prev <= set(ball)
            prev = set(ball)
        assert group.identity() in group.ball(0)


def test_ball_resource_limit():
    from linca.groups import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        FreeGroup(2).ball(20, limit=1000)
    with pytest.raises(ResourceLimitError):
        IntegerGroup().ball(10**7, limit=1000)


def test_finite_ball_saturates():
    s3 = symmetric_group_3()
    assert set(s3.ball(1)) == set(range(6))
    assert s3.ball(5) == s3.ball(1)


# -- interior --------------------------------------------------------------------


def test_interior_examples():
    z = IntegerGroup()
    assert interior(z, range(-2, 3), (0, 1)) == (-2, -1, 0, 1)
    window = (3, 5, 9)
    assert interior(z, window, (0,)) == window
    lat = LatticeGroup(2)
    window2 = lat.ball(2)
    got = interior(lat, window2, ((0, 0), (1, 0)))
    assert got == brute_force_interior(lat, window2, ((0, 0), (1, 0)))


def test_interior_matches_brute_force_randomized():
    rng = random.Random(3)
    z2 = LatticeGroup(2)
    f2 = FreeGroup(2)
    cases = [
        (IntegerGroup(), list(range(-4, 5)), [0, 1, -1]),
        (z2, list(z2.ball(2)), [(0, 0), (1, 0), (0, -1)]),
        (f2, list(f2.ball(2)), [(), (1,), (-2,)]),
        (symmetric_group_3(), list(range(6)), [0, 1]),
    ]
    for group, window, memory in cases:
        sub_window = [g for g in window if rng.random() < 0.8]
        got = interior(group, sub_window, tuple(memory))
        assert got == brute_force_interior(group, sub_window, tuple(memory))


def test_interior_contained_in_window_when_identity_present():
    z = IntegerGroup()
    window = (0, 1, 2, 5)
    assert set(interior(z, window, (0, 1))) <= set(window)


# -- subgroups --------------------------------------------------------------------


def test_integer_subgroup_gcd():
    sub = subgroup_generated(IntegerGroup(), (4, 6))
    assert isinstance(sub.group, IntegerGroup)
    assert sub.embed(1) == 2
    assert sub.embed(-3) == -6
    assert sub.recognize(10) == 5
    assert sub.recognize(3) is None


def test_integer_subgroup_trivial():
    sub = subgroup_generated(IntegerGroup(), (0,))
    assert sub.group.is_finite() and sub.group.order == 1
    assert sub.recognize(0) == 0
    assert sub.recognize(1) is None


def test_finite_subgroup_closure():
    z6 = cyclic_group(6)
    sub = subgroup_generated(z6, (2,))
    assert sub.group.order == 3
    assert sorted(sub.embed(h) for h in range(3)) == [0, 2, 4]
    assert sub.recognize(4) is not None
    assert sub.recognize(1) is None


def test_lattice_subgroup_basis():
    z2 = LatticeGroup(2)
    sub = subgroup_generated(z2, ((2, 0), (0, 3)))
    assert isinstance(sub.group, LatticeGroup) and sub.group.dim == 2
    assert sub.embed((1, 1)) == (2, 3)
    assert sub.recognize((4, -3)) == (2, -1)
    assert sub.recognize((1, 0)) is None


def test_lattice_subgroup_rank_one():
    z2 = LatticeGroup(2)
    sub = subgroup_generated(z2, ((2, 4),))
    assert isinstance(sub.group, IntegerGroup)
    assert sub.embed(3) == (3, 6) or sub.embed(3) == (6, 12)
    assert sub.recognize(sub.embed(5)) == 5


def test_free_cyclic_subgroup():
    f = FreeGroup(2)
    w = f.word([1, 2])  # the word ab
    sub = subgroup_generated(f, (w,))
    assert isinstance(sub.group, IntegerGroup)
    assert sub.embed(2) == (1, 2, 1, 2)
    assert sub.recognize((1, 2, 1, 2, 1, 2)) == 3
    assert sub.recognize(f.inverse(w)) == -1
    assert sub.recognize((1,)) is None


def test_free_subgroup_unsupported():
    f = FreeGroup(2)
    with pytest.raises(UnsupportedSubgroupError):
        subgroup_generated(f, ((1,), (2,)))


def test_embed_is_homomorphism_randomized():
    rng = random.Random(11)
    z2 = LatticeGroup(2)
    cases = [
        subgroup_generated(IntegerGroup(), (6, 10)),
        subgroup_generated(z2, ((2, 0), (1, 3))),
        subgroup_generated(cyclic_group(12), (3,)),
        subgroup_generated(FreeGroup(2), (FreeGroup(2).word([1, 1, 2]),)),
    ]
    samplers = [
        lambda: rng.randrange(-6, 7),
        lambda: (rng.randrange(-4, 5), rng.randrange(-4, 5)),
        lambda: rng.randrange(4),
        lambda: rng.randrange(-4, 5),
    ]
    for sub, sample in zip(cases, samplers):
        h_group = sub.group
        for _ in range(25):
            a, b = sample(), sample()
            assert sub.embed(h_group.multiply(a, b)) == sub.parent.multiply(
                sub.embed(a), sub.embed(b)
            )
            assert sub.recognize(sub.embed(a)) == a
