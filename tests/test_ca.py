"""Rule normalization, evaluation, composition, window maps, equivariance."""

import itertools
import random

import numpy as np
import pytest

from conftest import (
    free_group_map,
    random_ca,
    random_finite_support,
    random_integer_ca,
    random_matrix,
)
from linca import (
    FreeGroup,
    IntegerGroup,
    LatticeGroup,
    LinearCA,
    Pattern,
    WindowSystem,
    compose,
    config_equal,
    constant,
    cyclic_group,
    equals_identity,
    equivariance_check,
    finite_support,
    identity_ca,
    periodic,
    push_forward,
    symmetric_group_3,
)
from linca.ca import CAError, cell_view, pattern_to_vec, vec_to_pattern
from linca import linalg
from linca.linalg import kernel_basis
from linca.solver import _periodic_system

Z = IntegerGroup()
NILPOTENT = np.array([[0, 1], [0, 0]], dtype=np.int64)


def shift_ca(p=2, dim_v=1):
    """tau(x)(n) = x(n+1)."""
    return LinearCA(Z, p, dim_v, (1,), (np.eye(dim_v, dtype=np.int64),))


def sigma2_block_ca(p=2):
    """tau(x)(n) = x(n) - N x(n+1) with N the 2x2 nilpotent block."""
    return LinearCA(Z, p, 2, (0, 1), (np.eye(2, dtype=np.int64), (-NILPOTENT) % p))


# -- normalization -------------------------------------------------------------


def test_normalize_pads_identity():
    ca = shift_ca()
    assert ca.memory == (0, 1)
    assert ca.blocks[0].tolist() == [[0]]
    assert ca.blocks[1].tolist() == [[1]]


def test_normalize_prunes_zero_blocks():
    ca = LinearCA(Z, 2, 1, (0, 1), ([[1]], [[0]]))
    assert ca.memory == (0,)
    assert equals_identity(ca)


def test_normalize_idempotent():
    ca = sigma2_block_ca()
    again = LinearCA(Z, 2, 2, ca.memory, ca.blocks)
    assert ca == again


def test_duplicate_memory_rejected():
    with pytest.raises(CAError):
        LinearCA(Z, 2, 1, (1, 1), ([[1]], [[1]]))


def test_blocks_are_read_only_views_of_one_reduced_stack():
    ca = LinearCA(Z, 5, 2, (1, 0, 2), [[[6, 7], [8, 9]], [[0, 0], [0, 0]], [[-1, 5], [10, 2]]])
    assert ca.memory == (0, 1, 2)
    assert [b.tolist() for b in ca.blocks] == [[[0, 0], [0, 0]], [[1, 2], [3, 4]], [[4, 0], [0, 2]]]
    assert all(b.dtype == np.int64 and b.shape == (2, 2) for b in ca.blocks)
    assert not any(b.flags.writeable for b in ca.blocks)


def test_pruned_blocks_are_not_kept_alive():
    """When blocks are pruned, the kept ones come from a compact copy of the
    stack: a composition that collapses to the identity keeps one block's
    memory, not that of every product."""
    eye, zero = np.eye(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64)
    ca = LinearCA(Z, 5, 3, (0, 1, 2, 3), [eye, zero, zero, zero])
    assert ca.memory == (0,) and ca.blocks[0].base.shape == (1, 3, 3)
    inverse = LinearCA(Z, 2, 2, (0, 1), (np.eye(2, dtype=np.int64), NILPOTENT))
    identity = compose(inverse, sigma2_block_ca())
    assert equals_identity(identity) and identity.blocks[0].base.shape == (1, 2, 2)


def test_block_checks_raise_as_on_each_block():
    """The blocks are coerced in one stack, and a rule that does not stack
    raises what each block raises on its own: the entries first, then the
    count, then the shapes.  Ragged blocks are a CAError, not numpy's
    ValueError."""
    eye2, eye3 = np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)
    shape = r"^block shape \(3, 3\) does not match dimV=2$"
    for blocks in ([eye2, eye3], [eye2.tolist(), eye3.tolist()], [eye3, eye3]):
        with pytest.raises(CAError, match=shape):
            LinearCA(Z, 5, 2, (0, 1), blocks)
    with pytest.raises(CAError, match="^block count must match memory size$"):
        LinearCA(Z, 5, 2, (0, 1), [eye2])
    with pytest.raises(CAError, match="^block count must match memory size$"):
        LinearCA(Z, 5, 2, (0,), [eye2, eye3])
    for bad in ([[0.5, 0], [0, 1]], [["1", "0"], ["0", "1"]], [[None, 0], [0, 1]], [[2**70, 0], [0, 1]]):
        with pytest.raises(linalg.LinalgError, match="int64 range"):
            LinearCA(Z, 5, 2, (0, 1), [eye2, bad])
        with pytest.raises(linalg.LinalgError, match="int64 range"):
            LinearCA(Z, 5, 2, (0, 1), [eye3, bad])  # the entries before the shapes
    with pytest.raises(linalg.LinalgError, match="ndim 2, got ndim 1"):
        LinearCA(Z, 5, 2, (0, 1), [eye2, [1, 0]])
    # Integral floats and booleans read as integers.
    ca = LinearCA(Z, 5, 2, (0, 1), [eye2.astype(float), eye2.astype(bool)])
    assert [b.tolist() for b in ca.blocks] == [eye2.tolist()] * 2


# -- pattern evaluation ----------------------------------------------------------


def test_apply_pattern_shift_reindexes():
    ca = shift_ca()
    pattern = Pattern({0: np.array([1]), 1: np.array([0]), 2: np.array([1])})
    out = ca.apply_pattern(pattern)
    assert set(out.cells) == {-1, 0, 1}
    assert [out.cells[g].tolist() for g in (-1, 0, 1)] == [[1], [0], [1]]


def test_apply_pattern_identity_restricts():
    ca = identity_ca(Z, 3, 2)
    pattern = Pattern({g: np.array([g % 3, 1]) for g in range(4)})
    out = ca.apply_pattern(pattern)
    assert out == pattern


def test_apply_pattern_nilpotent_block_example():
    ca = sigma2_block_ca()
    pattern = Pattern({0: np.array([0, 1]), 1: np.array([0, 1])})
    out = ca.apply_pattern(pattern)
    # out(0) = x(0) + N x(1) = (0,1) + (1,0) = (1,1) over GF(2).
    assert set(out.cells) == {0}
    assert out.cells[0].tolist() == [1, 1]


def test_apply_empty_pattern():
    ca = shift_ca()
    assert ca.apply_pattern(Pattern({})) == Pattern({})


def test_pattern_linearity_randomized():
    rng = random.Random(31)
    for _ in range(15):
        p = rng.choice((2, 3))
        ca = random_integer_ca(rng, p, 2)
        window = list(range(-3, 4))
        x = Pattern({g: np.array([rng.randrange(p), rng.randrange(p)]) for g in window})
        y = Pattern({g: np.array([rng.randrange(p), rng.randrange(p)]) for g in window})
        lam = rng.randrange(p)
        combo = Pattern({g: (x.cells[g] + lam * y.cells[g]) % p for g in window})
        lhs = ca.apply_pattern(combo)
        fx, fy = ca.apply_pattern(x), ca.apply_pattern(y)
        for g in lhs.cells:
            assert np.array_equal(lhs.cells[g], (fx.cells[g] + lam * fy.cells[g]) % p)


def test_pattern_locality():
    """Values outside g*M never influence the output at g."""
    rng = random.Random(37)
    ca = random_integer_ca(rng, 3, 2)
    window = list(range(-3, 4))
    x = Pattern({g: np.array([rng.randrange(3), rng.randrange(3)]) for g in window})
    base = ca.apply_pattern(x)
    for g in base.cells:
        needed = {g + m for m in ca.memory}
        tampered = Pattern(
            {
                h: v if h in needed else np.array([rng.randrange(3), rng.randrange(3)])
                for h, v in x.cells.items()
            }
        )
        out = ca.apply_pattern(tampered)
        assert np.array_equal(out.cells[g], base.cells[g])


# -- configuration evaluation ------------------------------------------------------


def test_apply_config_zero():
    ca = sigma2_block_ca()
    out = ca.apply_config(finite_support(2, 2, {}))
    assert not out.cells


def test_apply_config_difference_rule_on_constant():
    # x(n+1) - x(n) sends constants to zero.
    ca = LinearCA(Z, 2, 1, (0, 1), ([[-1]], [[1]]))
    out = ca.apply_config(constant(2, 1, [1]))
    assert not np.any(out.value)


def test_apply_config_shift_periodic():
    ca = shift_ca()
    out = ca.apply_config(periodic(2, 1, [[1], [0]]))
    assert [v.tolist() for v in out.values] == [[0], [1]]


def test_apply_config_finite_support_shift():
    ca = shift_ca()
    out = ca.apply_config(finite_support(2, 1, {0: [1]}))
    assert set(out.cells) == {-1}


def test_periodic_requires_integers():
    ca = identity_ca(LatticeGroup(2), 2, 1)
    with pytest.raises(CAError):
        ca.apply_config(periodic(2, 1, [[1]]))


def test_compose_agreement_on_configs():
    rng = random.Random(41)
    for _ in range(10):
        p = rng.choice((2, 3))
        a = random_integer_ca(rng, p, 2)
        b = random_integer_ca(rng, p, 2)
        x = random_finite_support(rng, Z, p, 2, range(-2, 3))
        lhs = compose(b, a).apply_config(x)
        rhs = b.apply_config(a.apply_config(x))
        assert config_equal(Z, 2, lhs, rhs)


# -- composition and identity -------------------------------------------------------


def reference_compose(outer, inner):
    """outer o inner in Python ints, as {cell: rows}: the block at u is the
    sum of b2 b1 over m2 m1 = u, reduced, zero blocks pruned but the
    identity's."""
    g, p, d = outer.group, outer.p, outer.dim_v
    acc = {g.identity(): [[0] * d for _ in range(d)]}
    for m2, b2 in zip(outer.memory, outer.blocks):
        for m1, b1 in zip(inner.memory, inner.blocks):
            block = acc.setdefault(g.multiply(m2, m1), [[0] * d for _ in range(d)])
            for r, c in itertools.product(range(d), repeat=2):
                block[r][c] += sum(int(b2[r, k]) * int(b1[k, c]) for k in range(d))
    reduced = {u: [[x % p for x in row] for row in b] for u, b in acc.items()}
    return {u: b for u, b in reduced.items() if u == g.identity() or any(map(any, b))}


COMPOSE_GROUPS = [
    (symmetric_group_3(), (0, 1, 3, 5), (0, 2, 4)),
    (FreeGroup(2), ((), (1,), (-1,), (2,)), ((), (-1,), (1, 2), (-2, 1))),
    (LatticeGroup(2), ((0, 0), (1, 0), (0, 1)), ((0, 0), (-1, 0), (0, -1), (1, 1))),
    # Cell 0 collects four products and cells -1 and 1 three each.
    (Z, (0, 1, 2, 3), (0, -1, -2, -3)),
]


@pytest.mark.parametrize(
    "group,outer_memory,inner_memory", COMPOSE_GROUPS, ids=["S3", "F2", "Z2", "Z-four-products"]
)
def test_compose_matches_integer_arithmetic(group, outer_memory, inner_memory):
    """Each memory pair has several products m2 m1 on the same cell, and
    the blocks are summed there; p = 1048573 makes every product large,
    and blocks whose entries are all p - 1 make every sum the largest it
    can be."""
    rng = random.Random(29)
    cells = [group.multiply(m2, m1) for m2 in outer_memory for m1 in inner_memory]
    assert max(map(cells.count, cells)) >= 2
    for p, dim_v in itertools.product((2, 3, 1048573), (0, 1, 2, 3)):
        outer = random_ca(rng, group, p, dim_v, outer_memory)
        inner = random_ca(rng, group, p, dim_v, inner_memory)
        full = [np.full((dim_v, dim_v), p - 1, dtype=np.int64)]
        top_outer = LinearCA(group, p, dim_v, outer_memory, full * len(outer_memory))
        top_inner = LinearCA(group, p, dim_v, inner_memory, full * len(inner_memory))
        for a, b in ((outer, inner), (inner, outer), (top_outer, top_inner), (top_inner, outer)):
            composed = compose(a, b)
            want = reference_compose(a, b)
            assert composed.memory == group.sort_elements(want), (p, dim_v)
            got = {m: blk.tolist() for m, blk in zip(composed.memory, composed.blocks)}
            assert got == want, (p, dim_v)


def _counted_matmul(monkeypatch) -> list:
    """Counts the calls of ``linalg.matmul``, which ``compose`` makes only
    when float64 cannot hold the sum of a cell."""
    calls = []
    matmul = linalg.matmul

    def counted(a, b, p):
        calls.append(b.shape[0])
        return matmul(a, b, p)

    monkeypatch.setattr(linalg, "matmul", counted)
    return calls


def test_compose_is_exact_at_the_float32_edge(monkeypatch):
    """At p = 4093 one product of entries below p stays below 2^24 and two
    need not: (p-1)^2 = 16,744,464 and 2^24 = 16,777,216.  So a cell that
    collects one product sums in float32 and a cell that collects two in
    float64.  Here cell 1 sums (p-2)^2 + (p-1)^2 = 33,480,745, which is odd
    and past 2^24, so float32 would round it."""
    p = 4093
    assert [linalg.exact_float(k, p) for k in (1, 2)] == [np.float32, np.float64]
    total = (p - 2) ** 2 + (p - 1) ** 2
    assert total == 33_480_745 and int(np.float32(total)) != total
    calls = _counted_matmul(monkeypatch)
    a = LinearCA(Z, p, 1, (0, 1), ([[p - 2]], [[p - 1]]))
    b = LinearCA(Z, p, 1, (0, 1), ([[p - 1]], [[p - 2]]))
    one = LinearCA(Z, p, 1, (0,), ([[p - 1]],))  # one product per cell
    for x, y in ((a, b), (b, a), (one, a), (a, one)):
        got = compose(x, y)
        assert {m: blk.tolist() for m, blk in zip(got.memory, got.blocks)} == reference_compose(x, y)
    assert compose(a, b).block(1).tolist() == [[total % p]]
    assert calls == []


def test_compose_past_float64_reduces_each_product(monkeypatch):
    """Past 2^53 the rule gives no float type (p = 1048573: 8192 terms fit,
    8193 do not).  ``compose`` then takes each product reduced from
    ``matmul`` and sums a cell in int64.  Lowering the float64 bound to
    three products at p = 4093 makes a cell of four products take that
    path at a size small enough to test."""
    big = 1048573
    assert linalg.exact_float(8192, big) is np.float64
    assert linalg.exact_float(8193, big) is None
    p = 4093
    monkeypatch.setattr(linalg, "FLOAT_EXACT_BOUND", 3 * (p - 1) ** 2 + 1)
    assert linalg.exact_float(3, p) is np.float64
    assert linalg.exact_float(4, p) is None
    calls = _counted_matmul(monkeypatch)
    rng = random.Random(31)
    memory = (0, 1, 2, 3)
    for block in ([[p - 1]], [[p - 2]], None):
        blocks = [block] * 4 if block else [random_matrix(rng, 1, 1, p) for _ in memory]
        a = LinearCA(Z, p, 1, memory, blocks)
        b = LinearCA(Z, p, 1, tuple(-m for m in memory), blocks)
        got = compose(a, b)
        assert {m: blk.tolist() for m, blk in zip(got.memory, got.blocks)} == reference_compose(a, b)
    assert calls == [1, 1, 1]


@pytest.mark.parametrize("group,s,t", [(symmetric_group_3(), 1, 3), (FreeGroup(2), (1,), (2,))])
def test_compose_keeps_the_order_of_products(group, s, t):
    """On a non-abelian group outer o inner reads x(g s t): the product of
    the shifts by s and t sits at s t, not at t s."""
    assert group.multiply(s, t) != group.multiply(t, s)
    shift = [LinearCA(group, 5, 2, (m,), (np.eye(2, dtype=np.int64),)) for m in (s, t)]
    composed = compose(*shift)
    assert group.multiply(s, t) in composed.memory
    assert group.multiply(t, s) not in composed.memory


def test_compose_shifts_add():
    ca = compose(shift_ca(), shift_ca())
    assert ca.memory == (0, 2)
    assert ca.blocks[1].tolist() == [[1]]


def test_compose_with_identity():
    ca = sigma2_block_ca()
    assert compose(ca, identity_ca(Z, 2, 2)) == ca
    assert compose(identity_ca(Z, 2, 2), ca) == ca


def test_nilpotent_inverse_composition():
    # nu = Id + N shift inverts tau = Id - N shift since N^2 = 0.
    tau = sigma2_block_ca()
    nu = LinearCA(Z, 2, 2, (0, 1), (np.eye(2, dtype=np.int64), NILPOTENT))
    assert equals_identity(compose(nu, tau))
    assert equals_identity(compose(tau, nu))


def test_equals_identity_examples():
    assert equals_identity(identity_ca(Z, 5, 3))
    assert not equals_identity(shift_ca())
    assert not equals_identity(LinearCA(Z, 2, 1, (0,), ([[0]],)))


# -- equivariance ---------------------------------------------------------------------


def test_equivariance_trivial_at_identity():
    ca = sigma2_block_ca()
    x = finite_support(2, 2, {0: [1, 1]})
    assert equivariance_check(ca, Z, 2, [(0, x)])


def test_equivariance_randomized():
    rng = random.Random(43)
    for _ in range(10):
        p = rng.choice((2, 3))
        ca = random_integer_ca(rng, p, 2)
        samples = []
        for _ in range(4):
            g = rng.randrange(-5, 6)
            samples.append((g, random_finite_support(rng, Z, p, 2, range(-2, 3))))
        samples.append((3, periodic(p, 2, [[1, 0], [0, 1]])))
        assert equivariance_check(ca, Z, 2, samples)


def test_equivariance_rejects_corrupted_map():
    # A map that inspects absolute position cannot commute with the shift.
    def crooked(config):
        return finite_support(
            2, 1, {g: v for g, v in config.cells.items() if g >= 0}
        )

    x = finite_support(2, 1, {-1: [1], 2: [1]})
    assert not equivariance_check(crooked, Z, 1, [(1, x)])


# -- window maps -------------------------------------------------------------------------


def test_window_map_identity_ca():
    ca = identity_ca(Z, 2, 1)
    w = WindowSystem(ca).window(2)
    # Each window lists the one below it first; B_2 is in canonical order.
    assert w.source == (0, -1, 1, -2, 2)
    assert w.target == (-2, -1, 0, 1, 2)
    assert np.array_equal(w.matrix, np.eye(5, dtype=np.int64)[[3, 1, 0, 2, 4]])


def test_window_map_shift_selects():
    ca = shift_ca()
    w = WindowSystem(ca).window(1)  # A_1 = ball(2) since r0 = 1
    assert w.source == (-1, 0, 1, -2, 2)  # A_0 = ball(1), then the new cells
    assert w.target == (-2, -1, 0, 1)
    vec = np.array([1, 0, 1, 5 % 2, 1], dtype=np.int64)
    out = (w.matrix @ vec) % 2
    assert out.tolist() == [1, 0, 1, 1]


def test_window_map_matches_pattern_evaluation_exhaustively():
    """All 2^6 GF(2) patterns on A_1 for the nilpotent-block rule."""
    ca = sigma2_block_ca()
    w = WindowSystem(ca, r0=1).window(0)
    assert w.source == (-1, 0, 1) and w.target == (-1, 0)
    assert w.matrix.shape == (4, 6)
    for bits in itertools.product((0, 1), repeat=6):
        vec = np.array(bits, dtype=np.int64)
        pattern = vec_to_pattern(vec, w.source, 2)
        direct = ca.apply_pattern(pattern)
        via_matrix = (w.matrix @ vec) % 2
        assert np.array_equal(
            pattern_to_vec(direct.restrict(w.target), w.target, 2, 2), via_matrix
        )


def test_window_map_ten_bit_exhaustive():
    """A random GF(2) two-coordinate rule checked on all 2^10 patterns."""
    rng = random.Random(49)
    ca = random_integer_ca(rng, 2, 2)
    w = WindowSystem(ca, r0=2).window(0)
    assert w.matrix.shape[1] == 10
    for bits in itertools.product((0, 1), repeat=10):
        vec = np.array(bits, dtype=np.int64)
        pattern = vec_to_pattern(vec, w.source, 2)
        direct = ca.apply_pattern(pattern).restrict(w.target)
        assert np.array_equal(
            pattern_to_vec(direct, w.target, 2, 2), (w.matrix @ vec) % 2
        )


def test_window_map_random_rules_match_pattern_evaluation():
    rng = random.Random(47)
    for _ in range(10):
        p = rng.choice((2, 3))
        ca = random_integer_ca(rng, p, rng.choice((1, 2)))
        w = WindowSystem(ca).window(1)
        for _ in range(10):
            vec = np.array(
                [rng.randrange(p) for _ in range(w.matrix.shape[1])], dtype=np.int64
            )
            pattern = vec_to_pattern(vec, w.source, ca.dim_v)
            direct = ca.apply_pattern(pattern).restrict(w.target)
            assert np.array_equal(
                pattern_to_vec(direct, w.target, ca.dim_v, p),
                (w.matrix @ vec) % p,
            )


def test_window_map_on_lattice():
    lat = LatticeGroup(2)
    ca = LinearCA(
        lat, 2, 1, (((0, 0)), ((1, 0))), ([[1]], [[1]])
    )
    w = WindowSystem(ca).window(0)
    assert all(isinstance(g, tuple) for g in w.source)
    assert set(w.target) == {
        g for g in w.source if tuple(np.add(g, (1, 0))) in set(w.source)
    }


# -- block matrices --------------------------------------------------------------------


@pytest.mark.parametrize(
    "group",
    [
        IntegerGroup(),
        LatticeGroup(2),
        FreeGroup(2),
        symmetric_group_3(),
        cyclic_group(6),
    ],
    ids=["Z", "Z2", "F2", "S3", "Z6"],
)
def test_block_matrix_matches_rule_evaluation(group):
    """Rows are cells M^-1, so some products r m leave the columns and must
    read zero; the matrix must come out reduced."""
    rng = random.Random(61)
    outside = 0
    for _ in range(12):
        p = rng.choice((2, 3, 5))
        d = rng.choice((1, 2))
        memory = rng.sample(group.ball(1), rng.randint(1, len(group.ball(1))))
        ca = random_ca(rng, group, p, d, memory)
        cells = group.ball(rng.choice((0, 1)))
        rows = group.sort_elements(
            {group.multiply(c, group.inverse(m)) for c in cells for m in ca.memory}
        )
        products = {group.multiply(r, m) for r in rows for m in ca.memory}
        outside += not products <= set(cells)
        mat = ca.block_matrix(rows, cells)
        assert mat.shape == (d * len(rows), d * len(cells))
        assert mat.min() >= 0 and mat.max() < p
        values = [[rng.randrange(p) for _ in range(d)] for _ in cells]
        image = ca.apply_config(finite_support(p, d, dict(zip(cells, values))))
        vec = np.array(values, dtype=np.int64).reshape(-1)
        expected = np.concatenate([image.value_at(r, d) for r in rows])
        assert np.array_equal(mat @ vec % p, expected)
    assert outside


@pytest.mark.parametrize("q", [1, 2, 3])
def test_periodic_system_sums_and_reduces_folded_columns(q):
    """With memory wider than q, folding the columns of cells equal mod q
    adds several blocks into one cell; their sum must be reduced and act as
    the rule does on q-periodic configurations."""
    rng = random.Random(67 + q)
    for _ in range(8):
        p = rng.choice((2, 3, 5))
        d = rng.choice((1, 2))
        ca = random_integer_ca(rng, p, d, span=2)
        mat = _periodic_system(ca, q)
        assert mat.shape == (d * q, d * q)
        assert mat.min() >= 0 and mat.max() < p
        values = [[rng.randrange(p) for _ in range(d)] for _ in range(q)]
        image = ca.apply_config(periodic(p, d, values))
        vec = np.array(values, dtype=np.int64).reshape(-1)
        assert np.array_equal(mat @ vec % p, np.concatenate(image.values))


def test_periodic_system_is_the_push_forward_to_z_mod_q():
    """Folding the columns of cells equal mod q gives the block matrix of the
    rule pushed along Z -> Z/q."""
    rng = random.Random(71)
    quotients = {q: cyclic_group(q) for q in range(1, 14)}
    for _ in range(51):
        p, d = rng.choice((2, 3, 5)), rng.randint(1, 2)
        ca = random_ca(rng, Z, p, d, rng.sample(range(-9, 10), rng.randint(1, 5)))
        for q, quotient in quotients.items():
            pushed = push_forward(ca, quotient, lambda m: m % q)
            expected = pushed.block_matrix(range(q), range(q))
            assert np.array_equal(_periodic_system(ca, q), expected), (ca, q)


@pytest.mark.parametrize("quotient", ["Z/q", "S3"])
def test_quotient_kernel_vectors_pull_back(quotient):
    """tau(v o phi)(g) = tau_Q(v)(phi(g)) for the rule pushed along phi onto a
    finite quotient Q, both sides evaluated by the plain loop on a ball of G:
    a kernel vector of the pushed rule pulls back to a kernel element."""
    rng = random.Random(73)
    s3, f2 = symmetric_group_3(), FreeGroup(2)
    kernel_vectors = 0
    for _ in range(24):
        p, d = rng.choice((2, 3)), rng.randint(1, 2)
        if quotient == "Z/q":
            q = rng.randint(1, 6)
            group, target, phi = Z, cyclic_group(q), lambda m, q=q: m % q
        else:
            group, target, phi = f2, s3, free_group_map(s3, (1, 3))
        ca = random_ca(rng, group, p, d, rng.sample(group.ball(2), 3))
        pushed, cells = push_forward(ca, target, phi), target.elements()
        kern = kernel_basis(pushed.block_matrix(cells, cells), p)
        kernel_vectors += kern.dim
        some = np.array([rng.randrange(p) for _ in range(d * len(cells))], dtype=np.int64)
        for i, vec in enumerate([some, *kern.basis]):
            v = dict(zip(cells, cell_view(vec, cells, d)))
            image = pushed._evaluate(cells, v.get)
            pulled = ca._evaluate(group.ball(3), lambda h: v[phi(h)])
            for g, value in pulled.items():
                assert np.array_equal(value, image[phi(g)]), (ca, g)
            assert i == 0 or not any(w.any() for w in pulled.values())
    assert kernel_vectors >= 12
