"""Every solve is one elimination whose kernel comes out canonical.

The library reads a kernel in RREF straight off the RREF of the
column-reversed system, and the directions of a solve in a span off a copy
of the span's rows and one product on the rows that need it (see the
``linalg`` docstring).  These tests hold the results to the reference
Gauss-Jordan of ``conftest`` and to the lift written out, hold every
returned basis to its own re-reduction, count the eliminations, and check
the precondition of the reduced span: A_{n-1} is the prefix of A_n.  The
prefix images and constraints, read off the RREF rows, are held to
``from_spanning``, the reference solve and enumeration."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ca, random_finite_support, reference_solve
from linca import (
    FiniteGroup,
    FreeGroup,
    IntegerGroup,
    LatticeGroup,
    ProjectiveAffineSequence,
    WindowSystem,
    cyclic_group,
    extract_limit_prefix,
    kernel_sequence,
    preimage_extract,
    symmetric_group_3,
)
from linca import linalg
from linca.ca import coordinates
from linca.linalg import (
    AffineSubspace,
    Subspace,
    constrain_affine,
    image_of_affine,
    kernel_basis,
    solve_affine_multi,
    solve_in_lift,
)

PRIMES = (2, 3, 5, 1048573)
SHAPES = ("zero-rows", "zero-cols", "tall", "wide", "square")
GROUPS = [
    (IntegerGroup(), (0, 1)),
    (LatticeGroup(2), ((0, 0), (1, 0), (0, 1))),
    (LatticeGroup(3), ((0, 0, 0), (1, 0, 0), (0, 0, 1))),
    (FreeGroup(2), ((), (1,), (-2,))),
    (symmetric_group_3(), (0, 1, 3)),
    (cyclic_group(6), (0, 1, 3)),
]
GROUP_IDS = ["Z", "Z2", "Z3", "F2", "S3", "Z6"]


@st.composite
def systems(draw, rhs_cols=1):
    """(mat, rhs, p): a random or rank-deficient matrix of one of the shape
    kinds, and ``rhs_cols`` right-hand sides, half of them in the image."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(SHAPES))
    small, large = draw(st.integers(1, 4)), draw(st.integers(5, 8))
    rows, cols = {
        "zero-rows": (0, large),
        "zero-cols": (large, 0),
        "tall": (large, small),
        "wide": (small, large),
        "square": (small, small),
    }[kind]
    entries = st.integers(0, p - 1)

    def matrix(r, c):
        flat = draw(st.lists(entries, min_size=r * c, max_size=r * c))
        return np.array(flat, dtype=np.int64).reshape(r, c)

    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        mat = linalg.matmul(matrix(rows, k), matrix(k, cols), p)
    else:
        mat = matrix(rows, cols)
    rhs = matrix(rows, rhs_cols)
    image = linalg.matmul(mat, matrix(cols, rhs_cols), p)
    keep = np.array(draw(st.lists(st.booleans(), min_size=rhs_cols, max_size=rhs_cols)))
    return mat, np.where(keep, image, rhs), p


def assert_canonical(sub: Subspace):
    """The basis is its own re-RREF, and its stored pivots lead its rows."""
    again = Subspace.from_spanning(sub.basis, sub.ambient, sub.p)
    assert np.array_equal(again.basis, sub.basis)
    assert again.pivots == sub.pivots
    assert sub.pivots == tuple(int(np.flatnonzero(row)[0]) for row in sub.basis)
    assert sub.basis.dtype == np.int64 and not sub.basis.flags.writeable


def assert_affine_canonical(affine: AffineSubspace):
    if affine.is_empty:
        return
    assert_canonical(affine.directions)
    again = AffineSubspace.from_point_subspace(affine.point, affine.directions)
    assert np.array_equal(again.point, affine.point)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(systems())
def test_kernel_basis_matches_the_reference(system):
    mat, _, p = system
    kernel = kernel_basis(mat, p)
    assert kernel == reference_solve(mat, np.zeros(len(mat), dtype=np.int64), p).directions
    assert_canonical(kernel)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(systems(rhs_cols=3))
def test_solve_affine_multi_matches_the_reference(system):
    mat, rhs, p = system
    kernel, points = solve_affine_multi(mat, rhs, p)
    assert_canonical(kernel)
    for point, column in zip(points, rhs.T):
        expected = reference_solve(mat, column, p)
        if expected.is_empty:
            assert point is None
            continue
        assert kernel == expected.directions
        # The points come out canonical, zero at the kernel's pivots.
        assert np.array_equal(point, expected.point)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(systems(), st.data())
def test_constrain_affine_matches_the_reference(system, data):
    """The constrained set against one reference solve in the ambient space:
    x[:k] = target, and N x = N point for the rows N of a basis of the
    annihilator of the directions."""
    spanning, _, p = system
    ambient = spanning.shape[1]

    def vector(size, values=st.integers(0, p - 1), dtype=np.int64):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype)

    affine = AffineSubspace.from_point_subspace(
        vector(ambient), Subspace.from_spanning(spanning, ambient, p)
    )
    k = data.draw(st.integers(0, ambient))
    target = vector(k)
    if data.draw(st.booleans()):
        target = affine.point[:k]  # a target the affine set meets
    got = constrain_affine(affine, k, target)
    assert_affine_canonical(got)
    assert got == constrained_reference(affine, k, target)


def constrained_reference(affine: AffineSubspace, k: int, target) -> AffineSubspace:
    """{x in affine : x[:k] = target} by one reference solve: x[:k] = target
    stacked on N x = N point, N a basis of the annihilator of the directions."""
    p, ambient = affine.p, affine.ambient
    if affine.is_empty:
        return AffineSubspace.empty(ambient, p)
    annihilator = reference_solve(affine.directions.basis, np.zeros(affine.dim, dtype=np.int64), p)
    normals = annihilator.directions.basis
    rows = np.vstack([normals, np.eye(ambient, dtype=np.int64)[:k]])
    rhs = np.concatenate([normals @ affine.point % p, target])
    return reference_solve(rows, rhs, p)


def random_affine(rng, p: int, ambient: int) -> AffineSubspace:
    """An affine subspace in canonical form: empty, a single point or the
    span of up to ambient random rows, some of them dependent."""
    kind = rng.choice(("empty", "point", "span"))
    if kind == "empty":
        return AffineSubspace.empty(ambient, p)
    count = 0 if kind == "point" else rng.integers(1, ambient + 1)
    rows = rng.integers(0, p, size=(count, ambient))
    if count > 1 and rng.random() < 0.5:
        rows[-1] = rows[0] * 2 % p
    point = rng.integers(0, p, size=ambient)
    return AffineSubspace.from_point_subspace(point, Subspace.from_spanning(rows, ambient, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prefix_read_offs_match_the_references(p):
    """Images and constraints under every prefix x -> x[:k], read off the
    RREF rows, against ``from_spanning`` of the cut basis, the reference
    solve of the stacked system and, where small, enumeration."""
    rng = np.random.default_rng(p)
    kinds = set()
    for _ in range(40):
        ambient = int(rng.integers(1, 7))
        affine = random_affine(rng, p, ambient)
        kinds.add(min(affine.dim, 1))
        members = [tuple(x) for x in affine.members()]
        for k in range(ambient + 1):
            image = image_of_affine(k, affine)
            assert_affine_canonical(image)
            if affine.is_empty:
                assert image == AffineSubspace.empty(k, p)
            else:
                cut = Subspace.from_spanning(affine.directions.basis[:, :k], k, p)
                assert image == AffineSubspace.from_point_subspace(affine.point[:k], cut)
            assert {tuple(x) for x in image.members()} == {x[:k] for x in members}
            targets = [rng.integers(0, p, size=k)] + [np.array(x[:k]) for x in members[:1]]
            for target in targets:
                got = constrain_affine(affine, k, target)
                assert_affine_canonical(got)
                assert got == constrained_reference(affine, k, target)
                expect = {x for x in members if x[:k] == tuple(target)}
                assert {tuple(x) for x in got.members()} == expect
    assert kinds == {-1, 0, 1}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.sampled_from(range(len(GROUPS))),
    st.sampled_from(PRIMES),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_preimage_levels_match_the_reference(group_index, p, dim_v, seed, in_image):
    """Every level, built from the one below, against the reference solve of
    the whole window map, for images and random targets."""
    group, memory = GROUPS[group_index]
    rng = random.Random(seed)
    ca = random_ca(rng, group, p, dim_v, memory)
    ws = WindowSystem(ca)
    x = random_finite_support(rng, group, p, dim_v, ws.window(1).source)
    target = ca.apply_config(x) if in_image else x
    seq = ProjectiveAffineSequence(ws, target)
    for m in range(3):
        level = seq.level(m)
        assert_affine_canonical(level)
        assert level == reference_solve(ws.window(m).matrix, ws.target_vec(target, m), p), m


def lift_coefficients(rng, p: int, d: int, new: int):
    """(coeff, rhs) of a random system in the d + new lift parameters, of
    one of four kinds, half of the right-hand sides in the image."""
    rows = int(rng.integers(0, 5))
    kind = rng.choice(("dense", "low-rank", "fix-old", "new-only"))
    coeff = rng.integers(0, p, size=(rows, d + new))
    if kind == "low-rank":
        r = int(rng.integers(0, min(rows, d + new) + 1))
        coeff = rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, d + new)) % p
    elif kind == "fix-old" and d:
        # Unit rows fix old parameters: they are solved for, yet no kernel
        # row reads them, only the point.
        coeff = np.zeros((rows, d + new), dtype=np.int64)
        coeff[np.arange(rows), rng.integers(0, d, size=rows)] = 1
    elif kind == "new-only":
        coeff[:, :d] = 0
    rhs = rng.integers(0, p, size=rows)
    if rng.random() < 0.5:
        rhs = coeff @ rng.integers(0, p, size=d + new) % p
    return coeff, rhs


@pytest.mark.parametrize("p", [2, 3, 1048573])
def test_solve_in_lift_matches_the_explicit_lift(p):
    """``solve_in_lift`` against the lift written out: the parameters z of
    coeff z = rhs by the reference solve, mapped through S = [[B, 0], [0,
    I]] and below's point, then re-reduced.  The cases include lifts where
    no row reads a parameter bound by the system, where only the point row
    does and where several direction rows do, and lifts of GF(p)^0, of a
    single point, by no new coordinate and with no solution."""
    rng = np.random.default_rng(p)
    seen = set()
    for _ in range(300):
        k, new = int(rng.integers(0, 7)), int(rng.integers(0, 4))
        spanning = rng.integers(0, p, size=(int(rng.integers(0, k + 1)), k))
        span = Subspace.from_spanning(spanning, k, p)
        below = AffineSubspace.from_point_subspace(rng.integers(0, p, size=k), span)
        d = span.dim
        coeff, rhs = lift_coefficients(rng, p, d, new)
        params = reference_solve(coeff, rhs, p)
        lift = np.zeros((d + new, k + new), dtype=np.int64)
        lift[:d, :k] = span.basis
        lift[d:, k:] = np.eye(new, dtype=np.int64)
        if params.is_empty:
            expected = AffineSubspace.empty(k + new, p)
            seen.add("no solution")
        else:
            point = np.concatenate([below.point, np.zeros(new, np.int64)]) + params.point @ lift
            point %= p
            dirs = Subspace.from_spanning(params.directions.basis @ lift % p, k + new, p)
            expected = AffineSubspace.from_point_subspace(point, dirs)
            bound = [f for f in range(d) if f not in params.directions.pivots]
            readers = np.count_nonzero(params.directions.basis[:, bound].any(axis=1))
            point_reads = bool(params.point[bound].any())
            if readers == 0:
                seen.add("point only" if point_reads else "none")
            elif readers >= 2:
                seen.add("several")
        edges = {"k = 0": k, "d = 0": d, "new = 0": new}
        seen.update(name for name, size in edges.items() if not size)
        got = solve_in_lift(below, new, coeff, rhs - p * rng.integers(0, 3, size=len(rhs)))
        assert_affine_canonical(got)
        assert got == expected
    assert seen >= {"none", "point only", "several", "no solution", "k = 0", "d = 0", "new = 0"}


@pytest.fixture
def eliminations(monkeypatch):
    """A list that grows by one shape per elimination the library runs."""
    calls = []
    eliminate = linalg.rref_inplace

    def counted(a, p):
        calls.append(a.shape)
        return eliminate(a, p)

    monkeypatch.setattr(linalg, "rref_inplace", counted)
    return calls


def test_one_elimination_per_solve(eliminations):
    rng = np.random.default_rng(3)
    p = 5
    mat = rng.integers(0, p, size=(4, 7))
    kernel_basis(mat, p)
    assert len(eliminations) == 1
    solve_affine_multi(mat, rng.integers(0, p, size=(4, 3)), p)
    assert len(eliminations) == 2
    span = Subspace.from_spanning(rng.integers(0, p, size=(3, 7)), 7, p)
    del eliminations[:]
    coeff = rng.integers(0, p, size=(2, span.dim + 3))
    below = AffineSubspace.from_point_subspace(np.zeros(7, dtype=np.int64), span)
    solve_in_lift(below, 3, coeff, [1, 2])
    assert len(eliminations) == 1


@pytest.mark.parametrize("group,memory", GROUPS, ids=GROUP_IDS)
def test_extraction_eliminates_only_to_build_levels(eliminations, group, memory):
    """The chain images and lifts are read off the levels' RREF rows: an
    extraction runs one elimination per level whose window grows and no
    other; a repeated window is the level below."""
    rng = random.Random(11)
    ca = random_ca(rng, group, 3, 2, memory)
    ws = WindowSystem(ca)
    target = ca.apply_config(random_finite_support(rng, group, 3, 2, ws.cells(1)[0]))
    seq = ProjectiveAffineSequence(ws, target)
    result = extract_limit_prefix(seq, 2, 8)
    assert result.status == "ok"
    assert len(eliminations) == growing_windows(ws, len(seq._levels))


def growing_windows(ws, levels):
    """The levels n < ``levels`` that build: n = 0 or A_n != A_{n-1}."""
    return sum(n == 0 or ws.cells(n)[0] != ws.cells(n - 1)[0] for n in range(levels))


@pytest.mark.parametrize(
    "group,generators,builds",
    [
        (symmetric_group_3(), None, 1),
        (cyclic_group(6), None, 1),
        (cyclic_group(6), [1], 3),
    ],
    ids=["S3", "Z6", "Z6-gen1"],
)
def test_finite_preimage_eliminates_once_per_distinct_window(
    eliminations, group, generators, builds
):
    """On a finite group the windows stop growing once A_n = G.  With the
    default generators A_0 = G already, so a preimage takes the one
    elimination of the |G| dimV system; with generator {1} of Z/6 it takes
    one per distinct window, and every repeated window is the level below
    itself, the same object."""
    if generators is not None:
        group = FiniteGroup(group.table, generator_ids=generators)
    rng = random.Random(20)
    ca = random_ca(rng, group, 3, 2, (0, 1, 5))
    ws = WindowSystem(ca)
    target = ca.apply_config(random_finite_support(rng, group, 3, 2, ws.cells(0)[0]))
    result = preimage_extract(ca, target, 2, 8)
    assert result.status == "ok"
    assert len(eliminations) == builds
    seq = ProjectiveAffineSequence(ws, target)
    for n in range(1, 8):
        repeated = ws.cells(n)[0] == ws.cells(n - 1)[0]
        assert (seq.level(n) is seq.level(n - 1)) == repeated, n
    assert growing_windows(ws, 8) == builds


@pytest.mark.parametrize("n", [0, 1, 3])
def test_kernel_sequence_level_n_takes_n_plus_1_eliminations(eliminations, n):
    ca = random_ca(random.Random(n), LatticeGroup(2), 3, 2, ((0, 0), (1, 0), (0, 1)))
    kernel_sequence(ca).level(n)
    assert len(eliminations) == n + 1


@pytest.mark.parametrize("group,memory", GROUPS, ids=GROUP_IDS)
def test_growth_keeps_old_coordinates_increasing(group, memory):
    """The reduced span of the preimage levels needs the coordinates of
    A_{n-1} inside A_n to be its first ambient(n - 1) coordinates, and the
    new targets to be B_n minus B_{n-1} in canonical order."""
    ws = WindowSystem(random_ca(random.Random(2), group, 3, 2, memory))
    for n in range(4):
        below = ws.cells(n - 1) if n else ((), ())
        old = coordinates(below[0], ws.cells(n)[0], ws.ca.dim_v)
        assert np.array_equal(old, np.arange(ws.ambient(n - 1) if n else 0)), n
        kept = tuple(g for g in ws.window(n).target if g not in set(below[1]))
        assert ws.new_targets(n) == kept, n


@pytest.mark.parametrize("group,memory", GROUPS, ids=GROUP_IDS)
def test_new_rows_read_only_their_reach(group, memory):
    """The preimage levels multiply the block matrix of the new targets over
    their reach, not the new rows of W_n: those rows must be that block
    matrix at the reach's coordinates and zero at every other one."""
    ws = WindowSystem(random_ca(random.Random(5), group, 3, 2, memory))
    d = ws.ca.dim_v
    for n in range(4):
        fresh = ws.new_targets(n)
        rows = coordinates(fresh, ws.cells(n)[1], d)
        reach = ws.reach(n, fresh)
        cols = coordinates(reach, ws.cells(n)[0], d)
        new_rows = ws.window(n).matrix[rows]
        assert np.array_equal(new_rows[:, cols], ws.ca.block_matrix(fresh, reach)), n
        assert not np.delete(new_rows, cols, axis=1).any(), n
