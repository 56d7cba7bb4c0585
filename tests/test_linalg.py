"""Exact GF(p) linear and affine algebra."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ca, random_matrix
import linca
from linca import IntegerGroup, WindowSystem
from linca.linalg import (
    AffineSubspace,
    LinalgError,
    Subspace,
    as_matrix,
    as_vector,
    constrain_affine,
    image_of_affine,
    image_of_subspace,
    kernel_basis,
    matmul,
    rank,
    require_prime,
    rref,
    solve_affine,
    solve_affine_multi,
    _reduce,
)


def brute_force_members(mat, rhs, p):
    """All solutions of mat x = rhs by exhaustive enumeration."""
    mat = np.array(mat, dtype=np.int64) % p
    rhs = np.array(rhs, dtype=np.int64) % p
    cols = mat.shape[1]
    out = []
    for x in itertools.product(range(p), repeat=cols):
        v = np.array(x, dtype=np.int64)
        if np.array_equal((mat @ v) % p, rhs):
            out.append(tuple(v))
    return set(out)


def test_require_prime():
    for p in (2, 3, 5, 7, 97, 1048573):
        assert require_prime(p) == p
        assert require_prime(p) == p
    # The primality test is cached: a bad value must raise on every call,
    # and a bool, a non-int or a modulus past 2^20 must raise LinalgError
    # (never a cache TypeError).
    for bad in (1, 4, 6, 9, 0, -3, 1048583, 1048576, True, False, 5.0, "5", [5]):
        for _ in range(2):
            with pytest.raises(LinalgError):
                require_prime(bad)


def python_matmul(a, b, p, cols):
    """Mod-p product in Python ints: the reference for ``matmul``."""
    rows, inner = len(a), len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(cols)]
        for i in range(rows)
    ]


def test_matmul_exact_across_float_block_boundary():
    # For p = 1048573 one float64 product is exact up to k = 8192; beyond
    # that matmul sums reduced blocks.  Entries p-2 are odd, so an unblocked
    # sum above 2^53 would lose its last bit.
    p = 1048573
    for k in (1, 8192, 8193, 3 * 8192 + 5):
        for fill in (p - 1, p - 2):
            a = np.full((2, k), fill, dtype=np.int64)
            b = np.full((k, 3), fill, dtype=np.int64)
            got = matmul(a, b, p)
            assert got.dtype == np.int64
            assert (got == k * fill * fill % p).all(), (k, fill)


def test_matmul_exact_on_both_sides_of_the_float32_bound():
    # For p = 7 each term is at most 36: k = 466033 has k * 36 < 2^24 and
    # multiplies in float32, k = 466034 does not and takes float64.
    p = 7
    for k in (466_033, 466_034):
        a = np.full((1, k), p - 1, dtype=np.int64)
        got = matmul(a, a.reshape(k, 1), p)
        assert got.dtype == np.int64
        assert got.tolist() == [[k * (p - 1) ** 2 % p]], k
    assert [466_033 * 36 < 2**24, 466_034 * 36 < 2**24] == [True, False]
    # Further past the bound, one odd term makes the sum odd and above 2^24,
    # which no float32 holds.
    k = 700_000
    a = np.full((1, k), p - 1, dtype=np.int64)
    b = a.reshape(k, 1).copy()
    a[0, -1] = b[-1, 0] = 1
    assert matmul(a, b, p).tolist() == [[(36 * (k - 1) + 1) % p]]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1048573])
def test_floor_division_reduction_matches_remainder_at_int64_extremes(p):
    a = np.array([-(2**63), -(2**63) + 1, -1, 0, p - 1, p, 2**63 - 1], dtype=np.int64)
    want = np.remainder(a, p)
    assert want.tolist() == [int(x) % p for x in a.tolist()]
    # 7 entries fit one block of the quotient temporary; 21000 take two.
    for reps in (1, 3000):
        big = np.tile(a, reps).reshape(-1, 7)
        with np.errstate(all="raise"):
            got = _reduce(big.copy(), p)
        assert np.array_equal(got, np.tile(want, reps).reshape(-1, 7))


@st.composite
def matmul_operands(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 1048573)))
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    ops = []
    for shape in ((rows, inner), (inner, cols)):
        size = shape[0] * shape[1]
        flat = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
        m = np.array(flat, dtype=np.int64).reshape(shape)
        if draw(st.booleans()):
            m = np.ascontiguousarray(m.T).T  # same values, Fortran-ordered view
        if draw(st.booleans()):
            m.setflags(write=False)
        ops.append(m)
    return p, ops[0], ops[1]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(matmul_operands())
def test_matmul_matches_python_ints(case):
    p, a, b = case
    before = (a.copy(), b.copy())
    got = matmul(a, b, p)
    assert got.dtype == np.int64 and got.shape == (a.shape[0], b.shape[1])
    assert ((got >= 0) & (got < p)).all()
    assert got.tolist() == python_matmul(a.tolist(), b.tolist(), p, b.shape[1])
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


def test_rref_examples():
    r, piv, rk = rref(np.eye(3, dtype=np.int64), 2)
    assert np.array_equal(r, np.eye(3, dtype=np.int64)) and rk == 3
    r, piv, rk = rref([[1, 1], [1, 1]], 2)
    assert r.tolist() == [[1, 1], [0, 0]] and rk == 1
    # Rows proportional mod 3: 2*(1,2) = (2,1).
    r, piv, rk = rref([[2, 1], [1, 2]], 3)
    assert rk == 1 and r.tolist() == [[1, 2], [0, 0]]


def test_inputs_read_only_or_non_contiguous_are_accepted_and_kept():
    ca = random_ca(random.Random(17), IntegerGroup(), 3, 2, (-1, 0, 2))
    frozen = WindowSystem(ca).window(2).matrix
    assert not frozen.flags.writeable
    unreduced = (frozen + 3).T  # writable, Fortran-ordered, entries >= p
    for m in (frozen, frozen.T, unreduced):
        before = m.copy()
        c = np.array(m, order="C") % 3
        r, piv, rk = rref(m, 3)
        assert r.flags.c_contiguous and r.flags.writeable
        assert np.array_equal(r, rref(c, 3)[0]) and piv == rref(c, 3)[1]
        assert kernel_basis(m, 3) == kernel_basis(c, 3)
        rhs = m[:, 1:3]
        kern, points = solve_affine_multi(m, rhs, 3)
        kern_c, points_c = solve_affine_multi(c, np.array(rhs) % 3, 3)
        assert kern == kern_c and len(points) == len(points_c) == 2
        for j, (x, y) in enumerate(zip(points, points_c)):
            assert np.array_equal(x, y)
            assert np.array_equal(matmul(c, x.reshape(-1, 1), 3).ravel(), c[:, 1 + j])
        assert np.array_equal(m, before)


def test_rref_postconditions_randomized():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 7), p)
            r, pivots, rk = rref(m, p)
            assert rk == len(pivots)
            assert list(pivots) == sorted(pivots)
            for i, c in enumerate(pivots):
                col = r[:, c]
                assert col[i] == 1 and np.count_nonzero(col) == 1


def test_kernel_examples():
    k = kernel_basis([[1, 1]], 2)
    assert k.basis.tolist() == [[1, 1]]
    assert kernel_basis(np.eye(4, dtype=np.int64), 3).dim == 0


def test_kernel_multiply_back_randomized():
    rng = random.Random(9)
    for _ in range(20):
        m = random_matrix(rng, 4, 6, 3)
        k = kernel_basis(m, 3)
        assert k.dim == 6 - rank(m, 3)
        for v in k.basis:
            assert not np.any(matmul(m, v.reshape(-1, 1), 3))


def test_solve_affine_examples():
    s = solve_affine([[1, 1]], [1], 2)
    # The solution set {(1,0), (0,1)}; the canonical point zeroes the pivot.
    assert not s.is_empty
    assert {tuple(v) for v in s.members()} == {(1, 0), (0, 1)}
    assert s.point.tolist() == [0, 1]
    empty = solve_affine([[0, 0]], [1], 2)
    assert empty.is_empty


def test_image_of_affine_projection_example():
    # Project (x, y) -> x; the affine line (1,0) + span{(0,1)} maps to {1}.
    line = AffineSubspace.from_point_subspace(
        np.array([1, 0]), Subspace.from_spanning([[0, 1]], 2, 2)
    )
    img = image_of_affine(1, line)
    assert img.dim == 0 and img.point.tolist() == [1]
    assert image_of_affine(2, line) == line
    assert image_of_affine(0, line) == AffineSubspace.full(0, 2)
    # The line (0,1) + span{(1,0)} maps onto the whole line GF(2).
    other = AffineSubspace.from_point_subspace(
        np.array([0, 1]), Subspace.from_spanning([[1, 0]], 2, 2)
    )
    assert image_of_affine(1, other) == AffineSubspace.full(1, 2)


def test_solve_matches_brute_force():
    rng = random.Random(21)
    for p in (2, 3):
        for _ in range(25):
            mat = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 5), p)
            rhs = [rng.randrange(p) for _ in range(mat.shape[0])]
            sols = solve_affine(mat, rhs, p)
            expect = brute_force_members(mat, rhs, p)
            if not expect:
                assert sols.is_empty
                # Rank criterion for solvability.
                aug = np.hstack([mat, np.array(rhs).reshape(-1, 1)])
                assert rank(aug, p) == rank(mat, p) + 1
            else:
                got = {tuple(v) for v in sols.members()}
                assert got == expect


def test_solve_affine_multi_consistency():
    rng = random.Random(2)
    for _ in range(15):
        p = rng.choice((2, 3))
        mat = random_matrix(rng, 4, 5, p)
        rhs = random_matrix(rng, 4, 3, p)
        kernel, points = solve_affine_multi(mat, rhs, p)
        for j in range(3):
            single = solve_affine(mat, rhs[:, j], p)
            if points[j] is None:
                assert single.is_empty
            else:
                assert single == AffineSubspace.from_point_subspace(points[j], kernel)


def test_affine_canonical_equality_exhaustive():
    """Affine sets built from different generating data compare equal iff
    they are equal as point sets (checked by enumeration, ambient <= 6)."""
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(40):
            ambient = rng.randrange(1, 7)
            pt1 = np.array([rng.randrange(p) for _ in range(ambient)])
            pt2 = np.array([rng.randrange(p) for _ in range(ambient)])
            gens1 = [
                [rng.randrange(p) for _ in range(ambient)]
                for _ in range(rng.randrange(0, 3))
            ]
            gens2 = [
                [rng.randrange(p) for _ in range(ambient)]
                for _ in range(rng.randrange(0, 3))
            ]
            a = AffineSubspace.from_point_subspace(
                pt1, Subspace.from_spanning(gens1, ambient, p)
            )
            b = AffineSubspace.from_point_subspace(
                pt2, Subspace.from_spanning(gens2, ambient, p)
            )
            set_a = {tuple(v) for v in a.members()}
            set_b = {tuple(v) for v in b.members()}
            assert (a == b) == (set_a == set_b)


def test_canonical_point_is_lex_smallest():
    rng = random.Random(17)
    for p in (2, 3):
        for _ in range(30):
            ambient = rng.randrange(1, 5)
            pt = np.array([rng.randrange(p) for _ in range(ambient)])
            gens = [
                [rng.randrange(p) for _ in range(ambient)]
                for _ in range(rng.randrange(0, 3))
            ]
            a = AffineSubspace.from_point_subspace(
                pt, Subspace.from_spanning(gens, ambient, p)
            )
            smallest = min(tuple(v) for v in a.members())
            assert tuple(a.point) == smallest


def test_image_of_subspace_matches_brute_force():
    rng = random.Random(23)
    for _ in range(20):
        p = rng.choice((2, 3))
        k = rng.randrange(5)
        sub = Subspace.from_spanning(
            [[rng.randrange(p) for _ in range(4)] for _ in range(rng.randrange(3))], 4, p
        )
        img = image_of_subspace(k, sub)
        assert img.ambient == k
        expect = {tuple(member[:k]) for member in sub.members()}
        assert {tuple(v) for v in img.members()} == expect


def test_constrain_affine_is_exact_subset():
    rng = random.Random(29)
    for _ in range(20):
        p = rng.choice((2, 3))
        ambient = 4
        base = AffineSubspace.from_point_subspace(
            np.array([rng.randrange(p) for _ in range(ambient)]),
            Subspace.from_spanning(
                [[rng.randrange(p) for _ in range(ambient)] for _ in range(2)],
                ambient,
                p,
            ),
        )
        k = rng.randrange(ambient + 1)
        target = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
        got = constrain_affine(base, k, target)
        expect = {tuple(v) for v in base.members() if np.array_equal(v[:k], target)}
        if not expect:
            assert got.is_empty
        else:
            assert {tuple(v) for v in got.members()} == expect


@pytest.mark.parametrize(
    "coords", [np.int64(-1), np.int64(5), np.bool_(True), np.array(2), [1], (2,)]
)
def test_coordinates_out_of_range_or_not_1d_are_rejected(coords):
    """A prefix length must be an int in [0, ambient], not an array."""
    p = 3
    sub = Subspace.from_spanning([[1, 2, 0, 1]], 4, p)
    affine = AffineSubspace.from_point_subspace(np.array([0, 1, 2, 0]), sub)
    with pytest.raises(LinalgError):
        image_of_subspace(coords, sub)
    with pytest.raises(LinalgError):
        image_of_affine(coords, affine)
    with pytest.raises(LinalgError):
        constrain_affine(affine, coords, np.zeros(1, dtype=np.int64))


def test_prefix_lengths_and_targets_are_checked():
    p = 3
    affine = AffineSubspace.full(4, p)
    assert constrain_affine(affine, np.int64(2), [1, 2]).dim == 2
    for k in (-1, 5, True, 2.0, None):
        with pytest.raises(LinalgError):
            image_of_affine(k, affine)
    with pytest.raises(LinalgError):
        constrain_affine(affine, 2, [1, 2, 0])


INEXACT_ROWS = [
    [1.5, 0],
    ["1", 0],
    [None, 0],
    [2**70, 0],
    [2**63, 0],
    [-(2**63) - 1, 0],
    [float("nan"), 0],
    [float("inf"), 0],
    [1j, 0],
    [1.0, 2**53 + 1],  # inferred as float64, which rounds 2^53 + 1
    [2.0**53, 0],
    np.array([2**63, 0], dtype=np.uint64),
    np.array([0.5, 0], dtype=np.float32),
]


@pytest.mark.parametrize("row", INEXACT_ROWS)
def test_inexact_entries_are_rejected_not_truncated(row):
    """Every way outside numbers enter (as_matrix, as_vector, rref,
    from_spanning, reduce) rejects what int64 would truncate, parse or wrap."""
    p = 5
    sub = Subspace.from_spanning([[1, 0]], 2, p)
    for coerce in (
        lambda: as_matrix([row], p),
        lambda: as_vector(row, p),
        lambda: rref([row, [0, 1]], p),
        lambda: Subspace.from_spanning([row], 2, p),
        lambda: sub.reduce(row),
        lambda: kernel_basis([row, [0, 1]], p),
    ):
        with pytest.raises(LinalgError, match="int64 range"):
            coerce()


def test_integral_floats_booleans_and_int64_extremes_are_accepted():
    p = 5
    ints = [True, -1, 2**63 - 1, -(2**63)]
    floats = [1.0, -3.0, 2.0**53 - 1, 1 - 2.0**53]
    for row in (ints, floats, np.array([7, 2**63 - 1], dtype=np.uint64)):
        expected = [int(x) % p for x in row]
        assert as_vector(row, p).tolist() == expected
        assert as_matrix([row], p).tolist() == [expected]
    assert as_matrix(np.zeros((0, 3)), p).shape == (0, 3)
    for q in (2, 3, 5, 7, 1048573):
        want = [-(2**63) % q, (2**63 - 1) % q]
        assert as_matrix([[-(2**63), 2**63 - 1]], q).tolist() == [want]
    with pytest.raises(LinalgError, match="ndim"):
        as_vector([row], p)


def test_zero_dimensional_edge_cases():
    z = Subspace.zero(0, 2)
    assert z.dim == 0
    a = AffineSubspace.from_point_subspace(np.zeros(0, dtype=np.int64), Subspace.zero(0, 2))
    assert not a.is_empty and a.dim == 0
    r, piv, rk = rref(np.zeros((0, 3), dtype=np.int64), 2)
    assert rk == 0
    k = kernel_basis(np.zeros((2, 0), dtype=np.int64), 2)
    assert k.ambient == 0 and k.dim == 0


def test_solve_holds_one_copy_of_the_system():
    """A solve writes [mat reversed | rhs] once and reduces it in place:
    next to the caller's 20000 x 300 int64 system (45.8 MiB) it allocates
    about one more copy, not two."""
    p = 3
    mat = np.zeros((20000, 300), dtype=np.int64)
    mat[np.arange(300), np.arange(300)] = p + 1  # the identity once reduced
    tracemalloc.start()
    try:
        kernel = kernel_basis(mat, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.ambient == 300 and kernel.dim == 0
    assert peak < 1.25 * mat.nbytes


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_runs_blas_on_one_thread_unless_set():
    """Importing linca before numpy pins BLAS to one thread; a value the
    caller set is kept."""
    code = (
        "import os, linca, numpy as np\n"
        "from linca.linalg import matmul\n"
        "a = np.ones((200, 200), dtype=np.int64)\n"
        "matmul(a, a, 2)\n"  # float32
        "matmul(a, a, 1048573)\n"  # float64
        "print(len(os.listdir('/proc/self/task')))\n"
        f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(linca.__file__).parents[1])

    def run(**extra):
        out = subprocess.run(
            [sys.executable, "-c", code], env={**env, **extra}, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.splitlines()

    assert run() == ["1", "1 1 1"]
    assert run(OMP_NUM_THREADS="2")[1] == "1 2 1"
