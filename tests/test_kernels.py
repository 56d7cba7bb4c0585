"""The elimination kernel ``linalg.rref_inplace`` against a reference
Gauss-Jordan, on random, low-rank and structured matrices."""

import random

import numpy as np

import linca
from conftest import random_matrix, reference_rref
from linca.linalg import rref_inplace


def test_backend_reports_name():
    assert linca.backend() == "py"


def check_against_reference(m: np.ndarray, p: int) -> None:
    a = m.copy()
    pivots = rref_inplace(a, p)
    expected, expected_pivots = reference_rref(m.tolist(), m.shape[1], p)
    assert list(pivots) == expected_pivots
    assert a.tolist() == expected
    assert not a[len(pivots) :].any()


def test_numpy_kernel_matches_reference():
    rng = random.Random(202)
    fixed = [(0, 0), (0, 4), (4, 0), (1, 1), (9, 3), (3, 9), (7, 7)]
    for p in (2, 3, 5, 1048573):
        shapes = fixed + [(rng.randrange(0, 9), rng.randrange(0, 9)) for _ in range(12)]
        for rows, cols in shapes:
            for low_rank in (False, True):
                if low_rank:
                    k = rng.randrange(0, 3)
                    m = random_matrix(rng, rows, k, p) @ random_matrix(rng, k, cols, p) % p
                else:
                    m = random_matrix(rng, rows, cols, p)
                check_against_reference(m, p)
    structured = [
        np.eye(5, dtype=np.int64),
        np.zeros((4, 6), dtype=np.int64),
        np.ones((3, 3), dtype=np.int64),
        np.arange(42, dtype=np.int64).reshape(6, 7),
    ]
    for p in (2, 3, 97):
        for m in structured:
            check_against_reference(m % p, p)
    for p in (2, 5, 1048573):
        for m in sparse_inputs(rng, p):
            check_against_reference(m, p)


def sparse_inputs(rng: random.Random, p: int) -> list:
    """Inputs whose pivot rows lie far below the rows already reduced, as
    in the preimage levels: wide sparse matrices, a bidiagonal with its rows
    shuffled or reversed, tall matrices with zero rows, and a zero row above
    the identity, where a pivot search from the first unreduced row finds
    its pivot one row down at every column."""
    def nonzero(n):
        return [rng.randrange(1, p) for _ in range(n)]

    inputs = []
    for rows, cols in ((40, 70), (38, 72)):
        m = np.zeros((rows, cols), dtype=np.int64)
        cells = rng.sample(range(rows * cols), round(0.03 * rows * cols))
        m.flat[cells] = nonzero(len(cells))
        inputs.append(m)
    bidiagonal = np.zeros((40, 70), dtype=np.int64)
    bidiagonal[range(40), range(40)] = nonzero(40)
    bidiagonal[range(40), range(1, 41)] = nonzero(40)
    shuffled = list(range(40))
    rng.shuffle(shuffled)
    inputs += [bidiagonal[::-1], bidiagonal[shuffled]]
    tall = np.zeros((30, 12), dtype=np.int64)
    live = rng.sample(range(30), 9)
    tall[live] = random_matrix(rng, 9, 12, p)
    inputs += [tall, np.vstack([np.zeros((5, 12), dtype=np.int64), tall[live]])]
    inputs.append(np.vstack([np.zeros((1, 9), dtype=np.int64), np.eye(9, dtype=np.int64)]))
    return [np.ascontiguousarray(m) for m in inputs]
