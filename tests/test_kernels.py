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
