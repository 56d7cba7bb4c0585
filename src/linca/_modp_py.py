"""Numpy fallback for the mod-p elimination kernel.

Same contract as the compiled version in ``_modp_cy``: reduce an int64
matrix (entries already in [0, p)) to reduced row-echelon form in place and
return the pivot columns.  Row operations are vectorized; the outer loop is
one pass per pivot.
"""

from __future__ import annotations

import numpy as np


def rref_inplace(a: np.ndarray, p: int) -> list[int]:
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots
