"""Rules on Z and Z^d as matrices over Laurent polynomials.

A rule with alphabet GF(p)^n on Z^d is the n x n matrix A = sum_m b_m t^m over
GF(p)[t_1^-1, t_1, ..., t_d^-1, t_d], and composing rules multiplies their
matrices, so the rule is reversible iff A is invertible, i.e. iff det A is a
unit c t^a.  Shifted by the least exponent of each variable, A = t^low P with
P a polynomial of degree D_i in t_i.

The Kronecker map t_i -> t^(w_i), w_i = N_1 ... N_(i-1) with N_i = 2 n D_i + 1,
is a ring homomorphism into GF(p)[t^-1, t]; it writes P as the coefficient
blocks Q_k of one variable (on Z it is the identity).  It is injective on the
exponents with -n D_i <= e_i <= n D_i, the balanced digits of base N_i.  Those
hold det P, a polynomial of degree <= n D_i, and the exponents of P^-1 =
adj P / det P when det P is a monomial: adj P has degree <= (n - 1) D_i.

The inverse power series.  Let Q_0 be the lowest block of P, shifted to
degree 0, and T the degree of the highest.  If Q_0 is invertible, P = Q_0 (I +
M_1 t + ... + M_T t^T) with M_i = Q_0^-1 Q_i, and (I + sum M_i t^i)^-1 =
sum C_k t^k with C_0 = I and C_k = -sum_i M_i C_(k-i).  det P has the nonzero
constant term det Q_0, so it is a unit iff it is a constant c, and then
P^-1 = adj P / c has degree <= (n - 1) T: every C_k with (n - 1) T < k <= n T
is zero.  Conversely C_k depends only on the T terms before it, so if those
are zero all later ones are, and P^-1 = sum C_k Q_0^-1 t^k is a polynomial.
The series ends (det A is a unit) iff it has no nonzero term past (n - 1) T.
When Q_0 is singular but the highest block is not, the same holds for
t^T P(1/t).  Through the Kronecker map both statements carry over to Z^d.
A series that does not end has an invertible end block, so det A is nonzero,
and not a monomial, since the map sends monomials to monomials.  A series
that ends makes the image of det P a monomial, so det P is one (the map is
injective on its exponents), and the digits of each degree of the series
give the cells of A^-1.

The recurrence is seeded with Q_0^-1 instead of I.  The terms D_k = C_k Q_0^-1
follow the same recurrence, D_0 = Q_0^-1 and D_k = -sum_i M_i D_(k-i), and
Q_0^-1 is invertible, so D_k is zero exactly when C_k is: the series ends
at the same terms, and the D_k are the blocks of P^-1 as computed, with no
product after the recurrence.  Q_0^-1 is the last block of the one RREF,
[Q_0 | Q_1 ... | I] -> [I | M_1 ... | Q_0^-1], that also decides whether
Q_0 is invertible.

The terms are computed from the nonzero ones only: each pushes its products
with the nonzero M_i onto the degrees they reach, so the work is bounded by
the number of exponents that sums of memory offsets reach, not by T.

A rule on the free group F_k goes to one on Z^k by ``ca.push_forward`` along
the abelianization (``abelian_point``).  Its series does not decide the rule
on F_k, but a series that does not end rules out a left inverse there.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .ca import LinearCA, identity_ca
from .groups import FreeGroup, IntegerGroup, LatticeGroup


class LaurentMatrix(NamedTuple):
    """A rule on Z or Z^d as A = t^low P, with sum_k blocks[k] t^k the
    Kronecker image of P: nonzero blocks only, in increasing degree."""

    ca: LinearCA
    low: tuple
    radix: tuple
    blocks: dict

    def element(self, k: int):
        """The cell of A^-1 whose term has degree k in the Kronecker image of
        P^-1: the balanced base-N_i digits of k, the last one unbounded, minus
        ``low``."""
        digits = []
        for base in self.radix[:-1]:
            half = base // 2
            digits.append((k + half) % base - half)
            k = (k - digits[-1]) // base
        cell = tuple(e - lo for e, lo in zip(digits + [k], self.low))
        return cell[0] if isinstance(self.ca.group, IntegerGroup) else cell


def abelian_point(group, m) -> tuple:
    """phi(m) in Z^k: the cell itself on Z and Z^d, as a tuple, and on F_k
    the exponent sum of each letter (the abelianization, letter i -> e_i)."""
    if isinstance(group, FreeGroup):
        point = [0] * group.rank
        for x in m:
            point[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(point)
    return m if isinstance(m, tuple) else (m,)


def coefficients(ca: LinearCA) -> LaurentMatrix:
    """The coefficient blocks of a rule on Z or Z^d, read from the cells it
    reads (``support_memory``); the one place they are built.  The Kronecker
    map is injective on the support, so this push-forward sums nothing."""
    live = ca.support_memory
    points = [abelian_point(ca.group, m) for m in live]
    low, high = tuple(map(min, zip(*points))), tuple(map(max, zip(*points)))
    radix = tuple(2 * ca.dim_v * (hi - lo) + 1 for lo, hi in zip(low, high))
    weights = [1]
    for base in radix[:-1]:
        weights.append(weights[-1] * base)
    degrees = [sum(w * (e - lo) for w, e, lo in zip(weights, pt, low)) for pt in points]
    blocks = {k: ca.block(m) for k, m in sorted(zip(degrees, live))}
    return LaurentMatrix(ca, low, radix, blocks)


class Series(NamedTuple):
    """What the inverse power series says about a rule: ``ends`` True with
    the inverse rule when det A is a unit, False when det A is nonzero but
    not a unit, None when it cannot tell (neither end block is invertible,
    or the rule is not on Z or Z^d).  The solver reads a finite group's
    one elimination into the same form: True with the inverse, or False
    when the rule is singular."""

    ends: Optional[bool]
    inverse: Optional[LinearCA] = None


UNDECIDED = Series(None)


def _terms(offsets: list, m: np.ndarray, start: np.ndarray, top: int, p: int) -> Optional[dict]:
    """The nonzero terms D_k of (I + sum_i M_i s^i)^-1 ``start``, M at
    ``offsets[i]`` stacked in ``m`` ((len(offsets) n) x n), or None once a
    term past (n - 1) ``top`` is nonzero: the series does not end."""
    n = start.shape[0]
    terms: dict = {}
    pending: dict = {}  # degree -> sum of M_i D_(k-i) over the terms found
    heap: list = []
    k, c = 0, start
    while True:
        if c.any():
            if k > (n - 1) * top:
                return None
            terms[k] = c
            for i, prod in zip(offsets, linalg.matmul(m, c, p).reshape(-1, n, n)):
                if k + i in pending:
                    pending[k + i] += prod
                else:
                    pending[k + i] = prod
                    heapq.heappush(heap, k + i)
        if not heap:
            return terms
        k = heapq.heappop(heap)
        c = -pending.pop(k) % p


def inverse_series(ca: LinearCA) -> Series:
    """Decide on Z and Z^d whether det A is a unit from the inverse power
    series at an invertible end block, lowest first, and read the inverse
    rule off it when it is: its terms, seeded with Q_end^-1, are the
    inverse's blocks (see the module docstring)."""
    if not isinstance(ca.group, (IntegerGroup, LatticeGroup)):
        return UNDECIDED
    if ca.dim_v == 0:  # the 0 x 0 matrix is its own inverse
        return Series(True, identity_ca(ca.group, ca.p, 0))
    lm = coefficients(ca)
    n, p = ca.dim_v, ca.p
    lowest, highest = min(lm.blocks), max(lm.blocks)
    for end, sign in ((lowest, 1), (highest, -1)):
        # Degrees counted away from the end: Q_end + sum_j Q_(end + sign j) s^j.
        others = [k for k in lm.blocks if k != end]
        row = [lm.blocks[k] for k in [end] + others] + [np.eye(n, dtype=np.int64)]
        r, pivots, _ = linalg.rref(np.hstack(row), p)
        if pivots[:n] != tuple(range(n)):
            continue
        # r = [I | M_j ... | Q_end^-1]; the M_j are stacked as rows.
        split = n * (1 + len(others))
        m = r[:, n:split].reshape(n, len(others), n).transpose(1, 0, 2)
        offsets = [sign * (k - end) for k in others]
        terms = _terms(offsets, m.reshape(-1, n), r[:, split:], highest - lowest, p)
        if terms is None:
            return Series(False)
        cells = [lm.element(sign * j - end) for j in terms]
        return Series(True, LinearCA(ca.group, p, n, cells, list(terms.values())))
    return UNDECIDED
