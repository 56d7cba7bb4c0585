"""The inverse power series on Z and Z^d: it answers as the radius search
does, byte for byte, and decides only what the determinant says."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ca, random_matrix, reference_rref, unit_det_rule
from test_solver import _unitriangular_conjugate
from linca import (
    IntegerGroup,
    LatticeGroup,
    LinearCA,
    NotInvertible,
    ReversibilityCertificate,
    SolverUnknown,
    finite_support,
    gallery,
    invert_ca,
    jsonio,
    laurent,
    preimage_extract,
    solver,
)

Z = IntegerGroup()
Z2, Z3 = LatticeGroup(2), LatticeGroup(3)


def _certificate_bytes(result) -> str:
    assert isinstance(result, ReversibilityCertificate)
    return jsonio.dumps(jsonio.reversible_certificate(result))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([Z, Z2]),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_series_certificate_is_the_search_certificate(seed, group, p, dim_v, factors):
    """On unit-det rules, some with singular end blocks, the series answers
    as the radius search does: the same certificate bytes at the inverse's
    radius, and the same Unknown one radius below it."""
    ca = unit_det_rule(random.Random(seed), group, p, dim_v, factors)
    found = invert_ca(ca, 6)
    radius = found.radius
    answers = [_certificate_bytes(found), invert_ca(ca, radius - 1).reason if radius else None]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(laurent, "inverse_series", lambda ca: laurent.UNDECIDED)
        searched = invert_ca(ca, radius)
        below = invert_ca(ca, radius - 1).reason if radius else None
    assert answers == [_certificate_bytes(searched), below]


def _seeded_rules(group, count, seed):
    """Random rules with memory in ball(1), unit-det products and rank-1
    blocks sharing a row, so every series verdict and det class occurs."""
    rng = random.Random(seed)
    for i in range(count):
        p, d = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
        if i % 3 == 0:
            yield unit_det_rule(rng, group, p, d)
            continue
        memory = rng.sample(group.ball(1), rng.randint(1, 3))
        if i % 3 == 1 and d > 1:
            v = random_matrix(rng, 1, d, p)
            yield LinearCA(group, p, d, memory, [random_matrix(rng, d, 1, p) @ v % p for _ in memory])
        else:
            yield random_ca(rng, group, p, d, memory)


def _sympy_det(ca: LinearCA):
    """det A over GF(p), shifted to a polynomial, as a sympy Poly."""
    sympy = pytest.importorskip("sympy")
    points = [m if isinstance(m, tuple) else (m,) for m in ca.memory]
    low = [min(c) for c in zip(*points)]
    gens = sympy.symbols(f"t0:{len(low)}")
    mat = sympy.zeros(ca.dim_v, ca.dim_v)
    for point, block in zip(points, ca.blocks):
        mono = sympy.Mul(*(t ** (e - lo) for t, e, lo in zip(gens, point, low)))
        mat += sympy.Matrix(block.tolist()) * mono
    return sympy.Poly(mat.det(method="berkowitz"), *gens, modulus=ca.p)


@pytest.mark.parametrize("group", [Z, Z2, Z3], ids=["Z", "Z2", "Z3"])
def test_series_verdict_matches_the_sympy_determinant(group):
    """The series ends only for a monomial det, and says "does not end" only
    for a nonzero det that is not a monomial; every verdict occurs."""
    verdicts = set()
    for ca in _seeded_rules(group, 30, 41):
        series = laurent.inverse_series(ca)
        verdicts.add(series.ends)
        if series.ends is None:
            continue
        terms = len([c for c in _sympy_det(ca).terms() if c[1] % ca.p])
        assert terms == 1 if series.ends else terms > 1, ca
        if series.ends:
            assert ReversibilityCertificate(ca, series.inverse).verify()
    assert verdicts == {True, False, None}


def _py_mul(a: list, b: list, p: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _reference_series(ca: LinearCA):
    """The series of the module docstring in Python ints, at the first
    invertible end block, lowest first: D_0 = Q_end^-1 and D_k = -sum_i M_i
    D_(k-i), M_i = Q_end^-1 Q_(end + sign i), up to degree n T.  Returns
    (sign, {cell: D_k}) when every D_k past (n - 1) T is zero, (sign, None)
    when one is not, and None when neither end block is invertible.  Only
    the coefficient blocks and their cells come from ``laurent``."""
    lm = laurent.coefficients(ca)
    n, p = ca.dim_v, ca.p
    blocks = {k: b.tolist() for k, b in lm.blocks.items()}
    lowest, highest = min(blocks), max(blocks)
    top = highest - lowest
    for end, sign in ((lowest, 1), (highest, -1)):
        rows = [blocks[end][i] + [int(i == j) for j in range(n)] for i in range(n)]
        r, pivots = reference_rref(rows, 2 * n, p)
        if pivots[:n] != list(range(n)):
            continue
        q_inv = [row[n:] for row in r[:n]]
        m = {sign * (k - end): _py_mul(q_inv, b, p) for k, b in blocks.items() if k != end}
        d = {0: q_inv}
        for k in range(1, n * top + 1):
            acc = [[0] * n for _ in range(n)]
            for i, mi in m.items():
                if i <= k:
                    prod = _py_mul(mi, d[k - i], p)
                    acc = [[x + y for x, y in zip(u, v)] for u, v in zip(acc, prod)]
            d[k] = [[-x % p for x in row] for row in acc]
        if any(any(map(any, d[k])) for k in range((n - 1) * top + 1, n * top + 1)):
            return sign, None
        return sign, {lm.element(sign * k - end): d[k] for k in d if any(map(any, d[k]))}
    return None


def _reflected(ca: LinearCA) -> LinearCA:
    """The rule with every memory element negated, A(t) -> A(1/t): its
    lowest and highest coefficient blocks trade places."""
    neg = (lambda m: -m) if ca.group == Z else (lambda m: tuple(-x for x in m))
    return LinearCA(ca.group, ca.p, ca.dim_v, [neg(m) for m in ca.memory], ca.blocks)


@pytest.mark.parametrize("group", [Z, Z2], ids=["Z", "Z2"])
def test_series_inverse_is_the_python_int_reference(group):
    """Seeded unit-det rules and their reflections cover both ends: the
    lowest block invertible, and only the highest one.  The inverse the
    series returns is C_k Q_end^-1 as the reference computes it, and a
    rule whose series does not end says so at either end."""
    rng = random.Random(73)
    branches = set()
    for _ in range(24):
        p, d = rng.choice((2, 3, 5, 1048573)), rng.randint(1, 3)
        ca = unit_det_rule(rng, group, p, d, rng.randint(1, 4))
        for rule in (ca, _reflected(ca)):
            want = _reference_series(rule)
            series = laurent.inverse_series(rule)
            if want is None:
                assert series.ends is None
                continue
            sign, cells = want
            branches.add((sign == 1, True))
            assert series.ends is True
            got = {m: b.tolist() for m, b in zip(series.inverse.memory, series.inverse.blocks)}
            assert {m: b for m, b in got.items() if any(map(any, b))} == cells, rule
    # Determinants 1 + t and t^2 (1 + t^2) are not monomials; the second
    # rule is singular at its low end, so its series is read from the high
    # end.
    e, t, t2 = (0, 1, 2) if group == Z else ((0, 0), (1, 0), (2, 0))
    stuck = [
        LinearCA(group, 5, 1, (e, t), ([[1]], [[1]])),
        LinearCA(group, 3, 2, (e, t2), ([[1, 0], [0, 0]], [[1, 0], [0, 1]])),
    ]
    for rule in stuck + [_reflected(r) for r in stuck]:
        sign, cells = _reference_series(rule)
        assert cells is None
        branches.add((sign == 1, False))
        assert laurent.inverse_series(rule).ends is False
    assert branches == {(True, True), (False, True), (True, False), (False, False)}


@pytest.mark.parametrize("group", [Z, Z2], ids=["Z", "Z2"])
def test_preimage_is_the_inverse_applied_to_the_target(group):
    """A unit-det rule is bijective, so the one preimage of y is A^-1 y, and
    the extracted window pattern is its restriction."""
    rng = random.Random(59)
    checked = 0
    for _ in range(6):
        ca = unit_det_rule(rng, group, rng.choice((2, 3)), rng.randint(1, 2), 2)
        inverse = invert_ca(ca, 6).inverse
        values = {g: [rng.randrange(ca.p) for _ in range(ca.dim_v)] for g in group.ball(1)}
        target = finite_support(ca.p, ca.dim_v, values)
        result = preimage_extract(ca, target, window_index=1, cutoff=10)
        assert result.status == "ok"
        preimage = inverse.apply_config(target)
        for g in result.window_cells:
            assert np.array_equal(result.pattern.cells[g], preimage.value_at(g, ca.dim_v))
        checked += 1
    assert checked == 6


def test_wide_memory_and_unit_rules_get_their_answers():
    """Wide memory, where an algorithm cubic in the memory span would take
    seconds: {0, 600} with invertible end blocks, and {0, 150, 300} with
    both end blocks singular, where the full search runs.  Unit-det rules are
    inverted and the add rule gets its kernel witness."""
    rng = random.Random(5)
    p = 1048573
    wide = LinearCA(Z, p, 2, (0, 600), (random_matrix(rng, 2, 2, p), random_matrix(rng, 2, 2, p)))
    answer = invert_ca(wide, 3)
    assert isinstance(answer, (NotInvertible, SolverUnknown))
    add = LinearCA(Z, 2, 1, (0, 1), ([[1]], [[1]]))
    assert isinstance(invert_ca(add, 3), NotInvertible)
    units = [gallery.sigma_truncated_ca(4, 3)] + [unit_det_rule(rng, Z, 3, 2) for _ in range(12)]
    units = [ca for ca in units if laurent.inverse_series(ca).ends]
    assert len(units) >= 4
    for ca in units:
        assert isinstance(invert_ca(ca, 8), ReversibilityCertificate)
    assert solver.kernel_witness(add) is not None
    assert solver.surjectivity_counterexample(wide) is None
    blocks = (np.diag([1, 0]), random_matrix(random.Random(7), 2, 2, p), np.diag([0, 1]))
    singular_ends = LinearCA(Z, p, 2, (0, 150, 300), blocks)
    assert laurent.inverse_series(singular_ends).ends is None
    assert isinstance(invert_ca(singular_ends, 3), SolverUnknown)
    assert solver.kernel_witness(singular_ends) is None
    assert solver.surjectivity_counterexample(singular_ends) is None


def test_sigma_is_inverted_without_the_left_inverse_search(monkeypatch):
    """sigma's truncations and a seeded conjugate are inverted by the
    series alone: a fallback to the radius search would solve left-inverse
    systems."""
    calls = []
    search = solver._solve_left_inverse

    def counted(ca, candidates):
        calls.append(len(candidates))
        return search(ca, candidates)

    monkeypatch.setattr(solver, "_solve_left_inverse", counted)
    sigma = gallery.sigma_truncated_ca(8, 2)
    rules = [sigma, gallery.sigma_truncated_ca(12, 2), _unitriangular_conjugate(sigma, random.Random(97))]
    for ca in rules:
        result = invert_ca(ca, 12)
        assert isinstance(result, ReversibilityCertificate) and result.verify()
        ok, _ = jsonio.verify_certificate(jsonio.loads(jsonio.dumps(jsonio.reversible_certificate(result))))
        assert ok
    assert calls == []
