"""The inverse power series on Z and Z^d: it answers as the radius search
does, byte for byte, and decides only what the determinant says."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ca, random_matrix, unit_det_rule
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
