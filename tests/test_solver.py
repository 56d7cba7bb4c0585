"""Inverse synthesis, witness searches, universal chains and extraction."""

import gc
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    chains_nonincreasing,
    nonincreasing,
    random_ca,
    random_finite_support,
    random_integer_ca,
    random_matrix,
    reference_rref,
    reference_solve,
    unit_det_rule,
)
from linca import (
    AffineSubspace,
    EmptyFiberWitness,
    FiniteGroup,
    FreeGroup,
    IntegerGroup,
    LatticeGroup,
    LinearCA,
    NotInvertible,
    PeriodicConfig,
    ReversibilityCertificate,
    SolverUnknown,
    WindowSystem,
    compose,
    config_equal,
    cyclic_group,
    equals_identity,
    extract_limit_prefix,
    finite_support,
    identity_ca,
    induce,
    invert_ca,
    kernel_sequence,
    kernel_witness,
    lift_element,
    periodic,
    preimage_extract,
    restrict,
    subgroup_generated,
    surjectivity_counterexample,
    symmetric_group_3,
    universal_spaces,
)
from linca.ca import CAError, coordinates, pattern_to_vec, shift_config, vec_to_pattern
from linca.linalg import solve_affine
from linca.solver import (
    KernelWitness,
    ProjectiveAffineSequence,
    _possible_families,
    _solve_left_inverse,
)
from linca import gallery, jsonio, laurent, solver

Z = IntegerGroup()
NILPOTENT = np.array([[0, 1], [0, 0]], dtype=np.int64)


def shift_ca(p=2):
    return LinearCA(Z, p, 1, (1,), ([[1]],))


def add_rule(p=2):
    """tau(x)(n) = x(n) + x(n+1)."""
    return LinearCA(Z, p, 1, (0, 1), ([[1]], [[1]]))


def sigma2_block_ca(p=2):
    return LinearCA(Z, p, 2, (0, 1), (np.eye(2, dtype=np.int64), (-NILPOTENT) % p))


def zero_ca(p=2, dim_v=2):
    """tau(x) = 0: every window kernel is the whole space."""
    return LinearCA(Z, p, dim_v, (0,), (np.zeros((dim_v, dim_v), dtype=np.int64),))


def restrict_vec(x, cells_m, cells_n, dim_v, p):
    """x on the cells ``cells_m`` restricted to ``cells_n``, through patterns."""
    pattern = vec_to_pattern(x, cells_m, dim_v).restrict(cells_n)
    return pattern_to_vec(pattern, cells_n, dim_v, p)


# -- projective sequences and chains ------------------------------------------


def assert_bonds_map_levels_into_levels(seq, ws, top, seed):
    """f_{nm}(X_m) lies in X_n for n <= m <= top: random members of X_m,
    restricted cell by cell to A_n, lie in X_n, and that restriction is
    their prefix of length ambient(n)."""
    rng, p = np.random.default_rng(seed), seq.p
    for m in range(top + 1):
        x_m = seq.level(m)
        for n in range(m + 1):
            k = seq.ambient(n)
            idx = coordinates(ws.cells(n)[0], ws.cells(m)[0], ws.ca.dim_v)
            for _ in range(3 if not x_m.is_empty else 0):
                x = (x_m.point + rng.integers(0, p, size=x_m.dim) @ x_m.directions.basis) % p
                assert np.array_equal(x[:k], x[idx])
                assert seq.level(n).contains(x[idx])


def test_projective_axioms_on_window_sequences():
    ws = WindowSystem(add_rule())
    seq = ProjectiveAffineSequence(ws, finite_support(2, 1, {0: [1]}))
    assert_bonds_map_levels_into_levels(seq, ws, 4, 0)


RESTRICTION_GROUPS = [
    pytest.param(IntegerGroup(), (0, 1), id="Z"),
    pytest.param(LatticeGroup(2), ((0, 0), (1, 0), (0, 1)), id="Z2"),
    pytest.param(FreeGroup(2), ((), (1,), (-2,)), id="F2"),
    pytest.param(symmetric_group_3(), (0, 1, 3), id="S3"),
]
LEVEL_GROUPS = RESTRICTION_GROUPS + [pytest.param(cyclic_group(6), (0, 1, 3), id="Z6")]


def restriction_windows(group, memory):
    """Windows of a random dimV = 2 rule over GF(3) on the group."""
    return WindowSystem(random_ca(random.Random(3), group, 3, 2, memory))


@pytest.mark.parametrize("group,memory", LEVEL_GROUPS)
def test_restriction_selects_the_cells_of_the_smaller_window(group, memory):
    """Windows nest as prefixes, at the memory offset and at r0 = 0 (the
    windows of ``kernel_sequence``): A_n is ball(r0 + n) and lists A_{n-1}
    first, so the prefix of a window vector is its restriction, read off
    the cells.  Finite groups still saturate."""
    ca = restriction_windows(group, memory).ca
    rng = np.random.default_rng(5)
    for ws in (WindowSystem(ca), WindowSystem(ca, r0=0)):
        saturated = False
        for m in range(5):
            a_m = ws.cells(m)[0]
            assert set(a_m) == set(group.ball(ws.r0 + m))
            saturated |= m > 0 and a_m == ws.cells(m - 1)[0]
            for n in range(m + 1):
                a_n = ws.cells(n)[0]
                assert a_m[: len(a_n)] == a_n
                for _ in range(3):
                    x = rng.integers(0, 3, size=2 * len(a_m))
                    assert np.array_equal(x[: 2 * len(a_n)], restrict_vec(x, a_m, a_n, 2, 3))
        assert saturated == isinstance(group, FiniteGroup)


def test_window_system_offsets():
    """r0 defaults to the largest word norm in the memory; each window
    lists the one below it first."""
    ws = WindowSystem(LinearCA(Z, 2, 1, (0, 2), ([[1]], [[1]])))
    assert ws.r0 == 2
    assert ws.cells(0)[0] == (-2, -1, 0, 1, 2)
    assert ws.cells(1)[0] == (-2, -1, 0, 1, 2, -3, 3)
    assert WindowSystem(ws.ca, r0=0).cells(2)[0] == (0, -1, 1, -2, 2)


@pytest.mark.parametrize("group,memory", RESTRICTION_GROUPS)
def test_projective_axioms_on_every_group_kind(group, memory):
    ws = restriction_windows(group, memory)
    target = random_finite_support(random.Random(4), group, 3, 2, ws.window(0).target)
    seq = ProjectiveAffineSequence(ws, target)
    assert_bonds_map_levels_into_levels(seq, ws, 3, 1)


def deficient_ca(rng, group, p, dim_v, memory):
    """A random rule whose blocks all map into one proper subspace of V, so
    its image misses most targets."""
    proj = np.eye(dim_v, dtype=np.int64)
    proj[:, -1:] = 0
    blocks = tuple(proj @ random_matrix(rng, dim_v, dim_v, p) for _ in memory)
    return LinearCA(group, p, dim_v, memory, blocks)



@pytest.mark.parametrize("group,memory", LEVEL_GROUPS)
def test_levels_match_the_direct_window_solve(group, memory):
    """Each level is built from the one below; it must equal the fiber
    solved from scratch on the whole window map by the reference
    Gauss-Jordan, for images, random targets and targets outside the image
    alike."""
    rng = random.Random(17)
    empty_seen, saturated = set(), False
    for p, dim_v in itertools.product((2, 3), (0, 1, 2)):
        rules = [random_ca(rng, group, p, dim_v, memory)]
        rules += [deficient_ca(rng, group, p, dim_v, memory)] if dim_v else []
        for ca in rules:
            ws = WindowSystem(ca)
            cells = ws.window(3).source
            x = random_finite_support(rng, group, p, dim_v, cells)
            targets = [ca.apply_config(x), random_finite_support(rng, group, p, dim_v, cells)]
            for target in targets:
                seq = ProjectiveAffineSequence(ws, target)
                for m in (3, 0, 1, 2):  # level(3) fills levels 0..3 bottom-up
                    direct = reference_solve(ws.window(m).matrix, ws.target_vec(target, m), p)
                    assert seq.level(m) == direct, (p, dim_v, m)
                    empty_seen.add(direct.is_empty)
                    saturated |= m > 0 and ws.window(m).source == ws.window(m - 1).source
    assert empty_seen == {True, False}
    assert saturated == isinstance(group, FiniteGroup)


def test_preimage_sequence_is_freed_without_the_cycle_collector():
    """The sequence must not hold itself: a reference cycle would keep
    every sequence, its window system and the cached cells of its windows
    alive until a collection."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        seq = ProjectiveAffineSequence(WindowSystem(add_rule()), finite_support(2, 1, {0: [1]}))
        seq.level(3)
        ref = weakref.ref(seq)
        del seq
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("group,memory", LEVEL_GROUPS)
def test_preimage_levels_build_only_their_new_rows(monkeypatch, group, memory):
    """Level n builds one block matrix with at most dimV |B_n minus B_{n-1}|
    rows, never the whole window map, and only when its window grows."""
    rng = random.Random(23)
    ca = random_ca(rng, group, 3, 2, memory)
    ws = WindowSystem(ca)
    target = ca.apply_config(random_finite_support(rng, group, 3, 2, ws.cells(1)[0]))
    shapes = []
    build = LinearCA.block_matrix

    def recorded(self, rows, cols):
        mat = build(self, rows, cols)
        shapes.append(mat.shape)
        return mat

    monkeypatch.setattr(LinearCA, "block_matrix", recorded)
    ProjectiveAffineSequence(ws, target).level(3)
    growing = [n for n in range(4) if n == 0 or ws.cells(n)[0] != ws.cells(n - 1)[0]]
    assert len(shapes) == len(growing)
    for n, (rows, _) in zip(growing, shapes):
        assert rows <= ca.dim_v * len(ws.new_targets(n)), n


def test_preimage_extract_memory_on_sigma_10():
    """sigma_10 (dimV 55) at window 4 and cutoff 24 reaches level 15.  A dense
    W_n per level put the tracemalloc peak near 160 MB; the new rows over
    their reach need under 20 MB."""
    ca = gallery.sigma_truncated_ca(10, 2)
    rng = random.Random(11)
    target = finite_support(
        2, ca.dim_v, {g: [rng.randrange(2) for _ in range(ca.dim_v)] for g in range(-2, 3)}
    )
    tracemalloc.start()
    try:
        result = preimage_extract(ca, target, 4, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "ok"
    assert peak < 40 * 2**20, peak


def test_universal_chain_constant_sequence_plateaus_immediately():
    seq = kernel_sequence(zero_ca())
    chain = universal_spaces(seq, 3, 10)
    assert chain.plateau == 3
    assert chain.stabilized == AffineSubspace.full(seq.ambient(3), 2)
    assert nonincreasing(chain)


def test_kernel_chain_of_add_rule_keeps_constants():
    """Window kernels of x(n)+x(n+1) are the constants; restricted to the
    radius-0 window they fill the whole one-dimensional space."""
    seq = kernel_sequence(add_rule())
    chain = universal_spaces(seq, 0, 8)
    assert chain.plateau is not None
    stab = chain.stabilized
    assert stab.ambient == 1 and stab.dim == 1
    for m in range(9):
        level = seq.level(m)
        # Kernel of each window map is exactly the constants.
        assert level.dim == 1
        member = level.point + level.directions.basis[0]
        assert len(set((member % 2).tolist())) == 1


def test_kernel_chain_of_reversible_rule_dies():
    seq = kernel_sequence(sigma2_block_ca())
    chain = universal_spaces(seq, 0, 6)
    assert chain.plateau is not None
    assert chain.stabilized.dim == 0
    assert chain.stabilized.contains(np.zeros(2, dtype=np.int64))
    assert nonincreasing(chain)
    dims = [img.dim for img in chain.images]
    assert dims == sorted(dims, reverse=True)


def test_lift_element_identity_bonds():
    seq = kernel_sequence(zero_ca())
    x = np.array([1, 0], dtype=np.int64)
    chains = {n: universal_spaces(seq, n, 8) for n in (0, 1)}
    x1 = lift_element(seq, 0, x, chains)
    assert np.array_equal(x1[: seq.ambient(0)], x)
    assert len(x1) == seq.ambient(1) and not np.any(x1[seq.ambient(0) :])


def test_lift_element_shift_preimage_chain():
    ws = WindowSystem(shift_ca())
    seq = ProjectiveAffineSequence(ws, finite_support(2, 1, {0: [1]}))
    chain0 = universal_spaces(seq, 0, 10)
    x0 = chain0.stabilized.point
    x1 = lift_element(seq, 0, x0, {n: universal_spaces(seq, n, 10) for n in (0, 1)})
    assert np.array_equal(x1[: seq.ambient(0)], x0)
    # The same restriction read off the cells, without the prefix.
    a0, a1 = ws.window(0).source, ws.window(1).source
    assert np.array_equal(restrict_vec(x1, a1, a0, 1, 2), x0)


def test_lift_element_sigma2_preimage_chain():
    target = finite_support(2, 2, {0: [1, 1]})
    ws = WindowSystem(sigma2_block_ca())
    seq = ProjectiveAffineSequence(ws, target)
    chain0 = universal_spaces(seq, 0, 10)
    x0 = chain0.stabilized.point
    x1 = lift_element(seq, 0, x0, {n: universal_spaces(seq, n, 10) for n in (0, 1)})
    assert x1.shape[0] == seq.ambient(1)


def test_extraction_single_point_chain():
    ca = identity_ca(Z, 2, 1)
    target = finite_support(2, 1, {0: [1]})
    result = preimage_extract(ca, target, window_index=3, cutoff=8)
    assert result.status == "ok"
    assert result.pattern.cells[0].tolist() == [1]
    assert all(
        not np.any(v) for g, v in result.pattern.cells.items() if g != 0
    )


def test_extraction_shift_delta():
    res = preimage_extract(shift_ca(), finite_support(2, 1, {0: [1]}), 4, 10)
    assert res.status == "ok"
    # tau(x)(n) = x(n+1) pulls the impulse back to cell 1.
    for g, v in res.pattern.cells.items():
        assert v.tolist() == ([1] if g == 1 else [0])
    assert chains_nonincreasing(res)
    assert lifts_restrict(shift_ca(), res, 4)


def lifts_restrict(ca, result, window) -> bool:
    """The extracted chain has one point per level up to the window, and
    each restricts to the one below it."""
    ws, points = WindowSystem(ca), result.level_points
    return len(points) == window + 1 and all(
        np.array_equal(
            points[n + 1][coordinates(ws.cells(n)[0], ws.cells(n + 1)[0], ca.dim_v)], points[n]
        )
        for n in range(window)
    )


def test_extraction_add_rule_step_configuration():
    """The impulse target for x(n)+x(n+1) has no finitely supported
    preimage; extraction still produces a window prefix, one of the two
    step configurations (the canonical coset representative)."""
    res = preimage_extract(add_rule(), finite_support(2, 1, {0: [1]}), 5, 12)
    assert res.status == "ok"
    cells = res.pattern.cells
    window = sorted(cells)
    values = [int(cells[g][0]) for g in window]
    step_up = [1 if g >= 1 else 0 for g in window]
    step_down = [1 if g <= 0 else 0 for g in window]
    assert values in (step_up, step_down)
    # Canonical tie-break picks the lexicographically smallest member.
    assert values == step_up
    # The image matches the target on the matched window.
    ws = WindowSystem(add_rule())
    w = ws.window(5)
    vec = pattern_to_vec(res.pattern, w.source, 1, 2)
    assert np.array_equal((w.matrix @ vec) % 2, ws.target_vec(finite_support(2, 1, {0: [1]}), 5))


def test_extraction_not_in_image_reports_empty_level():
    proj = LinearCA(Z, 2, 2, (0,), (np.diag([1, 0]),))
    target = finite_support(2, 2, {0: [0, 1]})
    res = preimage_extract(proj, target, 3, 8)
    assert res.status == "not-in-image"
    assert res.witness is not None and res.witness.verify()
    # Memory {0}: X_0 is already empty, and the chain at level 0 finds it.
    assert res.witness.level == 0
    seq = ProjectiveAffineSequence(WindowSystem(proj), target)
    direct = extract_limit_prefix(seq, 3, 8)
    assert (direct.status, direct.witness.level) == ("not-in-image", 0)


def test_finite_group_plateau_waits_for_the_whole_group():
    """On Z/6 generated by 1 with memory {0, 1, 5}, A_0 = {0, 1, 5} and
    the window is G from level 2 on.  Two equal images below that level
    can still shrink, so a plateau counts only from there: no answer is
    Unknown, and each agrees with the |G| dimV system over all of G."""
    z6 = FiniteGroup(cyclic_group(6).table, generator_ids=[1])
    cells, d, p = z6.elements(), 2, 3
    statuses = []
    for seed in range(17, 30):
        rng = random.Random(seed)
        ca = random_ca(rng, z6, p, d, (0, 1, 5))
        ws = WindowSystem(ca)
        assert not ws.covers_group(1) and ws.covers_group(2)
        rows = np.zeros((d * len(cells), d * len(cells)), dtype=np.int64)
        for g in cells:
            for m, b in zip(ca.memory, ca.blocks):
                h = z6.multiply(g, m)
                rows[g * d : g * d + d, h * d : h * d + d] += b
        image = ca.apply_config(random_finite_support(rng, z6, p, d, ws.cells(0)[0]))
        other = random_finite_support(rng, z6, p, d, cells)
        for target in (image, other):
            y = pattern_to_vec(target, cells, d, p)
            solvable = not reference_solve(rows, y, p).is_empty
            res = preimage_extract(ca, target, 2, 8)
            statuses.append(res.status)
            if res.status == "ok":
                x = pattern_to_vec(res.pattern, cells, d, p)
                assert np.array_equal(rows @ x % p, y)
            else:
                assert res.status == "not-in-image" and res.witness.verify()
            assert solvable is (res.status == "ok"), seed
        assert statuses[-2] == "ok"
    assert "unknown" not in statuses and "not-in-image" in statuses


@pytest.mark.parametrize("group", [FreeGroup(2), cyclic_group(6)], ids=["F2", "Z6"])
def test_periodic_target_off_the_integers_is_rejected(group):
    """A periodic configuration lives on Z only: preimage_extract rejects
    one on another group before any level is built, with the error that
    apply_config and shift_config raise."""
    ca = identity_ca(group, 2, 1)
    target = periodic(2, 1, [[1], [0]])
    for call in (
        lambda: preimage_extract(ca, target, 1, 4),
        lambda: ca.apply_config(target),
        lambda: shift_config(group, group.identity(), target),
    ):
        with pytest.raises(CAError, match="integer group"):
            call()


@pytest.mark.parametrize("bad,plateau_k", [(2, 2), (3, 4), (4, 5)])
def test_extraction_empty_level_above_the_window(bad, plateau_k):
    """The target leaves the image only at cell ``bad``, above window 1, so
    the first empty level is found in an image chain past the window; it
    must be the smallest level m with X_m empty."""
    proj = LinearCA(Z, 2, 2, (0, 1), (np.diag([1, 0]), [[1, 1], [0, 0]]))
    target = finite_support(2, 2, {bad: [0, 1]})
    seq = ProjectiveAffineSequence(WindowSystem(proj), target)
    res = extract_limit_prefix(seq, 1, 8, plateau_k)
    first = next(m for m in range(9) if seq.level(m).is_empty)
    assert res.status == "not-in-image"
    assert res.witness.level == first > 1


def test_extraction_periodic_and_constant_targets():
    ca = add_rule(3)
    res = preimage_extract(ca, periodic(3, 1, [[2], [1]]), 3, 10)
    assert res.status == "ok"
    res2 = preimage_extract(ca, periodic(3, 1, [[0]]), 3, 10)
    assert res2.status == "ok"


# -- inverse synthesis -----------------------------------------------------------


def test_invert_shift():
    result = invert_ca(shift_ca(), 4)
    assert isinstance(result, ReversibilityCertificate)
    assert result.radius == 1
    assert result.inverse.support_memory == (-1,)
    assert result.verify()


def test_invert_sigma2_block():
    result = invert_ca(sigma2_block_ca(), 4)
    assert isinstance(result, ReversibilityCertificate)
    expected = LinearCA(Z, 2, 2, (0, 1), (np.eye(2, dtype=np.int64), NILPOTENT))
    assert result.inverse == expected
    assert result.verify()


def test_invert_add_rule_returns_kernel_witness():
    result = invert_ca(add_rule(), 4)
    assert isinstance(result, NotInvertible)
    witness = result.witness
    assert isinstance(witness, KernelWitness)
    assert isinstance(witness.config, PeriodicConfig)
    assert witness.config.values[0].tolist() == [1]
    assert witness.verify()


def test_invert_identity_and_zero():
    assert isinstance(invert_ca(identity_ca(Z, 3, 2), 2), ReversibilityCertificate)
    zero = LinearCA(Z, 2, 1, (0,), ([[0]],))
    res = invert_ca(zero, 2)
    assert isinstance(res, NotInvertible)


def test_invert_unknown_at_small_cutoff():
    deep = gallery.sigma_truncated_ca(4, 2)  # inverse needs memory {0..3}
    res = invert_ca(deep, 1)
    assert isinstance(res, SolverUnknown)
    res_full = invert_ca(deep, 4)
    assert isinstance(res_full, ReversibilityCertificate)


def test_invert_on_lattice_group():
    lat = LatticeGroup(2)
    n = NILPOTENT
    ca = LinearCA(lat, 2, 2, ((0, 0), (1, 0)), (np.eye(2, dtype=np.int64), n))
    res = invert_ca(ca, 3)
    assert isinstance(res, ReversibilityCertificate)
    assert res.inverse.support_memory == ((0, 0), (1, 0))


def test_invert_and_preimage_on_free_group():
    from linca import FreeGroup

    f = FreeGroup(2)
    ca = LinearCA(f, 2, 1, ((1,),), ([[1]],))  # tau(x)(g) = x(g a)
    res = invert_ca(ca, 2)
    assert isinstance(res, ReversibilityCertificate)
    assert res.inverse.support_memory == ((-1,),)
    target = finite_support(2, 1, {(): [1]})
    pre = preimage_extract(ca, target, window_index=2, cutoff=5)
    assert pre.status == "ok"
    live = {g for g, v in pre.pattern.cells.items() if np.any(v)}
    assert live == {(1,)}


def test_invert_dim_zero_is_trivially_reversible():
    ca = LinearCA(Z, 2, 0, (0, 1), (np.zeros((0, 0)), np.zeros((0, 0))))
    res = invert_ca(ca, 2)
    assert isinstance(res, ReversibilityCertificate)


def _left_inverse_case(rng, group, p, d):
    """A rule and the candidate memory for its left inverse.  Off Z about
    half the rules are (I + U delta_a) o (I + U^T delta_b) with a b != b a
    and U nonzero strictly upper triangular: invertible, with the nonzero
    block U^T U of the inverse at b a."""
    if isinstance(group, IntegerGroup):
        return random_integer_ca(rng, p, d), tuple(range(-1, 2))
    candidates = group.elements() if group.is_finite() else group.ball(2)
    if rng.random() < 0.5:
        memory = rng.sample(group.ball(1), rng.randint(1, 3))
        return random_ca(rng, group, p, d, memory), candidates
    mul, ball = group.multiply, group.ball(1)
    a, b = next((a, b) for a in ball for b in ball if mul(a, b) != mul(b, a))
    e, eye = group.identity(), np.eye(2, dtype=np.int64)
    upper = np.array([[0, rng.randrange(1, p)], [0, 0]])
    ca = compose(
        LinearCA(group, p, 2, (e, a), (eye, upper)),
        LinearCA(group, p, 2, (e, b), (eye, upper.T)),
    )
    return ca, candidates


def _check_left_inverse_against_scalar_system(group):
    """The blockwise left-inverse solve agrees with a naive scalar system
    posed equation by equation from the products w m (solvability and the
    composed result), and both outcomes occur."""
    rng = random.Random(73)
    solvable = set()
    for _ in range(12):
        p = rng.choice((2, 3))
        d = rng.choice((1, 2))
        ca, candidates = _left_inverse_case(rng, group, p, d)
        d = ca.dim_v
        fast = _solve_left_inverse(ca, candidates)

        # Scalar route: unknowns C_w[i, k] indexed densely.
        unknowns = {(w, i, k): idx for idx, (w, i, k) in enumerate(
            itertools.product(candidates, range(d), range(d))
        )}
        products = {}
        for w in candidates:
            for m, bm in zip(ca.memory, ca.blocks):
                products.setdefault(group.multiply(w, m), []).append((w, bm))
        rows = []
        rhs = []
        for u, pairs in products.items():
            for i in range(d):
                for j in range(d):
                    row = np.zeros(len(unknowns), dtype=np.int64)
                    for w, bm in pairs:
                        for k in range(d):
                            row[unknowns[(w, i, k)]] += bm[k, j]
                    rows.append(row % p)
                    rhs.append(1 if (u == group.identity() and i == j) else 0)
        sols = solve_affine(np.array(rows), np.array(rhs), p)
        assert (fast is not None) == (not sols.is_empty)
        solvable.add(fast is not None)
        if fast is not None:
            nu = LinearCA(group, p, d, candidates, fast)
            assert equals_identity(compose(nu, ca))
    assert solvable == {True, False}


def test_left_inverse_system_matches_scalar_brute_force():
    """On S3 and F2 the order of w m matters: a system read on m w fails."""
    for group in (Z, symmetric_group_3(), FreeGroup(2)):
        _check_left_inverse_against_scalar_system(group)


# -- kernel witnesses ---------------------------------------------------------------


def test_kernel_witness_identity_none():
    assert kernel_witness(identity_ca(Z, 2, 1), 3, 3) is None


def test_kernel_witness_add_rule_periodic_constant():
    w = kernel_witness(add_rule(), 3, 3)
    assert isinstance(w, PeriodicConfig)
    assert w.values[0].tolist() == [1]


def test_kernel_witness_difference_rule_gf3():
    ca = LinearCA(Z, 3, 1, (0, 1), ([[-1]], [[1]]))
    w = kernel_witness(ca, 3, 3)
    assert isinstance(w, PeriodicConfig)
    assert int(w.values[0][0]) != 0
    assert KernelWitness(ca, w).verify()


def test_kernel_witness_zero_rule_finite_support():
    zero = LinearCA(Z, 2, 1, (0,), ([[0]],))
    w = kernel_witness(zero, 2, 2)
    assert w is not None and KernelWitness(zero, w).verify()


# -- surjectivity counterexamples ------------------------------------------------------


def test_surjectivity_zero_rule():
    zero = LinearCA(Z, 2, 1, (0,), ([[0]],))
    witness = surjectivity_counterexample(zero, 3)
    assert witness is not None and witness.level == 0
    assert witness.verify()


def test_surjectivity_shift_none():
    assert surjectivity_counterexample(shift_ca(), 3) is None


def test_surjectivity_projection_rule():
    proj = LinearCA(Z, 2, 2, (0,), (np.diag([1, 0]),))
    witness = surjectivity_counterexample(proj, 3)
    assert witness is not None and witness.verify()
    vec = np.concatenate([witness.pattern.cells[g] for g in witness.window_cells])
    assert np.any(vec)


def test_one_fiber_elimination_per_distinct_window(monkeypatch):
    """On Z/6 with generators {1}, x(g) + x(g + 2) over GF(3) is bijective,
    but ball(2) is not the group, so at radius 2 the decision has not run
    and every window is searched.  r0 = 2 makes A_1 = A_2 = G while ball(2)
    still grows: the repeated window is not eliminated again."""
    z6 = FiniteGroup(cyclic_group(6).descriptor()["table"], [1])
    ca = LinearCA(z6, 3, 1, (0, 2), ([[1]], [[1]]))
    ws = WindowSystem(ca)
    assert ws.r0 == 2 and set(z6.ball(2)) != set(range(6))
    assert ws.cells(1)[0] == ws.cells(2)[0]
    levels = []
    search = solver._window_fiber_counterexample

    def recorded(ca, n, ws):
        levels.append(n)
        return search(ca, n, ws)

    monkeypatch.setattr(solver, "_window_fiber_counterexample", recorded)
    assert surjectivity_counterexample(ca, 2) is None
    assert levels == [0, 1]


def test_negative_search_bounds_are_rejected():
    with pytest.raises(ValueError):
        surjectivity_counterexample(shift_ca(), -1)
    for bounds in ((-1, -1), (-1, 2), (2, -3)):
        with pytest.raises(ValueError):
            kernel_witness(add_rule(), *bounds)
    # Zero bounds still search: the radius-0 ball, period 1.
    assert surjectivity_counterexample(LinearCA(Z, 2, 1, (0,), ([[0]],)), 0) is not None
    assert kernel_witness(add_rule(), 0, 0) is None
    assert kernel_witness(add_rule(), 0, 1) is not None


@pytest.mark.parametrize(
    "group",
    [Z, LatticeGroup(2), FreeGroup(2), symmetric_group_3()],
    ids=["Z", "Z2", "F2", "S3"],
)
def test_empty_fiber_ranks_match_reference_elimination(group):
    """EmptyFiberWitness.ranks against a textbook Gauss-Jordan on Python
    integers, for random patterns on B_n; verify() holds exactly when the
    pattern column raises the reference rank by one."""
    rng = random.Random(83)
    outcomes = set()
    for _ in range(16):
        p = rng.choice((2, 3))
        d = rng.choice((1, 2))
        memory = rng.sample(group.ball(1), rng.randint(1, min(3, len(group.ball(1)))))
        ca = random_ca(rng, group, p, d, memory)
        if rng.random() < 0.5:
            # Every output then lies in the first coordinate line of V.
            head = np.diag([1] + [0] * (d - 1))
            ca = LinearCA(group, p, d, ca.memory, [head @ b for b in ca.blocks])
        n = rng.choice((0, 1))
        w = WindowSystem(ca).window(n)
        mat = w.matrix
        if rng.random() < 0.5:
            vec = random_matrix(rng, mat.shape[0], 1, p).reshape(-1)
        else:
            vec = mat @ random_matrix(rng, mat.shape[1], 1, p).reshape(-1) % p
        witness = EmptyFiberWitness(ca, n, w.target, vec_to_pattern(vec, w.target, d))
        rows = mat.tolist()
        r_plain = len(reference_rref(rows, mat.shape[1], p)[1])
        augmented = [row + [int(v)] for row, v in zip(rows, vec)]
        r_aug = len(reference_rref(augmented, mat.shape[1] + 1, p)[1])
        assert witness.ranks == (r_plain, r_aug)
        assert witness.verify() == (r_aug == r_plain + 1)
        outcomes.add(witness.verify())
    assert outcomes == {True, False}


# -- transport across induction ----------------------------------------------------------


def test_invert_transports_across_induction():
    lat = LatticeGroup(2)
    sub = subgroup_generated(lat, ((1, 0),))
    tau_h = sigma2_block_ca()
    tau_g = induce(tau_h, sub)
    res_h = invert_ca(tau_h, 4)
    res_g = invert_ca(tau_g, 4)
    assert isinstance(res_h, ReversibilityCertificate)
    assert isinstance(res_g, ReversibilityCertificate)
    assert restrict(res_g.inverse, sub) == res_h.inverse
    assert induce(res_h.inverse, sub) == res_g.inverse


def test_nonreversibility_transports_across_induction():
    lat = LatticeGroup(2)
    sub = subgroup_generated(lat, ((1, 0),))
    tau_g = induce(add_rule(), sub)
    res = invert_ca(tau_g, 3)
    assert isinstance(res, NotInvertible)


def test_preimage_transports_across_induction():
    lat = LatticeGroup(2)
    sub = subgroup_generated(lat, ((1, 0),))
    tau_h = sigma2_block_ca()
    tau_g = induce(tau_h, sub)
    target_h = finite_support(2, 2, {0: [1, 0]})
    target_g = finite_support(2, 2, {(0, 0): [1, 0]})
    res_h = preimage_extract(tau_h, target_h, 2, 8)
    res_g = preimage_extract(tau_g, target_g, 2, 8)
    assert res_h.status == "ok" and res_g.status == "ok"
    # The lattice preimage restricted to the embedded line matches an
    # integer preimage of the restricted target (both are exact preimages).
    line_values = {
        g[0]: v for g, v in res_g.pattern.cells.items() if g[1] == 0 and np.any(v)
    }
    image_h = tau_h.apply_config(finite_support(2, 2, line_values))
    assert config_equal(Z, 2, image_h, target_h)


# -- randomized round trip: extract then re-apply -------------------------------------------


def test_preimage_roundtrip_randomized():
    rng = random.Random(61)
    failures = 0
    for _ in range(25):
        p = rng.choice((2, 3))
        dim_v = rng.choice((1, 2))
        ca = random_integer_ca(rng, p, dim_v)
        x = random_finite_support(rng, Z, p, dim_v, range(-2, 3))
        y = ca.apply_config(x)
        res = preimage_extract(ca, y, 4, 12)
        assert res.status == "ok"
        ws = WindowSystem(ca)
        w = ws.window(4)
        vec = pattern_to_vec(res.pattern, w.source, dim_v, p)
        assert np.array_equal((w.matrix @ vec) % p, ws.target_vec(y, 4))
        assert chains_nonincreasing(res)
        assert lifts_restrict(ca, res, 4)
    assert failures == 0


# -- the inverse series and the searches it rules out ---------------------------


def laurent_rules(count, seed):
    """Seeded rules over Z: p in (2, 3, 5, 7, 1048573), dimV 0-3, memory in
    [-2, 2]; every third rule has rank-1 blocks u_m v_m^T sharing v or, in
    turn, u, so its determinant is 0 once dimV >= 2."""
    rng = random.Random(seed)
    for i in range(count):
        p = rng.choice((2, 3, 5, 7, 1048573))
        d = rng.randrange(4)
        memory = rng.sample(range(-2, 3), rng.randint(1, 3))
        if i % 3 == 0:
            u, v = random_matrix(rng, d, 1, p), random_matrix(rng, 1, d, p)
            shared_v = i % 2 == 0
            blocks = [
                (random_matrix(rng, d, 1, p) @ v if shared_v else u @ random_matrix(rng, 1, d, p)) % p
                for _ in memory
            ]
        else:
            blocks = [random_matrix(rng, d, d, p) for _ in memory]
        yield LinearCA(Z, p, d, memory, blocks)


# det P(t) = t, a unit, while both end blocks are singular: the series cannot tell.
UNIT_SINGULAR_AT_ZERO = LinearCA(Z, 3, 2, (0, 1), (np.diag([0, 1]), np.diag([1, 0])))
# det P(t) = t (t + 1): the lowest block is singular and the highest is I.
SINGULAR_LOWEST_BLOCK = LinearCA(Z, 2, 2, (0, 1), (np.diag([0, 1]), np.eye(2, dtype=np.int64)))
# Both end blocks singular, so the series cannot tell and every search runs,
# on Z all but the constant one (det P = t (t + 1)^2 over GF(2)).
BOTH_ENDS_SINGULAR = LinearCA(Z, 2, 2, (0, 1, 2), (np.diag([0, 1]), np.diag([1, 0]), np.diag([0, 1])))
BOTH_ENDS_SINGULAR_Z2 = LinearCA(
    LatticeGroup(2), 3, 2, ((0, 0), (0, 1), (1, 0)), (np.diag([1, 0]), np.diag([0, 1]), np.eye(2, dtype=np.int64))
)


def test_possible_families_follow_the_series():
    def families(ca):
        return _possible_families(ca, laurent.inverse_series(ca))

    every = {"left-inverse", "support", "constant", "periodic", "fiber"}
    assert families(UNIT_SINGULAR_AT_ZERO) == every - {"constant"}
    assert families(add_rule()) == {"periodic"}
    zero = LinearCA(Z, 2, 1, (0,), ([[0]],))
    assert families(zero) == every - {"constant"}
    assert families(BOTH_ENDS_SINGULAR) == every - {"constant"}
    # The highest block is I, so the series runs from it.
    assert families(SINGULAR_LOWEST_BLOCK) == {"periodic"}
    square = LinearCA(LatticeGroup(2), 2, 1, ((0, 0), (1, 0)), ([[1]], [[1]]))
    assert families(square) == {"constant"}
    assert families(BOTH_ENDS_SINGULAR_Z2) == every
    sigma = gallery.sigma_truncated_ca(3, 2)
    assert families(sigma) == {"left-inverse"}


def _unitriangular_conjugate(ca, rng):
    """P^-1 ca P for a seeded unit lower triangular P = I + N, whose inverse
    is I - N + N^2 - ... since N is nilpotent."""
    d, p = ca.dim_v, ca.p
    n = np.tril(random_matrix(rng, d, d, p), -1)
    inv, power = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
    for k in range(1, d):
        power = power @ n % p
        inv = (inv + (-1) ** k * power) % p
    mat = (np.eye(d, dtype=np.int64) + n) % p
    blocks = [inv @ b % p @ mat % p for b in ca.blocks]
    return LinearCA(Z, p, d, ca.memory, blocks)


def _visible_answers(ca, max_radius):
    """What a caller sees of invert_ca, kernel_witness and
    surjectivity_counterexample: result types, certificate bytes, reasons."""
    result = invert_ca(ca, max_radius)
    if isinstance(result, SolverUnknown):
        text = result.reason
    elif isinstance(result, ReversibilityCertificate):
        text = jsonio.dumps(jsonio.reversible_certificate(result))
    elif isinstance(result.witness, KernelWitness):
        text = jsonio.dumps(jsonio.kernel_witness_certificate(result.witness))
    else:
        text = jsonio.dumps(jsonio.empty_fiber_certificate(result.witness))
    config = kernel_witness(ca, 2, 3)
    fiber = surjectivity_counterexample(ca, 3)
    return (
        type(result).__name__,
        type(getattr(result, "witness", None)).__name__,
        text,
        config and jsonio.dumps(jsonio.kernel_witness_certificate(KernelWitness(ca, config))),
        fiber and jsonio.dumps(jsonio.empty_fiber_certificate(fiber)),
    )


def lattice_rules(count, seed):
    """Seeded rules over Z^2 with memory in ball(1): every third has a unit
    determinant, and the rest the rank-1 blocks of ``laurent_rules`` or
    random ones."""
    rng = random.Random(seed)
    z2 = LatticeGroup(2)
    for i in range(count):
        p, d = rng.choice((2, 3, 5)), rng.randint(1, 3)
        if i % 3 == 0:
            yield unit_det_rule(rng, z2, p, d)
            continue
        memory = rng.sample(z2.ball(1), rng.randint(1, 3))
        if i % 3 == 1:
            v = random_matrix(rng, 1, d, p)
            blocks = [random_matrix(rng, d, 1, p) @ v % p for _ in memory]
        else:
            blocks = [random_matrix(rng, d, d, p) for _ in memory]
        yield LinearCA(z2, p, d, memory, blocks)


def test_pruned_searches_give_the_full_search_answers(monkeypatch):
    """Every entry point answers byte for byte as with every family searched,
    which is what a series that stays undecided runs."""
    rng = random.Random(23)
    cases = [(ca, 2) for ca in laurent_rules(45, 29)]
    cases += [(UNIT_SINGULAR_AT_ZERO, 2), (SINGULAR_LOWEST_BLOCK, 2), (add_rule(3), 2)]
    cases += [(BOTH_ENDS_SINGULAR, 2), (BOTH_ENDS_SINGULAR_Z2, 2)]
    cases += [(ca, 2) for ca in lattice_rules(18, 31)]
    for j, p in ((2, 2), (3, 3), (4, 2), (5, 3)):
        sigma = gallery.sigma_truncated_ca(j, p)
        cases += [(sigma, j), (sigma, j - 2), (_unitriangular_conjugate(sigma, rng), j)]
    families = set()
    for ca, max_radius in cases:
        families.add(_possible_families(ca, laurent.inverse_series(ca)))
        pruned = _visible_answers(ca, max_radius)
        with monkeypatch.context() as m:
            m.setattr(laurent, "inverse_series", lambda ca: laurent.UNDECIDED)
            assert _visible_answers(ca, max_radius) == pruned
    every = frozenset({"left-inverse", "support", "constant", "periodic", "fiber"})
    assert families == {
        frozenset({"left-inverse"}),
        frozenset({"periodic"}),
        frozenset({"constant"}),
        every - {"constant"},
        every,
    }
