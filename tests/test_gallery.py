"""Infinite-dimensional witnesses: block maps, sigma, sigma-prime, and the
finite truncations cross-checked against the generic engine."""

import random

import numpy as np
import pytest

from linca import ReversibilityCertificate, compose, equals_identity, finite_support, invert_ca
from linca.gallery import (
    GalleryError,
    Tail,
    basis,
    block_end,
    block_of,
    block_start,
    lazy_config,
    phi_matrix,
    phi_power,
    psi,
    sigma_apply,
    sigma_inverse_apply,
    sigma_inverse_truncated_ca,
    sigma_nonreversibility_witness,
    sigma_prime_apply,
    sigma_prime_closure_witness,
    sigma_prime_forced_support,
    sigma_truncated_ca,
    sparse_to_array,
    sparse_vector,
    truncation_dim,
)


def random_sparse_config(rng, p, max_block=6, cell_range=(-4, 4), cells=3):
    out = {}
    top = block_end(max_block)
    for n in rng.sample(range(cell_range[0], cell_range[1] + 1), cells):
        entries = {rng.randint(1, top): rng.randint(1, p - 1) for _ in range(3)}
        out[n] = sparse_vector(p, entries)
    return lazy_config(p, out)


def config_to_finite(x, dim: int):
    """A sparse configuration on blocks <= J as a finite-alphabet one."""
    assert x.tail is None
    return finite_support(x.p, dim, {n: sparse_to_array(v, dim) for n, v in x.cells.items()})


def array_to_sparse(p: int, arr: np.ndarray):
    return sparse_vector(p, {i + 1: int(c) for i, c in enumerate(arr)})


# -- block index arithmetic -----------------------------------------------------


def test_block_index_arithmetic():
    expect = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3, 7: 4, 10: 4, 11: 5, 15: 5, 16: 6}
    for i, j in expect.items():
        assert block_of(i) == j
    for j in range(1, 8):
        assert block_end(j) - block_start(j) + 1 == j
        assert block_of(block_start(j)) == j
        assert block_of(block_end(j)) == j


def test_phi_acts_blockwise():
    v = basis(2, 3)  # top of block 2
    assert phi_power(v, 1) == basis(2, 2)
    assert phi_power(basis(2, 2), 1).is_zero()  # bottom of block 2
    assert phi_power(basis(2, 1), 1).is_zero()  # block 1 is killed outright
    # Nilpotency degree equals the block dimension.
    top = basis(2, block_end(4))
    assert not phi_power(top, 3).is_zero()
    assert phi_power(top, 4).is_zero()


def test_psi_raises_indices():
    assert psi(basis(3, 1)) == basis(3, 2)
    assert psi(sparse_vector(3, {2: 2, 5: 1})) == sparse_vector(3, {3: 2, 6: 1})


# -- sigma -----------------------------------------------------------------------


def test_sigma_zero():
    z = lazy_config(2, {})
    assert sigma_apply(z) == z
    assert sigma_inverse_apply(z) == z


def test_sigma_on_single_block_vector():
    # v3 sits atop block 2: sigma spreads -v2 to the left cell.
    x = lazy_config(2, {1: basis(2, 3)})
    out = sigma_apply(x)
    assert out.value_at(0) == basis(2, 2)  # -v2 = v2 over GF(2)
    assert out.value_at(1) == basis(2, 3)
    assert out.value_at(2).is_zero()


def test_sigma_on_block_one_is_identity():
    x = lazy_config(2, {1: basis(2, 1)})
    assert sigma_apply(x) == x


def test_sigma_inverse_on_single_vector():
    x = lazy_config(2, {1: basis(2, 3)})
    out = sigma_inverse_apply(x)
    assert out.value_at(0) == basis(2, 2)
    assert out.value_at(1) == basis(2, 3)


def test_sigma_gf3_signs():
    x = lazy_config(3, {0: basis(3, 3)})
    out = sigma_apply(x)
    assert out.value_at(-1) == sparse_vector(3, {2: 2})  # -v2 mod 3


def test_sigma_round_trips_randomized():
    for p in (2, 3):
        rng = random.Random(67 + p)
        for _ in range(20):
            x = random_sparse_config(rng, p)
            assert sigma_inverse_apply(sigma_apply(x)) == x
            assert sigma_apply(sigma_inverse_apply(x)) == x


def test_sigma_rejects_tails():
    x = lazy_config(2, {}, Tail("partial-sum", 0))
    with pytest.raises(GalleryError):
        sigma_apply(x)


def test_nonreversibility_witness_examples():
    w2 = sigma_nonreversibility_witness(2)
    assert w2.ok
    assert w2.z.value_at(1) == basis(2, 3)
    assert w2.value_at_zero == basis(2, 2)
    w3 = sigma_nonreversibility_witness(3)
    assert w3.ok
    assert w3.z.value_at(2) == basis(2, 6)
    assert w3.value_at_zero == basis(2, 4)


def test_nonreversibility_witness_range():
    for j0 in range(2, 7):
        for p in (2, 3):
            w = sigma_nonreversibility_witness(j0, p=p)
            assert w.ok, (j0, p)
            assert w.value_at_zero == basis(p, block_start(j0))
            checks = w.checks()
            assert all(checks.values()), (j0, p, checks)


# -- sigma-prime -------------------------------------------------------------------


def test_sigma_prime_zero_and_impulse():
    z = lazy_config(2, {})
    assert sigma_prime_apply(z) == z
    x = lazy_config(2, {0: basis(2, 1)})
    out = sigma_prime_apply(x)
    assert out.value_at(-1) == basis(2, 1)
    assert out.value_at(0) == basis(2, 2)  # -psi(v1) over GF(2)


def test_sigma_prime_partial_sum_tail():
    x = lazy_config(2, {}, Tail("partial-sum", 0))
    assert x.value_at(-1).is_zero()
    assert x.value_at(0) == basis(2, 1)
    assert x.value_at(2) == sparse_vector(2, {1: 1, 2: 1, 3: 1})
    out = sigma_prime_apply(x)
    for n in range(0, 6):
        assert out.value_at(n) == basis(2, 1)


def test_closure_witness_small_windows():
    w0 = sigma_prime_closure_witness(0)
    assert w0.ok and w0.window_values == [(0, basis(2, 1))]
    w3 = sigma_prime_closure_witness(3)
    assert w3.ok and len(w3.window_values) == 7
    assert w3.approximant.value_at(w3.tail_start - 1).is_zero()


def test_forced_support_examples():
    r1 = sigma_prime_forced_support(1)
    assert r1.ok and r1.forced_unit_coordinates == [1]
    r3 = sigma_prime_forced_support(3)
    assert r3.ok and r3.forced_unit_coordinates == [1, 2, 3]
    r12 = sigma_prime_forced_support(12)
    assert r12.ok and r12.forced_unit_coordinates == list(range(1, 13))


def test_forced_support_gf3():
    r = sigma_prime_forced_support(4, p=3)
    assert r.ok and r.forced_unit_coordinates == [1, 2, 3, 4]


# -- truncations --------------------------------------------------------------------


def test_phi_matrix_structure():
    f = phi_matrix(3, 2)
    v3 = np.zeros(6, dtype=np.int64)
    v3[2] = 1  # v3, top of block 2
    assert (f @ v3)[1] == 1  # lands on v2
    v4 = np.zeros(6, dtype=np.int64)
    v4[3] = 1  # v4, bottom of block 3
    assert not np.any(f @ v4)


def test_truncated_sigma_matches_sparse_dynamics():
    rng = random.Random(71)
    for p in (2, 3):
        for j_max in (1, 2, 3):
            dim = truncation_dim(j_max)
            ca = sigma_truncated_ca(j_max, p)
            for _ in range(10):
                x = random_sparse_config(rng, p, max_block=j_max, cells=2)
                finite = config_to_finite(x, dim)
                via_engine = ca.apply_config(finite)
                via_sparse = sigma_apply(x)
                for n in set(via_engine.cells) | set(via_sparse.cells):
                    assert (
                        array_to_sparse(p, via_engine.value_at(n, dim))
                        == via_sparse.value_at(n)
                    )


def test_truncated_inverse_is_exact():
    for p in (2, 3):
        for j_max in (1, 2, 3, 4):
            tau = sigma_truncated_ca(j_max, p)
            nu = sigma_inverse_truncated_ca(j_max, p)
            assert equals_identity(compose(nu, tau))
            assert equals_identity(compose(tau, nu))


def test_synthesized_inverse_matches_closed_form():
    for j_max in (1, 2, 3):
        result = invert_ca(sigma_truncated_ca(j_max, 2), j_max + 1)
        assert isinstance(result, ReversibilityCertificate)
        assert result.inverse == sigma_inverse_truncated_ca(j_max, 2)


def test_inverse_memory_grows_with_block_count():
    for j_max in (1, 2, 3, 4):
        result = invert_ca(sigma_truncated_ca(j_max, 2), j_max)
        assert isinstance(result, ReversibilityCertificate)
        assert result.inverse.memory == tuple(range(j_max))


def test_lazy_config_invariants():
    with pytest.raises(GalleryError):
        lazy_config(2, {5: basis(2, 1)}, Tail("partial-sum", 0))
    cfg = lazy_config(2, {0: sparse_vector(2, {1: 2})})  # 2 = 0 mod 2
    assert not cfg.cells
