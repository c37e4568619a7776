"""Mock text encoder: determinism, geometry, and derivative correctness."""

import numpy as np
import pytest

from ovlab.core import DimensionMismatchError
from ovlab.encoder import CONTEXT_INIT_STD, MockTextEncoder, init_context_vectors

from oracles import encode_context_jvp


@pytest.fixture(scope="module")
def enc():
    return MockTextEncoder(seed=11)


def test_encoder_determinism_across_constructions():
    a = MockTextEncoder(seed=4)
    b = MockTextEncoder(seed=4)
    v = np.linspace(-1, 1, a.ctx_dim)
    assert np.array_equal(a.encode_context(v), b.encode_context(v))
    assert np.array_equal(a.encode_named_category(42), b.encode_named_category(42))


def test_encoder_seed_changes_weights():
    a = MockTextEncoder(seed=4)
    b = MockTextEncoder(seed=5)
    v = np.zeros(a.ctx_dim)
    assert not np.allclose(a.encode_context(v), b.encode_context(v))


def test_outputs_unit_norm(enc):
    rng = np.random.default_rng(0)
    for _ in range(50):
        e = enc.encode_context(rng.normal(0, 1.5, enc.ctx_dim))
        assert abs(np.linalg.norm(e) - 1.0) < 1e-12


def test_encode_context_smoothness(enc):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(enc.ctx_dim)
    delta = rng.standard_normal(enc.ctx_dim)
    delta *= 1e-8 / np.linalg.norm(delta)
    a = enc.encode_context(v)
    b = enc.encode_context(v + delta)
    assert 1.0 - float(a @ b) < 1e-6


def test_zero_context_fixed_embedding(enc):
    a = enc.encode_context(np.zeros(enc.ctx_dim))
    b = enc.encode_context(np.zeros(enc.ctx_dim))
    assert np.array_equal(a, b)


def test_encode_context_dimension_error(enc):
    with pytest.raises(DimensionMismatchError):
        enc.encode_context(np.zeros(enc.ctx_dim + 1))


def test_row_stack_matches_per_row_calls(enc):
    rng = np.random.default_rng(12)
    v = rng.normal(0, 1.2, (9, enc.ctx_dim))
    g = rng.standard_normal((9, enc.dim))
    np.testing.assert_allclose(
        enc.encode_context(v), np.stack([enc.encode_context(row) for row in v]), rtol=1e-12
    )
    np.testing.assert_allclose(
        enc.encode_context_vjp(v, g),
        np.stack([enc.encode_context_vjp(row, cot) for row, cot in zip(v, g)]),
        rtol=1e-12,
    )


def test_one_row_stack_equals_vector_call_exactly(enc):
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = rng.normal(0, 1.2, enc.ctx_dim)
        g = rng.standard_normal(enc.dim)
        assert np.array_equal(enc.encode_context(v[None])[0], enc.encode_context(v))
        assert np.array_equal(enc.encode_context_vjp(v[None], g[None])[0], enc.encode_context_vjp(v, g))


@pytest.mark.parametrize("rows", [None, 1, 7], ids=["vector", "one_row", "stack"])
def test_vjp_through_a_kept_forward_equals_a_fresh_forward(enc, rows):
    # Training encodes the context vectors once per step and pulls back through
    # that forward; it must give the bytes of a pullback that runs its own.
    rng = np.random.default_rng(14)
    shape = () if rows is None else (rows,)
    for _ in range(10):
        v = rng.normal(0, 1.2, shape + (enc.ctx_dim,))
        g = rng.standard_normal(shape + (enc.dim,))
        forward = enc.forward(v)
        kept = enc.encode_context_vjp(v, g, forward=forward)
        fresh = enc.encode_context_vjp(v, g)
        assert kept.shape == fresh.shape and kept.tobytes() == fresh.tobytes()
        encoded = enc.encode_context(v)
        assert forward.embeddings.reshape(encoded.shape).tobytes() == encoded.tobytes()


def test_vjp_refuses_a_forward_of_other_rows(enc):
    v = np.zeros((3, enc.ctx_dim))
    with pytest.raises(DimensionMismatchError, match="forward of 2 rows"):
        enc.encode_context_vjp(v, np.zeros((3, enc.dim)), forward=enc.forward(v[:2]))


def test_row_stack_shape_errors(enc):
    v = np.zeros((3, enc.ctx_dim))
    with pytest.raises(DimensionMismatchError):
        enc.encode_context(np.zeros((2, 3, enc.ctx_dim)))
    with pytest.raises(DimensionMismatchError):
        enc.encode_context_vjp(v, np.zeros((2, enc.dim)))
    with pytest.raises(DimensionMismatchError):
        enc.encode_context_vjp(v, np.zeros(enc.dim))
    with pytest.raises(DimensionMismatchError):
        encode_context_jvp(enc, v, v)


def test_jvp_zero_direction(enc):
    v = np.ones(enc.ctx_dim) * 0.1
    np.testing.assert_array_equal(encode_context_jvp(enc, v, np.zeros(enc.ctx_dim)), 0.0)


def test_jvp_linearity(enc):
    rng = np.random.default_rng(2)
    v = rng.standard_normal(enc.ctx_dim)
    d1 = rng.standard_normal(enc.ctx_dim)
    d2 = rng.standard_normal(enc.ctx_dim)
    lhs = encode_context_jvp(enc, v, d1 + d2)
    rhs = encode_context_jvp(enc, v, d1) + encode_context_jvp(enc, v, d2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_jvp_basis_directions_match_central_differences(enc):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(enc.ctx_dim)
    h = 1e-5
    for i in range(enc.ctx_dim):
        e = np.zeros(enc.ctx_dim)
        e[i] = 1.0
        fd = (enc.encode_context(v + h * e) - enc.encode_context(v - h * e)) / (2 * h)
        an = encode_context_jvp(enc, v, e)
        rel = np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


def test_jvp_random_pairs_match_central_differences(enc):
    rng = np.random.default_rng(4)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        v = rng.normal(0, 1.2, enc.ctx_dim)
        d = rng.standard_normal(enc.ctx_dim)
        fd = (enc.encode_context(v + h * d) - enc.encode_context(v - h * d)) / (2 * h)
        an = encode_context_jvp(enc, v, d)
        worst = max(worst, np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-12))
    assert worst < 1e-5


def test_vjp_jvp_duality(enc):
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(enc.ctx_dim)
        d = rng.standard_normal(enc.ctx_dim)
        g = rng.standard_normal(enc.dim)
        lhs = float(g @ encode_context_jvp(enc, v, d))
        rhs = float(enc.encode_context_vjp(v, g) @ d)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_named_category_determinism_and_distinctness(enc):
    a = enc.encode_named_category(3)
    b = enc.encode_named_category(3)
    c = enc.encode_named_category(4)
    assert np.array_equal(a, b)
    assert float(a @ c) < 1.0
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_init_context_vectors_determinism():
    a = init_context_vectors(7, seed=9)
    b = init_context_vectors(7, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, init_context_vectors(7, seed=10))


def test_init_context_vectors_default_count_distinct():
    # One per estimated category plus the safety expansion of ten.
    vs = init_context_vectors(11, seed=0)
    assert vs.shape == (11, 16)
    for i in range(11):
        for j in range(i + 1, 11):
            assert not np.array_equal(vs[i], vs[j])


def test_init_context_vectors_empirical_std():
    vs = init_context_vectors(625, seed=1)  # 625 * 16 = 10000 entries
    assert vs.size == 10000
    assert abs(vs.std() - CONTEXT_INIT_STD) / CONTEXT_INIT_STD < 0.05


def test_init_context_vectors_zero_count():
    with pytest.raises(ValueError):
        init_context_vectors(0, seed=0)
