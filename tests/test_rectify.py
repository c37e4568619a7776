"""Inference probability rectification against term-by-term oracles."""

import math

import numpy as np
import pytest

from ovlab.core import DimensionMismatchError
from ovlab.encoder import MockTextEncoder
from ovlab.rectify import compute_shrinking_factors, inference_probs
from ovlab.vocab import build_inference_vocab

from oracles import conditional_prob, softmax_probs
from util import block_sums, make_vocab, training_vocab, unit


def _random_inference_vocab(rng, n_base=3, n_novel=2, n_under=3, d=12, inference=True):
    return make_vocab(
        base_emb=np.array([unit(rng, d) for _ in range(n_base)]),
        under_emb=np.array([unit(rng, d) for _ in range(n_under)]) if n_under else None,
        sub=unit(rng, d),
        novel_emb=np.array([unit(rng, d) for _ in range(n_novel)]) if n_novel else None,
        inference=inference,
    )


def _oracle_scores(q, vocab, tau):
    """Plain-loop exponential scores for every category."""
    out = []
    for row in vocab.embeddings:
        c = float(np.dot(q, row) / (np.linalg.norm(q) * np.linalg.norm(row)))
        out.append(math.exp(c / tau))
    return out


def _score_row(q, vocab, tau, factors=None):
    """``inference_probs`` of one query: its foreground probabilities and its background mass."""
    probs, bg_mass = inference_probs(q[None, :], vocab, tau, factors)
    return probs[0], float(bg_mass[0])


def test_score_refuses_a_query_that_is_not_a_row_of_the_vocabulary_width():
    # Scoring takes its cosines with ``core.cosine_matrix``, which needs rows
    # as wide as the vocabulary's: a bare vector or another width is refused.
    rng = np.random.default_rng(40)
    vocab = _random_inference_vocab(rng)
    for query in (np.ones(12), np.ones((2, 11))):
        with pytest.raises(DimensionMismatchError):
            inference_probs(query, vocab, 1.0)


# -- block sums -----------------------------------------------------------------


def test_partial_sums_requires_inference_vocab():
    rng = np.random.default_rng(0)
    vocab = _random_inference_vocab(rng, n_novel=0, inference=False)
    with pytest.raises(ValueError):
        block_sums(unit(rng, 12), vocab, tau=1.0)


def test_partial_sums_empty_novel_covers_base_only():
    rng = np.random.default_rng(1)
    vocab = _random_inference_vocab(rng, n_novel=0)
    q = unit(rng, 12)
    foreground, _, _ = block_sums(q, vocab, tau=0.7)
    scores = _oracle_scores(q, vocab, 0.7)
    assert foreground == pytest.approx(sum(scores[:3]), rel=1e-12)


def test_partial_sums_orthogonal_blocks_count_members():
    # All cosines zero: each score is 1, so block sums equal block sizes.
    d = 12
    eye = np.eye(d)
    vocab = make_vocab(
        base_emb=eye[:3], novel_emb=eye[3:5], under_emb=eye[5:8], sub=eye[8]
    )
    q = eye[11]
    foreground, underlying, sub_background = block_sums(q, vocab, tau=0.4)
    assert foreground == pytest.approx(5.0, rel=1e-12)
    assert underlying == pytest.approx(3.0, rel=1e-12)
    assert sub_background == pytest.approx(1.0, rel=1e-12)


def test_partial_sums_match_per_index_oracle():
    rng = np.random.default_rng(2)
    for tau in (1.0, 0.02):
        for _ in range(25):
            vocab = _random_inference_vocab(rng)
            q = unit(rng, 12)
            foreground, underlying, sub_background = block_sums(q, vocab, tau)
            scores = _oracle_scores(q, vocab, tau)
            assert foreground == pytest.approx(sum(scores[:5]), rel=1e-12)
            assert underlying == pytest.approx(sum(scores[5:8]), rel=1e-12)
            assert sub_background == pytest.approx(scores[8], rel=1e-12)
            total = foreground + underlying + sub_background
            assert total == pytest.approx(sum(scores), rel=1e-9)


# -- conditional probability -------------------------------------------------------


def test_conditional_prob_orthogonal_uniform():
    d = 10
    eye = np.eye(d)
    vocab = make_vocab(base_emb=eye[:2], novel_emb=eye[2:3], under_emb=eye[3:5], sub=eye[5])
    m = vocab.size
    p = conditional_prob(vocab.novel_ids[0], 0, vocab, tau=0.5)
    assert p == pytest.approx(1.0 / (m - 1), rel=1e-12)


def test_conditional_prob_perfect_overlap_saturates():
    d = 10
    eye = np.eye(d)
    novel = eye[3]
    under = np.vstack([novel, eye[4]])  # first underlying equals the novel embedding
    vocab = make_vocab(base_emb=eye[:2], novel_emb=novel[None, :], under_emb=under, sub=eye[5])
    m = vocab.size
    p = conditional_prob(vocab.novel_ids[0], 0, vocab, tau=0.02)
    assert p >= 1.0 - (m - 2) * math.exp(-50.0)


def test_conditional_prob_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vocab = _random_inference_vocab(rng)
        tau = 0.3
        anchor_pos = vocab.block_indices.underlying.start + 1
        scores = _oracle_scores(vocab.embeddings[anchor_pos], vocab, tau)
        denom = sum(s for i, s in enumerate(scores) if i != anchor_pos)
        novel_pos = vocab.novel_slice.start
        expected = scores[novel_pos] / denom
        got = conditional_prob(vocab.novel_ids[0], 1, vocab, tau)
        assert got == pytest.approx(expected, rel=1e-12)


def test_conditional_prob_wrong_kinds():
    rng = np.random.default_rng(4)
    vocab = _random_inference_vocab(rng)
    with pytest.raises(ValueError):
        conditional_prob(vocab.base_ids[0], 0, vocab, 1.0)
    with pytest.raises(IndexError):
        conditional_prob(vocab.novel_ids[0], vocab.n_underlying, vocab, 1.0)


def test_conditional_rows_sum_to_one():
    rng = np.random.default_rng(5)
    vocab = _random_inference_vocab(rng)
    tau = 0.15
    for u in range(vocab.n_underlying):
        anchor_pos = vocab.block_indices.underlying.start + u
        scores = _oracle_scores(vocab.embeddings[anchor_pos], vocab, tau)
        denom = sum(s for i, s in enumerate(scores) if i != anchor_pos)
        total = sum(s / denom for i, s in enumerate(scores) if i != anchor_pos)
        assert total == pytest.approx(1.0, abs=1e-12)


# -- shrinking factors ---------------------------------------------------------------


def test_factor_empty_novel_is_one():
    rng = np.random.default_rng(6)
    vocab = _random_inference_vocab(rng, n_novel=0)
    assert compute_shrinking_factors(vocab, tau=0.5)[0] == 1.0


def test_factor_concentrated_overlap_vanishes():
    d = 10
    eye = np.eye(d)
    novel = eye[3]
    under = np.vstack([novel, eye[4]])
    vocab = make_vocab(base_emb=eye[:2], novel_emb=novel[None, :], under_emb=under, sub=eye[5])
    f = compute_shrinking_factors(vocab, tau=0.02)[0]
    assert f == pytest.approx(0.0, abs=1e-12)


def test_factor_hand_computed_orthogonal_case():
    # 2 base + 1 novel + 2 underlying + sub-background, all orthogonal:
    # every conditional score equal, novel share 1/5, factor 0.8.
    eye = np.eye(8)
    vocab = make_vocab(base_emb=eye[:2], novel_emb=eye[2:3], under_emb=eye[3:5], sub=eye[5])
    f = compute_shrinking_factors(vocab, tau=0.33)[0]
    assert f == pytest.approx(0.8, rel=1e-12)


def test_factors_match_conditional_prob_oracle():
    # Factor u = 1 - sum over the novel block of p(novel | underlying u).
    rng = np.random.default_rng(14)
    for tau in (1.0, 0.1):
        vocab = _random_inference_vocab(rng, n_novel=3)
        factors = compute_shrinking_factors(vocab, tau)
        for u in range(vocab.n_underlying):
            shared = sum(
                conditional_prob(n, u, vocab, tau)
                for n in vocab.novel_ids
            )
            assert factors[u] == pytest.approx(1.0 - shared, rel=1e-12, abs=1e-15)


def test_factors_in_unit_interval_sweep():
    rng = np.random.default_rng(7)
    for tau in (1.0, 0.02):
        for _ in range(50):
            vocab = _random_inference_vocab(rng)
            f = compute_shrinking_factors(vocab, tau)
            assert np.all(f >= 0.0) and np.all(f <= 1.0)


# -- rectified underlying sum ----------------------------------------------------------


def test_rectified_sum_identity_factors():
    rng = np.random.default_rng(9)
    vocab = _random_inference_vocab(rng)
    q = unit(rng, 12)
    total = block_sums(q, vocab, 0.5, factors=np.ones(3))[1]
    assert total == pytest.approx(block_sums(q, vocab, 0.5)[1], rel=1e-12)


def test_rectified_sum_zero_factors():
    rng = np.random.default_rng(10)
    vocab = _random_inference_vocab(rng)
    q = unit(rng, 12)
    total = block_sums(q, vocab, 0.5, factors=np.zeros(3))[1]
    assert total == 0.0


def test_rectified_sum_term_by_term_oracle():
    rng = np.random.default_rng(11)
    for tau in (1.0, 0.02):
        for _ in range(20):
            vocab = _random_inference_vocab(rng)
            q = unit(rng, 12)
            factors = compute_shrinking_factors(vocab, tau)
            total = block_sums(q, vocab, tau, factors)[1]
            scores = _oracle_scores(q, vocab, tau)
            start = vocab.block_indices.underlying.start
            oracle = sum(scores[start + j] * factors[j] for j in range(vocab.n_underlying))
            assert total == pytest.approx(oracle, rel=1e-10)


# -- inference probabilities -------------------------------------------------------------


def test_inference_reduces_to_softmax_without_underlying():
    rng = np.random.default_rng(12)
    vocab = _random_inference_vocab(rng, n_under=0)
    q = unit(rng, 12)
    probabilities, background_mass = _score_row(q, vocab, tau=0.4)
    reference = softmax_probs(q, list(vocab.embeddings), tau=0.4)
    np.testing.assert_allclose(probabilities, reference[:-1], atol=1e-12)
    assert background_mass == pytest.approx(reference[-1], rel=1e-12)


def test_inference_identity_without_novel():
    rng = np.random.default_rng(13)
    for _ in range(20):
        vocab = _random_inference_vocab(rng, n_novel=0)
        q = unit(rng, 12)
        factors = compute_shrinking_factors(vocab, 0.02)
        plain, _ = _score_row(q, vocab, 0.02)
        fixed, _ = _score_row(q, vocab, 0.02, factors)
        np.testing.assert_allclose(fixed, plain, atol=1e-12)
        shrunk = block_sums(q, vocab, 0.02, factors)[1]
        whole = block_sums(q, vocab, 0.02, factors=np.ones(vocab.n_underlying))[1]
        assert shrunk == pytest.approx(whole, rel=1e-12)


def test_rectification_never_decreases_foreground_probabilities():
    rng = np.random.default_rng(14)
    for tau in (1.0, 0.02):
        for _ in range(50):
            vocab = _random_inference_vocab(rng)
            q = unit(rng, 12)
            factors = compute_shrinking_factors(vocab, tau)
            plain, _ = _score_row(q, vocab, tau)
            fixed, _ = _score_row(q, vocab, tau, factors)
            assert np.all(fixed >= plain - 1e-15)
            shrunk = block_sums(q, vocab, tau, factors)[1]
            whole = block_sums(q, vocab, tau, factors=np.ones(vocab.n_underlying))[1]
            assert shrunk <= whole + 1e-15


def test_rectification_preserves_novel_ranking():
    rng = np.random.default_rng(15)
    for _ in range(50):
        vocab = _random_inference_vocab(rng, n_novel=3)
        q = unit(rng, 12)
        plain, _ = _score_row(q, vocab, 1.0)
        fixed, _ = _score_row(q, vocab, 1.0, compute_shrinking_factors(vocab, 1.0))
        novel = vocab.novel_slice
        assert np.argsort(plain[novel]).tolist() == np.argsort(fixed[novel]).tolist()


def test_inference_probs_match_direct_formula():
    rng = np.random.default_rng(16)
    for tau in (1.0, 0.02):
        for _ in range(20):
            vocab = _random_inference_vocab(rng)
            q = unit(rng, 12)
            factors = compute_shrinking_factors(vocab, tau)
            probabilities, background_mass = _score_row(q, vocab, tau, factors)
            scores = _oracle_scores(q, vocab, tau)
            start = vocab.block_indices.underlying.start
            shrunk = sum(
                scores[start + j] * factors[j]
                for j in range(vocab.n_underlying)
            )
            denom = sum(scores[:5]) + shrunk + scores[-1]
            for i in range(5):
                assert probabilities[i] == pytest.approx(scores[i] / denom, rel=1e-10)
            assert background_mass == pytest.approx(
                (shrunk + scores[-1]) / denom, rel=1e-10
            )


def test_strict_shrinkage_with_partial_overlap():
    rng = np.random.default_rng(17)
    vocab = _random_inference_vocab(rng)
    q = unit(rng, 12)
    factors = compute_shrinking_factors(vocab, 0.5)
    assert np.any(factors < 1.0)
    plain = block_sums(q, vocab, 0.5)[1]
    fixed = block_sums(q, vocab, 0.5, factors)[1]
    assert fixed < plain


# -- batched scorer -------------------------------------------------------------------


def _oracle_row(q, vocab, tau, factors=None):
    """Term-by-term foreground probabilities and background mass of one query."""
    scores = _oracle_scores(q, vocab, tau)
    under = scores[vocab.block_indices.underlying]
    if factors is not None:
        under = [s * f for s, f in zip(under, factors)]
    fg = scores[vocab.foreground_slice]
    bg = math.fsum(under) + scores[vocab.block_indices.sub_background]
    denom = math.fsum(fg) + bg
    return np.array(fg) / denom, bg / denom


def _assert_matches_oracle(queries, vocab, tau, factors=None):
    probs, bg_mass = inference_probs(queries, vocab, tau, factors)
    assert probs.shape == (len(queries), vocab.n_base + vocab.n_novel)
    assert bg_mass.shape == (len(queries),)
    for q, p, b in zip(queries, probs, bg_mass):
        expected, expected_bg = _oracle_row(q, vocab, tau, factors)
        np.testing.assert_allclose(p, expected, rtol=1e-10, atol=0)
        assert b == pytest.approx(expected_bg, rel=1e-10)


def test_score_matches_oracle_on_many_rows():
    rng = np.random.default_rng(18)
    for tau in (1.0, 0.02):
        for _ in range(10):
            vocab = _random_inference_vocab(rng)
            queries = np.array([unit(rng, 12) for _ in range(7)])
            _assert_matches_oracle(queries, vocab, tau)
            _assert_matches_oracle(queries, vocab, tau, compute_shrinking_factors(vocab, tau))


def test_score_baseline_vocab_with_empty_underlying_block():
    rng = np.random.default_rng(19)
    d = 12
    training = training_vocab(
        [0, 1, 2], np.array([unit(rng, d) for _ in range(3)]), np.zeros((0, 0)), unit(rng, d),
        MockTextEncoder(seed=0, dim=d, ctx_dim=4), baseline_mode=True,
    )
    vocab = build_inference_vocab(training, [7, 8], np.array([unit(rng, d) for _ in range(2)]))
    assert vocab.n_underlying == 0
    queries = np.array([unit(rng, d) for _ in range(5)])
    for tau in (1.0, 0.02):
        _assert_matches_oracle(queries, vocab, tau)
        plain = inference_probs(queries, vocab, tau)
        fixed = inference_probs(queries, vocab, tau, compute_shrinking_factors(vocab, tau))
        for a, b in zip(plain, fixed):
            np.testing.assert_array_equal(a, b)


def test_score_empty_novel_block_rectified_equals_plain_exactly():
    rng = np.random.default_rng(20)
    for tau in (1.0, 0.02):
        vocab = _random_inference_vocab(rng, n_novel=0)
        queries = np.array([unit(rng, 12) for _ in range(6)])
        factors = compute_shrinking_factors(vocab, tau)
        np.testing.assert_array_equal(factors, 1.0)
        plain = inference_probs(queries, vocab, tau)
        fixed = inference_probs(queries, vocab, tau, factors)
        for a, b in zip(plain, fixed):
            np.testing.assert_array_equal(a, b)


def test_score_factors_with_exact_zeros():
    rng = np.random.default_rng(21)
    vocab = _random_inference_vocab(rng, n_under=4)
    queries = np.array([unit(rng, 12) for _ in range(6)])
    for factors in (np.array([0.0, 0.5, 0.0, 1.0]), np.zeros(4)):
        for tau in (1.0, 0.02):
            _assert_matches_oracle(queries, vocab, tau, factors)
    # A zeroed underlying category that dominates the raw scores by far more
    # than the float64 range: the remaining five scores are all exp(0).
    eye = np.eye(8)
    vocab = make_vocab(base_emb=eye[1:3], novel_emb=eye[3:4], under_emb=eye[[0, 4]], sub=eye[5])
    probs, bg_mass = inference_probs(eye[:1], vocab, 0.001, factors=np.array([0.0, 1.0]))
    np.testing.assert_allclose(probs, [[0.2, 0.2, 0.2]], rtol=1e-15)
    np.testing.assert_allclose(bg_mass, [0.4], rtol=1e-15)


def test_score_rectified_never_below_plain_on_any_row():
    rng = np.random.default_rng(22)
    for tau in (1.0, 0.02):
        for _ in range(20):
            vocab = _random_inference_vocab(rng, n_novel=int(rng.integers(0, 4)))
            queries = np.array([unit(rng, 12) for _ in range(8)])
            plain, _ = inference_probs(queries, vocab, tau)
            fixed, _ = inference_probs(queries, vocab, tau, compute_shrinking_factors(vocab, tau))
            assert np.all(fixed >= plain - 1e-15)


def test_score_rejects_a_factor_count_mismatch():
    rng = np.random.default_rng(23)
    vocab = _random_inference_vocab(rng)
    with pytest.raises(ValueError, match="need 3 shrinking factors"):
        inference_probs(np.array([unit(rng, 12)]), vocab, 1.0, factors=np.ones(1))


def test_inference_probs_is_a_row_of_score():
    # Each row is scored on its own: a query scored alone gives its row of the batch.
    rng = np.random.default_rng(24)
    vocab = _random_inference_vocab(rng)
    queries = np.array([unit(rng, 12) for _ in range(4)])
    factors = compute_shrinking_factors(vocab, 0.02)
    probs, bg_mass = inference_probs(queries, vocab, 0.02, factors)
    for q, p, b in zip(queries, probs, bg_mass):
        one, one_bg = _score_row(q, vocab, 0.02, factors)
        # A one-row cosine product may round differently from a many-row one.
        np.testing.assert_allclose(one, p, rtol=1e-12, atol=0)
        assert one_bg == pytest.approx(b, rel=1e-12)
