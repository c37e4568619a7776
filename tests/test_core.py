"""Cosine, exponential-score, and softmax primitives."""

import math

import numpy as np
import pytest

from ovlab.core import (
    DimensionMismatchError,
    ZeroNormError,
    cosine,
    log_softmax_rows,
    logsumexp,
    softmax_probs,
)

from oracles import cos_exp_score


def test_cosine_identity():
    v = np.array([0.3, -0.4, 0.5])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_antipodal():
    v = np.array([0.3, -0.4, 0.5])
    assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_errors():
    with pytest.raises(DimensionMismatchError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ZeroNormError):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cos_exp_score_zero_cosine():
    assert cos_exp_score([1.0, 0.0], [0.0, 1.0], tau=0.37) == 1.0


def test_cos_exp_score_unit_tau():
    v = [1.0, 0.0]
    assert cos_exp_score(v, v, tau=1.0) == pytest.approx(math.e, rel=1e-15)


def test_cos_exp_score_sharp_temperature_against_log_space_oracle():
    # cos = 1, tau = 0.02 -> exp(50); verified through the log-domain value,
    # which is exact by construction.
    v = [0.6, 0.8]
    score = cos_exp_score(v, v, tau=0.02)
    assert math.log(score) == pytest.approx(50.0, abs=1e-12)
    assert score == pytest.approx(math.exp(50.0), rel=1e-12)


def test_cos_exp_score_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert cos_exp_score(a, b, 0.3) == cos_exp_score(b, a, 0.3)


def test_cos_exp_score_bounds():
    rng = np.random.default_rng(1)
    for tau in (1.0, 0.05):
        for _ in range(50):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            s = cos_exp_score(a, b, tau)
            assert math.exp(-1.0 / tau) <= s <= math.exp(1.0 / tau)
            assert s > 0.0


def test_invalid_temperature():
    with pytest.raises(ValueError):
        cos_exp_score([1.0, 0.0], [1.0, 0.0], tau=0.0)
    with pytest.raises(ValueError):
        cos_exp_score([1.0, 0.0], [1.0, 0.0], tau=-1.0)


def test_softmax_single_category():
    np.testing.assert_allclose(softmax_probs([1.0, 0.0], [[0.0, 1.0]], tau=0.5), [1.0])


def test_softmax_equal_cosines():
    # Query equidistant from two categories.
    q = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    cats = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    np.testing.assert_allclose(softmax_probs(q, cats, tau=0.02), [0.5, 0.5], atol=1e-12)


def test_softmax_three_categories_scalar_oracle():
    # Cosines (1, 0, -1) at tau = 1, evaluated by direct scalar arithmetic.
    q = np.array([1.0, 0.0])
    cats = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
    probs = softmax_probs(q, cats, tau=1.0)
    raw = [math.exp(1.0), math.exp(0.0), math.exp(-1.0)]
    expected = [r / sum(raw) for r in raw]
    np.testing.assert_allclose(probs, expected, atol=1e-12)
    # Frozen to 5 decimals from the oracle above.
    np.testing.assert_allclose(probs, [0.66524, 0.24473, 0.09003], atol=5e-6)


def test_softmax_empty_categories():
    with pytest.raises(ValueError):
        softmax_probs([1.0, 0.0], [], tau=1.0)


def test_softmax_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        softmax_probs([1.0, 0.0], [[1.0, 0.0, 0.0]], tau=1.0)


def _random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_softmax_normalization_and_range_sweep():
    # At tau = 0.02 a winner with a > ~37-nat margin rounds to exactly 1.0 in
    # float64, so the strict upper bound is only checkable at moderate
    # temperatures; positivity and normalization hold everywhere.
    rng = np.random.default_rng(7)
    for tau in (1.0, 0.02):
        for _ in range(200):
            m = int(rng.integers(2, 12))
            q = _random_unit(rng, 16)
            cats = [_random_unit(rng, 16) for _ in range(m)]
            p = softmax_probs(q, cats, tau)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0.0) and np.all(p <= 1.0)
            if tau == 1.0:
                assert np.all(p < 1.0)


def test_softmax_argmax_temperature_invariance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        q = _random_unit(rng, 12)
        cats = [_random_unit(rng, 12) for _ in range(6)]
        a = softmax_probs(q, cats, tau=1.0).argmax()
        b = softmax_probs(q, cats, tau=0.02).argmax()
        c = softmax_probs(q, cats, tau=3.7).argmax()
        assert a == b == c


def test_log_softmax_shift_robustness():
    rng = np.random.default_rng(9)
    for _ in range(100):
        z = rng.standard_normal(10) * 40
        shifted = log_softmax_rows(z[None, :] + 123.456)
        np.testing.assert_allclose(log_softmax_rows(z[None, :]), shifted, atol=1e-12)


def test_logsumexp_matches_fsum_oracle():
    rng = np.random.default_rng(10)
    z = rng.uniform(-50, 50, size=30)
    direct = math.log(math.fsum(math.exp(v) for v in z))
    assert logsumexp(z) == pytest.approx(direct, rel=1e-14)


def test_logsumexp_handles_neg_inf():
    assert logsumexp([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert logsumexp([-math.inf, -math.inf]) == -math.inf
