"""Independent scalar references that tests compare the production paths against.

Each one computes its quantity the slow, direct way (one pair, one category
pair, one coordinate at a time) from the ``ovlab.core`` primitives only.
"""

import math

import numpy as np

from ovlab.core import check_temperature, cosine, cosine_matrix, logsumexp
from ovlab.vocab import CategoryId, Kind, Vocabulary


def cos_exp_score(a, b, tau: float) -> float:
    """Unnormalized category score exp(cos(a, b) / tau); strictly positive."""
    return math.exp(cosine(a, b) / check_temperature(tau))


def _position(vocab: Vocabulary, cat: CategoryId) -> int:
    if cat.kind is Kind.NOVEL:
        return vocab.novel_slice.start + vocab.novel_ids.index(cat.index)
    if not (0 <= cat.index < vocab.n_underlying):
        raise IndexError(f"underlying index {cat.index} out of range")
    return vocab.underlying_slice.start + cat.index


def conditional_prob(
    c_novel: CategoryId, c_underlying: CategoryId, vocab: Vocabulary, tau: float
) -> float:
    """Probability that an underlying category's concept is the given novel one.

    Sample-agnostic: computed purely from embedding similarities, as the
    underlying embedding's score for the novel embedding normalized over
    every other category in the inference vocabulary.
    """
    tau = check_temperature(tau)
    if not vocab.inference:
        raise ValueError("inference vocabulary required")
    if c_novel.kind is not Kind.NOVEL:
        raise ValueError(f"first argument must be a novel category, got {c_novel.kind}")
    if c_underlying.kind is not Kind.UNDERLYING:
        raise ValueError(f"second argument must be an underlying category, got {c_underlying.kind}")
    anchor_pos = _position(vocab, c_underlying)
    novel_pos = _position(vocab, c_novel)
    z = cosine_matrix(vocab.embeddings[anchor_pos][None, :], vocab.embeddings)[0] / tau
    others = np.delete(np.arange(vocab.size), anchor_pos)
    return math.exp(z[novel_pos] - logsumexp(z[others]))


def central_difference(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    The elementary stencil (f(x + h e_i) - f(x - h e_i)) / 2h: exact for
    quadratics, O(h^2) truncation error in the smooth regime.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad
