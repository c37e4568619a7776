"""Inference-time probability rectification.

At inference the vocabulary contains both the revealed novel categories and
the underlying background categories learned during training. Where those
two blocks describe the same concept, the shared denominator of the softmax
double-counts the concept's score and deflates every foreground
probability. The fix: scale each underlying category's raw score by one
minus the conditional probability mass it shares with the novel block
(estimated from embedding-space similarity alone, so it is a property of
the vocabulary, not of any proposal), then re-run the softmax with the
shrunken underlying sum.

Every cosine here is ``core.cosine_matrix`` against the whole inference
vocabulary: the underlying rows' for the shrinking factors, the feature
rows' for scoring. Raw scores at the default temperature span dozens of
orders of magnitude, so the one scorer, ``_shifted_scores``, shifts each row
by its largest (shrunk) logit before exponentiating; a row's linear block
sums are its shifted sums times exp(shift). ``inference_probs`` divides them
into probabilities, for every row of a batch at once.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_temperature, cosine_matrix, logsumexp
from .vocab import Vocabulary

__all__ = [
    "compute_shrinking_factors",
    "inference_probs",
    "rectification_report",
]


def _require_inference(vocab: Vocabulary) -> None:
    if not vocab.inference:
        raise ValueError(
            "inference vocabulary required (build_inference_vocab registers the novel block)"
        )


def compute_shrinking_factors(vocab: Vocabulary, tau: float) -> np.ndarray:
    """Per-underlying-category factor 1 - (conditional mass shared with the novel block).

    Depends only on the vocabulary, so callers compute it once per inference
    session and reuse it for every proposal.
    """
    tau = check_temperature(tau)
    _require_inference(vocab)
    n_under = vocab.n_underlying
    if vocab.n_novel == 0:  # nothing to share mass with (also covers an empty underlying block)
        return np.ones(n_under)
    under = vocab.block_indices.underlying
    z = cosine_matrix(vocab.embeddings[under], vocab.embeddings) / tau
    novel = vocab.novel_slice
    factors = np.empty(n_under)
    for i in range(n_under):
        others = np.delete(np.arange(vocab.size), under.start + i)
        shared = math.exp(logsumexp(z[i, novel]) - logsumexp(z[i, others]))
        factors[i] = min(1.0, max(0.0, 1.0 - shared))
    return factors


def _shifted_scores(features, vocab: Vocabulary, tau: float, factors):
    """Each row's shift, and its blocks' exp(logit - shift) with factors applied.

    Factors enter in log space and the shift is the row's largest shrunk
    logit, so no denominator underflows, whatever the temperature.
    """
    tau = check_temperature(tau)
    _require_inference(vocab)
    z = cosine_matrix(features, vocab.embeddings) / tau
    under, sub = vocab.block_indices.underlying, vocab.block_indices.sub_background
    if factors is not None:
        if np.shape(factors) != (vocab.n_underlying,):
            raise ValueError(f"need {vocab.n_underlying} shrinking factors, got {np.shape(factors)}")
        with np.errstate(divide="ignore"):
            z[:, under] += np.log(factors)
    shift = z.max(axis=1)
    e = np.exp(z - shift[:, None])
    return shift, e[:, vocab.foreground_slice], e[:, under], e[:, sub]


def inference_probs(
    features, vocab: Vocabulary, tau: float, factors: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Foreground probabilities (n, n_base + n_novel) and background mass (n,) of feature rows.

    One cosine matrix against the inference vocabulary; each denominator is
    foreground sum + underlying sum + sub-background score. ``factors``
    shrink the underlying scores (rectified), ``None`` leaves them whole.
    """
    _, fg, under, sub = _shifted_scores(features, vocab, tau, factors)
    bg = under.sum(axis=1) + sub
    denom = fg.sum(axis=1) + bg
    return fg / denom[:, None], bg / denom


def rectification_report(vocab: Vocabulary, tau: float, queries) -> dict:
    """Per-category factors plus (unrectified, rectified) probability pairs per query."""
    factors = compute_shrinking_factors(vocab, tau)
    plain, plain_bg = inference_probs(queries, vocab, tau)
    fixed, fixed_bg = inference_probs(queries, vocab, tau, factors)
    rows = zip(plain.tolist(), fixed.tolist(), plain_bg.tolist(), fixed_bg.tolist())
    return {
        "shrinking_factors": factors.tolist(),
        "mean_shrinking_factor": float(factors.mean()) if factors.size else 1.0,
        "proposals": [
            {"proposal": i, "unrectified": p, "rectified": f,
             "background_mass_unrectified": pb, "background_mass_rectified": fb}
            for i, (p, f, pb, fb) in enumerate(rows)
        ],
    }
