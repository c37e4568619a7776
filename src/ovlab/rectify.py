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

Raw scores at the default temperature span dozens of orders of magnitude,
so one scorer, ``_shifted_scores``, takes one cosine matrix per call and
shifts each row by its largest (shrunk) logit before exponentiating. Every
view reads it: ``score`` for many rows (``inference_probs`` is its one-row
case), and ``partial_sums`` and ``rectified_underlying_sum`` for one row,
whose linear block sums are the shifted sums times exp(shift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, check_temperature, logsumexp, unit_cosines, unit_rows
from .vocab import Vocabulary

__all__ = [
    "PartialSums",
    "RectifiedScores",
    "partial_sums",
    "compute_shrinking_factors",
    "score",
    "rectified_underlying_sum",
    "inference_probs",
    "rectification_report",
]


@dataclass(frozen=True)
class PartialSums:
    """Block sums of the raw exponential scores exp(cos/tau); the denominator is their total.

    foreground covers the base and novel blocks together; underlying covers
    the context-backed block; sub_background is the final slot's score.
    """

    foreground: float
    underlying: float
    sub_background: float


@dataclass(frozen=True)
class RectifiedScores:
    """One proposal's inference probabilities for the foreground blocks, aligned with
    [base block, novel block], and its background mass."""

    probabilities: np.ndarray
    background_mass: float


def _require_inference(vocab: Vocabulary) -> None:
    if not vocab.inference:
        raise ValueError(
            "inference vocabulary required (build_inference_vocab registers the novel block)"
        )


def partial_sums(query, vocab: Vocabulary, tau: float) -> PartialSums:
    """Block sums of exp(cos/tau) of one query against an inference vocabulary."""
    shift, fg, under, sub = _shifted_scores(np.asarray(query, dtype=np.float64)[None, :], vocab, tau, None)
    scale = np.exp(shift[0])
    return PartialSums(float(scale * fg[0].sum()), float(scale * under[0].sum()), float(scale * sub[0]))


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
    z = _vocab_cosines(vocab.embeddings[vocab.underlying_slice], vocab) / tau
    under_start = vocab.underlying_slice.start
    novel = vocab.novel_slice
    factors = np.empty(n_under)
    for i in range(n_under):
        others = np.delete(np.arange(vocab.size), under_start + i)
        shared = math.exp(logsumexp(z[i, novel]) - logsumexp(z[i, others]))
        factors[i] = min(1.0, max(0.0, 1.0 - shared))
    return factors


def _vocab_cosines(queries, vocab: Vocabulary) -> np.ndarray:
    """``cosine_matrix(queries, vocab.embeddings)``, against the unit rows the vocabulary already holds."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != vocab.dim:
        raise DimensionMismatchError(
            f"incompatible shapes for cosine matrix: {q.shape} vs {vocab.embeddings.shape}"
        )
    return unit_cosines(unit_rows(q)[0], vocab.unit_embeddings[0])


def _shifted_scores(features, vocab: Vocabulary, tau: float, factors):
    """Each row's shift, and its blocks' exp(logit - shift) with factors applied.

    Factors enter in log space and the shift is the row's largest shrunk
    logit, so no denominator underflows, whatever the temperature.
    """
    tau = check_temperature(tau)
    _require_inference(vocab)
    z = _vocab_cosines(np.atleast_2d(features), vocab) / tau
    if factors is not None:
        if np.shape(factors) != (vocab.n_underlying,):
            raise ValueError(f"need {vocab.n_underlying} shrinking factors, got {np.shape(factors)}")
        with np.errstate(divide="ignore"):
            z[:, vocab.underlying_slice] += np.log(factors)
    shift = z.max(axis=1)
    e = np.exp(z - shift[:, None])
    fg, under, sub = vocab.foreground_slice, vocab.underlying_slice, vocab.sub_background_index
    return shift, e[:, fg], e[:, under], e[:, sub]


def _probabilities(fg, under, sub) -> tuple[np.ndarray, np.ndarray]:
    """Foreground probabilities and background mass from shifted block scores."""
    bg = under.sum(axis=1) + sub
    denom = fg.sum(axis=1) + bg
    return fg / denom[:, None], bg / denom


def score(
    features, vocab: Vocabulary, tau: float, factors: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Foreground probabilities (n, n_base + n_novel) and background mass (n,) of feature rows.

    One cosine matrix against the inference vocabulary; each denominator is
    foreground sum + underlying sum + sub-background score. ``factors``
    shrink the underlying scores (rectified), ``None`` leaves them whole.
    """
    return _probabilities(*_shifted_scores(features, vocab, tau, factors)[1:])


def rectified_underlying_sum(
    query, vocab: Vocabulary, tau: float, factors: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Underlying-block score sum with each term shrunk by its factor."""
    if factors is None:
        factors = compute_shrinking_factors(vocab, tau)
    shift, _, under, _ = _shifted_scores(np.asarray(query, dtype=np.float64)[None, :], vocab, tau, factors)
    return float(np.exp(shift[0]) * under[0].sum()), factors


def inference_probs(
    query,
    vocab: Vocabulary,
    tau: float,
    rectify: bool = True,
    factors: np.ndarray | None = None,
) -> RectifiedScores:
    """One proposal's foreground probabilities: a one-row ``score``, rectified unless
    ``rectify`` is false (shrinking can only raise foreground probabilities)."""
    if rectify and factors is None:
        factors = compute_shrinking_factors(vocab, tau)
    probs, bg_mass = score(np.asarray(query, dtype=np.float64)[None, :], vocab, tau, factors if rectify else None)
    return RectifiedScores(probabilities=probs[0], background_mass=float(bg_mass[0]))


def rectification_report(vocab: Vocabulary, tau: float, queries) -> dict:
    """Per-category factors plus (unrectified, rectified) probability pairs per query."""
    factors = compute_shrinking_factors(vocab, tau)
    plain, plain_bg = score(queries, vocab, tau)
    fixed, fixed_bg = score(queries, vocab, tau, factors)
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
