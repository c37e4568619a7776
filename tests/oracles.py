"""Independent scalar references that tests compare the production paths against.

Each one computes its quantity the slow, direct way (one pair, one category
pair, one coordinate, one cluster or one proposal at a time) from the
``ovlab.core`` primitives only.
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


def _normalized_mean(rows: np.ndarray) -> np.ndarray:
    m = rows.mean(axis=0)
    n = np.linalg.norm(m)
    if n < 1e-12:
        # Pathological antipodal cluster; keep a deterministic direction.
        m = rows[0]
        n = np.linalg.norm(m)
    return m / n


def lloyd_update(pts: np.ndarray, assignments: np.ndarray, k: int, own_d2: np.ndarray) -> np.ndarray:
    """Spherical Lloyd centre update, one cluster at a time.

    An empty cluster is re-seeded to the point with the largest ``own_d2``
    (its squared distance to the centre it was assigned to); every other
    cluster takes its normalized member mean.
    """
    centers = np.empty((k, pts.shape[1]))
    for j in range(k):
        members = pts[assignments == j]
        if len(members) == 0:
            far = int(own_d2.argmax())
            centers[j] = pts[far] / np.linalg.norm(pts[far])
        else:
            centers[j] = _normalized_mean(members)
    return centers


def proposal_groups(batch, partition, vocab: Vocabulary):
    """Stacked features, group row slices, targets and cosines, assembled proposal by proposal.

    Rows run through the groups "foreground", "background", "pseudo_positive"
    and "pseudo_negative" (the last two from a pseudo-label partition, if
    any); each target is looked up in the vocabulary per proposal.
    """
    positives = partition.positives if partition is not None else ()
    negatives = partition.negatives if partition is not None else ()
    groups = {
        "foreground": [p.det_feature for p in batch.foreground],
        "background": [p.det_feature for p in batch.background],
        "pseudo_positive": [p.det_feature for p, _ in positives],
        "pseudo_negative": [p.det_feature for p in negatives],
    }
    targets = {
        "foreground": np.array([vocab.base_position(p.gt_label) for p in batch.foreground], dtype=np.int64),
        "pseudo_positive": np.array(
            [vocab.underlying_position(lab.category) for _, lab in positives], dtype=np.int64
        ),
    }
    slices, rows = {}, []
    for name, feats in groups.items():
        if feats:
            slices[name] = slice(len(rows), len(rows) + len(feats))
            rows.extend(feats)
    features = np.stack(rows) if rows else np.zeros((0, vocab.dim))
    return features, slices, targets, cosine_matrix(features, vocab.embeddings)
