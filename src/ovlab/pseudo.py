"""Online mining of background objects via frozen cluster centers.

Each filtered background proposal is scored against the k-means centers
using its image-encoder feature, labeled with the best-matching discovered
category, and kept only when that score clears the confidence threshold and
survives per-class NMS. Survivors are trained toward their discovered
category; the rest are pushed toward the expansion-plus-sub-background
block with a small weight.

Labels depend only on image-encoder features and the frozen centers, never
on the detector features or any trainable parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_temperature, cosine_matrix
from .discovery import Proposal, filter_background_proposals, nms_indices

__all__ = [
    "PseudoLabel",
    "BackgroundPartition",
    "assign_pseudo_label",
    "generate_pseudo_labels",
]


@dataclass(frozen=True)
class PseudoLabel:
    """Discovered-category label for one background proposal."""

    category: int
    score: float


@dataclass(frozen=True)
class BackgroundPartition:
    """Filtered background proposals split into labeled positives and the rest."""

    positives: tuple[tuple[Proposal, PseudoLabel], ...]
    negatives: tuple[Proposal, ...]


def _center_probs(img_features: np.ndarray, centers, tau: float) -> np.ndarray:
    """Softmax over the cluster centers of each feature row's cosine scores, from one cosine matrix."""
    tau = check_temperature(tau)
    c = np.asarray(centers, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] == 0:
        raise ValueError("need a non-empty (k, d) center matrix")
    logits = cosine_matrix(img_features, c) / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def assign_pseudo_label(img_feature, centers, tau: float) -> PseudoLabel:
    """Highest-probability discovered category; ties break toward the smaller index."""
    return _labels(_center_probs(np.asarray(img_feature, dtype=np.float64)[None, :], centers, tau))[0]


def _labels(probs: np.ndarray) -> list[PseudoLabel]:
    """One ``PseudoLabel`` per row of center probabilities."""
    cats = probs.argmax(axis=1)
    scores = probs[np.arange(len(probs)), cats]
    return [PseudoLabel(category=c, score=v) for c, v in zip(cats.tolist(), scores.tolist())]


def generate_pseudo_labels(
    batch_bg,
    gt_boxes,
    centers,
    tau: float,
    theta: float,
    nms_iou: float = 0.5,
    gt_iou_cut: float = 0.5,
    rpn_nms_iou: float = 0.5,
) -> BackgroundPartition:
    """Filter, label, threshold, and per-class-suppress one batch's background.

    Pipeline: objectness/annotation-overlap filtering -> per-proposal label
    from the frozen centers (one cosine matrix over the filtered proposals)
    -> drop labels scoring under theta -> per-class NMS keyed on the label
    score. Survivors become positives; every other filtered proposal becomes
    a negative. Box refinement of the survivors is an identity hook at this
    scale (no trained box head exists).
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    filtered = filter_background_proposals(
        batch_bg, gt_boxes, theta=theta, gt_iou_cut=gt_iou_cut, nms_iou=rpn_nms_iou
    )
    if not filtered:
        return BackgroundPartition(positives=(), negatives=())

    labels = _labels(_center_probs(np.stack([p.img_feature for p in filtered]), centers, tau))
    confident = [i for i, lab in enumerate(labels) if lab.score >= theta]

    kept: set[int] = set()
    categories = sorted({labels[i].category for i in confident})
    for cat in categories:
        members = [i for i in confident if labels[i].category == cat]
        boxes = [filtered[i].box for i in members]
        scores = [labels[i].score for i in members]
        for local in nms_indices(boxes, scores, nms_iou):
            kept.add(members[local])

    positives = tuple((filtered[i], labels[i]) for i in sorted(kept))
    negatives = tuple(filtered[i] for i in range(len(filtered)) if i not in kept)
    return BackgroundPartition(positives=positives, negatives=negatives)

