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
from .losses import ProposalBatch, batch_terms
from .vocab import Vocabulary

__all__ = [
    "PseudoLabel",
    "BackgroundPartition",
    "center_probs",
    "assign_pseudo_label",
    "generate_pseudo_labels",
    "pseudo_label_loss",
    "dump_pseudo_labels",
]


@dataclass(frozen=True)
class PseudoLabel:
    """Discovered-category label for one background proposal."""

    proposal_index: int
    category: int
    score: float


@dataclass(frozen=True)
class BackgroundPartition:
    """Filtered background proposals split into labeled positives and the rest."""

    positives: tuple[tuple[Proposal, PseudoLabel], ...]
    negatives: tuple[Proposal, ...]

    @property
    def n_filtered(self) -> int:
        return len(self.positives) + len(self.negatives)


def center_probs(img_feature, centers, tau: float) -> np.ndarray:
    """Softmax over cluster centers of the image-encoder feature's cosine scores."""
    tau = check_temperature(tau)
    c = np.asarray(centers, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] == 0:
        raise ValueError("need a non-empty (k, d) center matrix")
    feat = np.asarray(img_feature, dtype=np.float64)
    logits = cosine_matrix(feat[None, :], c)[0] / tau
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def assign_pseudo_label(img_feature, centers, tau: float, proposal_index: int = 0) -> PseudoLabel:
    """Highest-probability discovered category; ties break toward the smaller index."""
    probs = center_probs(img_feature, centers, tau)
    cat = int(probs.argmax())
    return PseudoLabel(proposal_index=proposal_index, category=cat, score=float(probs[cat]))


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
    from the frozen centers -> drop labels scoring under theta -> per-class
    NMS keyed on the label score. Survivors become positives; every other
    filtered proposal becomes a negative. Box refinement of the survivors is
    an identity hook at this scale (no trained box head exists).
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    filtered = filter_background_proposals(
        batch_bg, gt_boxes, theta=theta, gt_iou_cut=gt_iou_cut, nms_iou=rpn_nms_iou
    )
    if not filtered:
        return BackgroundPartition(positives=(), negatives=())

    labels = [
        assign_pseudo_label(p.img_feature, centers, tau, proposal_index=i)
        for i, p in enumerate(filtered)
    ]
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


def pseudo_label_loss(
    partition: BackgroundPartition,
    vocab: Vocabulary,
    tau: float,
    negative_weight: float,
) -> float:
    """Cross-entropy of positives toward their discovered category, plus the
    weighted mass pull of negatives toward the expansion-plus-sub-background set.

    Either side contributes 0 when empty.
    """
    if negative_weight < 0.0:
        raise ValueError(f"negative_weight must be nonnegative, got {negative_weight}")
    empty = ProposalBatch(foreground=(), background=())
    return batch_terms(empty, partition, vocab, tau, negative_weight=negative_weight).values["pseudo"]


def dump_pseudo_labels(partition: BackgroundPartition) -> str:
    """Line-oriented record of the positive labels: proposal id, category, score."""
    lines = [
        f"{lab.proposal_index}\t{lab.category}\t{lab.score!r}"
        for _, lab in partition.positives
    ]
    return "\n".join(lines)
