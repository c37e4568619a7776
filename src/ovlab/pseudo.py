"""Online mining of background objects via frozen cluster centers.

Each filtered background proposal is scored against the k-means centers
using its image-encoder feature, labeled with the best-matching discovered
category, and kept only when that score clears the confidence threshold and
survives per-class NMS. Survivors are trained toward their discovered
category; the rest are pushed toward the expansion-plus-sub-background
block with a small weight.

Labels depend only on image-encoder features and the frozen centers, never
on the detector features or any trainable parameter. The labeller filters
nothing: it takes the ``Proposal`` records of the rows a discovery prep's
filter kept (the only records a prep builds) and those rows' boxes as an
``(n, 4)`` array, and its partition holds positions into that input: the
positives with their categories, and the negatives.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import check_temperature, cosine_matrix
from .discovery import nms_indices

__all__ = [
    "BackgroundPartition",
    "generate_pseudo_labels",
]


class BackgroundPartition(NamedTuple):
    """Filtered background split into labeled positives and the rest, as int64 positions.

    ``generate_pseudo_labels`` returns ``positives`` and ``negatives`` as
    positions into its input, each in ascending order; ``categories`` holds
    each positive's discovered category. A discovery prep maps the positions
    to its image's rows, keeping their order.
    """

    positives: np.ndarray
    categories: np.ndarray
    negatives: np.ndarray


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


def _labels(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best category (ties to the smaller index) and its probability."""
    cats = probs.argmax(axis=1)
    return cats, probs[np.arange(len(probs)), cats]


def generate_pseudo_labels(batch_bg, boxes, centers, tau: float, theta: float, nms_iou: float) -> BackgroundPartition:
    """Label, threshold, and per-class-suppress one image's filtered background.

    ``batch_bg`` is a sequence of ``Proposal`` records, the rows a discovery
    prep's filter kept, and ``boxes`` their ``(len(batch_bg), 4)`` corners.
    Pipeline: per-proposal label from the frozen centers (one cosine matrix
    over the records) -> drop labels scoring under theta -> per-class NMS at
    IoU ``nms_iou``, keyed on the label score. Survivors become positives;
    every other record becomes a negative. Box refinement of the survivors is
    an identity hook at this scale (no trained box head exists).
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.shape != (len(batch_bg), 4):
        raise ValueError(f"boxes must be a ({len(batch_bg)}, 4) array, one row per record, got shape {boxes.shape}")
    kept = np.zeros(len(batch_bg), dtype=bool)
    cats = np.zeros(0, dtype=np.int64)
    if len(batch_bg):
        cats, scores = _labels(_center_probs(np.stack([p.img_feature for p in batch_bg]), centers, tau))
        confident = scores >= theta
        # The confident categories, ascending; ``numpy.unique`` would import ``numpy.ma`` on its first call.
        for cat in np.flatnonzero(np.bincount(cats[confident])).tolist():
            members = np.flatnonzero(confident & (cats == cat))
            kept[members[nms_indices(boxes[members], scores[members], nms_iou)]] = True
    positives = np.flatnonzero(kept)
    return BackgroundPartition(positives, cats[positives], np.flatnonzero(~kept))
