"""Offline background preparation: box geometry, proposal filtering, clustering.

Covers the pieces that run before training starts: IoU and greedy NMS,
objectness-score filtering of background proposals, spherical k-means over
image-encoder features, and the silhouette sweep that estimates how many
latent categories hide in the background.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box",
    "OracleInfo",
    "Proposal",
    "ClusterModel",
    "CountEstimate",
    "iou",
    "nms_indices",
    "filter_background_proposals",
    "kmeans",
    "silhouette_score",
    "estimate_category_count",
]

KMEANS_MAX_ITERS = 100  # Lloyd iterations per initialization
KMEANS_RESTARTS = 8  # seeded initializations per clustering; the lowest objective wins


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in image units, corners (x1, y1) < (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"degenerate box {self}")
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate in {self}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def to_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass(frozen=True)
class OracleInfo:
    """Ground-truth record used only by evaluation and tests.

    ``generative_label`` is the hidden category id a proposal was drawn
    around (None for pure clutter). No training-time code path may read it.
    """

    generative_label: int | None
    source: str  # "object" or "clutter"


@dataclass(frozen=True)
class Proposal:
    """One region proposal: geometry, objectness, and its two feature views.

    ``det_feature`` is the detector-head embedding used by every loss;
    ``img_feature`` is the frozen image-encoder embedding used only for
    clustering and pseudo-labeling. ``gt_label`` is the annotated base
    category id, present only on matched foreground proposals.
    """

    box: Box
    rpn_score: float
    det_feature: np.ndarray
    img_feature: np.ndarray
    gt_label: int | None = None
    oracle: OracleInfo | None = None

    def __post_init__(self):
        if not (0.0 <= self.rpn_score <= 1.0):
            raise ValueError(f"rpn_score must lie in [0, 1], got {self.rpn_score}")


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def nms_indices(boxes, scores, iou_threshold: float) -> list[int]:
    """Greedy descending-score suppression; returns kept indices in keep order.

    Ties are broken toward the lower original index. A box is kept iff its
    IoU with every previously kept box is strictly below the threshold.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) < iou_threshold for j in kept):
            kept.append(i)
    return kept


def filter_background_proposals(
    proposals,
    gt_boxes,
    theta: float,
    gt_iou_cut: float = 0.5,
    nms_iou: float = 0.5,
):
    """Background proposals worth mining: confident, off-annotation, deduplicated.

    Keeps proposals with rpn_score >= theta whose IoU with every annotated
    box is below ``gt_iou_cut``, then applies greedy NMS on the survivors.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    survivors = [
        p
        for p in proposals
        if p.rpn_score >= theta
        and all(iou(p.box, g) < gt_iou_cut for g in gt_boxes)
    ]
    kept = nms_indices([p.box for p in survivors], [p.rpn_score for p in survivors], nms_iou)
    return [survivors[i] for i in kept]


# -- clustering -------------------------------------------------------------


@dataclass(frozen=True)
class ClusterModel:
    """k-means result: unit-norm centers, assignments, squared-distance objective."""

    centers: np.ndarray
    assignments: np.ndarray
    objective: float
    n_iterations: int
    objective_history: tuple[float, ...] = field(default=())


def _sq_dists(points: np.ndarray, centers: np.ndarray, point_sq=None) -> np.ndarray:
    # ||x - c||^2 expanded; clamped at zero against rounding on near-duplicates.
    if point_sq is None:
        point_sq = (points * points).sum(axis=1)
    d2 = (
        point_sq[:, None]
        - 2.0 * points @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _update_centers(pts: np.ndarray, assignments: np.ndarray, k: int, own_d2: np.ndarray) -> np.ndarray:
    """Lloyd centre update: every cluster's member mean, normalized onto the unit sphere.

    The member sums are one ``onehot.T @ pts`` product. Only two rare cases
    take a per-cluster path: an empty cluster is re-seeded to the point
    farthest from its own centre (``own_d2`` holds each point's squared
    distance to the centre it was assigned to), and a cluster whose mean is
    near zero (an antipodal pair) keeps the direction of its first member.
    """
    onehot = (assignments[:, None] == np.arange(k)).astype(np.float64)
    counts = onehot.sum(axis=0)
    means = (onehot.T @ pts) / np.maximum(counts, 1.0)[:, None]
    # Row-wise dot products: the arithmetic of ``np.linalg.norm`` on one row.
    norms = np.sqrt((means[:, None, :] @ means[:, :, None]).ravel())
    rare = norms < 1e-12  # every empty cluster too: its mean is zero
    centers = means / np.where(rare, 1.0, norms)[:, None]
    for j in np.flatnonzero(rare):
        row = pts[int(own_d2.argmax())] if counts[j] == 0 else pts[int(np.argmax(assignments == j))]
        centers[j] = row / np.linalg.norm(row)
    return centers


def kmeans(features, k: int, seed: int) -> ClusterModel:
    """Spherical k-means: k-means++ seeding, Lloyd iterations to a fixpoint.

    Centers are constrained to the unit sphere (normalized member means),
    which minimizes the same squared-distance objective for unit-norm data.
    Empty clusters are re-seeded to the point farthest from its own center.
    Runs ``KMEANS_RESTARTS`` independent seeded initializations of at most
    ``KMEANS_MAX_ITERS`` iterations each and keeps the lowest objective; a
    run whose objective increases raises ``RuntimeError``.
    """
    pts = np.asarray(features, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    best = None
    for restart in range(KMEANS_RESTARTS):
        model = _kmeans_once(pts, k, seed, restart)
        if best is None or model.objective < best.objective:
            best = model
    return best


def _kmeans_once(pts: np.ndarray, k: int, seed: int, restart: int) -> ClusterModel:
    n = pts.shape[0]
    rng = np.random.default_rng([3, int(seed), int(k), int(restart)])
    point_sq = (pts * pts).sum(axis=1)

    # k-means++ seeding.
    centers = np.empty((k, pts.shape[1]))
    first = int(rng.integers(n))
    centers[0] = pts[first] / np.linalg.norm(pts[first])
    closest = _sq_dists(pts, centers[:1], point_sq).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[j] = pts[idx] / np.linalg.norm(pts[idx])
        closest = np.minimum(closest, _sq_dists(pts, centers[j : j + 1], point_sq).ravel())

    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    for iteration in range(1, KMEANS_MAX_ITERS + 1):
        d2 = _sq_dists(pts, centers, point_sq)
        new_assign = d2.argmin(axis=1)
        own_d2 = d2[np.arange(n), new_assign]
        objective = float(own_d2.sum())
        if history and objective > history[-1] + 1e-9:
            raise RuntimeError(
                f"k-means objective increased at iteration {iteration}: {history[-1]} -> {objective}"
            )
        history.append(objective)
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        centers = _update_centers(pts, assignments, k, own_d2)

    d2 = _sq_dists(pts, centers, point_sq)
    assignments = d2.argmin(axis=1)
    objective = float(d2[np.arange(n), assignments].sum())
    centers.setflags(write=False)
    assignments.setflags(write=False)
    return ClusterModel(
        centers=centers,
        assignments=assignments,
        objective=objective,
        n_iterations=len(history),
        objective_history=tuple(history),
    )


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of ``pts``."""
    sq = (pts * pts).sum(axis=1)
    return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * pts @ pts.T, 0.0))


def silhouette_score(features, assignments, _distances: np.ndarray | None = None) -> float:
    """Mean silhouette over all points (Euclidean); singleton clusters score 0.

    ``_distances`` is the features' pairwise distance matrix, for a caller
    that scores several clusterings of the same points (the count sweep).
    """
    pts = np.asarray(features, dtype=np.float64)
    labels = np.asarray(assignments)
    n = pts.shape[0]
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least two clusters")
    d = _distances if _distances is not None else _distance_matrix(pts)

    onehot = (labels[:, None] == uniq[None, :]).astype(np.float64)
    sizes = onehot.sum(axis=0)
    sums = d @ onehot  # per point: summed distance to each cluster
    own_col = np.searchsorted(uniq, labels)
    own_size = sizes[own_col]
    rows = np.arange(n)
    a = np.divide(
        sums[rows, own_col], np.maximum(own_size - 1, 1), where=own_size > 1,
        out=np.zeros(n),
    )
    means = sums / sizes[None, :]
    means[rows, own_col] = np.inf  # exclude the own cluster from the minimum
    b = means.min(axis=1)
    scores = np.where(own_size > 1, (b - a) / np.maximum(a, b), 0.0)
    return float(scores.mean())


@dataclass(frozen=True)
class CountEstimate:
    """Result of the silhouette sweep for the latent-category count."""

    count: int
    best_score: float
    low_confidence: bool
    scores: tuple[tuple[int, float], ...]
    model: ClusterModel = field(compare=False, repr=False)  # the winning clustering


# Below this mean silhouette the sweep's winner says little about structure.
_LOW_CONFIDENCE_SILHOUETTE = 0.25


def estimate_category_count(features, k_min: int, k_max: int, seed: int) -> CountEstimate:
    """Silhouette-maximizing k over [k_min, k_max]; ties break toward smaller k.

    This is one defensible estimator among several; it is deliberately kept
    behind this narrow interface so it can be swapped out.
    """
    pts = np.asarray(features, dtype=np.float64)
    if k_min < 2:
        raise ValueError(f"k_min must be at least 2, got {k_min}")
    if k_max < k_min:
        raise ValueError(f"empty sweep range [{k_min}, {k_max}]")
    if k_max > pts.shape[0]:
        raise ValueError(f"k_max {k_max} exceeds point count {pts.shape[0]}")

    results = []
    models = {}
    distances = _distance_matrix(pts)  # one matrix for every k of the sweep
    for k in range(k_min, k_max + 1):
        model = models[k] = kmeans(pts, k, seed=seed)
        if len(np.unique(model.assignments)) < 2:
            score = -1.0
        else:
            score = silhouette_score(pts, model.assignments, _distances=distances)
        results.append((k, score))
    best_k, best_score = max(results, key=lambda kv: (kv[1], -kv[0]))
    return CountEstimate(
        count=best_k,
        best_score=best_score,
        low_confidence=best_score < _LOW_CONFIDENCE_SILHOUETTE,
        scores=tuple(results),
        model=models[best_k],
    )
