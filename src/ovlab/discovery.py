"""Offline background preparation: box geometry, proposal filtering, clustering.

Covers the pieces that run before training starts: IoU and greedy NMS,
objectness-score filtering of background proposals, spherical k-means over
image-encoder features, and the silhouette sweep that estimates how many
latent categories hide in the background.
"""

from __future__ import annotations

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
    "nms",
    "filter_background_proposals",
    "kmeans",
    "silhouette_score",
    "estimate_category_count",
]


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
            if not np.isfinite(v):
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


def nms(proposals, iou_threshold: float, score_key: str = "rpn", pseudo_scores=None):
    """NMS over proposals scored by objectness ("rpn") or pseudo-label score ("pseudo")."""
    if score_key == "rpn":
        scores = [p.rpn_score for p in proposals]
    elif score_key == "pseudo":
        if pseudo_scores is None or len(pseudo_scores) != len(proposals):
            raise ValueError("score_key='pseudo' needs one pseudo score per proposal")
        scores = list(pseudo_scores)
    else:
        raise ValueError(f"unknown score_key {score_key!r}")
    kept = nms_indices([p.box for p in proposals], scores, iou_threshold)
    return [proposals[i] for i in kept]


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
    return nms(survivors, nms_iou, score_key="rpn")


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


def _normalized_mean(rows: np.ndarray) -> np.ndarray:
    m = rows.mean(axis=0)
    n = np.linalg.norm(m)
    if n < 1e-12:
        # Pathological antipodal cluster; keep a deterministic direction.
        m = rows[0]
        n = np.linalg.norm(m)
    return m / n


def kmeans(features, k: int, seed: int, max_iters: int = 100, n_init: int = 8) -> ClusterModel:
    """Spherical k-means: k-means++ seeding, Lloyd iterations to a fixpoint.

    Centers are constrained to the unit sphere (normalized member means),
    which minimizes the same squared-distance objective for unit-norm data.
    Empty clusters are re-seeded to the point farthest from its own center.
    Runs ``n_init`` independent seeded initializations and keeps the lowest
    objective; each run's objective is asserted non-increasing.
    """
    pts = np.asarray(features, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if n_init < 1:
        raise ValueError(f"need at least one initialization, got {n_init}")
    best = None
    for restart in range(n_init):
        model = _kmeans_once(pts, k, seed, restart, max_iters)
        if best is None or model.objective < best.objective:
            best = model
    return best


def _kmeans_once(pts: np.ndarray, k: int, seed: int, restart: int, max_iters: int) -> ClusterModel:
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
    for iteration in range(1, max_iters + 1):
        d2 = _sq_dists(pts, centers, point_sq)
        new_assign = d2.argmin(axis=1)
        objective = float(d2[np.arange(n), new_assign].sum())
        if history:
            assert objective <= history[-1] + 1e-9, (
                f"k-means objective increased at iteration {iteration}: "
                f"{history[-1]} -> {objective}"
            )
        history.append(objective)
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(k):
            members = pts[assignments == j]
            if len(members) == 0:
                # Re-seed to the farthest point from its current center.
                far = int(d2[np.arange(n), assignments].argmax())
                centers[j] = pts[far] / np.linalg.norm(pts[far])
            else:
                centers[j] = _normalized_mean(members)

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


def silhouette_score(features, assignments) -> float:
    """Mean silhouette over all points (Euclidean); singleton clusters score 0."""
    pts = np.asarray(features, dtype=np.float64)
    labels = np.asarray(assignments)
    n = pts.shape[0]
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least two clusters")
    sq = (pts * pts).sum(axis=1)
    d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * pts @ pts.T, 0.0))

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
    for k in range(k_min, k_max + 1):
        model = models[k] = kmeans(pts, k, seed=seed)
        if len(np.unique(model.assignments)) < 2:
            score = -1.0
        else:
            score = silhouette_score(pts, model.assignments)
        results.append((k, score))
    best_k, best_score = max(results, key=lambda kv: (kv[1], -kv[0]))
    return CountEstimate(
        count=best_k,
        best_score=best_score,
        low_confidence=best_score < _LOW_CONFIDENCE_SILHOUETTE,
        scores=tuple(results),
        model=models[best_k],
    )
