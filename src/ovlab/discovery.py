"""Offline background preparation: box geometry, proposal filtering, clustering.

Covers the pieces that run before training starts: IoU and greedy NMS over
boxes held as rows of float arrays (corners x1, y1, x2, y2), objectness-score
filtering of an image's background rows, spherical k-means over
image-encoder features, and the silhouette sweep that estimates how many
latent categories hide in the background. k-means carries its seeded
restarts side by side on one leading axis, one batched Lloyd loop per call;
each restart keeps its own random stream and computes the bits it would
compute alone. ``Proposal`` is the record the pseudo-labeller takes, and
only ``synth.SynthImage.proposal_records`` builds: two feature views and an
annotated base id (its box, score and hidden category stay in its image's
columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
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


@dataclass(frozen=True, slots=True)
class Proposal:
    """One region proposal's two feature views and its annotated category.

    ``det_feature`` is the detector-head embedding used by every loss;
    ``img_feature`` is the frozen image-encoder embedding used only for
    clustering and pseudo-labeling. ``gt_label`` is the annotated base
    category id, present only on matched foreground proposals.
    """

    det_feature: np.ndarray
    img_feature: np.ndarray
    gt_label: int | None = None


def iou(a, b) -> np.ndarray:
    """IoU of the boxes ``a`` and ``b``, elementwise over their broadcast ``(..., 4)`` rows (x1, y1, x2, y2).

    Each pair takes the IEEE operations of the one-pair formula in its order
    (the overlap's sides clipped at 0), so it gets its bits.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    sides = np.maximum(np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2]), 0.0)
    inter = sides[..., 0] * sides[..., 1]
    size_a, size_b = a[..., 2:] - a[..., :2], b[..., 2:] - b[..., :2]
    return (inter / (size_a[..., 0] * size_a[..., 1] + size_b[..., 0] * size_b[..., 1] - inter))[()]


def nms_indices(boxes, scores, iou_threshold: float) -> list[int]:
    """Greedy descending-score suppression over ``(n, 4)`` boxes; returns kept indices in keep order.

    Ties are broken toward the lower original index. A box is kept iff its
    IoU (one ``(n, n)`` matrix) with every previously kept box is below the threshold.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    if len(scores) < 2:  # nothing to suppress
        return list(range(len(scores)))
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    apart = (iou(boxes[:, None], boxes[None, :]) < iou_threshold).tolist()
    scores = np.asarray(scores, dtype=np.float64).tolist()
    kept: list[int] = []
    for i in sorted(range(len(scores)), key=lambda i: (-scores[i], i)):
        if all(apart[i][j] for j in kept):
            kept.append(i)
    return kept


def filter_background_proposals(boxes, rpn, gt_boxes, theta: float, gt_iou_cut: float, nms_iou: float) -> np.ndarray:
    """Background proposals worth mining: confident, off-annotation, deduplicated.

    Of the proposals with ``(n, 4)`` ``boxes`` and objectness scores ``rpn``,
    keeps those with a score >= theta whose IoU with every annotated box
    (``gt_boxes``, ``(g, 4)``) is below ``gt_iou_cut``, then applies greedy
    NMS (``nms_iou``) to the survivors. Returns the kept rows in NMS keep order.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    gt = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    rpn = np.asarray(rpn, dtype=np.float64)
    off_gt = (iou(boxes[:, None], gt[None, :]) < gt_iou_cut).all(axis=1)
    survivors = np.flatnonzero((rpn >= theta) & off_gt)
    return survivors[nms_indices(boxes[survivors], rpn[survivors], nms_iou)]


# -- clustering -------------------------------------------------------------


@dataclass(frozen=True)
class ClusterModel:
    """k-means result: unit-norm centers, assignments, squared-distance objective."""

    centers: np.ndarray
    assignments: np.ndarray
    objective: float
    n_iterations: int
    objective_history: tuple[float, ...] = field(default=())


def _sq_dists(points: np.ndarray, centers: np.ndarray, point_sq: np.ndarray) -> np.ndarray:
    # ||x - c||^2 expanded, with ``point_sq`` the points' squared norms; clamped at zero against
    # rounding on near-duplicates. ``centers`` may carry leading (restart) axes: one product per (k, d) slice.
    d2 = 2.0 * points @ np.swapaxes(centers, -1, -2)
    np.subtract(point_sq[..., :, None], d2, out=d2)
    d2 += (centers * centers).sum(axis=-1)[..., None, :]
    return np.maximum(d2, 0.0, out=d2)


def _update_centers(pts: np.ndarray, assignments: np.ndarray, k: int, own_d2: np.ndarray) -> np.ndarray:
    """Lloyd centre update: every cluster's member mean, normalized onto the unit sphere.

    ``assignments`` and ``own_d2`` are (..., n) with any leading (restart)
    axes; the centres come back as (..., k, d). The member sums are one
    ``onehot.T @ pts`` product per slice. Only two rare cases take a
    per-cluster path: an empty cluster is re-seeded to the point farthest
    from its own centre (``own_d2`` holds each point's squared distance to
    the centre it was assigned to), and a cluster whose mean is near zero
    (an antipodal pair) keeps the direction of its first member.
    """
    onehot = np.zeros((*assignments.shape, k))
    onehot.reshape(-1)[np.arange(assignments.size) * k + assignments.ravel()] = 1.0  # each point's cluster
    counts = onehot.sum(axis=-2)
    means = (np.swapaxes(onehot, -1, -2) @ pts) / np.maximum(counts, 1.0)[..., None]
    # Row-wise dot products: the arithmetic of ``np.linalg.norm`` on one row.
    norms = np.sqrt((means[..., None, :] @ means[..., :, None])[..., 0, 0])
    rare = norms < 1e-12  # every empty cluster too: its mean is zero
    centers = means / np.where(rare, 1.0, norms)[..., None]
    for *lead, j in np.argwhere(rare):
        at = tuple(lead)
        if counts[at][j] == 0:
            row = pts[int(own_d2[at].argmax())]
        else:
            row = pts[int(np.argmax(assignments[at] == j))]
        centers[at][j] = row / np.linalg.norm(row)
    return centers


def kmeans(features, k: int, seed: int) -> ClusterModel:
    """Spherical k-means: k-means++ seeding, Lloyd iterations to a fixpoint.

    Centers are constrained to the unit sphere (normalized member means),
    which minimizes the same squared-distance objective for unit-norm data.
    Empty clusters are re-seeded to the point farthest from its own center.
    Runs ``KMEANS_RESTARTS`` independent seeded initializations of at most
    ``KMEANS_MAX_ITERS`` iterations each and keeps the first with the lowest
    objective; a run whose objective increases raises ``RuntimeError``.

    The restarts run side by side on a leading axis (centres (R, k, d),
    assignments (R, n)), each with its own random stream, and a restart
    stops moving once its assignments repeat. Every product is still one
    BLAS call per restart, so each restart computes the bits it would
    compute alone.
    """
    pts = np.asarray(features, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"k-means features row {int(np.argmin(finite))} is not finite")
    point_sq = (pts * pts).sum(axis=1)
    centers = _seed_centers(pts, k, seed, point_sq)
    restarts = centers.shape[0]

    histories: list[list[float]] = [[] for _ in range(restarts)]
    assignments = np.full((restarts, n), -1, dtype=np.int64)
    objectives = np.empty(restarts)
    active = np.arange(restarts)  # the restarts whose assignments still change
    for iteration in range(1, KMEANS_MAX_ITERS + 1):
        d2 = _sq_dists(pts, centers[active], point_sq)
        new_assign = d2.argmin(axis=-1)
        own_d2 = np.take_along_axis(d2, new_assign[..., None], axis=-1)[..., 0]
        step_objectives = own_d2.sum(axis=-1)
        for r, objective in zip(active, step_objectives.tolist()):
            history = histories[r]
            if history and objective > history[-1] + 1e-9:
                raise RuntimeError(
                    f"k-means objective increased at iteration {iteration} of restart {r}: "
                    f"{history[-1]} -> {objective}"
                )
            history.append(objective)
        moved = (new_assign != assignments[active]).any(axis=1)
        # A converged restart keeps these centres, so its last distances are its final ones.
        objectives[active[~moved]] = step_objectives[~moved]
        assignments[active] = new_assign
        active = active[moved]
        if not active.size:
            break
        centers[active] = _update_centers(pts, new_assign[moved], k, own_d2[moved])
    else:
        d2 = _sq_dists(pts, centers[active], point_sq)
        assignments[active] = d2.argmin(axis=-1)
        own_d2 = np.take_along_axis(d2, assignments[active][..., None], axis=-1)[..., 0]
        objectives[active] = own_d2.sum(axis=-1)

    best = min(range(restarts), key=objectives.__getitem__)
    best_centers, best_assign = centers[best].copy(), assignments[best].copy()
    best_centers.setflags(write=False)
    best_assign.setflags(write=False)
    return ClusterModel(
        centers=best_centers,
        assignments=best_assign,
        objective=float(objectives[best]),
        n_iterations=len(histories[best]),
        objective_history=tuple(histories[best]),
    )


def _seed_centers(pts: np.ndarray, k: int, seed: int, point_sq: np.ndarray) -> np.ndarray:
    """k-means++ seeding of every restart: (R, k, d) unit centres.

    Restart r draws from its own ``default_rng([3, seed, k, r])``; each new
    centre index is one batched distance update over the restarts. The
    distance-weighted pick is ``Generator.choice(n, p=row / total)`` draw for
    draw, taken for all restarts at once: one ``random()`` per restart, and
    the pick is the count of normalized cumulative weights at or below it.
    """
    n = pts.shape[0]
    rngs = [np.random.default_rng([3, int(seed), int(k), r]) for r in range(KMEANS_RESTARTS)]
    norms = np.sqrt((pts[:, None, :] @ pts[:, :, None]).ravel())  # ``np.linalg.norm`` per row
    centers = np.empty((len(rngs), k, pts.shape[1]))
    picks = [int(rng.integers(n)) for rng in rngs]
    centers[:, 0] = pts[picks] / norms[picks, None]
    closest = _sq_dists(pts, centers[:, :1], point_sq)[..., 0]
    for j in range(1, k):
        totals = closest.sum(axis=1)
        # A restart whose points all sit on its centres (a zero total) draws uniformly instead.
        zero = totals <= 0.0
        draws = np.array([rng.integers(n) if z else rng.random() for rng, z in zip(rngs, zero.tolist())],
                         dtype=np.float64)  # an index draw is exact as a float
        with np.errstate(divide="ignore", invalid="ignore"):  # the zero totals, whose cdf goes unread
            cdf = np.cumsum(closest / totals[:, None], axis=1)
            cdf /= cdf[:, -1:]
        picks = np.where(zero, draws.astype(np.int64), np.count_nonzero(cdf <= draws[:, None], axis=1))
        centers[:, j] = pts[picks] / norms[picks, None]
        if j + 1 < k:  # the last centre's distances are never drawn from
            closest = np.minimum(closest, _sq_dists(pts, centers[:, j : j + 1], point_sq)[..., 0])
    return centers


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of ``pts``."""
    sq = (pts * pts).sum(axis=1)
    return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * pts @ pts.T, 0.0))


def silhouette_score(distances: np.ndarray, assignments) -> float:
    """Mean silhouette over all points (Euclidean); singleton clusters score 0.

    ``distances`` is the points' (n, n) pairwise distance matrix, which the
    count sweep computes once for every clustering it scores.
    """
    labels = np.asarray(assignments)
    n = distances.shape[0]
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least two clusters")

    onehot = (labels[:, None] == uniq[None, :]).astype(np.float64)
    sizes = onehot.sum(axis=0)
    sums = distances @ onehot  # per point: summed distance to each cluster
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
            score = silhouette_score(distances, model.assignments)
        results.append((k, score))
    best_k, best_score = max(results, key=lambda kv: (kv[1], -kv[0]))
    return CountEstimate(
        count=best_k,
        best_score=best_score,
        low_confidence=best_score < _LOW_CONFIDENCE_SILHOUETTE,
        scores=tuple(results),
        model=models[best_k],
    )
