"""Box geometry, NMS against a brute-force oracle, clustering, count estimation."""

import numpy as np
import pytest

from ovlab.discovery import (
    Box,
    Proposal,
    estimate_category_count,
    filter_background_proposals,
    iou,
    kmeans,
    nms,
    nms_indices,
    silhouette_score,
)

from util import make_proposal, unit


def test_iou_identical():
    b = Box(1.0, 2.0, 5.0, 7.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 0.0


def test_iou_hand_computed_third():
    # Areas 4 and 4, intersection 2, union 6.
    assert iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_iou_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = _random_box(rng)
        b = _random_box(rng)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        Box(1.0, 0.0, 1.0, 2.0)


def _random_box(rng, span=50.0):
    x1 = rng.uniform(0, span)
    y1 = rng.uniform(0, span)
    return Box(x1, y1, x1 + rng.uniform(1, 20), y1 + rng.uniform(1, 20))


def _brute_force_nms(boxes, scores, threshold):
    """Independent exhaustive suppression: repeatedly take the best-scored
    unsuppressed box, then mark everything overlapping it."""
    remaining = list(range(len(boxes)))
    kept = []
    while remaining:
        best = min(remaining, key=lambda i: (-scores[i], i))
        kept.append(best)
        remaining = [
            i for i in remaining if i != best and iou(boxes[i], boxes[best]) < threshold
        ]
    return kept


def test_nms_two_identical_boxes():
    b = Box(0, 0, 10, 10)
    props = [make_proposal(np.array([1.0, 0.0]), box=b, rpn_score=0.8),
             make_proposal(np.array([1.0, 0.0]), box=b, rpn_score=0.9)]
    kept = nms(props, iou_threshold=0.5)
    assert len(kept) == 1 and kept[0].rpn_score == 0.9


def test_nms_disjoint_all_kept():
    props = [
        make_proposal(np.array([1.0, 0.0]), box=Box(20 * i, 0, 20 * i + 5, 5), rpn_score=0.5)
        for i in range(6)
    ]
    assert len(nms(props, iou_threshold=0.5)) == 6


def test_nms_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = 20
        boxes = [_random_box(rng) for _ in range(n)]
        scores = rng.uniform(0, 1, n).round(2).tolist()  # rounding creates ties
        for thr in (0.3, 0.5, 0.7):
            assert nms_indices(boxes, scores, thr) == _brute_force_nms(boxes, scores, thr)


def test_nms_tie_break_lower_index():
    b = Box(0, 0, 10, 10)
    boxes = [b, b, Box(100, 100, 110, 110)]
    scores = [0.7, 0.7, 0.7]
    assert nms_indices(boxes, scores, 0.5) == [0, 2]


def test_nms_pseudo_scores():
    b1, b2 = Box(0, 0, 10, 10), Box(1, 1, 11, 11)
    props = [make_proposal(np.array([1.0, 0.0]), box=b1, rpn_score=0.99),
             make_proposal(np.array([1.0, 0.0]), box=b2, rpn_score=0.01)]
    kept = nms(props, 0.5, score_key="pseudo", pseudo_scores=[0.1, 0.9])
    assert kept[0] is props[1]
    with pytest.raises(ValueError):
        nms(props, 0.5, score_key="pseudo")
    with pytest.raises(ValueError):
        nms(props, 0.5, score_key="bogus")


def test_filter_background_proposals_threshold_and_overlap():
    rng = np.random.default_rng(2)
    gt = [Box(0, 0, 10, 10)]
    overlapping = make_proposal(unit(rng, 4), box=Box(2, 0, 12, 10), rpn_score=0.99)
    assert iou(overlapping.box, gt[0]) > 0.5
    low_score = make_proposal(unit(rng, 4), box=Box(50, 50, 60, 60), rpn_score=0.90)
    good = make_proposal(unit(rng, 4), box=Box(70, 70, 80, 80), rpn_score=0.97)
    kept = filter_background_proposals([overlapping, low_score, good], gt, theta=0.95)
    assert kept == [good]


def test_filter_background_proposals_empty():
    assert filter_background_proposals([], [], theta=0.95) == []


def test_filter_never_returns_below_threshold():
    rng = np.random.default_rng(3)
    props = [
        make_proposal(unit(rng, 4), box=_random_box(rng), rpn_score=float(rng.uniform(0, 1)))
        for _ in range(100)
    ]
    for theta in (0.5, 0.9, 0.95):
        for p in filter_background_proposals(props, [], theta=theta):
            assert p.rpn_score >= theta


# -- clustering -------------------------------------------------------------------


def _blobs(rng, n_blobs, per_blob, d, sep_to_noise=8.0):
    """Unit-norm blobs whose center separation is sep_to_noise times the
    typical noise displacement (the noise vector's norm, sigma * sqrt(d))."""
    centers = []
    while len(centers) < n_blobs:
        c = unit(rng, d)
        if all(abs(float(c @ p)) < 0.5 for p in centers):
            centers.append(c)
    dists = [
        np.linalg.norm(centers[i] - centers[j])
        for i in range(n_blobs)
        for j in range(i + 1, n_blobs)
    ]
    sigma = min(dists) / (sep_to_noise * np.sqrt(d))
    points, labels = [], []
    for label, c in enumerate(centers):
        for _ in range(per_blob):
            v = c + sigma * rng.standard_normal(d)
            points.append(v / np.linalg.norm(v))
            labels.append(label)
    return np.array(points), np.array(labels), np.array(centers)


def test_kmeans_two_exact_locations():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    pts = np.array([a, a, a, b, b])
    model = kmeans(pts, k=2, seed=0)
    assert model.objective == pytest.approx(0.0, abs=1e-12)
    recovered = {tuple(np.round(c, 9)) for c in model.centers}
    assert recovered == {tuple(a), tuple(b)}


def test_kmeans_single_cluster_is_normalized_mean():
    rng = np.random.default_rng(4)
    pts = np.array([unit(rng, 5) for _ in range(20)])
    model = kmeans(pts, k=1, seed=0)
    mean = pts.mean(axis=0)
    np.testing.assert_allclose(model.centers[0], mean / np.linalg.norm(mean), atol=1e-12)


def test_kmeans_blob_purity_against_generative_labels():
    rng = np.random.default_rng(5)
    pts, labels, centers = _blobs(rng, 3, 200, d=16)
    model = kmeans(pts, k=3, seed=7)
    # Oracle: nearest generative prototype.
    for j in range(3):
        members = labels[model.assignments == j]
        assert len(members) > 0
        assert (members == members[0]).all()


def test_kmeans_objective_non_increasing():
    rng = np.random.default_rng(6)
    pts = np.array([unit(rng, 8) for _ in range(120)])
    for k in (2, 4, 7):
        model = kmeans(pts, k=k, seed=1)
        hist = model.objective_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    pts = np.array([unit(rng, 6) for _ in range(50)])
    m1 = kmeans(pts, k=4, seed=3)
    m2 = kmeans(pts, k=4, seed=3)
    assert np.array_equal(m1.centers, m2.centers)
    assert np.array_equal(m1.assignments, m2.assignments)


def test_kmeans_k_out_of_range():
    pts = np.eye(4)
    with pytest.raises(ValueError):
        kmeans(pts, k=5, seed=0)
    with pytest.raises(ValueError):
        kmeans(pts, k=0, seed=0)


def test_kmeans_duplicate_points_more_centers_than_locations():
    # All mass on one location with k=2: one cluster goes empty and is
    # re-seeded; the run must terminate with a zero objective.
    a = np.array([0.0, 1.0, 0.0])
    pts = np.array([a, a, a, a])
    model = kmeans(pts, k=2, seed=0)
    assert model.objective == pytest.approx(0.0, abs=1e-15)
    assert model.assignments.shape == (4,)


def test_kmeans_every_point_nearest_its_center():
    rng = np.random.default_rng(8)
    pts = np.array([unit(rng, 10) for _ in range(80)])
    model = kmeans(pts, k=5, seed=2)
    d2 = ((pts[:, None, :] - model.centers[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(model.assignments, d2.argmin(axis=1))


def test_silhouette_separated_blobs_high():
    rng = np.random.default_rng(9)
    pts, labels, _ = _blobs(rng, 3, 60, d=8)
    assert silhouette_score(pts, labels) > 0.6


def test_silhouette_needs_two_clusters():
    with pytest.raises(ValueError):
        silhouette_score(np.eye(4), np.zeros(4, dtype=int))


def test_estimate_count_recovers_five_blobs():
    rng = np.random.default_rng(10)
    pts, _, _ = _blobs(rng, 5, 100, d=16)
    estimate = estimate_category_count(pts, 2, 10, seed=0)
    assert estimate.count == 5
    assert not estimate.low_confidence


def test_estimate_count_single_blob_low_confidence():
    rng = np.random.default_rng(11)
    c = unit(rng, 16)
    pts = np.array([c + 0.05 * rng.standard_normal(16) for _ in range(150)])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    estimate = estimate_category_count(pts, 2, 6, seed=0)
    assert estimate.count == 2  # the sweep floor
    assert estimate.low_confidence


def test_estimate_count_deterministic():
    rng = np.random.default_rng(12)
    pts, _, _ = _blobs(rng, 4, 50, d=8)
    a = estimate_category_count(pts, 2, 8, seed=5)
    b = estimate_category_count(pts, 2, 8, seed=5)
    assert a == b


def test_estimate_count_returns_the_winning_clustering():
    rng = np.random.default_rng(13)
    pts, _, _ = _blobs(rng, 4, 50, d=8)
    estimate = estimate_category_count(pts, 2, 8, seed=5)
    again = kmeans(pts, estimate.count, seed=5)
    np.testing.assert_array_equal(estimate.model.centers, again.centers)
    np.testing.assert_array_equal(estimate.model.assignments, again.assignments)


def test_estimate_count_invalid_ranges():
    pts = np.eye(6)
    with pytest.raises(ValueError):
        estimate_category_count(pts, 1, 4, seed=0)
    with pytest.raises(ValueError):
        estimate_category_count(pts, 4, 2, seed=0)
    with pytest.raises(ValueError):
        estimate_category_count(pts, 2, 7, seed=0)
