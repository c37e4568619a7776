"""Box geometry and NMS against the scalar oracles, clustering, count estimation."""

import numpy as np
import pytest

from ovlab.discovery import (
    KMEANS_RESTARTS,
    _distance_matrix,
    estimate_category_count,
    filter_background_proposals,
    iou,
    kmeans,
    nms_indices,
    silhouette_score,
)

from ovlab.encoder import MockTextEncoder
from ovlab.synth import ScenarioConfig, generate_scenario
from ovlab.trainer import TrainConfig, filtered_background, pool_background, prepare_background, sweep_category_count

import oracles
from oracles import (
    as_box,
    filter_background_rows,
    greedy_nms,
    kmeans_per_restart,
    kmeans_restart,
    lloyd_update,
    unique_pseudo_partition,
    unique_silhouette_score,
)
from util import unit


def test_iou_identical():
    b = (1.0, 2.0, 5.0, 7.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0


def test_iou_hand_computed_third():
    # Areas 4 and 4, intersection 2, union 6.
    assert iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_iou_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = _random_box(rng)
        b = _random_box(rng)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def _random_box(rng, span=50.0):
    x1 = rng.uniform(0, span)
    y1 = rng.uniform(0, span)
    return (x1, y1, x1 + rng.uniform(1, 20), y1 + rng.uniform(1, 20))


def _grid_boxes(rng, n):
    """(n, 4) boxes with corners on a coarse grid: identical boxes, shared and touching edges and
    containment all occur often."""
    lo = rng.integers(0, 6, (n, 2))
    return np.concatenate([lo, lo + rng.integers(1, 6, (n, 2))], axis=1).astype(np.float64)


def _mixed_boxes(rng, n):
    """(n, 4) boxes: half on the grid of ``_grid_boxes``, half with random float corners."""
    floats = np.array([_random_box(rng, 8.0) for _ in range(n - n // 2)]).reshape(-1, 4)
    return rng.permutation(np.concatenate([_grid_boxes(rng, n // 2), floats]))


def _brute_force_nms(boxes, scores, threshold):
    """Independent exhaustive suppression: repeatedly take the best-scored
    unsuppressed box, then mark everything overlapping it."""
    boxes = [as_box(b) for b in boxes]
    remaining = list(range(len(boxes)))
    kept = []
    while remaining:
        best = min(remaining, key=lambda i: (-scores[i], i))
        kept.append(best)
        remaining = [
            i for i in remaining if i != best and oracles.iou(boxes[i], boxes[best]) < threshold
        ]
    return kept


def test_iou_takes_the_scalar_oracles_bits_on_every_pair():
    # Random float boxes and grid boxes (identical, touching with IoU 0, nested), one
    # broadcast call against the one-pair oracle, bit for bit.
    rng = np.random.default_rng(11)
    a, b = _mixed_boxes(rng, 4000), _mixed_boxes(rng, 4000)
    b[::10] = a[::10]  # identical
    b[5::10] = a[5::10] + (a[5::10, 2] - a[5::10, 0])[:, None] * [1, 0, 1, 0]  # touching a's right edge
    want = [oracles.iou(as_box(x), as_box(y)) for x, y in zip(a, b)]
    got = iou(a, b)
    assert got.shape == (4000,) and got.tobytes() == np.array(want).tobytes()
    assert set(want[::10]) == {1.0} and set(want[5::10]) == {0.0}
    nested = [i for i, (x, y) in enumerate(zip(a, b)) if (x[:2] <= y[:2]).all() and (y[2:] <= x[2:]).all()
              and not (x == y).all()]
    assert nested and all(0.0 < want[i] < 1.0 for i in nested)
    matrix = iou(a[:40, None], b[None, :30])
    assert matrix.shape == (40, 30) and matrix[7, 3] == oracles.iou(as_box(a[7]), as_box(b[3]))
    assert iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0  # a shared edge has no area


def test_nms_two_identical_boxes():
    b = (0, 0, 10, 10)
    assert filter_background_proposals([b, b], [0.8, 0.9], [], theta=0.1, gt_iou_cut=0.5, nms_iou=0.5).tolist() == [1]


def test_nms_disjoint_all_kept():
    boxes = [(20 * i, 0, 20 * i + 5, 5) for i in range(6)]
    assert len(filter_background_proposals(boxes, [0.5] * 6, [], theta=0.1, gt_iou_cut=0.5, nms_iou=0.5)) == 6


def test_nms_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = 20
        boxes = [_random_box(rng) for _ in range(n)]
        scores = rng.uniform(0, 1, n).round(2).tolist()  # rounding creates ties
        for thr in (0.3, 0.5, 0.7):
            assert nms_indices(boxes, scores, thr) == _brute_force_nms(boxes, scores, thr)


def test_nms_matches_the_scalar_greedy_oracle():
    # Score ties, identical, touching and nested boxes, at thresholds up to 1.
    rng = np.random.default_rng(12)
    for trial in range(60):
        n = int(rng.integers(0, 25))
        boxes = _mixed_boxes(rng, n)
        scores = rng.integers(0, 4, n) / 4  # many ties
        for thr in (0.1, 0.5, 1.0):
            want = greedy_nms([as_box(b) for b in boxes], scores.tolist(), thr)
            assert nms_indices(boxes, scores, thr) == want


def test_nms_tie_break_lower_index():
    b = (0, 0, 10, 10)
    boxes = [b, b, (100, 100, 110, 110)]
    scores = [0.7, 0.7, 0.7]
    assert nms_indices(boxes, scores, 0.5) == [0, 2]


def test_nms_pseudo_scores():
    # Per-class NMS in pseudo-labelling ranks overlapping boxes by label score.
    boxes = [(0, 0, 10, 10), (1, 1, 11, 11)]
    assert nms_indices(boxes, [0.1, 0.9], 0.5) == [1]


def test_filter_background_proposals_threshold_and_overlap():
    gt = [(0, 0, 10, 10)]
    boxes = [(2, 0, 12, 10), (50, 50, 60, 60), (70, 70, 80, 80)]  # overlapping, low score, good
    assert iou(boxes[0], gt[0]) > 0.5
    kept = filter_background_proposals(boxes, [0.99, 0.90, 0.97], gt, theta=0.95, gt_iou_cut=0.5, nms_iou=0.5)
    assert kept.tolist() == [2]


def test_filter_background_proposals_empty():
    assert filter_background_proposals(np.zeros((0, 4)), [], [], theta=0.95, gt_iou_cut=0.5, nms_iou=0.5).tolist() == []


def test_filter_never_returns_below_threshold():
    rng = np.random.default_rng(3)
    boxes = [_random_box(rng) for _ in range(100)]
    scores = rng.uniform(0, 1, 100)
    for theta in (0.5, 0.9, 0.95):
        kept = filter_background_proposals(boxes, scores, [], theta=theta, gt_iou_cut=0.5, nms_iou=0.5)
        assert (scores[kept] >= theta).all()


def test_filter_matches_the_scalar_oracle_on_random_boxes():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n, g = int(rng.integers(0, 20)), int(rng.integers(0, 4))
        boxes, gt = _mixed_boxes(rng, n), _mixed_boxes(rng, g)
        scores = rng.integers(0, 5, n) / 4
        for theta, cut, nms_iou in ((0.5, 0.5, 0.5), (0.2, 0.3, 0.7), (0.9, 1.0, 1.0)):
            want = filter_background_rows([as_box(b) for b in boxes], scores.tolist(), [as_box(b) for b in gt],
                                          theta, cut, nms_iou)
            got = filter_background_proposals(boxes, scores, gt, theta, gt_iou_cut=cut, nms_iou=nms_iou)
            assert got.tolist() == want


@pytest.mark.parametrize("scenario_seed", [0, 3])
def test_filter_keeps_the_oracles_rows_on_every_image_of_a_reference_world(scenario_seed):
    # Each image's background rows, filtered as an array, keep the rows the one-box-at-a-time
    # filter keeps, in its keep order; the trainer pools exactly those rows of the train split.
    import ovlab.trainer as trainer_mod

    scenario = generate_scenario(ScenarioConfig(seed=scenario_seed), MockTextEncoder(seed=7))
    config = TrainConfig()
    settings = dict(theta=config.score_threshold, gt_iou_cut=config.gt_iou_cut, nms_iou=config.nms_iou)
    kept = {}
    for split in ("train", "eval"):
        kept[split] = []
        for image in scenario.images(split):
            background = np.flatnonzero(image.gt < 0)
            want = filter_background_rows([as_box(b) for b in image.boxes[background]], image.rpn[background].tolist(),
                                          [as_box(b) for b in image.gt_boxes], **settings)
            got = filter_background_proposals(image.boxes[background], image.rpn[background], image.gt_boxes,
                                              **settings)
            assert got.tolist() == want
            kept[split].append(background[want].tolist())
    assert [rows.tolist() for rows in trainer_mod.filtered_background(scenario, config)] == kept["train"]
    assert sum(map(len, kept["train"])) > len(kept["train"])  # most images keep more than one row


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


def test_kmeans_objective_increase_raises(monkeypatch):
    # A broken centre update (the antipode of the mean) must stop the run,
    # also under ``python -O``, which strips asserts.
    import ovlab.discovery as discovery

    rng = np.random.default_rng(6)
    pts = np.array([unit(rng, 8) for _ in range(120)])
    update_centers = discovery._update_centers
    monkeypatch.setattr(discovery, "_update_centers", lambda *args: -update_centers(*args))
    with pytest.raises(RuntimeError, match="objective increased"):
        kmeans(pts, k=4, seed=1)


# The matmul sums members in another order than the per-cluster mean: the
# centres may differ by rounding, up to one float64 epsilon (2.2e-16).
EPS = np.finfo(np.float64).eps


def _update_case(name):
    """(points, assignments, k, own_d2) of one Lloyd-update case."""
    rng = np.random.default_rng(11)
    own_d2 = rng.uniform(0.0, 4.0, 200)
    if name == "empty":  # cluster 3 of 4 has no members
        pts = np.array([unit(rng, 8) for _ in range(40)])
        return pts, rng.integers(0, 3, len(pts)), 4, own_d2[: len(pts)]
    if name == "antipodal":  # cluster 0 is the pair x, -x: its mean is exactly zero
        x = unit(rng, 8)
        pts = np.vstack([x, -x, [unit(rng, 8) for _ in range(20)]])
        return pts, np.r_[0, 0, rng.integers(1, 3, 20)], 3, own_d2[: len(pts)]
    k = int(name.removeprefix("random-k"))
    pts = np.array([unit(rng, 16) for _ in range(200)])
    return pts, rng.integers(0, k, len(pts)), k, own_d2


@pytest.mark.parametrize("case", ["random-k2", "random-k5", "random-k9", "empty", "antipodal"])
def test_center_update_matches_per_cluster_oracle(case):
    import ovlab.discovery as discovery

    pts, assign, k, own_d2 = _update_case(case)
    got = discovery._update_centers(pts, assign, k, own_d2)
    want = lloyd_update(pts, assign, k, own_d2)
    assert np.abs(got - want).max() <= EPS
    np.testing.assert_array_equal(
        *(discovery._sq_dists(pts, c, (pts * pts).sum(axis=1)).argmin(axis=1) for c in (got, want))
    )
    if case == "empty":
        far = pts[int(own_d2.argmax())]
        np.testing.assert_array_equal(got[3], far / np.linalg.norm(far))
    if case == "antipodal":
        np.testing.assert_array_equal(got[0], pts[0] / np.linalg.norm(pts[0]))


def test_kmeans_with_per_cluster_oracle_update_agrees(monkeypatch):
    import ovlab.discovery as discovery

    rng = np.random.default_rng(12)
    pts = np.array([unit(rng, 8) for _ in range(150)])
    fast = [kmeans(pts, k, seed=k) for k in (2, 4, 7)]
    # ``kmeans`` updates a batch of restarts at once; the oracle takes one restart.
    monkeypatch.setattr(discovery, "_update_centers", lambda pts, assign, k, own_d2: np.stack(
        [lloyd_update(pts, a, k, o) for a, o in zip(assign, own_d2)]
    ))
    for k, model in zip((2, 4, 7), fast):
        slow = kmeans(pts, k, seed=k)
        np.testing.assert_array_equal(model.assignments, slow.assignments)
        assert np.abs(model.centers - slow.centers).max() <= EPS


def _assert_same_bits(got, want):
    assert got.centers.shape == want.centers.shape
    assert got.centers.tobytes() == want.centers.tobytes()
    np.testing.assert_array_equal(got.assignments, want.assignments)
    assert got.objective.hex() == want.objective.hex()
    assert got.objective_history == want.objective_history
    assert got.n_iterations == want.n_iterations


@pytest.mark.parametrize("scenario_seed", range(6))
def test_kmeans_matches_the_per_restart_oracle_on_reference_pools(scenario_seed):
    scenario = generate_scenario(ScenarioConfig(seed=scenario_seed, n_eval_images=0), MockTextEncoder(seed=7))
    pool = pool_background(scenario, filtered_background(scenario, TrainConfig()))
    for k in range(2, 13):
        _assert_same_bits(kmeans(pool, k, seed=0), kmeans_per_restart(pool, k, seed=0))


def _antipodal_points(rng):
    x = unit(rng, 8)
    return np.vstack([x, -x])


@pytest.mark.parametrize("case", [
    "random", "k=1", "k=n", "duplicates-k2", "duplicates-k=n", "antipodal-pair", "antipodal-among-others",
])
def test_kmeans_matches_the_per_restart_oracle(case):
    rng = np.random.default_rng(15)
    random = np.array([unit(rng, 8) for _ in range(50)])
    a, b = np.eye(3)[:2]
    pts, ks = {
        "random": (random, (2, 3, 5, 9, 17)),
        "k=1": (random, (1,)),
        "k=n": (random, (50,)),
        "duplicates-k2": (np.array([a, a, a, a]), (2,)),  # one cluster goes empty and is re-seeded
        "duplicates-k=n": (np.array([a, a, a, b, b]), (3, 5)),
        "antipodal-pair": (_antipodal_points(rng), (1,)),  # the pair's mean is exactly zero
        "antipodal-among-others": (np.vstack([_antipodal_points(rng), random[:6]]), (1, 2, 3)),
    }[case]
    for k in ks:
        for seed in (0, 1, 2):
            _assert_same_bits(kmeans(pts, k, seed=seed), kmeans_per_restart(pts, k, seed=seed))


def test_kmeans_restarts_that_converge_at_different_iterations_match_the_oracle():
    rng = np.random.default_rng(16)
    pts, _, _ = _blobs(rng, 5, 30, d=8, sep_to_noise=1.5)
    iterations = {kmeans_restart(pts, 5, 4, r).n_iterations for r in range(KMEANS_RESTARTS)}
    assert len(iterations) > 2, iterations
    _assert_same_bits(kmeans(pts, 5, seed=4), kmeans_per_restart(pts, 5, seed=4))


def test_kmeans_objective_increase_in_one_restart_raises(monkeypatch):
    # Only the first restart of each batched update gets the antipodes of
    # its means; the other restarts of the batch are updated correctly.
    import ovlab.discovery as discovery

    rng = np.random.default_rng(6)
    pts = np.array([unit(rng, 8) for _ in range(120)])
    update_centers = discovery._update_centers
    batch_sizes = []

    def corrupt_first(pts, assignments, k, own_d2):
        batch_sizes.append(len(assignments))
        centers = update_centers(pts, assignments, k, own_d2)
        centers[0] = -centers[0]
        return centers

    monkeypatch.setattr(discovery, "_update_centers", corrupt_first)
    with pytest.raises(RuntimeError, match=r"objective increased at iteration \d+ of restart 0:"):
        kmeans(pts, k=4, seed=1)
    assert batch_sizes[0] == KMEANS_RESTARTS


@pytest.mark.parametrize("k", [1, 3])
def test_kmeans_refuses_non_finite_features(k):
    rng = np.random.default_rng(17)
    pts = np.array([unit(rng, 4) for _ in range(6)])
    for bad in (np.nan, np.inf):
        pts[4, 1], pts[5, 0] = bad, bad
        with pytest.raises(ValueError, match="features row 4 is not finite"):
            kmeans(pts, k, seed=0)


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
    assert silhouette_score(_distance_matrix(pts), labels) > 0.6


def test_silhouette_needs_two_clusters():
    with pytest.raises(ValueError):
        silhouette_score(_distance_matrix(np.eye(4)), np.zeros(4, dtype=int))


def test_silhouette_lists_its_clusters_as_np_unique_does():
    # Random int labels of every width, negative, repeated and far apart,
    # singleton clusters included: the score is the bytes of the silhouette
    # whose clusters ``np.unique`` lists, and one distinct label is refused by both.
    rng = np.random.default_rng(16)
    for trial in range(300):
        dtype = np.dtype(rng.choice(["int8", "int16", "int32", "int64", "uint8", "uint64"]))
        info = np.iinfo(dtype)
        n = int(rng.integers(1, 25))
        picks = rng.integers(max(int(info.min), -(1 << 62)), min(int(info.max), 1 << 62), int(rng.integers(1, 6)),
                             endpoint=True)
        labels = picks[rng.integers(len(picks), size=n)].astype(dtype)
        distances = _distance_matrix(rng.standard_normal((n, 3)))
        argument = labels.tolist() if trial % 3 == 0 else labels
        if len(set(labels.tolist())) < 2:
            for score in (silhouette_score, unique_silhouette_score):
                with pytest.raises(ValueError, match="at least two clusters"):
                    score(distances, argument)
        else:
            assert silhouette_score(distances, argument) == unique_silhouette_score(distances, argument), labels


def test_a_sweep_over_one_repeated_point_scores_each_k_minus_one():
    # k-means leaves every point in one cluster, which the sweep scores -1, not by the silhouette.
    estimate = estimate_category_count(np.tile(np.eye(5)[0], (6, 1)), 2, 4, seed=0)
    assert estimate.scores == ((2, -1.0), (3, -1.0), (4, -1.0))
    assert estimate.count == 2 and estimate.low_confidence


@pytest.mark.parametrize("seed", range(3))
def test_the_reference_prep_counts_and_labels_as_its_np_unique_forms(seed):
    # On the reference world (scenario and train seed ``seed``), the sweep's
    # scores, the chosen count and every image's pseudo-label partition are
    # the bits the forms that listed labels with ``np.unique`` give.
    scenario = generate_scenario(ScenarioConfig(seed=seed, n_eval_images=0), MockTextEncoder(seed=7))
    config = TrainConfig(seed=seed)
    kept = filtered_background(scenario, config)
    pool = pool_background(scenario, kept)
    distances = _distance_matrix(pool)
    want = []
    for k in range(config.k_min, config.k_max + 1):
        assignments = kmeans(pool, k, seed=seed).assignments
        want.append((k, -1.0 if len(np.unique(assignments)) < 2 else unique_silhouette_score(distances, assignments)))
    assert sweep_category_count(pool, config).scores == tuple(want)
    prep = prepare_background(scenario, config)
    assert prep.n_discovered == max(want, key=lambda kv: (kv[1], -kv[0]))[0]
    for image, rows, got in zip(scenario.images("train"), kept, prep.partitions, strict=True):
        positives, categories, negatives = unique_pseudo_partition(
            image.features[1][rows], image.boxes[rows], prep.centers, config.temperature, config.score_threshold,
            config.pseudo_nms_iou)
        for name, array in (("positives", rows[positives]), ("categories", categories), ("negatives", rows[negatives])):
            assert getattr(got, name).dtype == np.int64 and getattr(got, name).tolist() == array.tolist(), name
    assert sum(len(part.positives) for part in prep.partitions) > 0


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


def test_sweep_scores_equal_the_public_silhouette_per_k():
    # The sweep builds the distance matrix once and shares it; every k's
    # score must be the bytes the public silhouette_score gives on a fresh matrix.
    rng = np.random.default_rng(14)
    pts, _, _ = _blobs(rng, 4, 40, d=8)
    estimate = estimate_category_count(pts, 2, 9, seed=3)
    for k, score in estimate.scores:
        assignments = kmeans(pts, k, seed=3).assignments
        assert score == silhouette_score(_distance_matrix(pts), assignments)


def test_estimate_count_invalid_ranges():
    pts = np.eye(6)
    with pytest.raises(ValueError):
        estimate_category_count(pts, 1, 4, seed=0)
    with pytest.raises(ValueError):
        estimate_category_count(pts, 4, 2, seed=0)
    with pytest.raises(ValueError):
        estimate_category_count(pts, 2, 7, seed=0)
