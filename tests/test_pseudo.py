"""Center-based scoring, pseudo-label assignment, partitioning, and its loss."""

import math

import numpy as np
import pytest

from ovlab.discovery import filter_background_proposals, iou
from ovlab.losses import objective_terms, proposal_groups, stack_blocks
from ovlab.pseudo import _center_probs, _labels, generate_pseudo_labels

from oracles import OracleProposal, records, rowwise_pseudo_labels, softmax_probs
from util import make_proposal, make_vocab, unit


def center_probs(img_feature, centers, tau):
    """The batched path's center probabilities of one feature."""
    return _center_probs(np.asarray(img_feature, dtype=np.float64)[None, :], centers, tau)[0]


def label_of(img_feature, centers, tau):
    """The labeller's label of one feature: its best center (ties to the smaller index) and that center's score."""
    cats, scores = _labels(_center_probs(np.asarray(img_feature, dtype=np.float64)[None, :], centers, tau))
    return int(cats[0]), float(scores[0])


def test_center_probs_matched_center_saturates():
    centers = np.eye(4)[:3]
    probs = center_probs(np.eye(4)[0], centers, tau=0.02)
    assert probs[0] >= 1.0 - 1e-18
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_center_probs_equidistant_pair():
    centers = np.eye(3)[:2]
    q = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(center_probs(q, centers, tau=0.3), [0.5, 0.5], atol=1e-12)


def test_center_probs_single_center():
    rng = np.random.default_rng(0)
    np.testing.assert_allclose(center_probs(unit(rng, 5), unit(rng, 5)[None, :], 1.0), [1.0])


def test_center_probs_empty_centers():
    with pytest.raises(ValueError):
        center_probs(np.ones(3), np.zeros((0, 3)), tau=1.0)


def test_assign_label_matches_center_index():
    centers = np.eye(5)[:4]
    category, score = label_of(np.eye(5)[2], centers, tau=0.02)
    assert category == 2
    assert score >= 1.0 - 1e-18


def test_assign_label_temperature_invariant_argmax():
    rng = np.random.default_rng(1)
    centers = np.array([unit(rng, 12) for _ in range(6)])
    for _ in range(1000):
        q = unit(rng, 12)
        a = label_of(q, centers, tau=1.0)[0]
        b = label_of(q, centers, tau=0.02)[0]
        assert a == b


def test_assign_label_brute_force_nearest_center():
    rng = np.random.default_rng(2)
    centers = np.array([unit(rng, 8) for _ in range(5)])
    for _ in range(200):
        q = unit(rng, 8)
        picked = label_of(q, centers, tau=0.5)[0]
        best = max(range(5), key=lambda j: (float(q @ centers[j]), -j))
        assert picked == best


def test_assign_label_tie_breaks_to_smaller_index():
    centers = np.stack([np.eye(3)[0], np.eye(3)[0]])  # duplicated center
    assert label_of(np.eye(3)[0], centers, tau=1.0)[0] == 0


def _bg_proposal(rng, d, img_feature=None):
    return make_proposal(unit(rng, d), img_feature=img_feature if img_feature is not None else unit(rng, d))


def test_generate_all_below_threshold():
    rng = np.random.default_rng(3)
    centers = np.array([unit(rng, 6) for _ in range(4)])
    # Features far from every center: scores well under theta at tau = 1.
    props = [_bg_proposal(rng, 6) for _ in range(5)]
    boxes = np.array([(15 * i, 0, 15 * i + 10, 10) for i in range(5)], dtype=np.float64)
    part = generate_pseudo_labels(props, boxes, centers, tau=1.0, theta=0.95, nms_iou=0.5)
    assert part.positives.tolist() == part.categories.tolist() == []
    assert part.negatives.tolist() == list(range(5))


def test_generate_per_class_nms_keeps_best():
    rng = np.random.default_rng(4)
    centers = np.eye(8)[:3]
    b1, b2 = (0, 0, 10, 10), (1, 0, 11, 10)
    assert iou(b1, b2) > 0.5
    hi = make_proposal(unit(rng, 8), img_feature=np.eye(8)[0])
    lo = make_proposal(unit(rng, 8), img_feature=_tilted(np.eye(8)[0], np.eye(8)[3], 0.05))
    part = generate_pseudo_labels([hi, lo], np.array([b1, b2], dtype=np.float64), centers, tau=0.02, theta=0.95,
                                  nms_iou=0.5)
    assert part.positives.tolist() == part.categories.tolist() == [0]
    assert part.negatives.tolist() == [1]


def _tilted(a, b, eps):
    v = a + eps * b
    return v / np.linalg.norm(v)


def test_per_class_nms_spares_other_classes():
    rng = np.random.default_rng(5)
    centers = np.eye(8)[:3]
    b1, b2 = (0, 0, 10, 10), (1, 0, 11, 10)
    first = make_proposal(unit(rng, 8), img_feature=np.eye(8)[0])
    second = make_proposal(unit(rng, 8), img_feature=np.eye(8)[1])
    part = generate_pseudo_labels([first, second], np.array([b1, b2], dtype=np.float64), centers, tau=0.02,
                                  theta=0.95, nms_iou=0.5)
    assert part.categories.tolist() == [0, 1]  # overlapping boxes, different classes


def test_partition_covers_filtered_set_exactly():
    # The labeller filters nothing: every record of the filtered set it is given lands in exactly one
    # half, each half holding int64 positions into its input in ascending order.
    rng = np.random.default_rng(6)
    centers = np.array([unit(rng, 6) for _ in range(3)])
    props = [_bg_proposal(rng, 6) for _ in range(12)]
    boxes = np.array([(12 * i, 0, 12 * i + 10, 10) for i in range(12)], dtype=np.float64)
    gt = [(0, 0, 11, 11)]
    rows = filter_background_proposals(boxes, rng.uniform(0.9, 1.0, 12), gt, theta=0.95, gt_iou_cut=0.5, nms_iou=0.5)
    filtered = [props[i] for i in rows]
    assert 0 < len(filtered) < len(props)
    part = generate_pseudo_labels(filtered, boxes[rows], centers, tau=0.02, theta=0.95, nms_iou=0.5)
    assert part.positives.dtype == part.negatives.dtype == np.int64
    assert sorted(part.positives.tolist() + part.negatives.tolist()) == list(range(len(filtered)))
    for half in (part.positives, part.negatives):
        assert half.tolist() == sorted(half.tolist())
    assert len(part.categories) == len(part.positives)


def test_labels_ignore_detector_features():
    rng = np.random.default_rng(7)
    centers = np.array([unit(rng, 6) for _ in range(3)])
    img_feats = [unit(rng, 6) for _ in range(4)]
    boxes = np.array([(15 * i, 0, 15 * i + 10, 10) for i in range(4)], dtype=np.float64)
    props_a = [make_proposal(unit(rng, 6), img_feature=f) for f in img_feats]
    props_b = [make_proposal(unit(rng, 6), img_feature=f) for f in img_feats]
    part_a = generate_pseudo_labels(props_a, boxes, centers, tau=0.02, theta=0.5, nms_iou=0.5)
    part_b = generate_pseudo_labels(props_b, boxes, centers, tau=0.02, theta=0.5, nms_iou=0.5)
    labels_a, labels_b = ([half.tolist() for half in part] for part in (part_a, part_b))
    assert labels_a == labels_b and labels_a[0]


def _reference_images():
    """The background records of a reference world's 12 train images with their gt boxes, and the prep's centers."""
    from ovlab.encoder import MockTextEncoder
    from ovlab.synth import ScenarioConfig, generate_scenario
    from ovlab.trainer import TrainConfig, prepare_background

    scenario = generate_scenario(ScenarioConfig(n_train_images=12, n_eval_images=0, seed=0), MockTextEncoder(seed=7))
    centers = prepare_background(scenario, TrainConfig(seed=0)).centers
    return [(records(image, np.flatnonzero(image.gt < 0)), image.gt_boxes) for image in scenario.images("train")], centers


def _hand_image(img_features, boxes):
    """One unannotated image whose background records have the given image-encoder rows at ``boxes``, each
    with objectness 0.99 (so the filter keeps every box that no other overlaps by half)."""
    bg = [OracleProposal(box=np.array(b, dtype=np.float64), rpn_score=0.99, det_feature=f, img_feature=f)
          for f, b in zip(img_features, boxes)]
    return [(bg, np.zeros((0, 4)))], np.eye(4)[:2]


_APART = [(0, 0, 10, 10), (20, 0, 30, 10), (40, 0, 50, 10)]
_BETWEEN = [v / np.linalg.norm(v) for v in ([1.0, 1.0, 0.1, 0.0], [1.0, 1.0, 0.0, 0.1], [1.0, 1.0, -0.1, 0.0])]

# name -> (images and centers, the labeller's NMS IoU, the oracle's (positives, negatives) of each image if fixed)
LABELLER_CASES = {
    "reference_world": (_reference_images, 0.5, None),
    "empty": (lambda: _hand_image([], []), 0.5, [([], [])]),
    # Halfway between the two centers: every score is about 1/2, far under theta.
    "nothing_above_theta": (lambda: _hand_image(_BETWEEN, _APART), 0.5, [([], [0, 1, 2])]),
    # One feature at two boxes that overlap by 0.43: equal scores, so the class NMS keeps the lower index.
    "equal_scores_overlap": (lambda: _hand_image([np.eye(4)[0]] * 2, [(0, 0, 10, 10), (4, 0, 14, 10)]), 0.3,
                             [([0], [1])]),
}


def test_one_cosine_matrix_labels_like_the_row_by_row_oracle():
    # Production filters an image's background rows once (``filtered_background``'s filter) and
    # labels the kept records with one cosine matrix; the oracle filters and scores each proposal
    # alone with the scalar filter and softmax. Scores may differ in the last bits, but no label or
    # partition may.
    tau, theta = 0.02, 0.95
    for case, (build, nms_iou, expected) in LABELLER_CASES.items():
        images, centers = build()
        found = []
        for bg, gt_boxes in images:
            boxes = np.array([p.box for p in bg], dtype=np.float64).reshape(-1, 4)
            kept = filter_background_proposals(boxes, [p.rpn_score for p in bg], gt_boxes, theta=theta, gt_iou_cut=0.5,
                                               nms_iou=0.5)
            got = generate_pseudo_labels([bg[i] for i in kept.tolist()], boxes[kept], centers, tau=tau,
                                         theta=theta, nms_iou=nms_iou)
            positives, labels, negatives = rowwise_pseudo_labels(bg, gt_boxes, centers, tau=tau, theta=theta,
                                                                 nms_iou=nms_iou)
            assert kept[got.positives].tolist() == positives, case
            assert kept[got.negatives].tolist() == negatives, case
            assert got.categories.tolist() == [category for category, _ in labels], case
            if labels:
                scores = _labels(_center_probs(np.stack([bg[i].img_feature for i in positives]), centers, tau))[1]
                assert scores.tolist() == pytest.approx([score for _, score in labels], rel=1e-12), case
            found.append((positives, negatives))
        if expected is None:
            assert sum(len(positives) for positives, _ in found) > 0, case
        else:
            assert found == expected, case


def test_theta_out_of_range():
    with pytest.raises(ValueError):
        generate_pseudo_labels([], np.zeros((0, 4)), np.eye(3), tau=1.0, theta=1.0, nms_iou=0.5)


@pytest.mark.parametrize("shape", [(3, 4), (1, 4), (2, 3), (2,), (8,), (2, 4, 1)])
def test_boxes_must_hold_one_row_per_record(shape):
    # Two records take a (2, 4) array; any other shape is refused before a label is computed.
    rng = np.random.default_rng(13)
    props = [_bg_proposal(rng, 6) for _ in range(2)]
    with pytest.raises(ValueError, match=r"^boxes must be a \(2, 4\) array"):
        generate_pseudo_labels(props, np.zeros(shape), np.eye(6)[:3], tau=0.02, theta=0.95, nms_iou=0.5)
    with pytest.raises(ValueError, match=r"^boxes must be a \(0, 4\) array"):
        generate_pseudo_labels([], [], np.eye(6)[:3], tau=0.02, theta=0.95, nms_iou=0.5)


# -- loss ---------------------------------------------------------------------


def _vocab_for_loss(rng, n_base=3, n_disc=2, n_extra=2, d=10):
    eye = np.eye(d)
    return make_vocab(
        base_emb=eye[:n_base],
        under_emb=eye[n_base : n_base + n_disc + n_extra],
        sub=eye[n_base + n_disc + n_extra],
        n_discovered=n_disc,
    )


def _pseudo_loss(positives, categories, negatives, vocab, tau, negative_weight):
    """The objective's pseudo-label component on the given pseudo-positive and pseudo-negative rows alone."""
    blocks = stack_blocks([], [], [], positives, categories, negatives, vocab)
    _, slices, targets, cosines = proposal_groups([blocks], vocab)
    return objective_terms(cosines, slices, targets, vocab, tau, 0.0, negative_weight, True, True).values["pseudo"]


def test_loss_empty_partition_zero():
    rng = np.random.default_rng(8)
    vocab = _vocab_for_loss(rng)
    assert _pseudo_loss([], [], [], vocab, tau=0.5, negative_weight=0.05) == 0.0


def test_loss_brute_force_oracle():
    rng = np.random.default_rng(9)
    vocab = _vocab_for_loss(rng, n_base=3, n_disc=2, n_extra=2, d=10)
    positives = [(unit(rng, 10), int(rng.integers(2))) for _ in range(4)]
    negatives = [unit(rng, 10) for _ in range(3)]
    lam = 0.05
    value = _pseudo_loss([q for q, _ in positives], [c for _, c in positives], negatives, vocab, tau=0.2,
                         negative_weight=lam)

    # Independent evaluation: scalar softmax per proposal, explicit index sets.
    # Positive targets live in the discovered block (positions 3, 4 here);
    # the negative sum runs over the expansion block plus the final slot.
    pos_total = 0.0
    for q, category in positives:
        probs = softmax_probs(q, list(vocab.embeddings), tau=0.2)
        pos_total += -math.log(probs[3 + category])
    neg_total = 0.0
    for q in negatives:
        probs = softmax_probs(q, list(vocab.embeddings), tau=0.2)
        neg_total += -math.log(probs[5] + probs[6] + probs[7])
    oracle = pos_total / len(positives) + lam * neg_total / len(negatives)
    assert value == pytest.approx(oracle, rel=1e-10)


def test_loss_negative_index_set_excludes_discovered():
    # Build two vocabs differing only in the discovered/expansion split; the
    # negative term must change because it sums only the expansion block.
    rng = np.random.default_rng(11)
    eye = np.eye(9)
    kwargs = dict(base_emb=eye[:2], under_emb=eye[2:6], sub=eye[6])
    v_two = make_vocab(n_discovered=2, **kwargs)
    v_three = make_vocab(n_discovered=3, **kwargs)
    negative = unit(rng, 9)
    a = _pseudo_loss([], [], [negative], v_two, tau=0.3, negative_weight=1.0)
    b = _pseudo_loss([], [], [negative], v_three, tau=0.3, negative_weight=1.0)
    assert a != b
    probs = softmax_probs(negative, list(v_two.embeddings), tau=0.3)
    assert a == pytest.approx(-math.log(probs[4] + probs[5] + probs[6]), rel=1e-10)
    assert b == pytest.approx(-math.log(probs[5] + probs[6]), rel=1e-10)


def test_pseudo_label_target_outside_discovered_rejected():
    rng = np.random.default_rng(12)
    vocab = _vocab_for_loss(rng, n_disc=2, n_extra=2)
    with pytest.raises(IndexError):
        _pseudo_loss([unit(rng, 10)], [2], [], vocab, tau=0.5, negative_weight=0.05)
