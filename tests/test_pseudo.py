"""Center-based scoring, pseudo-label assignment, partitioning, and its loss."""

import math

import numpy as np
import pytest

from ovlab.core import softmax_probs
from ovlab.discovery import Box, iou
from ovlab.losses import ProposalBatch, objective_terms, proposal_blocks, proposal_groups
from ovlab.pseudo import (
    BackgroundPartition,
    PseudoLabel,
    _center_probs,
    assign_pseudo_label,
    generate_pseudo_labels,
)

from oracles import rowwise_pseudo_labels
from util import make_proposal, make_vocab, unit


def center_probs(img_feature, centers, tau):
    """The batched path's center probabilities of one feature."""
    return _center_probs(np.asarray(img_feature, dtype=np.float64)[None, :], centers, tau)[0]


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
    label = assign_pseudo_label(np.eye(5)[2], centers, tau=0.02)
    assert label.category == 2
    assert label.score >= 1.0 - 1e-18


def test_assign_label_temperature_invariant_argmax():
    rng = np.random.default_rng(1)
    centers = np.array([unit(rng, 12) for _ in range(6)])
    for _ in range(1000):
        q = unit(rng, 12)
        a = assign_pseudo_label(q, centers, tau=1.0).category
        b = assign_pseudo_label(q, centers, tau=0.02).category
        assert a == b


def test_assign_label_brute_force_nearest_center():
    rng = np.random.default_rng(2)
    centers = np.array([unit(rng, 8) for _ in range(5)])
    for _ in range(200):
        q = unit(rng, 8)
        picked = assign_pseudo_label(q, centers, tau=0.5).category
        best = max(range(5), key=lambda j: (float(q @ centers[j]), -j))
        assert picked == best


def test_assign_label_tie_breaks_to_smaller_index():
    centers = np.stack([np.eye(3)[0], np.eye(3)[0]])  # duplicated center
    assert assign_pseudo_label(np.eye(3)[0], centers, tau=1.0).category == 0


def _bg_proposal(rng, d, box, rpn=0.97, img_feature=None):
    feat = unit(rng, d)
    return make_proposal(
        feat, img_feature=img_feature if img_feature is not None else unit(rng, d),
        box=box, rpn_score=rpn,
    )


def test_generate_all_below_threshold():
    rng = np.random.default_rng(3)
    centers = np.array([unit(rng, 6) for _ in range(4)])
    # Features far from every center: scores well under theta at tau = 1.
    props = [
        _bg_proposal(rng, 6, Box(15 * i, 0, 15 * i + 10, 10)) for i in range(5)
    ]
    part = generate_pseudo_labels(props, [], centers, tau=1.0, theta=0.95)
    assert part.positives == ()
    assert len(part.negatives) > 0


def test_generate_per_class_nms_keeps_best():
    rng = np.random.default_rng(4)
    centers = np.eye(8)[:3]
    b1, b2 = Box(0, 0, 10, 10), Box(1, 0, 11, 10)
    assert iou(b1, b2) > 0.5
    hi = make_proposal(unit(rng, 8), img_feature=np.eye(8)[0], box=b1, rpn_score=0.99)
    lo = make_proposal(unit(rng, 8), img_feature=_tilted(np.eye(8)[0], np.eye(8)[3], 0.05), box=b2, rpn_score=0.98)
    part = generate_pseudo_labels(
        [hi, lo], [], centers, tau=0.02, theta=0.95, rpn_nms_iou=1.0
    )
    kept = [p for p, _ in part.positives]
    assert kept == [hi]
    assert lo in part.negatives


def _tilted(a, b, eps):
    v = a + eps * b
    return v / np.linalg.norm(v)


def test_per_class_nms_spares_other_classes():
    rng = np.random.default_rng(5)
    centers = np.eye(8)[:3]
    b1, b2 = Box(0, 0, 10, 10), Box(1, 0, 11, 10)
    first = make_proposal(unit(rng, 8), img_feature=np.eye(8)[0], box=b1, rpn_score=0.99)
    second = make_proposal(unit(rng, 8), img_feature=np.eye(8)[1], box=b2, rpn_score=0.98)
    part = generate_pseudo_labels(
        [first, second], [], centers, tau=0.02, theta=0.95, rpn_nms_iou=1.0
    )
    assert len(part.positives) == 2  # overlapping boxes, different classes


def test_partition_covers_filtered_set_exactly():
    rng = np.random.default_rng(6)
    centers = np.array([unit(rng, 6) for _ in range(3)])
    props = [
        _bg_proposal(rng, 6, Box(12 * i, 0, 12 * i + 10, 10), rpn=float(rng.uniform(0.9, 1.0)))
        for i in range(12)
    ]
    gt = [Box(0, 0, 11, 11)]
    part = generate_pseudo_labels(props, gt, centers, tau=0.02, theta=0.95)
    from ovlab.discovery import filter_background_proposals

    filtered = filter_background_proposals(props, gt, theta=0.95)
    positives = [p for p, _ in part.positives]
    assert sorted(map(id, positives + list(part.negatives))) == sorted(map(id, filtered))
    assert not (set(map(id, positives)) & set(map(id, part.negatives)))


def test_labels_ignore_detector_features():
    rng = np.random.default_rng(7)
    centers = np.array([unit(rng, 6) for _ in range(3)])
    img_feats = [unit(rng, 6) for _ in range(4)]
    boxes = [Box(15 * i, 0, 15 * i + 10, 10) for i in range(4)]
    props_a = [
        make_proposal(unit(rng, 6), img_feature=f, box=b, rpn_score=0.99)
        for f, b in zip(img_feats, boxes)
    ]
    props_b = [
        make_proposal(unit(rng, 6), img_feature=f, box=b, rpn_score=0.99)
        for f, b in zip(img_feats, boxes)
    ]
    part_a = generate_pseudo_labels(props_a, [], centers, tau=0.02, theta=0.5)
    part_b = generate_pseudo_labels(props_b, [], centers, tau=0.02, theta=0.5)
    labels_a = [(p.box, l.category) for p, l in part_a.positives]
    labels_b = [(p.box, l.category) for p, l in part_b.positives]
    assert labels_a == labels_b


def test_one_cosine_matrix_labels_like_the_row_by_row_oracle():
    # Each image's filtered proposals are scored with one cosine matrix; the
    # oracle scores each proposal alone with the scalar softmax. Scores may
    # differ in the last bits, but no label or partition may.
    from ovlab.encoder import MockTextEncoder
    from ovlab.synth import ScenarioConfig, generate_scenario
    from ovlab.trainer import TrainConfig, prepare_background

    scenario = generate_scenario(ScenarioConfig(n_train_images=12, n_eval_images=0, seed=0), MockTextEncoder(seed=7))
    config = TrainConfig(seed=0)
    _, centers = prepare_background(scenario, config)
    n_positive = 0
    for image in scenario.images("train"):
        bg = [p for p in image.proposals if p.gt_label is None]
        got, want = (label(bg, image.gt_boxes, centers, tau=config.temperature, theta=config.score_threshold)
                     for label in (generate_pseudo_labels, rowwise_pseudo_labels))
        assert [id(p) for p, _ in got.positives] == [id(p) for p, _ in want.positives]
        assert list(map(id, got.negatives)) == list(map(id, want.negatives))
        for (_, g), (_, w) in zip(got.positives, want.positives):
            assert g.category == w.category
            assert g.score == pytest.approx(w.score, rel=1e-12)
        n_positive += len(got.positives)
    assert n_positive > 0


def test_theta_out_of_range():
    with pytest.raises(ValueError):
        generate_pseudo_labels([], [], np.eye(3), tau=1.0, theta=1.0)


# -- loss ---------------------------------------------------------------------


def _vocab_for_loss(rng, n_base=3, n_disc=2, n_extra=2, d=10):
    eye = np.eye(d)
    return make_vocab(
        base_emb=eye[:n_base],
        under_emb=eye[n_base : n_base + n_disc + n_extra],
        sub=eye[n_base + n_disc + n_extra],
        n_discovered=n_disc,
    )


def _pseudo_loss(partition, vocab, tau, negative_weight):
    """The objective's pseudo-label component on a batch with no other proposals."""
    empty = ProposalBatch(foreground=(), background=())
    _, slices, targets, cosines = proposal_groups([proposal_blocks(empty, partition, vocab)], vocab)
    return objective_terms(cosines, slices, targets, vocab, tau, negative_weight=negative_weight).values["pseudo"]


def test_loss_empty_partition_zero():
    rng = np.random.default_rng(8)
    vocab = _vocab_for_loss(rng)
    part = BackgroundPartition(positives=(), negatives=())
    assert _pseudo_loss(part, vocab, tau=0.5, negative_weight=0.05) == 0.0


def test_loss_brute_force_oracle():
    rng = np.random.default_rng(9)
    vocab = _vocab_for_loss(rng, n_base=3, n_disc=2, n_extra=2, d=10)
    positives = tuple(
        (make_proposal(unit(rng, 10)), PseudoLabel(int(rng.integers(2)), 0.99))
        for _ in range(4)
    )
    negatives = tuple(make_proposal(unit(rng, 10)) for _ in range(3))
    part = BackgroundPartition(positives=positives, negatives=negatives)
    lam = 0.05
    value = _pseudo_loss(part, vocab, tau=0.2, negative_weight=lam)

    # Independent evaluation: scalar softmax per proposal, explicit index sets.
    # Positive targets live in the discovered block (positions 3, 4 here);
    # the negative sum runs over the expansion block plus the final slot.
    pos_total = 0.0
    for p, lab in positives:
        probs = softmax_probs(p.det_feature, list(vocab.embeddings), tau=0.2)
        pos_total += -math.log(probs[3 + lab.category])
    neg_total = 0.0
    for p in negatives:
        probs = softmax_probs(p.det_feature, list(vocab.embeddings), tau=0.2)
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
    part = BackgroundPartition(
        positives=(), negatives=(make_proposal(unit(rng, 9)),)
    )
    a = _pseudo_loss(part, v_two, tau=0.3, negative_weight=1.0)
    b = _pseudo_loss(part, v_three, tau=0.3, negative_weight=1.0)
    assert a != b
    probs = softmax_probs(part.negatives[0].det_feature, list(v_two.embeddings), tau=0.3)
    assert a == pytest.approx(-math.log(probs[4] + probs[5] + probs[6]), rel=1e-10)
    assert b == pytest.approx(-math.log(probs[5] + probs[6]), rel=1e-10)


def test_pseudo_label_target_outside_discovered_rejected():
    rng = np.random.default_rng(12)
    vocab = _vocab_for_loss(rng, n_disc=2, n_extra=2)
    part = BackgroundPartition(
        positives=((make_proposal(unit(rng, 10)), PseudoLabel(2, 0.99)),),
        negatives=(),
    )
    with pytest.raises(IndexError):
        _pseudo_loss(part, vocab, tau=0.5, negative_weight=0.05)

