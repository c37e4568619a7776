"""Independent scalar references that tests compare the production paths against.

Each one computes its quantity the slow, direct way (one pair, one category
pair, one coordinate, one cluster or one proposal at a time) from the
``ovlab.core`` primitives only. A few are exceptions. The encoder's
Jacobian-vector product reads the encoder's frozen weights; it is the
forward-mode derivative that the reverse-mode ``encode_context_vjp`` is
checked against. The per-restart k-means runs the production distance and
centre-update helpers on one restart's 2-D arrays, as ``kmeans`` ran before
it carried its restarts on one axis. The unfused training step, the
two-block SGD update and the row-by-row pseudo-labeller at the end are those
steps as written before training computed each quantity once, kept to show
the fast paths compute alike. The per-proposal scenario generator and the
joined-text dataset writer are the generator and writer as they were before
each image's draws were taken in a few calls and its file was streamed.
The whole-file dataset parser is the loader as it was before it read the
file one image at a time; these three build per-proposal records, as the
package did before an image held its proposals as columns. The
per-proposal evaluation tally is ``evaluate`` as it was before it took each
image's decisions and tally as arrays. The box oracles (``Box``, ``iou``,
``greedy_nms`` and ``filter_background_rows``) are the package's box
geometry as it was before a box became a row of a float array, one
``Box`` pair at a time; the per-proposal generator, writer and parser hold
``Box``es, and the parser refuses each box alone with the loader's message.
"""

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ovlab.core import (
    NORM_FLOOR,
    DimensionMismatchError,
    check_temperature,
    cosine,
    cosine_matrix,
    from_dict,
    is_integer,
    log_softmax_rows,
    logsumexp,
    softmax_probs,
)
from ovlab.discovery import (
    KMEANS_MAX_ITERS,
    KMEANS_RESTARTS,
    ClusterModel,
    OracleInfo,
    Proposal,
    _sq_dists,
    _update_centers,
)
from ovlab.encoder import MockTextEncoder
from ovlab.losses import GROUPS, MASS_BRANCH, UNIFORM_BRANCH, LossBreakdown, ProposalBlocks
from ovlab.metrics import BACKGROUND_KEY, EvalReport, inference_vocab
from ovlab.persist import canonical_json
from ovlab.pseudo import BackgroundPartition, PseudoLabel
from ovlab.rectify import compute_shrinking_factors, score
from ovlab.synth import (
    DATASET_FORMAT,
    DATASET_VERSION,
    SPLITS,
    _FEATURES,
    _SOURCES,
    Scenario,
    ScenarioConfig,
    _where,
)
from ovlab.trainer import Checkpoint, Params
from ovlab.vocab import CategoryId, Kind, Vocabulary


# -- boxes, one pair at a time --------------------------------------------------


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box in image units, corners (x1, y1) < (x2, y2): the box of the per-proposal oracles."""

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


def as_box(box) -> Box:
    """A ``Box`` from a ``Box`` or from a row of corners (x1, y1, x2, y2)."""
    return box if isinstance(box, Box) else Box(*np.asarray(box, dtype=np.float64).tolist())


def corners(box) -> list[float]:
    """The corners (x1, y1, x2, y2) of a ``Box`` or of a row of an array, as a list."""
    return as_box(box).to_list()


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def greedy_nms(boxes, scores, iou_threshold: float) -> list[int]:
    """``discovery.nms_indices`` one pair at a time: candidates by descending score (ties to the lower
    index), each kept iff its IoU with every box kept before it is below the threshold."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) < iou_threshold for j in kept):
            kept.append(i)
    return kept


def filter_background_rows(boxes, scores, gt_boxes, theta: float, gt_iou_cut: float = 0.5,
                           nms_iou: float = 0.5) -> list[int]:
    """``discovery.filter_background_proposals`` one box at a time, over lists of ``Box``: the rows
    scoring at least ``theta`` whose IoU with every gt box is below ``gt_iou_cut``, through ``greedy_nms``."""
    survivors = [i for i, (box, score) in enumerate(zip(boxes, scores))
                 if score >= theta and all(iou(box, g) < gt_iou_cut for g in gt_boxes)]
    kept = greedy_nms([boxes[i] for i in survivors], [scores[i] for i in survivors], nms_iou)
    return [survivors[i] for i in kept]


def cos_exp_score(a, b, tau: float) -> float:
    """Unnormalized category score exp(cos(a, b) / tau); strictly positive."""
    return math.exp(cosine(a, b) / check_temperature(tau))


def _position(vocab: Vocabulary, cat: CategoryId) -> int:
    if cat.kind is Kind.NOVEL:
        return vocab.novel_slice.start + vocab.novel_ids.index(cat.index)
    if not (0 <= cat.index < vocab.n_underlying):
        raise IndexError(f"underlying index {cat.index} out of range")
    return vocab.underlying_slice.start + cat.index


def conditional_prob(
    c_novel: CategoryId, c_underlying: CategoryId, vocab: Vocabulary, tau: float
) -> float:
    """Probability that an underlying category's concept is the given novel one.

    Sample-agnostic: computed purely from embedding similarities, as the
    underlying embedding's score for the novel embedding normalized over
    every other category in the inference vocabulary.
    """
    tau = check_temperature(tau)
    if not vocab.inference:
        raise ValueError("inference vocabulary required")
    if c_novel.kind is not Kind.NOVEL:
        raise ValueError(f"first argument must be a novel category, got {c_novel.kind}")
    if c_underlying.kind is not Kind.UNDERLYING:
        raise ValueError(f"second argument must be an underlying category, got {c_underlying.kind}")
    anchor_pos = _position(vocab, c_underlying)
    novel_pos = _position(vocab, c_novel)
    z = cosine_matrix(vocab.embeddings[anchor_pos][None, :], vocab.embeddings)[0] / tau
    others = np.delete(np.arange(vocab.size), anchor_pos)
    return math.exp(z[novel_pos] - logsumexp(z[others]))


def central_difference(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    The elementary stencil (f(x + h e_i) - f(x - h e_i)) / 2h: exact for
    quadratics, O(h^2) truncation error in the smooth regime.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def encode_context_jvp(enc: MockTextEncoder, v, direction) -> np.ndarray:
    """Jacobian-vector product of ``enc.encode_context`` at one vector v, including normalization."""
    v, d = np.asarray(v, dtype=np.float64), np.asarray(direction, dtype=np.float64)
    if v.shape != (enc.ctx_dim,) or d.shape != (enc.ctx_dim,):
        raise DimensionMismatchError(
            f"context vector and direction must have shape ({enc.ctx_dim},), got {v.shape} and {d.shape}"
        )
    hidden, ny, yhat = (x[0] for x in enc.forward(v))
    da = enc._w1[:, enc.prefix_dim :] @ d
    dy = enc._w2 @ ((1.0 - hidden**2) * da)
    return (dy - np.dot(yhat, dy) * yhat) / ny


def _normalized_mean(rows: np.ndarray) -> np.ndarray:
    m = rows.mean(axis=0)
    n = np.linalg.norm(m)
    if n < 1e-12:
        # Pathological antipodal cluster; keep a deterministic direction.
        m = rows[0]
        n = np.linalg.norm(m)
    return m / n


def lloyd_update(pts: np.ndarray, assignments: np.ndarray, k: int, own_d2: np.ndarray) -> np.ndarray:
    """Spherical Lloyd centre update, one cluster at a time.

    An empty cluster is re-seeded to the point with the largest ``own_d2``
    (its squared distance to the centre it was assigned to); every other
    cluster takes its normalized member mean.
    """
    centers = np.empty((k, pts.shape[1]))
    for j in range(k):
        members = pts[assignments == j]
        if len(members) == 0:
            far = int(own_d2.argmax())
            centers[j] = pts[far] / np.linalg.norm(pts[far])
        else:
            centers[j] = _normalized_mean(members)
    return centers


def kmeans_restart(pts: np.ndarray, k: int, seed: int, restart: int) -> ClusterModel:
    """One k-means restart on its own: k-means++ seeding, then Lloyd iterations on 2-D arrays.

    Draws from ``default_rng([3, seed, k, restart])`` and runs the production
    ``_sq_dists`` and ``_update_centers`` on one (k, d) centre block at a time.
    """
    n = pts.shape[0]
    rng = np.random.default_rng([3, int(seed), int(k), int(restart)])
    point_sq = (pts * pts).sum(axis=1)

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
    return ClusterModel(
        centers=centers,
        assignments=assignments,
        objective=objective,
        n_iterations=len(history),
        objective_history=tuple(history),
    )


def kmeans_per_restart(features, k: int, seed: int) -> ClusterModel:
    """``discovery.kmeans`` one restart after another: the first restart with the lowest objective."""
    pts = np.asarray(features, dtype=np.float64)
    best = None
    for restart in range(KMEANS_RESTARTS):
        model = kmeans_restart(pts, k, seed, restart)
        if best is None or model.objective < best.objective:
            best = model
    return best


def proposal_groups(batch, partition, vocab: Vocabulary):
    """Stacked features, group row slices, targets and cosines, assembled proposal by proposal.

    Rows run through the groups "foreground", "background", "pseudo_positive"
    and "pseudo_negative" (the last two from a pseudo-label partition, if
    any); each target is looked up in the vocabulary per proposal.
    """
    positives = partition.positives if partition is not None else ()
    negatives = partition.negatives if partition is not None else ()
    groups = {
        "foreground": [p.det_feature for p in batch.foreground],
        "background": [p.det_feature for p in batch.background],
        "pseudo_positive": [p.det_feature for p, _ in positives],
        "pseudo_negative": [p.det_feature for p in negatives],
    }
    targets = {
        "foreground": np.array([vocab.base_position(p.gt_label) for p in batch.foreground], dtype=np.int64),
        "pseudo_positive": np.array(
            [vocab.underlying_position(lab.category) for _, lab in positives], dtype=np.int64
        ),
    }
    slices, rows = {}, []
    for name, feats in groups.items():
        if feats:
            slices[name] = slice(len(rows), len(rows) + len(feats))
            rows.extend(feats)
    features = np.stack(rows) if rows else np.zeros((0, vocab.dim))
    return features, slices, targets, cosine_matrix(features, vocab.embeddings)


# -- the unfused training step --------------------------------------------------


def raw_proposal_blocks(batch, partition, vocab: Vocabulary) -> ProposalBlocks:
    """``losses.proposal_blocks`` with the detector rows as given, not unit-normalized."""
    return raw_stack_blocks([p.det_feature for p in batch.foreground], [p.gt_label for p in batch.foreground],
                            [p.det_feature for p in batch.background], partition, vocab)


def raw_stack_blocks(foreground, labels, background, partition, vocab: Vocabulary) -> ProposalBlocks:
    """``losses.stack_blocks`` with the detector rows as given, not unit-normalized."""
    positives = partition.positives if partition is not None else ()
    negatives = partition.negatives if partition is not None else ()
    rows = {
        "foreground": list(foreground),
        "background": list(background),
        "pseudo_positive": [p.det_feature for p, _ in positives],
        "pseudo_negative": [p.det_feature for p in negatives],
    }
    features = {name: np.stack(r) if r else np.zeros((0, vocab.dim)) for name, r in rows.items()}
    targets = {
        "foreground": np.array([vocab.base_position(label) for label in labels], dtype=np.int64),
        "pseudo_positive": np.array(
            [vocab.underlying_position(lab.category) for _, lab in positives], dtype=np.int64
        ),
    }
    return ProposalBlocks(features, targets)


def _nll(logits, targets):
    logp = log_softmax_rows(logits)
    rows = np.arange(logits.shape[0])
    grad = np.exp(logp)
    grad[rows, targets] -= 1.0
    return -logp[rows, targets], grad


def _mass(logits, members):
    logp = log_softmax_rows(logits)
    member_logp = logp[:, members]
    shift = member_logp.max(axis=1, keepdims=True)
    log_mass = (np.log(np.exp(member_logp - shift).sum(axis=1, keepdims=True)) + shift).ravel()
    grad = np.exp(logp)
    grad[:, members] -= np.exp(member_logp - log_mass[:, None])
    return -log_mass, grad, np.exp(log_mass)


def _uniform(logits, members):
    logp = log_softmax_rows(logits)
    grad = np.exp(logp)
    grad[:, members] -= 1.0 / len(members)
    return -logp[:, members].mean(axis=1), grad


def unfused_loss_and_gradients(blocks, vocab: Vocabulary, config, component: str = "final"):
    """``trainer.loss_and_gradients`` on ``raw_proposal_blocks``, every quantity computed where it is used.

    Raw rows go through ``cosine_matrix``; each group takes its own
    log-softmax (the background group two); all five component gradients are
    filled and the toggled ones summed to "final"; and the pullback runs the
    encoder forward again.
    """
    slices, parts, start = {}, [], 0
    for name in GROUPS:
        n = sum(len(b.features[name]) for b in blocks)
        if n:
            slices[name] = slice(start, start + n)
            start += n
            parts.extend(b.features[name] for b in blocks)
    features = np.concatenate(parts) if parts else np.zeros((0, vocab.dim))
    targets = {name: np.concatenate([np.zeros(0, np.int64)] + [b.targets[name] for b in blocks])
               for name in ("foreground", "pseudo_positive")}
    cosines = cosine_matrix(features, vocab.embeddings)

    z = cosines / config.temperature
    values = dict.fromkeys(("foreground", "mass", "uniform", "switched", "pseudo"), 0.0)
    grads = {name: np.zeros_like(z) for name in values}
    branches = ()
    if "foreground" in slices:
        rows = slices["foreground"]
        vals, g = _nll(z[rows], targets["foreground"])
        values["foreground"] = float(vals.mean())
        grads["foreground"][rows] = g / g.shape[0]
    if "background" in slices:
        rows = slices["background"]
        mass_vals, g_mass, masses = _mass(z[rows], vocab.background_indices())
        uniform_vals, g_uniform = _uniform(z[rows], vocab.background_indices())
        branches = tuple(MASS_BRANCH if m >= config.relax_threshold else UNIFORM_BRANCH for m in masses)
        sel = np.array([b == MASS_BRANCH for b in branches])
        n = len(branches)
        values["mass"], values["uniform"] = float(mass_vals.mean()), float(uniform_vals.mean())
        values["switched"] = float(np.where(sel, mass_vals, uniform_vals).mean())
        grads["mass"][rows] = g_mass / n
        grads["uniform"][rows] = g_uniform / n
        grads["switched"][rows] = np.where(sel[:, None], g_mass, g_uniform) / n
    if "pseudo_positive" in slices:
        rows = slices["pseudo_positive"]
        vals, g = _nll(z[rows], targets["pseudo_positive"])
        values["pseudo"] += float(vals.mean())
        grads["pseudo"][rows] = g / g.shape[0]
    if "pseudo_negative" in slices:
        rows = slices["pseudo_negative"]
        under = vocab.underlying_slice
        expansion = np.arange(under.start + vocab.n_discovered, under.stop)
        members = np.concatenate([expansion, [vocab.sub_background_index]])
        vals, g, _ = _mass(z[rows], members)
        values["pseudo"] += config.negative_weight * float(vals.mean())
        grads["pseudo"][rows] = g * (config.negative_weight / g.shape[0])
    parts = ["foreground"] + ["switched"] * config.use_prompts + ["pseudo"] * config.use_discovery
    values["final"] = sum(values[name] for name in parts)
    grads["final"] = sum(grads[name] for name in parts)

    breakdown = LossBreakdown(
        foreground=values["foreground"],
        background=values["switched"] if config.use_prompts else 0.0,
        pseudo=values["pseudo"] if config.use_discovery else 0.0,
        total=values["final"],
        branches=branches if config.use_prompts else (),
    )
    g = grads[component]
    norms = np.linalg.norm(vocab.embeddings, axis=1, keepdims=True)
    what = features / np.linalg.norm(features, axis=1, keepdims=True)
    demb = (g.T @ what - (g * cosines).sum(axis=0)[:, None] * (vocab.embeddings / norms)) / (
        config.temperature * norms)
    ctx_grad = np.zeros_like(vocab.context_vectors)
    if vocab.n_underlying:
        ctx_grad = vocab.encoder.encode_context_vjp(vocab.context_vectors, demb[vocab.underlying_slice])
    return breakdown, Params(ctx_grad, demb[vocab.sub_background_index])


def two_block_sgd_step(params, grads, velocity, lr: float, momentum: float, weight_decay: float):
    """``trainer.sgd_step`` as two separate updates, one per parameter block."""
    vel_ctx = momentum * velocity.context_vectors + grads.context_vectors + weight_decay * params.context_vectors
    vel_sub = momentum * velocity.sub_background + grads.sub_background + weight_decay * params.sub_background
    new_ctx = params.context_vectors - lr * vel_ctx
    new_sub = params.sub_background - lr * vel_sub
    new_sub = new_sub / np.linalg.norm(new_sub)
    return Params(new_ctx, new_sub), Params(vel_ctx, vel_sub)


def rowwise_pseudo_labels(batch_bg, gt_boxes, centers, tau: float, theta: float, nms_iou: float = 0.5,
                          gt_iou_cut: float = 0.5, rpn_nms_iou: float = 0.5) -> BackgroundPartition:
    """``pseudo.generate_pseudo_labels`` with each proposal filtered and scored alone: the scalar
    filter and NMS over ``Box``es, the scalar softmax."""
    boxes = [as_box(p.box) for p in batch_bg]
    rows = filter_background_rows(boxes, [p.rpn_score for p in batch_bg], [as_box(g) for g in gt_boxes], theta,
                                  gt_iou_cut, rpn_nms_iou)
    filtered, boxes = [batch_bg[i] for i in rows], [boxes[i] for i in rows]
    labels = []
    for p in filtered:
        probs = softmax_probs(p.img_feature, list(centers), tau)
        cat = int(np.argmax(probs))
        labels.append(PseudoLabel(cat, float(probs[cat])))
    kept = set()
    for cat in sorted({lab.category for lab in labels if lab.score >= theta}):
        members = [i for i, lab in enumerate(labels) if lab.score >= theta and lab.category == cat]
        for local in greedy_nms([boxes[i] for i in members], [labels[i].score for i in members], nms_iou):
            kept.add(members[local])
    return BackgroundPartition(
        positives=tuple((filtered[i], labels[i]) for i in sorted(kept)),
        negatives=tuple(p for i, p in enumerate(filtered) if i not in kept),
    )


# -- the per-proposal scenario generator and the joined-text writer ------------


@dataclass(frozen=True)
class RecordImage:
    """An image as the oracles build it: its proposals as records, not columns."""

    image_id: int
    proposals: tuple[Proposal, ...]
    gt_boxes: tuple[Box, ...]


def _jittered_box(rng: np.random.Generator, gt: Box, image_size: float) -> Box:
    """Box near an object's annotation; jitter is small enough to keep IoU above 0.5."""
    w = gt.x2 - gt.x1
    h = gt.y2 - gt.y1
    dx = rng.uniform(-0.08, 0.08) * w
    dy = rng.uniform(-0.08, 0.08) * h
    sw = rng.uniform(0.92, 1.08)
    sh = rng.uniform(0.92, 1.08)
    cx = (gt.x1 + gt.x2) / 2 + dx
    cy = (gt.y1 + gt.y2) / 2 + dy
    half_w = w * sw / 2
    half_h = h * sh / 2
    return Box(
        x1=max(0.0, cx - half_w),
        y1=max(0.0, cy - half_h),
        x2=min(image_size, cx + half_w),
        y2=min(image_size, cy + half_h),
    )


def _random_box(rng: np.random.Generator, config: ScenarioConfig) -> Box:
    w = rng.uniform(config.box_min, config.box_max)
    h = rng.uniform(config.box_min, config.box_max)
    x1 = rng.uniform(0.0, config.image_size - w)
    y1 = rng.uniform(0.0, config.image_size - h)
    return Box(x1=x1, y1=y1, x2=x1 + w, y2=y1 + h)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _features(rng, direction: np.ndarray, config: ScenarioConfig):
    img = direction + config.sigma_feat * rng.standard_normal(config.dim)
    img /= np.linalg.norm(img)
    det = img + config.sigma_det * rng.standard_normal(config.dim)
    det /= np.linalg.norm(det)
    img.setflags(write=False)
    det.setflags(write=False)
    return det, img

def _score(rng, mean: float, std: float) -> float:
    return min(max(rng.normal(mean, std), 0.0), 1.0)


def _generate_image(
    rng: np.random.Generator,
    image_id: int,
    config: ScenarioConfig,
    prototypes: dict[int, np.ndarray],
    base_ids,
    hidden_ids,
    hidden_weights: np.ndarray,
) -> RecordImage:
    proposals: list[Proposal] = []
    gt_boxes: list[Box] = []
    for _ in range(config.objects_per_image):
        if hidden_ids and rng.random() >= config.base_fraction:
            cat = int(rng.choice(np.asarray(hidden_ids), p=hidden_weights))
            is_base = False
        else:
            cat = int(rng.choice(np.asarray(base_ids)))
            is_base = True
        gt = _random_box(rng, config)
        if is_base:
            gt_boxes.append(gt)
        for _ in range(config.proposals_per_object):
            det, img = _features(rng, prototypes[cat], config)
            proposals.append(
                Proposal(
                    box=_jittered_box(rng, gt, config.image_size),
                    rpn_score=_score(rng, config.object_score_mean, config.object_score_std),
                    det_feature=det,
                    img_feature=img,
                    gt_label=cat if is_base else None,
                    oracle=OracleInfo(generative_label=cat, source="object"),
                )
            )
    for _ in range(config.clutter_per_image):
        det, img = _features(rng, _unit(rng, config.dim), config)
        proposals.append(
            Proposal(
                box=_random_box(rng, config),
                rpn_score=_score(rng, config.clutter_score_mean, config.clutter_score_std),
                det_feature=det,
                img_feature=img,
                gt_label=None,
                oracle=OracleInfo(generative_label=None, source="clutter"),
            )
        )
    return RecordImage(image_id=image_id, proposals=tuple(proposals), gt_boxes=tuple(gt_boxes))


def per_proposal_images(scenario: Scenario) -> tuple[tuple[RecordImage, ...], tuple[RecordImage, ...]]:
    """Both splits of ``scenario`` drawn again, one proposal at a time, from its seed's stream."""
    config = scenario.config
    weights = config.resolved_hidden_weights()
    rng = np.random.default_rng([4, config.seed])
    return tuple(
        tuple(_generate_image(rng, i, config, scenario.prototypes, scenario.base_ids, scenario.hidden_ids, weights)
              for i in range(n))
        for n in (config.n_train_images, config.n_eval_images)
    )


def _proposal_record(split: str, image_id: int, p: Proposal) -> dict:
    return {
        "type": "proposal",
        "split": split,
        "image": image_id,
        "box": corners(p.box),
        "rpn": p.rpn_score,
        "det": p.det_feature.tolist(),
        "img": p.img_feature.tolist(),
        "gt": p.gt_label,
        "oracle": {
            "label": p.oracle.generative_label if p.oracle else None,
            "source": p.oracle.source if p.oracle else "unknown",
        },
    }


def joined_dataset_text(scenario: Scenario) -> str:
    """The dataset file's text, every line held and then joined; its images may be ``RecordImage``s."""
    header = {
        "type": "header",
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "config": asdict(scenario.config),
        "encoder": scenario.encoder.config(),
        "config_hash": scenario.dataset_hash(),
        "base": [{"id": i, "name_seed": scenario.name_seeds[i]} for i in scenario.base_ids],
        "oracle": {
            "novel": [{"id": i, "name_seed": scenario.name_seeds[i]} for i in scenario.novel_ids],
            "distractor": [
                {"id": i, "name_seed": scenario.name_seeds[i]} for i in scenario.distractor_ids
            ],
        },
    }
    lines = [canonical_json(header)]
    for split, images in (("train", scenario.train_images), ("eval", scenario.eval_images)):
        for image in images:
            lines.append(
                canonical_json(
                    {
                        "type": "image",
                        "split": split,
                        "image": image.image_id,
                        "gt_boxes": [corners(b) for b in image.gt_boxes],
                    }
                )
            )
            for p in image.proposals:
                lines.append(canonical_json(_proposal_record(split, image.image_id, p)))
    return "\n".join(lines) + "\n"


def _line_end(data: bytes, start: int, n: int) -> int:
    """Byte offset just past the ``n`` lines that begin at offset ``start``."""
    for _ in range(n):
        start = data.find(b"\n", start) + 1 or len(data)  # the last line may lack its newline
    return start


def _record(path, line: str, n: int, kind: str, split: str, image_id: int) -> dict:
    """``line``, line ``n`` (from 0) of the file, which its position makes the ``kind`` line of ``split`` image
    ``image_id``."""
    try:
        rec = json.loads(line)
        if isinstance(rec, dict) and (rec.get("type"), rec.get("split"), rec.get("image")) == (kind, split, image_id):
            return rec
        problem = "holds another record"
    except json.JSONDecodeError as exc:
        problem = f"is not JSON: {exc}"
    raise ValueError(f"{_where(path, n, f'the {kind} line', split, image_id)} {problem}")


def _line_box(coords) -> Box:
    """One box of a dataset line, refused as the loader refuses it, one box at a time."""
    if type(coords) is not list or len(coords) != 4:
        raise ValueError(f"{coords!r} is not a list of 4 numbers")
    if bool in map(type, coords):
        raise ValueError(f"bool coordinate in {coords}")
    if not all(type(c) in (int, float) for c in coords):
        raise ValueError(f"non-number coordinate in {coords}")
    x1, y1, x2, y2 = floats = [float(c) for c in coords]
    if not (x1 < x2 and y1 < y2):
        raise ValueError(f"degenerate box {floats} as float64")
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"non-finite box coordinate in {floats}")
    return Box(*floats)


def _record_image(path, lines: list[str], first: int, split: str, image_id: int, dim: int,
                  base_ids: tuple[int, ...], oracles: dict[int | None, dict[str, OracleInfo]]) -> RecordImage:
    """One image's records from its lines, the first of which is line ``first`` (from 0) of the file.

    The features of the image's proposals are read into one block and checked
    once; every proposal holds its two read-only rows and its oracle record
    from ``oracles``.
    """
    rec = _record(path, lines[0], first, "image", split, image_id)
    try:
        if type(rec["gt_boxes"]) is not list:
            raise ValueError(f"{rec['gt_boxes']!r} is not a list of boxes")
        gt_boxes = tuple(map(_line_box, rec["gt_boxes"]))
    except (ValueError, OverflowError) as exc:
        where = _where(path, first, "the image line", split, image_id)
        raise ValueError(f"{where} holds bad gt_boxes: {exc}") from None
    block = np.empty((2, len(lines) - 1, dim))
    rows = block.view()
    rows.setflags(write=False)
    proposals = []
    for i, line in enumerate(lines[1:]):
        n = first + 1 + i
        rec = _record(path, line, n, "proposal", split, image_id)
        where = _where(path, n, "a proposal line", split, image_id)
        for k, key in enumerate(_FEATURES):
            try:
                if type(rec[key]) is not list or len(rec[key]) != dim:
                    raise ValueError(f"not a list of config.dim = {dim} numbers")
                block[k, i] = rec[key]
            except ValueError as exc:
                raise ValueError(f"{where} holds a bad {key} feature: {exc}") from None
        gt, label, source = rec["gt"], rec["oracle"]["label"], rec["oracle"]["source"]
        if gt is not None and not (is_integer(gt) and gt in base_ids):
            raise ValueError(f"{where} holds a gt of {gt!r}, which is neither null nor a base category id of the "
                             "header")
        by_source = oracles.get(label) if label is None or is_integer(label) else None
        if by_source is None:
            raise ValueError(f"{where} holds an oracle label of {label!r}, which is neither null nor a category id "
                             "of the header")
        if source not in _SOURCES:
            raise ValueError(f"{where} holds an oracle source of {source!r}, which is not one of "
                             f"{', '.join(map(repr, _SOURCES))}")
        try:
            box = _line_box(rec["box"])
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{where} holds a bad box: {exc}") from None
        try:
            proposals.append(Proposal(box=box, rpn_score=rec["rpn"], det_feature=rows[0, i], img_feature=rows[1, i],
                                      gt_label=gt, oracle=by_source[source]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where} holds a bad rpn score: {exc}") from None
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(block * block, axis=2))
    if not (np.isfinite(block).all() and np.minimum.reduce(norms, axis=None, initial=math.inf) > NORM_FLOOR):
        for fault, bad in (("non-finite", ~np.isfinite(block).all(axis=2)), ("zero-norm", norms <= NORM_FLOOR)):
            for key, bad_rows in zip(_FEATURES, bad):
                if bad_rows.any():
                    where = _where(path, first + 1 + int(bad_rows.argmax()), "a proposal line", split, image_id)
                    raise ValueError(f"{where} holds a {fault} {key} feature")
    return RecordImage(image_id=image_id, proposals=tuple(proposals), gt_boxes=gt_boxes)


def whole_file_parse_dataset(path, splits: tuple[str, ...]) -> Scenario:
    """Parse the header and the lines of ``splits``; only those lines are decoded.

    The file's bytes are dropped once the requested splits are decoded, and
    each split's text once it is split into lines, so the load holds at most
    about as much as the file's text while the proposals are built.
    """
    data = Path(path).read_bytes()
    if not data:
        raise ValueError(f"empty dataset file {path}")
    start = _line_end(data, 0, 1)
    header = json.loads(data[:start].decode("utf-8"))
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise ValueError(f"{path} is not a dataset file")
    if header.get("version") != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {header.get('version')}")
    config = from_dict(ScenarioConfig, header["config"])
    encoder = from_dict(MockTextEncoder, header["encoder"])
    if encoder.dim != config.dim:
        raise ValueError(f"dataset {path} header: encoder dim {encoder.dim} != scenario dim {config.dim}")

    name_seeds: dict[int, int] = {}
    base_ids = tuple(rec["id"] for rec in header["base"])
    novel_ids = tuple(rec["id"] for rec in header["oracle"]["novel"])
    distractor_ids = tuple(rec["id"] for rec in header["oracle"]["distractor"])
    for rec in header["base"] + header["oracle"]["novel"] + header["oracle"]["distractor"]:
        if not (is_integer(rec["id"]) and is_integer(rec["name_seed"])):
            raise ValueError(f"dataset {path} header holds a category record {rec} whose id and name_seed "
                             "are not both ints")
        name_seeds[rec["id"]] = rec["name_seed"]
    prototypes = {i: encoder.encode_named_category(s) for i, s in name_seeds.items()}
    oracles = {label: {source: OracleInfo(generative_label=label, source=source) for source in _SOURCES}
               for label in (None, *name_seeds)}

    per_image = 1 + config.objects_per_image * config.proposals_per_object + config.clutter_per_image
    counts = {"train": config.n_train_images, "eval": config.n_eval_images}
    expected = 1 + per_image * sum(counts.values())
    n_lines = data.count(b"\n") + (not data.endswith(b"\n"))  # as ``str.splitlines`` counts them
    if n_lines != expected:
        raise ValueError(f"dataset {path} has {n_lines} lines, but its header implies {expected}")
    texts, first = {}, 1  # each requested split's text, and the line number of its first line
    for split in SPLITS:
        n_split = counts[split] * per_image
        end = len(data) if split == SPLITS[-1] else _line_end(data, start, n_split)
        if split in splits:  # decoded through a view, without a copy of the byte range
            texts[split] = str(memoryview(data)[start:end], "utf-8"), first
        start, first = end, first + n_split
    del data
    images: dict[str, tuple[RecordImage, ...] | None] = dict.fromkeys(SPLITS)
    for split in list(texts):
        text, first = texts.pop(split)  # so that only its lines outlive the split
        lines = text.split("\n")
        del text
        images[split] = tuple(
            _record_image(path, lines[i * per_image:(i + 1) * per_image], first + i * per_image, split, i,
                          config.dim, base_ids, oracles)
            for i in range(counts[split])
        )

    scenario = Scenario(
        config=config,
        encoder=encoder,
        base_ids=base_ids,
        novel_ids=novel_ids,
        distractor_ids=distractor_ids,
        name_seeds=name_seeds,
        prototypes=prototypes,
        train_images=images["train"],
        eval_images=images["eval"],
    )
    if header["config_hash"] != scenario.dataset_hash():
        raise ValueError(f"dataset {path} header config_hash does not match its settings")
    return scenario


# -- the per-proposal evaluation tally --------------------------------------------


def per_proposal_evaluate(
    checkpoint: Checkpoint,
    scenario: Scenario,
    rectify: bool = True,
    recall_threshold: float = 0.5,
) -> EvalReport:
    """``metrics.evaluate`` as it was before it scored each image's feature block and took its
    decisions as arrays: one image's stacked det rows scored at once, then every proposal's
    argmax, best probability, background decision and recall test as numpy scalars."""
    vocab = inference_vocab(checkpoint, scenario)
    tau = checkpoint.config.temperature
    factors = compute_shrinking_factors(vocab, tau)

    fg_ids = list(vocab.base_ids) + list(vocab.novel_ids)
    base_set = set(scenario.base_ids)
    novel_set = set(scenario.novel_ids)

    confusion: dict[str, dict[str, int]] = {}
    hits = {"base": 0, "novel": 0}
    totals = {"base": 0, "novel": 0, "background": 0}
    recalled = 0

    for image in scenario.images("eval"):
        if not image.proposals:
            continue
        features = np.stack([p.det_feature for p in image.proposals])
        fg_probs, bg_mass = score(features, vocab, tau, factors if rectify else None)
        for p, probs, mass in zip(image.proposals, fg_probs, bg_mass):
            label = p.oracle.generative_label if p.oracle else None
            kind = "base" if label in base_set else "novel" if label in novel_set else "background"
            true_key = BACKGROUND_KEY if kind == "background" else str(label)
            totals[kind] += 1

            # ``Checkpoint.build_vocab`` refuses an empty base list: the foreground block is never empty.
            best = int(np.argmax(probs))
            best_prob = float(probs[best])
            pred_key = BACKGROUND_KEY if mass > best_prob else str(fg_ids[best])

            row = confusion.setdefault(true_key, {})
            row[pred_key] = row.get(pred_key, 0) + 1
            if kind in ("base", "novel") and pred_key == true_key:
                hits[kind] += 1
                if kind == "novel" and best_prob >= recall_threshold:
                    recalled += 1

    report = EvalReport(
        novel_top1=hits["novel"] / totals["novel"] if totals["novel"] else 0.0,
        base_top1=hits["base"] / totals["base"] if totals["base"] else 0.0,
        novel_recall=recalled / totals["novel"] if totals["novel"] else 0.0,
        recall_threshold=recall_threshold,
        rectified=bool(rectify),
        mean_shrinking_factor=float(factors.mean()) if factors.size else 1.0,
        confusion=confusion,
        branch_histogram=dict(checkpoint.branch_totals),
        n_novel=totals["novel"],
        n_base=totals["base"],
        n_background=totals["background"],
    )
    report.validate()
    return report
