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
"""

import math
from dataclasses import asdict

import numpy as np

from ovlab.core import (
    DimensionMismatchError,
    check_temperature,
    cosine,
    cosine_matrix,
    log_softmax_rows,
    logsumexp,
    softmax_probs,
)
from ovlab.discovery import (
    KMEANS_MAX_ITERS,
    KMEANS_RESTARTS,
    Box,
    ClusterModel,
    OracleInfo,
    Proposal,
    _sq_dists,
    _update_centers,
    filter_background_proposals,
    nms_indices,
)
from ovlab.encoder import MockTextEncoder
from ovlab.losses import GROUPS, MASS_BRANCH, UNIFORM_BRANCH, LossBreakdown, ProposalBlocks
from ovlab.persist import canonical_json
from ovlab.pseudo import BackgroundPartition, PseudoLabel
from ovlab.synth import DATASET_FORMAT, DATASET_VERSION, Scenario, ScenarioConfig, SynthImage, _proposal_record
from ovlab.trainer import Params
from ovlab.vocab import CategoryId, Kind, Vocabulary


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
    positives = partition.positives if partition is not None else ()
    negatives = partition.negatives if partition is not None else ()
    rows = {
        "foreground": [p.det_feature for p in batch.foreground],
        "background": [p.det_feature for p in batch.background],
        "pseudo_positive": [p.det_feature for p, _ in positives],
        "pseudo_negative": [p.det_feature for p in negatives],
    }
    features = {name: np.stack(r) if r else np.zeros((0, vocab.dim)) for name, r in rows.items()}
    targets = {
        "foreground": np.array([vocab.base_position(p.gt_label) for p in batch.foreground], dtype=np.int64),
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
    """``pseudo.generate_pseudo_labels`` with each proposal scored alone by the scalar softmax."""
    filtered = filter_background_proposals(batch_bg, gt_boxes, theta=theta, gt_iou_cut=gt_iou_cut,
                                           nms_iou=rpn_nms_iou)
    labels = []
    for p in filtered:
        probs = softmax_probs(p.img_feature, list(centers), tau)
        cat = int(np.argmax(probs))
        labels.append(PseudoLabel(cat, float(probs[cat])))
    kept = set()
    for cat in sorted({lab.category for lab in labels if lab.score >= theta}):
        members = [i for i, lab in enumerate(labels) if lab.score >= theta and lab.category == cat]
        for local in nms_indices([filtered[i].box for i in members], [labels[i].score for i in members],
                                 nms_iou):
            kept.add(members[local])
    return BackgroundPartition(
        positives=tuple((filtered[i], labels[i]) for i in sorted(kept)),
        negatives=tuple(p for i, p in enumerate(filtered) if i not in kept),
    )


# -- the per-proposal scenario generator and the joined-text writer ------------


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
) -> SynthImage:
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
    return SynthImage(image_id=image_id, proposals=tuple(proposals), gt_boxes=tuple(gt_boxes))


def per_proposal_images(scenario: Scenario) -> tuple[tuple[SynthImage, ...], tuple[SynthImage, ...]]:
    """Both splits of ``scenario`` drawn again, one proposal at a time, from its seed's stream."""
    config = scenario.config
    weights = config.resolved_hidden_weights()
    rng = np.random.default_rng([4, config.seed])
    return tuple(
        tuple(_generate_image(rng, i, config, scenario.prototypes, scenario.base_ids, scenario.hidden_ids, weights)
              for i in range(n))
        for n in (config.n_train_images, config.n_eval_images)
    )


def joined_dataset_text(scenario: Scenario) -> str:
    """The dataset file's text, every line held and then joined."""
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
                        "gt_boxes": [b.to_list() for b in image.gt_boxes],
                    }
                )
            )
            for p in image.proposals:
                lines.append(canonical_json(_proposal_record(split, image.image_id, p)))
    return "\n".join(lines) + "\n"
