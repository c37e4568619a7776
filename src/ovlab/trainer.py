"""Training loop: combined objective, analytic gradients, SGD with momentum.

Only the context vectors and the sub-background embedding train; base
embeddings, the encoder, and the cluster centers are frozen throughout.
Gradients are analytic, chained loss -> softmax -> cosine -> encoder
transpose-Jacobian, and a patched-column central-difference oracle verifies
them. The switch in the background loss is a step discontinuity, so the
oracle freezes each proposal's branch at the stencil center and reports any
stencil that straddles the boundary instead of silently differencing
across it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .discovery import estimate_category_count, filter_background_proposals, kmeans
from .encoder import MockTextEncoder, init_context_vectors
from .losses import (
    COMPONENTS,
    MASS_BRANCH,
    LossBreakdown,
    ProposalBatch,
    objective_terms,
    proposal_groups,
)
from .persist import canonical_json
from .pseudo import BackgroundPartition, generate_pseudo_labels
from .synth import Scenario
from .vocab import Vocabulary, build_training_vocab

__all__ = [
    "TrainConfig",
    "Params",
    "Gradients",
    "StepRecord",
    "TrainHistory",
    "Checkpoint",
    "TrainingDivergedError",
    "NonFiniteGradientError",
    "COMPONENTS",
    "loss_and_gradients",
    "loss_final",
    "compute_gradients",
    "feature_gradients",
    "finite_diff_gradients",
    "sgd_step",
    "pool_background",
    "prepare_background",
    "train",
]

CHECKPOINT_FORMAT = "ovlab-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    pass


class NonFiniteGradientError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and module toggles of one training run.

    ``use_prompts`` gates the switched background loss; ``use_discovery``
    gates pseudo-labeling and its loss; ``baseline_mode`` drops the
    underlying block entirely, leaving the single catch-all background
    embedding of conventional heads.
    """

    learning_rate: float = 0.1
    momentum: float = 0.90
    weight_decay: float = 2.5e-5
    steps: int = 300
    batch_images: int = 4
    seed: int = 0
    temperature: float = 0.02
    relax_threshold: float = 0.02
    score_threshold: float = 0.95
    negative_weight: float = 0.05
    extra_categories: int = 10
    discovered_categories: int | None = None
    k_min: int = 2
    k_max: int = 12
    use_prompts: bool = True
    use_discovery: bool = True
    baseline_mode: bool = False
    nms_iou: float = 0.5
    gt_iou_cut: float = 0.5
    pseudo_nms_iou: float = 0.5

    def __post_init__(self):
        if self.learning_rate <= 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("rates must be positive (momentum/decay nonnegative)")
        if self.steps < 0 or self.batch_images < 1:
            raise ValueError("invalid step or batch configuration")


@dataclass
class Params:
    """Trainable state: one context vector per underlying category, plus the
    sub-background embedding (kept unit-norm by the optimizer)."""

    context_vectors: np.ndarray
    sub_background: np.ndarray

    def copy(self) -> "Params":
        return Params(self.context_vectors.copy(), self.sub_background.copy())


@dataclass(frozen=True)
class Gradients:
    context: np.ndarray
    sub_background: np.ndarray

    def flat(self) -> np.ndarray:
        return np.concatenate([self.context.ravel(), self.sub_background])


@dataclass(frozen=True)
class StepRecord:
    step: int
    breakdown: LossBreakdown
    n_mass_branch: int
    n_uniform_branch: int
    n_pseudo_positive: int
    n_pseudo_negative: int


@dataclass(frozen=True)
class TrainHistory:
    steps: tuple[StepRecord, ...]

    def totals(self) -> dict:
        return {
            "mass_branch": sum(s.n_mass_branch for s in self.steps),
            "uniform_branch": sum(s.n_uniform_branch for s in self.steps),
            "pseudo_positive": sum(s.n_pseudo_positive for s in self.steps),
            "pseudo_negative": sum(s.n_pseudo_negative for s in self.steps),
        }


# -- objective and analytic gradients -------------------------------------------


def _terms(cosines: dict, targets: dict, vocab: Vocabulary, config: TrainConfig, branches=None):
    """``objective_terms`` under one training configuration's hyperparameters and toggles."""
    return objective_terms(
        cosines, targets, vocab, config.temperature, config.relax_threshold,
        config.negative_weight, config.use_prompts, config.use_discovery, branches,
    )


def _embedding_gradient(
    features: dict, cosines: dict, logit_grads: dict, vocab: Vocabulary, tau: float
) -> np.ndarray:
    """Chain d(loss)/d(logits) through the cosine layer to d(loss)/d(embeddings)."""
    emb = vocab.embeddings
    norms = np.linalg.norm(emb, axis=1)
    ehat = emb / norms[:, None]
    total = np.zeros_like(emb)
    for name, g in logit_grads.items():
        feats = features[name]
        what = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        total += g.T @ what - ((g * cosines[name]).sum(axis=0))[:, None] * ehat
    return total / (tau * norms[:, None])


def loss_and_gradients(
    batch: ProposalBatch,
    vocab: Vocabulary,
    partition: BackgroundPartition | None,
    config: TrainConfig,
    component: str = "final",
) -> tuple[LossBreakdown, Gradients]:
    """Combined objective of one batch and the exact gradient of one of its components.

    Disabled toggles zero their term of the breakdown and of "final".
    Context-vector gradients chain through the encoder's transpose-Jacobian;
    the sub-background gradient is the raw embedding-space gradient (its
    cosine already accounts for the parameter's norm). Values are returned
    unchecked: a non-finite loss or gradient is the caller's to report.
    """
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}; choose from {COMPONENTS}")
    features, targets, cosines = proposal_groups(batch, partition, vocab)
    values, branches, logit_grads = _terms(cosines, targets, vocab, config)
    breakdown = LossBreakdown(
        foreground=values["foreground"],
        background=values["switched"] if config.use_prompts else 0.0,
        pseudo=values["pseudo"] if config.use_discovery else 0.0,
        total=values["final"],
        branches=branches if config.use_prompts else (),
        n_foreground=len(batch.foreground),
        n_background=len(batch.background),
    )
    demb = _embedding_gradient(features, cosines, logit_grads[component], vocab, config.temperature)
    under_start = vocab.underlying_slice.start
    ctx_grad = np.zeros_like(vocab.context_vectors)
    for j, v in enumerate(vocab.context_vectors):
        ctx_grad[j] = vocab.encoder.encode_context_vjp(v, demb[under_start + j])
    grads = Gradients(context=ctx_grad, sub_background=demb[vocab.sub_background_index])
    return breakdown, grads


def _check_finite(grads: Gradients) -> Gradients:
    for name, arr in (("context", grads.context), ("sub_background", grads.sub_background)):
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))
            raise NonFiniteGradientError(f"non-finite gradient in {name} at {bad[0].tolist()}")
    return grads


def loss_final(
    batch: ProposalBatch, vocab: Vocabulary, partition: BackgroundPartition | None, config: TrainConfig
) -> LossBreakdown:
    """Combined objective of one batch (the loss half of ``loss_and_gradients``)."""
    return loss_and_gradients(batch, vocab, partition, config)[0]


def compute_gradients(
    batch: ProposalBatch, vocab: Vocabulary, partition: BackgroundPartition | None,
    config: TrainConfig, component: str = "final",
) -> Gradients:
    """Finite-checked gradient of one component (the other half of ``loss_and_gradients``)."""
    return _check_finite(loss_and_gradients(batch, vocab, partition, config, component)[1])


def feature_gradients(
    batch: ProposalBatch,
    vocab: Vocabulary,
    partition: BackgroundPartition | None,
    config: TrainConfig,
    component: str = "final",
) -> dict[str, np.ndarray]:
    """Diagnostic gradient of a loss component with respect to the detector features.

    Features are synthetic inputs, not trained parameters; this exists so the
    whole differentiation chain can be checked from the other end.
    """
    features, targets, cosines = proposal_groups(batch, partition, vocab)
    logit_grads = _terms(cosines, targets, vocab, config).logit_grads[component]
    emb = vocab.embeddings
    ehat = emb / np.linalg.norm(emb, axis=1)[:, None]
    out = {}
    for name, g in logit_grads.items():
        fnorms = np.linalg.norm(features[name], axis=1, keepdims=True)
        what = features[name] / fnorms
        out[name] = ((g @ ehat) - (g * cosines[name]).sum(axis=1)[:, None] * what) / (
            config.temperature * fnorms
        )
    return out


# -- finite-difference oracle ---------------------------------------------------


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


def finite_diff_gradients(
    batch: ProposalBatch,
    vocab: Vocabulary,
    partition: BackgroundPartition | None,
    config: TrainConfig,
    h: float,
    component: str = "final",
) -> tuple[Gradients, int]:
    """Central differences over every scalar parameter, branch frozen at center.

    Perturbing one parameter changes exactly one embedding row, so each
    stencil evaluation patches a single cosine column and re-evaluates the
    training objective on the patched cosines. The switch branch of the
    background loss is pinned to the center point's selection; stencils
    whose live branch pattern would differ are counted and reported, not
    silently differenced across.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    features, targets, cosines = proposal_groups(batch, partition, vocab)
    center_branches = _terms(cosines, targets, vocab, config).branches
    switch_live = component == "switched" or (component == "final" and config.use_prompts)
    flips = 0

    def patched_value(row: int, new_emb: np.ndarray) -> tuple[float, bool]:
        patched = {}
        nn = np.linalg.norm(new_emb)
        for name, feats in features.items():
            col = feats @ new_emb / (np.linalg.norm(feats, axis=1) * nn)
            patched[name] = cosines[name].copy()
            patched[name][:, row] = np.clip(col, -1.0, 1.0)
        values, live, _ = _terms(patched, targets, vocab, config, center_branches)
        return values[component], switch_live and live != center_branches

    def stencil(row: int, x: np.ndarray, embed) -> np.ndarray:
        nonlocal flips
        grad = np.zeros_like(x)
        for i in range(x.shape[0]):
            delta = np.zeros_like(x)
            delta[i] = h
            up, f1 = patched_value(row, embed(x + delta))
            dn, f2 = patched_value(row, embed(x - delta))
            grad[i] = (up - dn) / (2 * h)
            flips += f1 or f2
        return grad

    under_start = vocab.underlying_slice.start
    ctx_grad = np.zeros_like(vocab.context_vectors)
    for j, v in enumerate(vocab.context_vectors):
        ctx_grad[j] = stencil(under_start + j, v, vocab.encoder.encode_context)
    sub = vocab.embeddings[vocab.sub_background_index]
    sub_grad = stencil(vocab.sub_background_index, sub, lambda e: e)
    return Gradients(context=ctx_grad, sub_background=sub_grad), flips


# -- optimizer ------------------------------------------------------------------


def sgd_step(
    params: Params,
    grads: Gradients,
    velocity: Params,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> tuple[Params, Params]:
    """One SGD-with-momentum update; the sub-background embedding is re-projected
    onto the unit sphere afterwards."""
    if params.context_vectors.shape != grads.context.shape:
        raise ValueError(
            f"context shape mismatch: {params.context_vectors.shape} vs {grads.context.shape}"
        )
    if params.sub_background.shape != grads.sub_background.shape:
        raise ValueError("sub-background shape mismatch")
    new_vel = Params(
        context_vectors=momentum * velocity.context_vectors
        + grads.context
        + weight_decay * params.context_vectors,
        sub_background=momentum * velocity.sub_background
        + grads.sub_background
        + weight_decay * params.sub_background,
    )
    new_ctx = params.context_vectors - lr * new_vel.context_vectors
    new_sub = params.sub_background - lr * new_vel.sub_background
    new_sub = new_sub / np.linalg.norm(new_sub)
    return Params(context_vectors=new_ctx, sub_background=new_sub), new_vel


# -- training loop -----------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """Frozen result of a run: trainable parameters plus everything needed to
    rebuild the vocabularies that scored them."""

    encoder_config: dict
    train_config: dict
    dataset_hash: str
    base_categories: tuple[tuple[int, int], ...]  # (id, name_seed)
    n_discovered: int
    context_vectors: np.ndarray
    sub_background: np.ndarray
    cluster_centers: np.ndarray | None
    rng_state: dict
    branch_totals: dict

    def to_json(self) -> str:
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "encoder": self.encoder_config,
            "train_config": self.train_config,
            "dataset_hash": self.dataset_hash,
            "base": [{"id": i, "name_seed": s} for i, s in self.base_categories],
            "n_discovered": self.n_discovered,
            "context_vectors": self.context_vectors.tolist(),
            "sub_background": self.sub_background.tolist(),
            "cluster_centers": (
                self.cluster_centers.tolist() if self.cluster_centers is not None else None
            ),
            "rng_state": self.rng_state,
            "branch_totals": self.branch_totals,
            "vocabulary": self.build_vocab().records(),
        }
        return canonical_json(payload)

    def save(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @staticmethod
    def load(path) -> "Checkpoint":
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
        if rec.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a checkpoint file: {rec.get('format')!r}")
        if rec.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {rec.get('version')}")
        centers = rec["cluster_centers"]
        return Checkpoint(
            encoder_config=rec["encoder"],
            train_config=rec["train_config"],
            dataset_hash=rec["dataset_hash"],
            base_categories=tuple((r["id"], r["name_seed"]) for r in rec["base"]),
            n_discovered=rec["n_discovered"],
            context_vectors=np.asarray(rec["context_vectors"], dtype=np.float64),
            sub_background=np.asarray(rec["sub_background"], dtype=np.float64),
            cluster_centers=(
                np.asarray(centers, dtype=np.float64) if centers is not None else None
            ),
            rng_state=rec["rng_state"],
            branch_totals=rec["branch_totals"],
        )

    def config_obj(self) -> TrainConfig:
        return TrainConfig(**self.train_config)

    def encoder_obj(self) -> MockTextEncoder:
        return MockTextEncoder(**self.encoder_config)

    def build_vocab(self) -> Vocabulary:
        enc = self.encoder_obj()
        base_ids = [i for i, _ in self.base_categories]
        base_emb = np.stack([enc.encode_named_category(s) for _, s in self.base_categories])
        return build_training_vocab(
            base_ids,
            base_emb,
            self.context_vectors,
            self.sub_background,
            enc,
            n_discovered=self.n_discovered,
            baseline_mode=self.config_obj().baseline_mode,
        )


def pool_background(scenario: Scenario, config: TrainConfig) -> np.ndarray:
    """Image features of every training background proposal that survives filtering."""
    feats = []
    for image in scenario.train_images:
        bg = [p for p in image.proposals if p.gt_label is None]
        kept = filter_background_proposals(
            bg, image.gt_boxes, theta=config.score_threshold,
            gt_iou_cut=config.gt_iou_cut, nms_iou=config.nms_iou,
        )
        feats.extend(p.img_feature for p in kept)
    if not feats:
        raise ValueError("no background proposals survive filtering; cannot size the vocabulary")
    return np.stack(feats)


def prepare_background(scenario: Scenario, config: TrainConfig):
    """Offline prep: pooled filtered background features, latent count, centers.

    Runs once before the loop. The count comes from the silhouette sweep
    unless the configuration pins it; centers are computed only when the
    discovery loss is enabled (reusing the sweep's winning clustering), and
    stay frozen for the whole run.
    """
    if config.baseline_mode:
        return 0, None
    features = pool_background(scenario, config)
    model = None
    if config.discovered_categories is not None:
        n_disc = config.discovered_categories
    else:
        k_max = min(config.k_max, features.shape[0])
        estimate = estimate_category_count(features, config.k_min, k_max, config.seed)
        n_disc, model = estimate.count, estimate.model
    if not config.use_discovery:
        return n_disc, None
    if model is None:
        model = kmeans(features, n_disc, seed=config.seed)
    return n_disc, model.centers


def _image_partition(image, centers, config: TrainConfig) -> BackgroundPartition:
    bg = [p for p in image.proposals if p.gt_label is None]
    return generate_pseudo_labels(
        bg, image.gt_boxes, centers, tau=config.temperature, theta=config.score_threshold,
        nms_iou=config.pseudo_nms_iou, gt_iou_cut=config.gt_iou_cut, rpn_nms_iou=config.nms_iou,
    )


def _sample_batch(rng, scenario: Scenario, config: TrainConfig):
    n = len(scenario.train_images)
    k = min(config.batch_images, n)
    idx = sorted(rng.choice(n, size=k, replace=False))
    fg, bg = [], []
    for i in idx:
        fg.extend(p for p in scenario.train_images[i].proposals if p.gt_label is not None)
        bg.extend(p for p in scenario.train_images[i].proposals if p.gt_label is None)
    return idx, ProposalBatch(foreground=tuple(fg), background=tuple(bg))


def initial_params(config: TrainConfig, encoder: MockTextEncoder, n_discovered: int) -> Params:
    """Seeded initialization: Gaussian context vectors, random unit sub-background."""
    n_under = 0 if config.baseline_mode else n_discovered + config.extra_categories
    if n_under:
        ctx = init_context_vectors(n_under, config.seed, encoder.ctx_dim)
    else:
        ctx = np.zeros((0, encoder.ctx_dim))
    rng = np.random.default_rng([6, config.seed])
    sub = rng.standard_normal(encoder.dim)
    sub /= np.linalg.norm(sub)
    return Params(context_vectors=ctx, sub_background=sub)


def train(config: TrainConfig, scenario: Scenario) -> tuple[TrainHistory, Checkpoint]:
    """Deterministic training over a scenario; returns the history and checkpoint.

    Per step: sample a batch of images, rebuild the vocabulary from the live
    parameters, gather the sampled images' pseudo-labels (when discovery is
    on), evaluate the objective and its analytic gradient in one pass, and
    apply one SGD step. Frozen components (encoder, base embeddings,
    centers) are never touched.
    """
    encoder = MockTextEncoder(**scenario.encoder_config)
    base_ids = list(scenario.base_ids)
    base_emb = np.stack(
        [encoder.encode_named_category(scenario.name_seeds[i]) for i in base_ids]
    )
    n_discovered, centers = prepare_background(scenario, config)
    # Pseudo-labels depend only on frozen centers and image data: label each
    # training image once, then every step reads the sampled images' parts.
    partitions = None
    if centers is not None:  # discovery is on
        partitions = [_image_partition(im, centers, config) for im in scenario.train_images]
    params = initial_params(config, encoder, n_discovered)
    velocity = Params(
        context_vectors=np.zeros_like(params.context_vectors),
        sub_background=np.zeros_like(params.sub_background),
    )
    rng = np.random.default_rng([5, config.seed])
    records: list[StepRecord] = []

    for step in range(config.steps):
        idx, batch = _sample_batch(rng, scenario, config)
        vocab = build_training_vocab(
            base_ids,
            base_emb,
            params.context_vectors,
            params.sub_background,
            encoder,
            n_discovered=n_discovered,
            baseline_mode=config.baseline_mode,
        )
        partition = None
        if partitions is not None:
            partition = BackgroundPartition(
                positives=tuple(pos for i in idx for pos in partitions[i].positives),
                negatives=tuple(neg for i in idx for neg in partitions[i].negatives),
            )
        breakdown, grads = loss_and_gradients(batch, vocab, partition, config)
        if not math.isfinite(breakdown.total):
            raise TrainingDivergedError(f"non-finite loss at step {step}: {breakdown}")
        params, velocity = sgd_step(
            params,
            _check_finite(grads),
            velocity,
            lr=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        records.append(
            StepRecord(
                step=step,
                breakdown=breakdown,
                n_mass_branch=sum(b == MASS_BRANCH for b in breakdown.branches),
                n_uniform_branch=sum(b != MASS_BRANCH for b in breakdown.branches),
                n_pseudo_positive=len(partition.positives) if partition else 0,
                n_pseudo_negative=len(partition.negatives) if partition else 0,
            )
        )

    history = TrainHistory(steps=tuple(records))
    checkpoint = Checkpoint(
        encoder_config=encoder.config(),
        train_config=asdict(config),
        dataset_hash=scenario.dataset_hash(),
        base_categories=tuple((i, scenario.name_seeds[i]) for i in base_ids),
        n_discovered=n_discovered,
        context_vectors=params.context_vectors.copy(),
        sub_background=params.sub_background.copy(),
        cluster_centers=centers.copy() if centers is not None else None,
        rng_state=json.loads(canonical_json(rng.bit_generator.state)),
        branch_totals=history.totals(),
    )
    return history, checkpoint


def history_to_json(history: TrainHistory) -> str:
    rows = [
        {
            "step": s.step,
            "foreground": s.breakdown.foreground,
            "background": s.breakdown.background,
            "pseudo": s.breakdown.pseudo,
            "total": s.breakdown.total,
            "mass_branch": s.n_mass_branch,
            "uniform_branch": s.n_uniform_branch,
            "pseudo_positive": s.n_pseudo_positive,
            "pseudo_negative": s.n_pseudo_negative,
        }
        for s in history.steps
    ]
    return canonical_json({"steps": rows, "totals": history.totals()})
