"""Training loop: combined objective, analytic gradients, SGD with momentum.

Only the context vectors and the sub-background embedding train; base
embeddings, the encoder, and the cluster centers are frozen throughout.
Gradients are analytic, chained loss -> softmax -> cosine -> encoder
transpose-Jacobian, and a patched-column central-difference oracle verifies
them; both take a batch in one form, a sequence of ``losses.ProposalBlocks``
(``loss_final`` and ``compute_gradients`` stack a ``ProposalBatch`` first).
The switch in the background loss is a step discontinuity, so the oracle
freezes each proposal's branch at the stencil center and reports any stencil
that straddles the boundary instead of silently differencing across it.

Each quantity of a run is computed at the scope where it changes. Per run:
the discovery prep (one per seed in an ablation: each training image's
background rows filtered once as arrays, their pooled features, count,
centers, and pseudo-labels from records of the kept rows only), the
vocabulary's ``FixedRows`` (checked base embeddings, the block indices),
each training image's proposal blocks as unit rows with their target
positions and its pseudo-label counts, every step's batch of images (drawn
up front, in step order), and one flat parameter vector and one flat
velocity with the two blocks as views. Per step: the vocabulary of
the live parameters (one encoder forward, kept for the pullback), one
concatenation and one cosine matrix of the sampled images' rows, one
log-softmax and the logit gradient of "final" (``losses.objective_terms``),
the pullback through the kept forward, and one SGD update of the flat vector.
A step is a few dozen small numpy calls, so their count, not their
arithmetic, sets its time; ``tests/test_trainer.py`` holds it to a budget.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import check_fields, from_dict
from .discovery import CountEstimate, estimate_category_count, filter_background_proposals, kmeans
from .encoder import MockTextEncoder, init_context_vectors
from .losses import (
    COMPONENTS,
    MASS_BRANCH,
    LossBreakdown,
    ProposalBatch,
    ProposalBlocks,
    objective_terms,
    proposal_blocks,
    proposal_groups,
    stack_blocks,
)
from .persist import canonical_json, write_text
from .pseudo import BackgroundPartition, generate_pseudo_labels
from .synth import Scenario
from .vocab import FixedRows, Vocabulary, build_training_vocab

__all__ = [
    "TrainConfig",
    "Params",
    "StepRecord",
    "TrainHistory",
    "Checkpoint",
    "TrainingDivergedError",
    "loss_and_gradients",
    "loss_final",
    "compute_gradients",
    "finite_diff_gradients",
    "sgd_step",
    "pool_background",
    "sweep_category_count",
    "underlying_count",
    "prepare_background",
    "DiscoveryPrep",
    "prepare_discovery",
    "train",
]

CHECKPOINT_FORMAT = "ovlab-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
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
        check_fields(self)
        if self.learning_rate <= 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("rates must be positive (momentum/decay nonnegative)")
        if self.steps < 0 or self.batch_images < 1:
            raise ValueError("invalid step or batch configuration")
        if self.negative_weight < 0:
            raise ValueError(f"negative_weight must be nonnegative, got {self.negative_weight}")
        for name, least in (("seed", 0), ("extra_categories", 0), ("discovered_categories", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"TrainConfig.{name} must be at least {least}, got {value}")
        if not 0.0 <= self.relax_threshold <= 1.0:
            raise ValueError(f"relax_threshold must lie in [0, 1], got {self.relax_threshold}")
        if not self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("gt_iou_cut", "nms_iou", "pseudo_nms_iou"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")


class Params:
    """Trainable state: one context vector per underlying category, plus the
    sub-background embedding (kept unit-norm by the optimizer).

    Both blocks are views into one flat vector, ``flat`` (context vectors
    row by row, then the sub-background), so the optimizer updates them as
    one array. The constructor copies its blocks into a new flat vector.
    The velocity and every gradient have this layout, so they are ``Params`` too.
    """

    def __init__(self, context_vectors, sub_background):
        ctx = np.asarray(context_vectors, dtype=np.float64)
        flat = np.concatenate([ctx.ravel(), np.asarray(sub_background, dtype=np.float64)])
        self._bind(flat, ctx.shape)

    @classmethod
    def of_flat(cls, flat: np.ndarray, context_shape: tuple[int, int]) -> "Params":
        """Parameters whose blocks are views into ``flat`` (not copied)."""
        params = cls.__new__(cls)
        params._bind(flat, context_shape)
        return params

    def _bind(self, flat: np.ndarray, context_shape) -> None:
        self.flat = flat
        self.context_shape = tuple(context_shape)
        self._n_context = math.prod(context_shape)

    @property
    def context_vectors(self) -> np.ndarray:
        return self.flat[: self._n_context].reshape(self.context_shape)

    @property
    def sub_background(self) -> np.ndarray:
        return self.flat[self._n_context :]


class StepRecord(NamedTuple):
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
        return {key: sum(map(attrgetter(f"n_{key}"), self.steps))
                for key in ("mass_branch", "uniform_branch", "pseudo_positive", "pseudo_negative")}


# -- objective and analytic gradients -------------------------------------------


def _terms(cosines: np.ndarray, slices: dict, targets: np.ndarray, vocab: Vocabulary, config: TrainConfig,
           branches=None, component: str = "final"):
    """``objective_terms`` under one training configuration's hyperparameters and toggles."""
    return objective_terms(
        cosines, slices, targets, vocab, config.temperature, config.relax_threshold,
        config.negative_weight, config.use_prompts, config.use_discovery, branches, component,
    )


def _embedding_gradient(features, cosines, g: np.ndarray, vocab: Vocabulary, tau: float) -> np.ndarray:
    """Chain d(loss)/d(logits) ``g`` through the cosine layer (unit ``features``) to d(loss)/d(embeddings)."""
    units, norms = vocab.unit_embeddings
    demb = g.T @ features
    demb -= np.add.reduce(g * cosines, axis=0)[:, None] * units
    demb /= tau * norms
    return demb


def loss_and_gradients(
    blocks: Sequence[ProposalBlocks], vocab: Vocabulary, config: TrainConfig, component: str = "final",
) -> tuple[LossBreakdown, Params]:
    """Combined objective of one batch and the exact gradient of one of its components.

    ``blocks`` are the batch's ``ProposalBlocks`` (in training, one per
    sampled image). Disabled toggles zero their term of the breakdown and of "final".
    Context-vector gradients chain through the encoder's transpose-Jacobian;
    the sub-background gradient is the raw embedding-space gradient (its
    cosine already accounts for the parameter's norm). Values are returned
    unchecked: a non-finite loss or gradient is the caller's to report.
    """
    features, slices, targets, cosines = proposal_groups(blocks, vocab)
    values, branches, logit_grad = _terms(cosines, slices, targets, vocab, config, component=component)
    breakdown = LossBreakdown(
        foreground=values["foreground"],
        background=values["switched"] if config.use_prompts else 0.0,
        pseudo=values["pseudo"] if config.use_discovery else 0.0,
        total=values["final"],
        branches=branches if config.use_prompts else (),
    )
    demb = _embedding_gradient(features, cosines, logit_grad, vocab, config.temperature)
    under, sub = vocab.block_indices.underlying, vocab.block_indices.sub_background
    context = vocab.context_vectors
    if len(context):  # a baseline vocabulary may carry no encoder
        ctx_grad = vocab.encoder.encode_context_vjp(context, demb[under], forward=vocab.context_forward)
    else:
        ctx_grad = np.zeros_like(context)
    return breakdown, Params(ctx_grad, demb[sub])


def _check_finite(grads: Params) -> Params:
    flat = grads.flat
    # A finite squared norm means every entry is finite. Finite entries large
    # enough to overflow it reach the scan, which finds nothing and passes
    # them: ``train`` refuses the parameters such a step makes non-finite.
    if math.isfinite(flat @ flat):
        return grads
    for name, arr in (("context_vectors", grads.context_vectors), ("sub_background", grads.sub_background)):
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))
            raise TrainingDivergedError(f"non-finite gradient in {name} at {bad[0].tolist()}")
    return grads


def loss_final(
    batch: ProposalBatch, vocab: Vocabulary, partition: BackgroundPartition | None, config: TrainConfig
) -> LossBreakdown:
    """Combined objective of one batch (the loss half of ``loss_and_gradients``)."""
    return loss_and_gradients([proposal_blocks(batch, partition, vocab)], vocab, config)[0]


def compute_gradients(
    batch: ProposalBatch, vocab: Vocabulary, partition: BackgroundPartition | None,
    config: TrainConfig, component: str = "final",
) -> Params:
    """Finite-checked gradient of one component (the other half of ``loss_and_gradients``)."""
    blocks = [proposal_blocks(batch, partition, vocab)]
    return _check_finite(loss_and_gradients(blocks, vocab, config, component)[1])


# -- finite-difference oracle ---------------------------------------------------


def finite_diff_gradients(
    blocks: Sequence[ProposalBlocks], vocab: Vocabulary, config: TrainConfig, h: float,
    component: str = "final",
) -> tuple[Params, int]:
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
    features, slices, targets, cosines = proposal_groups(blocks, vocab)
    center_branches = _terms(cosines, slices, targets, vocab, config, component=component).branches
    switch_live = component == "switched" or (component == "final" and config.use_prompts)
    flips = 0

    def patched_value(row: int, new_emb: np.ndarray) -> tuple[float, bool]:
        patched = cosines.copy()
        patched[:, row] = np.clip(features @ new_emb / np.linalg.norm(new_emb), -1.0, 1.0)
        values, live, _ = _terms(patched, slices, targets, vocab, config, center_branches, component)
        return values[component], switch_live and live != center_branches

    def stencil(rows, points: np.ndarray, embed) -> np.ndarray:
        """Central differences over every coordinate of every point; point j patches column rows[j]."""
        nonlocal flips
        n, k = points.shape
        ups = embed((points[:, None, :] + h * np.eye(k)).reshape(-1, k))
        dns = embed((points[:, None, :] - h * np.eye(k)).reshape(-1, k))
        grad = np.empty(n * k)
        for p, row in enumerate(np.repeat(rows, k)):
            up, f1 = patched_value(row, ups[p])
            dn, f2 = patched_value(row, dns[p])
            grad[p] = (up - dn) / (2 * h)
            flips += f1 or f2
        return grad.reshape(n, k)

    under, sub = vocab.underlying_slice, vocab.sub_background_index
    ctx_grad = np.zeros_like(vocab.context_vectors)
    if vocab.n_underlying:
        rows = range(under.start, under.stop)
        ctx_grad = stencil(rows, vocab.context_vectors, vocab.encoder.encode_context)
    sub_grad = stencil([sub], vocab.embeddings[[sub]], lambda e: e)[0]
    return Params(ctx_grad, sub_grad), flips


# -- optimizer ------------------------------------------------------------------


def sgd_step(
    params: Params,
    grads: Params,
    velocity: Params,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> tuple[Params, Params]:
    """One SGD-with-momentum update of the flat parameter vector; the sub-background
    embedding is re-projected onto the unit sphere afterwards.

    An update that leaves the sub-background no finite nonzero norm to
    project by raises ``TrainingDivergedError``.
    """
    shape, flat, step = params.context_shape, params.flat, grads.flat
    if (grads.context_shape, step.shape) != (shape, flat.shape):
        raise ValueError(f"gradient blocks {grads.context_shape}, {step.shape} do not match "
                         f"the parameters' {shape}, {flat.shape}")
    new_vel = momentum * velocity.flat  # ``m * v + g + decay * w``, summed in that order
    new_vel += step
    new_vel += weight_decay * flat
    new = flat - lr * new_vel
    sub = new[params._n_context :]
    norm2 = sub.dot(sub)
    if not 0.0 < norm2 < math.inf:
        raise TrainingDivergedError(f"the update gives the sub-background a squared norm of {norm2}")
    sub /= math.sqrt(norm2)  # ``np.linalg.norm``'s arithmetic on a vector
    return Params.of_flat(new, shape), Params.of_flat(new_vel, shape)


# -- training loop -----------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """Frozen result of a run: trainable parameters plus everything needed to
    rebuild the vocabularies that scored them."""

    encoder: MockTextEncoder
    config: TrainConfig  # the configuration the run trained with
    dataset_hash: str
    base_categories: tuple[tuple[int, int], ...]  # (id, name_seed)
    n_discovered: int
    context_vectors: np.ndarray
    sub_background: np.ndarray
    cluster_centers: np.ndarray | None
    rng_state: dict
    branch_totals: dict

    def __post_init__(self):
        check_fields(self)

    def to_json(self) -> str:
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "encoder": self.encoder.config(),
            "train_config": asdict(self.config),
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
        write_text(path, self.to_json() + "\n")

    @staticmethod
    def load(path) -> "Checkpoint":
        """Read a checkpoint, rejecting malformed files and mismatched parts with ``ValueError``."""
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(rec, dict) or rec.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path} is not a checkpoint file")
        if rec.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {rec.get('version')}")
        try:
            encoder = from_dict(MockTextEncoder, rec["encoder"])
            context = np.asarray(rec["context_vectors"], dtype=np.float64)
            centers = rec["cluster_centers"]
            ckpt = Checkpoint(
                encoder=encoder,
                config=from_dict(TrainConfig, rec["train_config"]),
                dataset_hash=rec["dataset_hash"],
                base_categories=tuple((r["id"], r["name_seed"]) for r in rec["base"]),
                n_discovered=rec["n_discovered"],
                context_vectors=context.reshape(0, encoder.ctx_dim) if context.shape == (0,) else context,
                sub_background=np.asarray(rec["sub_background"], dtype=np.float64),
                cluster_centers=(
                    np.asarray(centers, dtype=np.float64) if centers is not None else None
                ),
                rng_state=rec["rng_state"],
                branch_totals=rec["branch_totals"],
            )
            shapes = (("context vectors", ckpt.context_vectors,
                        (underlying_count(ckpt.config, ckpt.n_discovered), encoder.ctx_dim)),
                      ("cluster centers", ckpt.cluster_centers, (ckpt.n_discovered, encoder.dim)))
        except KeyError as exc:
            raise ValueError(f"checkpoint {path} lacks {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed checkpoint {path}: {exc}") from None
        for name, rows, want in shapes:
            if rows is not None and rows.shape != want:
                raise ValueError(f"checkpoint {path} has {name} of shape {rows.shape}, needs {want} "
                                 "(rows of the run, columns of the encoder)")
        return ckpt

    def build_vocab(self) -> Vocabulary:
        base_emb = np.stack([self.encoder.encode_named_category(s) for _, s in self.base_categories])
        fixed = FixedRows(tuple(i for i, _ in self.base_categories), base_emb, self.encoder,
                          len(self.context_vectors), self.n_discovered, self.config.baseline_mode)
        return build_training_vocab(fixed, self.context_vectors, self.sub_background)


def _filtered_background(scenario: Scenario, config: TrainConfig) -> list[np.ndarray]:
    """Per training image, the rows of its background proposals that survive filtering, in NMS keep order
    (``pool_background``'s ``kept``)."""
    kept = []
    for image in scenario.images("train"):
        background = np.flatnonzero(image.gt < 0)  # -1: no annotated base id
        kept.append(background[filter_background_proposals(
            image.boxes[background], image.rpn[background], image.gt_boxes, theta=config.score_threshold,
            gt_iou_cut=config.gt_iou_cut, nms_iou=config.nms_iou)])
    return kept


def pool_background(scenario: Scenario, config: TrainConfig, kept=None) -> np.ndarray:
    """Image features of every training background row that survives filtering (the rows ``kept``, if given)."""
    kept = _filtered_background(scenario, config) if kept is None else kept
    if not sum(map(len, kept)):
        raise ValueError("no background proposals survive filtering; cannot size the vocabulary")
    return np.concatenate([image.features[1][rows] for image, rows in zip(scenario.images("train"), kept)])


def sweep_category_count(features: np.ndarray, config: TrainConfig) -> CountEstimate:
    """The configuration's silhouette sweep over pooled features: k from ``k_min`` to ``k_max``, capped by the pool."""
    k_max = min(config.k_max, len(features))
    return estimate_category_count(features, config.k_min, k_max, config.seed)


def underlying_count(config: TrainConfig, n_discovered: int) -> int:
    """Context vectors a run trains: discovered plus expansion categories (none in baseline mode)."""
    return 0 if config.baseline_mode else n_discovered + config.extra_categories


def prepare_background(scenario: Scenario, config: TrainConfig, kept=None):
    """Offline prep: pooled filtered background features (of ``kept``, if given), latent count, centers.

    The count comes from the silhouette sweep unless the configuration pins
    it; centers are computed only when the discovery loss is enabled
    (reusing the sweep's winning clustering), and stay frozen for the whole
    run. Returns ``(n_discovered, centers)``.
    """
    if config.baseline_mode:
        return 0, None
    features = pool_background(scenario, config, kept)
    model = None
    if config.discovered_categories is not None:
        n_disc = config.discovered_categories
    else:
        estimate = sweep_category_count(features, config)
        n_disc, model = estimate.count, estimate.model
    if not config.use_discovery:
        return n_disc, None
    if model is None:
        model = kmeans(features, n_disc, seed=config.seed)
    return n_disc, model.centers


@dataclass(frozen=True)
class DiscoveryPrep:
    """Everything a run needs from discovery: count, frozen centers, per-image pseudo-labels.

    None of it depends on the live parameters or on the module toggles, so
    the trainings of one seed can share one prep. ``partitions`` holds one
    ``BackgroundPartition`` per training image, present with the centers.
    """

    config: TrainConfig  # the configuration it was computed with
    dataset_hash: str  # the scenario it was computed on
    n_discovered: int
    centers: np.ndarray | None
    partitions: tuple[BackgroundPartition, ...] | None

    def for_run(self, config: TrainConfig, scenario: Scenario) -> "DiscoveryPrep":
        """The part of this prep a run uses; refuses another scenario, or settings other than the toggles."""
        if self.dataset_hash != scenario.dataset_hash():
            raise ValueError("the discovery prep was computed on another scenario than this run's")
        if config.baseline_mode:
            return replace(self, n_discovered=0, centers=None, partitions=None)
        toggles = {name: getattr(config, name) for name in ("baseline_mode", "use_prompts", "use_discovery")}
        if replace(self.config, **toggles) != config:
            raise ValueError("the discovery prep was computed with other settings than this run's")
        if not config.use_discovery:
            return replace(self, centers=None, partitions=None)
        if self.centers is None:
            raise ValueError("discovery is on but the discovery prep holds no cluster centers")
        return self


def prepare_discovery(scenario: Scenario, config: TrainConfig) -> DiscoveryPrep:
    """``prepare_background``, then, with centers, one pseudo-label partition per training image.

    Pseudo-labels depend only on the frozen centers and the image data, so
    each training image is labelled once per prep, from the records of the
    rows it pooled (the only records a prep builds): the labeller filters
    them as the pool did, which keeps them all, in order. A baseline run gets
    an empty prep without any work.
    """
    kept = None if config.baseline_mode else _filtered_background(scenario, config)
    n_discovered, centers = prepare_background(scenario, config, kept)
    partitions = None
    if centers is not None:
        partitions = tuple(generate_pseudo_labels(
            image.proposal_records(rows), image.gt_boxes, centers, tau=config.temperature,
            theta=config.score_threshold, nms_iou=config.pseudo_nms_iou, gt_iou_cut=config.gt_iou_cut,
            rpn_nms_iou=config.nms_iou,
        ) for image, rows in zip(scenario.images("train"), kept))
    return DiscoveryPrep(config, scenario.dataset_hash(), n_discovered, centers, partitions)


def _image_blocks(scenario: Scenario, partitions, vocab: Vocabulary) -> list[ProposalBlocks]:
    """Each training image's detector rows (and pseudo-labels, if any) stacked into ``ProposalBlocks``."""
    blocks = []
    for i, image in enumerate(scenario.images("train")):
        det, annotated = image.features[0], image.gt >= 0  # -1: no annotated base id
        blocks.append(stack_blocks(det[annotated], image.gt[annotated].tolist(), det[~annotated],
                                   partitions[i] if partitions else None, vocab))
    return blocks


def initial_params(config: TrainConfig, encoder: MockTextEncoder, n_discovered: int) -> Params:
    """Seeded initialization: Gaussian context vectors, random unit sub-background."""
    n_under = underlying_count(config, n_discovered)
    ctx = np.zeros((0, encoder.ctx_dim))
    if n_under:
        ctx = init_context_vectors(n_under, config.seed, encoder.ctx_dim)
    rng = np.random.default_rng([6, config.seed])
    sub = rng.standard_normal(encoder.dim)
    sub /= np.linalg.norm(sub)
    return Params(context_vectors=ctx, sub_background=sub)


def train(
    config: TrainConfig, scenario: Scenario, prep: DiscoveryPrep | None = None
) -> tuple[TrainHistory, Checkpoint]:
    """Deterministic training over a scenario; returns the history and checkpoint.

    ``prep`` is a discovery prep computed on this run's scenario with this
    run's configuration (the module toggles aside);
    ``run_ablation`` shares one among the trainings of a seed. Without it
    the run computes its own with ``prepare_discovery``. Either way the run
    keeps only what its toggles use (``DiscoveryPrep.for_run``). The
    vocabulary's fixed rows and each training image's proposal groups are
    laid out once, then per step: sample a batch of images, rebuild the
    vocabulary's moving rows from the live parameters, evaluate the objective
    and its analytic gradient in one pass over the sampled images' blocks, and
    apply one SGD step. The encoder and the base rows are the scenario's own;
    they and the centers stay frozen.
    """
    encoder, base_ids = scenario.encoder, scenario.base_ids
    base_emb = np.stack([scenario.prototypes[i] for i in base_ids])
    prep = (prep if prep is not None else prepare_discovery(scenario, config)).for_run(config, scenario)
    n_discovered, centers = prep.n_discovered, prep.centers
    fixed = FixedRows(base_ids, base_emb, encoder, underlying_count(config, n_discovered), n_discovered,
                      config.baseline_mode)
    params = initial_params(config, encoder, n_discovered)
    velocity = Params.of_flat(np.zeros_like(params.flat), params.context_shape)

    # Training moves no vocabulary position, so any snapshot gives the targets.
    blocks = _image_blocks(scenario, prep.partitions,
                           build_training_vocab(fixed, params.context_vectors, params.sub_background))
    positives = [len(b.features["pseudo_positive"]) for b in blocks]
    negatives = [len(b.features["pseudo_negative"]) for b in blocks]
    rng = np.random.default_rng([5, config.seed])
    n_blocks, batch = len(blocks), min(config.batch_images, len(blocks))
    # Nothing else draws from ``rng``, so every step's batch is drawn up front,
    # in step order: the same draws, in one tight loop.
    batches = [sorted(rng.choice(n_blocks, size=batch, replace=False).tolist()) for _ in range(config.steps)]
    rates = config.learning_rate, config.momentum, config.weight_decay
    records: list[StepRecord] = []

    # A diverging run overflows before any check sees it; the checks below turn
    # that into one ``TrainingDivergedError`` instead of a trail of warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step, idx in enumerate(batches):
            try:
                vocab = build_training_vocab(fixed, params.context_vectors, params.sub_background)
                breakdown, grads = loss_and_gradients([blocks[i] for i in idx], vocab, config)
                if not math.isfinite(breakdown.total):
                    raise TrainingDivergedError(f"non-finite loss {breakdown}")
                params, velocity = sgd_step(params, _check_finite(grads), velocity, *rates)
                if not math.isfinite(params.flat @ params.flat):
                    raise TrainingDivergedError("the update makes the parameters non-finite")
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"training diverged at step {step}: {exc}") from None
            n_mass = breakdown.branches.count(MASS_BRANCH)
            records.append(StepRecord(step, breakdown, n_mass, len(breakdown.branches) - n_mass,
                                      sum(map(positives.__getitem__, idx)), sum(map(negatives.__getitem__, idx))))

    history = TrainHistory(steps=tuple(records))
    checkpoint = Checkpoint(
        encoder=encoder,
        config=config,
        dataset_hash=scenario.dataset_hash(),
        base_categories=scenario.base_categories,
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
