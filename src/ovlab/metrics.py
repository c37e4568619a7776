"""Proposal-level evaluation metrics and the module-toggle ablation runner.

Metrics are classification-style: each held-out proposal is scored against
the inference vocabulary and predicted as its best foreground category, or
as background when the background mass beats every foreground probability.
Localization is synthetic here, so box-matching average precision is out of
scope; the signal of interest lives entirely in the classification head.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import check_fields
from .persist import canonical_json
from .rectify import compute_shrinking_factors, score
from .synth import Scenario, SynthImage
from .trainer import Checkpoint, DiscoveryPrep, TrainConfig, prepare_background, train
from .vocab import Vocabulary, build_inference_vocab

__all__ = ["EvalConfig", "EvalReport", "AblationCombo", "STANDARD_COMBOS", "COMBOS_BY_NAME", "AblationConfig",
           "inference_vocab", "evaluate", "run_ablation"]

BACKGROUND_KEY = "background"


@dataclass(frozen=True)
class EvalConfig:
    """The ``eval`` section: whether to rectify and the probability that counts as recalled."""

    rectify: bool = True
    recall_threshold: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if not 0 <= self.recall_threshold <= 1:
            raise ValueError(f"EvalConfig.recall_threshold must lie in [0, 1], got {self.recall_threshold}")


@dataclass(frozen=True)
class EvalReport:
    """Classification metrics of one checkpoint over one held-out split."""

    novel_top1: float
    base_top1: float
    novel_recall: float
    recall_threshold: float
    rectified: bool
    mean_shrinking_factor: float
    confusion: dict
    branch_histogram: dict
    n_novel: int
    n_base: int
    n_background: int

    def validate(self) -> None:
        for name, acc in (("novel_top1", self.novel_top1), ("base_top1", self.base_top1),
                          ("novel_recall", self.novel_recall)):
            if not (0.0 <= acc <= 1.0):
                raise ValueError(f"{name}={acc} outside [0, 1]")
        # Confusion rows must account for every instance exactly once.
        total = sum(sum(row.values()) for row in self.confusion.values())
        if total != self.n_novel + self.n_base + self.n_background:
            raise ValueError(
                f"confusion total {total} != instance total "
                f"{self.n_novel + self.n_base + self.n_background}"
            )

    def to_json(self) -> str:
        return canonical_json(asdict(self))

    @staticmethod
    def from_json(text: str) -> "EvalReport":
        return EvalReport(**json.loads(text))

    def render(self) -> str:
        lines = [
            f"novel top-1      {self.novel_top1:.4f}   ({self.n_novel} proposals)",
            f"base top-1       {self.base_top1:.4f}   ({self.n_base} proposals)",
            f"novel recall     {self.novel_recall:.4f}   (prob >= {self.recall_threshold})",
            f"rectified        {self.rectified}",
            f"mean shrink      {self.mean_shrinking_factor:.4f}",
            f"background count {self.n_background}",
        ]
        if any(self.branch_histogram.values()):
            lines.append(f"branch usage     {self.branch_histogram!r}")
        return "\n".join(lines)


def inference_vocab(checkpoint: Checkpoint, scenario: Scenario) -> Vocabulary:
    """The checkpoint's vocabulary with the scenario's novel rows inserted.

    Refuses, in one ``ValueError`` naming each, a checkpoint whose encoder settings,
    ordered ``(id, name_seed)`` base list or dataset hash differ from the dataset's.
    """
    facts = (("encoder", checkpoint.encoder.config(), scenario.encoder.config()),
             ("base categories", checkpoint.base_categories, scenario.base_categories),
             ("dataset_hash", checkpoint.dataset_hash, scenario.dataset_hash()))
    differ = [name for name, ours, theirs in facts if ours != theirs]
    if differ:
        raise ValueError(f"checkpoint was trained on another dataset; it differs in: {', '.join(differ)}")
    novel_emb = np.array([scenario.prototypes[i] for i in scenario.novel_ids])
    return build_inference_vocab(checkpoint.build_vocab(), scenario.novel_ids, novel_emb)


def _eval_images(scenario: Scenario) -> tuple[SynthImage, ...]:
    """The eval split's images; a split without a proposal has nothing to evaluate and is a ``ValueError``."""
    images = scenario.images("eval")
    if not any(len(image.label) for image in images):
        raise ValueError("the eval split has no proposals to evaluate")
    return images


def evaluate(checkpoint: Checkpoint, scenario: Scenario, settings: EvalConfig) -> EvalReport:
    """Score every held-out proposal and compare against the oracle labels.

    ``settings`` is the ``eval`` section: whether the scores are rectified
    and the probability at or above which a novel hit counts as recalled.
    Never mutates the checkpoint or the dataset. The shrinking factors are
    computed once. Each eval image's ``features[0]`` (its det rows) is scored
    in one ``score`` call; its predicted and true keys (from its ``label``
    column) are positions in the foreground keys, background last, and are
    counted, like its recalled novel hits, with array operations.
    """
    vocab = inference_vocab(checkpoint, scenario)
    tau = checkpoint.config.temperature
    factors = compute_shrinking_factors(vocab, tau)

    fg_ids = np.array(list(vocab.base_ids) + list(vocab.novel_ids), dtype=np.int64)
    n_base, n_fg = len(vocab.base_ids), len(fg_ids)
    counts = np.zeros((n_fg + 1) ** 2, dtype=np.int64)  # true position by predicted position, flattened
    recalled = 0

    for image in _eval_images(scenario):
        if not len(image.label):
            continue
        fg_probs, bg_mass = score(image.features[0], vocab, tau, factors if settings.rectify else None)
        # ``Checkpoint.build_vocab`` refuses an empty base list: the foreground block is never empty.
        best = fg_probs.argmax(axis=1)
        best_prob = fg_probs.max(axis=1)
        match = image.label[:, None] == fg_ids
        true = np.where(match.any(axis=1), match.argmax(axis=1), n_fg)
        pred = np.where(bg_mass > best_prob, n_fg, best)
        counts += np.bincount(true * (n_fg + 1) + pred, minlength=counts.size)
        recalled += int(np.count_nonzero((true == pred) & (true >= n_base) & (true < n_fg)
                                         & (best_prob >= settings.recall_threshold)))

    counts = counts.reshape(n_fg + 1, n_fg + 1)
    keys = [str(i) for i in fg_ids.tolist()] + [BACKGROUND_KEY]
    confusion = {keys[t]: {keys[q]: int(c) for q, c in enumerate(row.tolist()) if c}
                 for t, row in enumerate(counts) if row.any()}
    hit, seen = np.diagonal(counts).tolist(), counts.sum(axis=1).tolist()  # per true position
    n_base_seen, n_novel = sum(seen[:n_base]), sum(seen[n_base:n_fg])
    base_hits, novel_hits = sum(hit[:n_base]), sum(hit[n_base:n_fg])

    report = EvalReport(
        novel_top1=novel_hits / n_novel if n_novel else 0.0,
        base_top1=base_hits / n_base_seen if n_base_seen else 0.0,
        novel_recall=recalled / n_novel if n_novel else 0.0,
        recall_threshold=settings.recall_threshold,
        rectified=settings.rectify,
        mean_shrinking_factor=float(factors.mean()) if factors.size else 1.0,
        confusion=confusion,
        branch_histogram=dict(checkpoint.branch_totals),
        n_novel=n_novel,
        n_base=n_base_seen,
        n_background=seen[n_fg],
    )
    report.validate()
    return report


# -- ablation -------------------------------------------------------------------


@dataclass(frozen=True)
class AblationCombo:
    """One module-toggle combination plus its inference-time rectify flag."""

    name: str
    baseline_mode: bool
    use_prompts: bool
    use_discovery: bool
    rectify: bool

    def train_key(self) -> tuple:
        return (self.baseline_mode, self.use_prompts, self.use_discovery)


STANDARD_COMBOS = (
    AblationCombo("baseline", baseline_mode=True, use_prompts=True, use_discovery=False, rectify=False),
    AblationCombo("prompts", baseline_mode=False, use_prompts=True, use_discovery=False, rectify=False),
    AblationCombo("discovery", baseline_mode=False, use_prompts=False, use_discovery=True, rectify=False),
    AblationCombo("prompts+rectify", baseline_mode=False, use_prompts=True, use_discovery=False, rectify=True),
    AblationCombo("discovery+rectify", baseline_mode=False, use_prompts=False, use_discovery=True, rectify=True),
    AblationCombo("full", baseline_mode=False, use_prompts=True, use_discovery=True, rectify=True),
)


COMBOS_BY_NAME = {c.name: c for c in STANDARD_COMBOS}


@dataclass(frozen=True)
class AblationConfig:
    """The ``ablation`` section: training seeds and combination names (all standard ones if unset)."""

    seeds: tuple[int, ...] = tuple(range(10))
    combos: tuple[str, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"AblationConfig.seeds must be nonnegative and not empty, got {self.seeds}")
        if self.combos == ():
            raise ValueError("AblationConfig.combos must name at least one combination, or be null for all")
        unknown = [n for n in self.combos or () if n not in COMBOS_BY_NAME]
        if unknown:
            raise ValueError(f"unknown ablation combos {unknown}; known: {sorted(COMBOS_BY_NAME)}")


@dataclass(frozen=True)
class AblationResult:
    rows: tuple[dict, ...]

    def to_json(self) -> str:
        return canonical_json({"rows": list(self.rows)})

    def render(self) -> str:
        header = f"{'combination':<20} {'novel top-1 (median)':>21} {'base top-1 (median)':>20}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row['name']:<20} {row['novel_top1_median']:>21.4f} {row['base_top1_median']:>20.4f}"
            )
        return "\n".join(lines)


def run_ablation(settings: AblationConfig, scenario: Scenario, train_config: TrainConfig) -> AblationResult:
    """Train/evaluate every toggle combination on identical data and seeds.

    ``settings`` is the ``ablation`` section: its combinations, one row each
    in its order, and its seeds; ``train_config`` is the ``train`` section,
    whose toggles and seed each training replaces.

    Per seed, the discovery prep (filtering, pooling, silhouette sweep,
    centers and the pseudo-labels of every training image) is computed once,
    with ``prepare_background``, and shared by every non-baseline training of
    that seed; each training keeps what its toggles use, so its checkpoint equals
    that of a standalone ``train``. Combinations sharing training toggles
    reuse the trained checkpoint and differ only in the rectify flag,
    mirroring how rectification is purely an inference-time change. An eval
    split without a proposal is refused before any prep or training.
    """
    _eval_images(scenario)
    combos = tuple(map(COMBOS_BY_NAME.__getitem__, settings.combos)) if settings.combos else STANDARD_COMBOS
    discovers = any(c.use_discovery and not c.baseline_mode for c in combos)
    preps: dict[int, DiscoveryPrep] = {}
    cache: dict[tuple, Checkpoint] = {}
    rows = []
    for combo in combos:
        novel_scores, base_scores = [], []
        for seed in settings.seeds:
            key = combo.train_key() + (seed,)
            if key not in cache:
                config = replace(
                    train_config,
                    seed=seed,
                    baseline_mode=combo.baseline_mode,
                    use_prompts=combo.use_prompts,
                    use_discovery=combo.use_discovery,
                )
                prep = None  # a baseline run needs none
                if not combo.baseline_mode:
                    if seed not in preps:
                        preps[seed] = prepare_background(scenario, replace(config, use_discovery=discovers))
                    prep = preps[seed]
                _, checkpoint = train(config, scenario, prep)
                cache[key] = checkpoint
            report = evaluate(cache[key], scenario, EvalConfig(rectify=combo.rectify))
            novel_scores.append(report.novel_top1)
            base_scores.append(report.base_top1)
        rows.append(
            {
                **asdict(combo),
                "seeds": list(settings.seeds),
                "novel_top1": novel_scores,
                "base_top1": base_scores,
                "novel_top1_median": statistics.median(novel_scores),
                "base_top1_median": statistics.median(base_scores),
            }
        )
    return AblationResult(rows=tuple(rows))
