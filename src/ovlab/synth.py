"""Seeded generator of desk-scale detection scenarios.

Stands in for a real detection dataset, the proposal network, and the
frozen image encoder. Each scenario fixes a prototype embedding per
category (base, novel, distractor); proposals are drawn around prototypes
(object proposals) or isotropic directions (clutter), with image-encoder
features and slightly noisier detector features, objectness scores from
per-type truncated Gaussians, and jittered boxes.

Novel and distractor objects appear unlabeled in the training split — they
are exactly the structure hiding in the background. Hidden category
identities live only in per-proposal oracle records consumed by evaluation
and tests; no training-time code path reads them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .discovery import Box, OracleInfo, Proposal
from .encoder import MockTextEncoder
from .persist import canonical_json, config_hash

__all__ = [
    "ScenarioConfig",
    "SynthImage",
    "Scenario",
    "generate_scenario",
    "split_fg_bg",
    "write_dataset",
    "load_dataset",
    "DATASET_FORMAT",
]

DATASET_FORMAT = "ovlab-dataset"
DATASET_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic world; all randomness flows from ``seed``."""

    dim: int = 32
    n_base: int = 8
    n_novel: int = 4
    n_distractor: int = 3
    n_train_images: int = 48
    n_eval_images: int = 120
    objects_per_image: int = 5
    proposals_per_object: int = 2
    clutter_per_image: int = 3
    sigma_feat: float = 0.1
    sigma_det: float = 0.15
    min_angle_deg: float = 60.0
    novel_cone_deg: float | None = 50.0
    hidden_min_angle_deg: float = 40.0
    base_fraction: float = 0.45
    hidden_weights: tuple[float, ...] | None = None
    image_size: float = 100.0
    box_min: float = 10.0
    box_max: float = 30.0
    object_score_mean: float = 0.97
    object_score_std: float = 0.02
    clutter_score_mean: float = 0.5
    clutter_score_std: float = 0.15
    seed: int = 0
    max_rejection_tries: int = 10000

    def __post_init__(self):
        if self.n_base < 1:
            raise ValueError("need at least one base category")
        if min(self.sigma_feat, self.sigma_det) < 0:
            raise ValueError("noise levels must be nonnegative")
        if not (0.0 <= self.base_fraction <= 1.0):
            raise ValueError("base_fraction must lie in [0, 1]")

    def resolved_hidden_weights(self) -> np.ndarray:
        """Relative frequencies of novel+distractor objects; skewed by default.

        The default front-loads mass on the first novel category so the
        background's latent structure is imbalanced, as object frequencies
        in real scenes are.
        """
        n_hidden = self.n_novel + self.n_distractor
        if n_hidden == 0:
            return np.zeros(0)
        if self.hidden_weights is not None:
            w = np.asarray(self.hidden_weights, dtype=np.float64)
            if w.shape != (n_hidden,) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError(
                    f"hidden_weights must be {n_hidden} nonnegative values with positive sum"
                )
            return w / w.sum()
        novel = [2.0] + [1.0] * max(0, self.n_novel - 1)
        w = np.array(novel[: self.n_novel] + [1.0] * self.n_distractor)
        return w / w.sum()


@dataclass(frozen=True)
class SynthImage:
    """Proposals of one image plus its annotated (base-object) boxes."""

    image_id: int
    proposals: tuple[Proposal, ...]
    gt_boxes: tuple[Box, ...]


@dataclass(frozen=True)
class Scenario:
    """A generated world: category registry, prototypes, and both splits."""

    config: ScenarioConfig
    encoder_config: dict
    base_ids: tuple[int, ...]
    novel_ids: tuple[int, ...]
    distractor_ids: tuple[int, ...]
    name_seeds: dict[int, int]
    prototypes: dict[int, np.ndarray] = field(repr=False)
    train_images: tuple[SynthImage, ...] = field(repr=False)
    eval_images: tuple[SynthImage, ...] = field(repr=False)

    @property
    def hidden_ids(self) -> tuple[int, ...]:
        return self.novel_ids + self.distractor_ids

    def dataset_hash(self) -> str:
        return config_hash({"scenario": asdict(self.config), "encoder": self.encoder_config})


def _sample_prototypes(config: ScenarioConfig, encoder: MockTextEncoder):
    """Sequential rejection over name seeds until every angle constraint holds.

    Base and distractor categories keep ``min_angle_deg`` from everything.
    Novel categories form a semantic cone: each sits within
    ``novel_cone_deg`` of the first novel prototype (mutually related
    concepts) while keeping ``hidden_min_angle_deg`` from each other and the
    full floor from every base category. A cone of None disables the
    grouping and treats novel like any other category.
    """
    floor_cos = float(np.cos(np.radians(config.min_angle_deg)))
    hidden_cos = float(np.cos(np.radians(config.hidden_min_angle_deg)))
    cone_cos = (
        float(np.cos(np.radians(config.novel_cone_deg)))
        if config.novel_cone_deg is not None
        else None
    )
    n_total = config.n_base + config.n_novel + config.n_distractor
    prototypes: list[np.ndarray] = []
    name_seeds: list[int] = []
    candidate = 0

    def admissible(emb: np.ndarray) -> bool:
        slot = len(prototypes)
        novel_lo = config.n_base
        novel_hi = config.n_base + config.n_novel
        is_novel = novel_lo <= slot < novel_hi
        for i, prev in enumerate(prototypes):
            c = float(emb @ prev)
            both_novel = is_novel and novel_lo <= i < novel_hi
            if c > (hidden_cos if both_novel else floor_cos):
                return False
        if is_novel and cone_cos is not None and slot > novel_lo:
            if float(emb @ prototypes[novel_lo]) < cone_cos:
                return False
        return True

    while len(prototypes) < n_total:
        if candidate >= config.max_rejection_tries:
            raise RuntimeError(
                f"prototype rejection sampling exhausted {config.max_rejection_tries} tries; "
                f"the angle constraints are infeasible for {n_total} categories"
            )
        emb = encoder.encode_named_category(candidate)
        if admissible(emb):
            prototypes.append(emb)
            name_seeds.append(candidate)
        candidate += 1
    return prototypes, name_seeds


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
    return float(np.clip(rng.normal(mean, std), 0.0, 1.0))


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


def generate_scenario(config: ScenarioConfig, encoder: MockTextEncoder) -> Scenario:
    """Build a fully reproducible scenario from the master seed.

    Prototypes are the encoder's named-category embeddings, accepted by
    rejection until every pairwise angle clears the configured floor, so the
    class embeddings used at training/inference time coincide exactly with
    the generative prototypes.
    """
    if encoder.dim != config.dim:
        raise ValueError(f"encoder dim {encoder.dim} != scenario dim {config.dim}")
    protos, seeds = _sample_prototypes(config, encoder)
    n_b, n_u = config.n_base, config.n_novel
    ids = list(range(config.n_base + config.n_novel + config.n_distractor))
    base_ids = tuple(ids[:n_b])
    novel_ids = tuple(ids[n_b : n_b + n_u])
    distractor_ids = tuple(ids[n_b + n_u :])
    prototypes = {i: protos[i] for i in ids}
    for p in prototypes.values():
        p.setflags(write=False)
    name_seeds = {i: seeds[i] for i in ids}

    hidden_ids = novel_ids + distractor_ids
    weights = config.resolved_hidden_weights()

    rng = np.random.default_rng([4, config.seed])
    train_images = tuple(
        _generate_image(rng, i, config, prototypes, base_ids, hidden_ids, weights)
        for i in range(config.n_train_images)
    )
    eval_images = tuple(
        _generate_image(rng, i, config, prototypes, base_ids, hidden_ids, weights)
        for i in range(config.n_eval_images)
    )
    return Scenario(
        config=config,
        encoder_config=encoder.config(),
        base_ids=base_ids,
        novel_ids=novel_ids,
        distractor_ids=distractor_ids,
        name_seeds=name_seeds,
        prototypes=prototypes,
        train_images=train_images,
        eval_images=eval_images,
    )


def split_fg_bg(scenario: Scenario) -> list[tuple[list[Proposal], list[Proposal]]]:
    """Per training image: annotated (foreground) vs everything else (background).

    Every unlabeled proposal — novel objects, distractor objects, clutter —
    lands in the background set.
    """
    out = []
    for image in scenario.train_images:
        fg = [p for p in image.proposals if p.gt_label is not None]
        bg = [p for p in image.proposals if p.gt_label is None]
        out.append((fg, bg))
    return out


# -- dataset files ------------------------------------------------------------


def _proposal_record(split: str, image_id: int, p: Proposal) -> dict:
    return {
        "type": "proposal",
        "split": split,
        "image": image_id,
        "box": p.box.to_list(),
        "rpn": p.rpn_score,
        "det": p.det_feature.tolist(),
        "img": p.img_feature.tolist(),
        "gt": p.gt_label,
        "oracle": {
            "label": p.oracle.generative_label if p.oracle else None,
            "source": p.oracle.source if p.oracle else "unknown",
        },
    }


def write_dataset(scenario: Scenario, path) -> None:
    """One-line-per-record dataset file: header, then image and proposal lines."""
    header = {
        "type": "header",
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "config": asdict(scenario.config),
        "encoder": scenario.encoder_config,
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
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(path) -> Scenario:
    """Rebuild a Scenario from a dataset file (prototypes recomputed via the encoder)."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text:
        raise ValueError(f"empty dataset file {path}")
    header = json.loads(text[0])
    if header.get("format") != DATASET_FORMAT:
        raise ValueError(f"not a dataset file: format={header.get('format')!r}")
    if header.get("version") != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {header.get('version')}")
    cfg = header["config"]
    cfg["hidden_weights"] = tuple(cfg["hidden_weights"]) if cfg["hidden_weights"] else None
    config = ScenarioConfig(**cfg)
    encoder = MockTextEncoder(**header["encoder"])

    name_seeds: dict[int, int] = {}
    base_ids = tuple(rec["id"] for rec in header["base"])
    novel_ids = tuple(rec["id"] for rec in header["oracle"]["novel"])
    distractor_ids = tuple(rec["id"] for rec in header["oracle"]["distractor"])
    for rec in header["base"] + header["oracle"]["novel"] + header["oracle"]["distractor"]:
        name_seeds[rec["id"]] = rec["name_seed"]
    prototypes = {i: encoder.encode_named_category(s) for i, s in name_seeds.items()}

    images: dict[tuple[str, int], dict] = {}
    order: list[tuple[str, int]] = []
    for line in text[1:]:
        if not line.strip():
            continue
        rec = json.loads(line)
        key = (rec["split"], rec["image"])
        if rec["type"] == "image":
            images[key] = {"gt_boxes": [Box(*b) for b in rec["gt_boxes"]], "proposals": []}
            order.append(key)
        elif rec["type"] == "proposal":
            if key not in images:
                raise ValueError(
                    f"proposal of {rec['split']} image {rec['image']} precedes that image's line"
                )
            det = np.asarray(rec["det"], dtype=np.float64)
            img = np.asarray(rec["img"], dtype=np.float64)
            det.setflags(write=False)
            img.setflags(write=False)
            images[key]["proposals"].append(
                Proposal(
                    box=Box(*rec["box"]),
                    rpn_score=rec["rpn"],
                    det_feature=det,
                    img_feature=img,
                    gt_label=rec["gt"],
                    oracle=OracleInfo(
                        generative_label=rec["oracle"]["label"], source=rec["oracle"]["source"]
                    ),
                )
            )
        else:
            raise ValueError(f"unknown record type {rec['type']!r}")

    def build(split: str):
        return tuple(
            SynthImage(
                image_id=img_id,
                proposals=tuple(images[(split, img_id)]["proposals"]),
                gt_boxes=tuple(images[(split, img_id)]["gt_boxes"]),
            )
            for (s, img_id) in order
            if s == split
        )

    return Scenario(
        config=config,
        encoder_config=header["encoder"],
        base_ids=base_ids,
        novel_ids=novel_ids,
        distractor_ids=distractor_ids,
        name_seeds=name_seeds,
        prototypes=prototypes,
        train_images=build("train"),
        eval_images=build("eval"),
    )
