"""Seeded generator of desk-scale detection scenarios.

Stands in for a real detection dataset, the proposal network, and the
frozen image encoder. Each scenario fixes a prototype embedding per
category (base, novel, distractor); proposals are drawn around prototypes
(object proposals) or isotropic directions (clutter), with image-encoder
features and slightly noisier detector features, objectness scores from
per-type truncated Gaussians, and jittered boxes. The order of the random
draws is part of the dataset format: the same settings give the same file.

Novel and distractor objects appear unlabeled in the training split — they
are exactly the structure hiding in the background. Hidden category
identities live only in per-proposal oracle records consumed by evaluation
and tests; no training-time code path reads them.

A dataset file holds one JSON record per line, in a layout its header
fixes: the header line, then the ``n_train_images`` train images, then the
``n_eval_images`` eval images, each split numbering its images 0..n-1.
Each image is its image line followed by ``objects_per_image *
proposals_per_object + clutter_per_image`` proposal lines. The loader
derives every line's position from the header alone, so it decodes and
parses only the lines of the splits it is asked for (it counts and finds
lines in the file's bytes) and refuses a file of any other line count.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import check_fields, from_dict, is_integer
from .discovery import Box, OracleInfo, Proposal
from .encoder import MockTextEncoder
from .persist import canonical_json, config_hash

__all__ = [
    "ScenarioConfig",
    "SynthImage",
    "Scenario",
    "generate_scenario",
    "write_dataset",
    "load_dataset",
    "DATASET_FORMAT",
]

DATASET_FORMAT = "ovlab-dataset"
DATASET_VERSION = 1
SPLITS = ("train", "eval")  # in file order


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic world; all randomness flows from ``seed``.

    Box sizes are drawn in ``[box_min, box_max)``, which must satisfy
    ``0 <= box_min <= box_max <= image_size``; counts, sigmas and score
    standard deviations are nonnegative and ``base_fraction`` lies in [0, 1].
    """

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
        check_fields(self)
        for name in ("dim", "n_base", "n_novel", "n_distractor", "n_train_images", "n_eval_images",
                     "objects_per_image", "proposals_per_object", "clutter_per_image", "seed",
                     "max_rejection_tries", "sigma_feat", "sigma_det", "object_score_std", "clutter_score_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"ScenarioConfig.{name} must be nonnegative, got {getattr(self, name)}")
        if self.n_base < 1:
            raise ValueError("need at least one base category")
        if self.dim < 1:
            raise ValueError(f"ScenarioConfig.dim must be at least 1, got {self.dim}")
        if not (0.0 <= self.base_fraction <= 1.0):
            raise ValueError(f"ScenarioConfig.base_fraction must lie in [0, 1], got {self.base_fraction}")
        if not (0.0 <= self.box_min <= self.box_max):
            raise ValueError(f"ScenarioConfig.box_min must lie in [0, box_max = {self.box_max}], got {self.box_min}")
        if self.box_max > self.image_size:
            raise ValueError(f"ScenarioConfig.box_max must be at most image_size = {self.image_size}, "
                             f"got {self.box_max}")

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
    """A generated world: its encoder, the categories and their prototypes under it, and both splits.

    A scenario loaded with ``load_dataset(path, splits)`` holds None for
    each split it was not asked for; ``images`` refuses to hand one out.
    """

    config: ScenarioConfig
    encoder: MockTextEncoder
    base_ids: tuple[int, ...]
    novel_ids: tuple[int, ...]
    distractor_ids: tuple[int, ...]
    name_seeds: dict[int, int]
    prototypes: dict[int, np.ndarray] = field(repr=False)
    train_images: tuple[SynthImage, ...] | None = field(repr=False)
    eval_images: tuple[SynthImage, ...] | None = field(repr=False)

    @property
    def hidden_ids(self) -> tuple[int, ...]:
        return self.novel_ids + self.distractor_ids

    @property
    def base_categories(self) -> tuple[tuple[int, int], ...]:
        """The ordered ``(id, name_seed)`` base list, which a checkpoint copies."""
        return tuple((i, self.name_seeds[i]) for i in self.base_ids)

    def images(self, split: str) -> tuple[SynthImage, ...]:
        """The images of ``split``; a split that was not loaded is a ``ValueError``."""
        images = {"train": self.train_images, "eval": self.eval_images}[split]
        if images is None:
            raise ValueError(f"the {split} split of this scenario was not loaded")
        return images

    def dataset_hash(self) -> str:
        return config_hash({"scenario": asdict(self.config), "encoder": self.encoder.config()})


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


_JITTER_LOW = np.array([-0.08, -0.08, 0.92, 0.92])  # centre shifts (times the box's size), then size scales
_JITTER_SPAN = np.array([0.08, 0.08, 1.08, 1.08]) - _JITTER_LOW
_CLUTTER = OracleInfo(generative_label=None, source="clutter")


def _row_normalized(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row over its norm, and the (n, 1) norms; the row dot product is the arithmetic of
    ``np.linalg.norm`` on one row."""
    norms = np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    return x / norms, norms


def _random_boxes(u: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """(m, 4) corner rows from (m, 4) uniforms: a size in [box_min, box_max), then a corner that keeps the box inside."""
    size = config.box_min + (config.box_max - config.box_min) * u[:, :2]
    corner = (config.image_size - size) * u[:, 2:]
    return np.concatenate([corner, corner + size], axis=1)


def _jittered_boxes(gt: np.ndarray, u: np.ndarray, image_size: float) -> np.ndarray:
    """(m, 4) boxes near the annotations ``gt``, from (m, 4) uniforms; the jitter keeps IoU above 0.5."""
    jitter = _JITTER_LOW + _JITTER_SPAN * u
    size = gt[:, 2:] - gt[:, :2]
    centre = (gt[:, :2] + gt[:, 2:]) / 2 + jitter[:, :2] * size
    half = size * jitter[:, 2:] / 2
    lo, hi = centre - half, centre + half
    return np.concatenate([np.where(lo > 0.0, lo, 0.0), np.where(hi < image_size, hi, image_size)], axis=1)


def _clipped(scores: np.ndarray) -> np.ndarray:
    """Scores clipped to [0, 1] as ``min(max(s, 0.0), 1.0)`` clips each one."""
    scores = np.where(scores < 0.0, 0.0, scores)
    return np.where(scores > 1.0, 1.0, scores)


def _generate_image(
    rng: np.random.Generator,
    image_id: int,
    config: ScenarioConfig,
    prototypes: np.ndarray,
    base_ids: tuple[int, ...],
    hidden_ids: tuple[int, ...],
    hidden_cdf: list[float],
) -> SynthImage:
    """One image, its draws taken in the order the dataset format fixes.

    Each object draws whether it is hidden (only if there are hidden
    categories), its category (a uniform searched in ``hidden_cdf``, the cdf
    ``Generator.choice(p=...)`` builds, or a uniform base index), its
    annotation's four uniforms, then per proposal ``2 * dim`` feature noises,
    four jitter uniforms and a score normal. Each clutter proposal draws
    ``3 * dim`` normals (its direction first), four box uniforms and a score
    normal. The features, boxes and scores of the whole image are then
    computed at once, with the arithmetic of the per-proposal draws; each
    proposal holds read-only rows of the image's det and img blocks.
    """
    n_objects, per_object, dim = config.objects_per_image, config.proposals_per_object, config.dim
    n_object_proposals = n_objects * per_object
    n = n_object_proposals + config.clutter_per_image
    cats, bases = [], []
    gt_u = np.empty((n_objects, 4))
    noise = np.empty((n, 3, dim))  # per proposal: clutter direction, image noise, detector noise
    box_u = np.empty((n, 4))
    scores = np.empty(n)  # each proposal's standard normal, then its score
    k = 0
    for o in range(n_objects):
        is_base = not (hidden_ids and rng.random() >= config.base_fraction)
        if is_base:
            cats.append(base_ids[rng.integers(len(base_ids))])
        else:
            cats.append(hidden_ids[bisect_right(hidden_cdf, rng.random())])
        bases.append(is_base)
        rng.random(out=gt_u[o])
        for _ in range(per_object):
            rng.standard_normal(out=noise[k, 1:])
            rng.random(out=box_u[k])
            scores[k] = rng.standard_normal()
            k += 1
    for k in range(n_object_proposals, n):
        rng.standard_normal(out=noise[k])
        rng.random(out=box_u[k])
        scores[k] = rng.standard_normal()

    directions = noise[:, 0]
    directions[:n_object_proposals] = prototypes[np.repeat(np.array(cats, dtype=np.intp), per_object)]
    directions[n_object_proposals:] = _row_normalized(directions[n_object_proposals:])[0]
    img, img_norms = _row_normalized(directions + config.sigma_feat * noise[:, 1])
    det, det_norms = _row_normalized(img + config.sigma_det * noise[:, 2])
    for name, norms in (("sigma_feat", img_norms), ("sigma_det", det_norms)):
        # A NaN norm fails the first comparison; an image without proposals passes both.
        least, most = np.minimum.reduce(norms, None, initial=math.inf), np.maximum.reduce(norms, None, initial=0.0)
        if not (0.0 < least and most < math.inf):
            raise ValueError(f"ScenarioConfig.{name} = {getattr(config, name)} is too large: the features of "
                             f"image {image_id} overflow to rows without a finite nonzero norm")
    img.setflags(write=False)
    det.setflags(write=False)
    scores[:n_object_proposals] = config.object_score_mean + config.object_score_std * scores[:n_object_proposals]
    scores[n_object_proposals:] = config.clutter_score_mean + config.clutter_score_std * scores[n_object_proposals:]
    gt = _random_boxes(gt_u, config)
    boxes = np.concatenate([
        _jittered_boxes(np.repeat(gt, per_object, axis=0), box_u[:n_object_proposals], config.image_size),
        _random_boxes(box_u[n_object_proposals:], config),
    ])
    labels = [(cat if is_base else None, OracleInfo(generative_label=cat, source="object"))
              for cat, is_base in zip(cats, bases) for _ in range(per_object)]
    labels += [(None, _CLUTTER)] * config.clutter_per_image
    proposals = [
        Proposal(box=Box(*box), rpn_score=score, det_feature=d, img_feature=i, gt_label=gt_label, oracle=oracle)
        for box, score, d, i, (gt_label, oracle) in zip(boxes.tolist(), _clipped(scores).tolist(), det, img, labels)
    ]
    gt_boxes = [Box(*box) for box, is_base in zip(gt.tolist(), bases) if is_base]
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
    cdf = config.resolved_hidden_weights().cumsum()  # as ``Generator.choice(p=...)`` builds it
    hidden_cdf = (cdf / cdf[-1]).tolist() if hidden_ids else []
    rows = np.array(protos)  # row i is category i's prototype

    rng = np.random.default_rng([4, config.seed])
    # Sigmas large enough to overflow the features are refused per image, in one error, not in warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        train_images = tuple(
            _generate_image(rng, i, config, rows, base_ids, hidden_ids, hidden_cdf)
            for i in range(config.n_train_images)
        )
        eval_images = tuple(
            _generate_image(rng, i, config, rows, base_ids, hidden_ids, hidden_cdf)
            for i in range(config.n_eval_images)
        )
    return Scenario(
        config=config,
        encoder=encoder,
        base_ids=base_ids,
        novel_ids=novel_ids,
        distractor_ids=distractor_ids,
        name_seeds=name_seeds,
        prototypes=prototypes,
        train_images=train_images,
        eval_images=eval_images,
    )


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
    """One-line-per-record dataset file: header, then image and proposal lines.

    The file is written image by image, so at most one image's text is held
    at a time; a write that fails removes its partial file.
    """
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with path.open("w", encoding="utf-8") as f:
            f.write(canonical_json(header) + "\n")
            for split, images in (("train", scenario.train_images), ("eval", scenario.eval_images)):
                for image in images:
                    lines = [canonical_json({"type": "image", "split": split, "image": image.image_id,
                                             "gt_boxes": [b.to_list() for b in image.gt_boxes]})]
                    lines += [canonical_json(_proposal_record(split, image.image_id, p)) for p in image.proposals]
                    f.write("\n".join(lines) + "\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def load_dataset(path, splits: tuple[str, ...] = SPLITS) -> Scenario:
    """Rebuild a Scenario from a dataset file (prototypes recomputed via the encoder).

    Only the lines of ``splits`` are parsed; a split that was not requested
    is None. The header fixes the layout (see the module docstring), so a
    file whose line count differs from it, or a parsed line that is not the
    record its position calls for, is a ``ValueError``, as are a malformed
    file, a missing key, an unknown split name and a header whose
    ``config_hash`` does not match its settings.
    """
    unknown = [s for s in splits if s not in SPLITS]
    if unknown:
        raise ValueError(f"unknown dataset splits {unknown}; known: {list(SPLITS)}")
    try:
        return _parse_dataset(path, splits)
    except KeyError as exc:
        raise ValueError(f"dataset {path} lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed dataset {path}: {exc}") from None


def _line_end(data: bytes, start: int, n: int) -> int:
    """Byte offset just past the ``n`` lines that begin at offset ``start``."""
    for _ in range(n):
        start = data.find(b"\n", start) + 1 or len(data)  # the last line may lack its newline
    return start


def _parse_dataset(path, splits: tuple[str, ...]) -> Scenario:
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
    images: dict[str, tuple[SynthImage, ...] | None] = dict.fromkeys(SPLITS)
    for split in list(texts):
        text, first = texts.pop(split)  # so that only its lines outlive the split
        lines = text.split("\n")
        del text
        images[split] = tuple(
            _parse_image(path, lines[i * per_image:(i + 1) * per_image], first + i * per_image, split, i,
                         config.dim)
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


def _record(path, line: str, n: int, kind: str, split: str, image_id: int) -> dict:
    """``line``, line ``n`` (from 0) of the file, which its position makes the ``kind`` line of ``split`` image ``image_id``."""
    try:
        rec = json.loads(line)
        position = (kind, split, image_id)
        if isinstance(rec, dict) and (rec.get("type"), rec.get("split"), rec.get("image")) == position:
            return rec
        problem = "holds another record"
    except json.JSONDecodeError as exc:
        problem = f"is not JSON: {exc}"
    raise ValueError(f"line {n + 1} of dataset {path}, the {kind} line of {split} image {image_id}, "
                     f"{problem}")


def _parse_image(path, lines: list[str], first: int, split: str, image_id: int, dim: int) -> SynthImage:
    """One image from its lines, the first of which is line ``first`` (from 0) of the file.

    Each feature kind of the image's proposals is read into the rows of one
    ``dim``-wide block, as each line is parsed, and checked finite once; each
    proposal holds a read-only row of it. A feature that is not a list of
    ``dim`` numbers is refused by its line, so no row is broadcast into the block.
    """
    rec = _record(path, lines[0], first, "image", split, image_id)
    gt_boxes = tuple(Box(*b) for b in rec["gt_boxes"])
    blocks: dict[str, np.ndarray] = {}
    parts = []
    for i, line in enumerate(lines[1:]):
        n = first + 1 + i
        rec = _record(path, line, n, "proposal", split, image_id)
        for key in ("det", "img"):
            if not i:
                blocks[key] = np.empty((len(lines) - 1, dim))
            try:
                if type(rec[key]) is not list or len(rec[key]) != dim:
                    raise ValueError(f"not a list of config.dim = {dim} numbers")
                blocks[key][i] = rec[key]
            except ValueError as exc:
                raise ValueError(f"line {n + 1} of dataset {path}, a proposal line of {split} image {image_id}, "
                                 f"holds a bad {key} feature: {exc}") from None
        parts.append((Box(*rec["box"]), rec["rpn"], rec["gt"],
                      OracleInfo(generative_label=rec["oracle"]["label"], source=rec["oracle"]["source"])))
    for key, block in blocks.items():
        if not np.isfinite(block).all():
            n = first + 2 + int(np.argwhere(~np.isfinite(block))[0][0])  # the first bad proposal's line, from 1
            raise ValueError(f"line {n} of dataset {path}, a proposal line of {split} image {image_id}, "
                             f"holds a non-finite {key} feature")
        block.setflags(write=False)
    proposals = tuple(
        Proposal(box=box, rpn_score=rpn, det_feature=det, img_feature=img, gt_label=gt, oracle=oracle)
        for (box, rpn, gt, oracle), det, img in zip(parts, blocks.get("det", ()), blocks.get("img", ()))
    )
    return SynthImage(image_id=image_id, proposals=proposals, gt_boxes=gt_boxes)
