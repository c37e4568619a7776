"""Seeded generator of desk-scale detection scenarios.

Stands in for a real detection dataset, the proposal network, and the
frozen image encoder. Each scenario fixes a prototype embedding per
category (base, novel, distractor); proposals are drawn around prototypes
(object proposals) or isotropic directions (clutter), with image-encoder
features and slightly noisier detector features, objectness scores from
per-type truncated Gaussians, and jittered boxes. The order of the random
draws is part of the dataset format: the same settings give the same file.

Novel and distractor objects appear unlabeled in the training split — they
are exactly the structure hiding in the background. A proposal's hidden
category and source live only in its image's ``label`` and ``source``
columns, read by evaluation, the dataset writer and tests; no training-time
code path reads them.

A dataset file holds one JSON record per line, in a layout its header
fixes: the header line, then the ``n_train_images`` train images, then the
``n_eval_images`` eval images, each split numbering its images 0..n-1.
Each image is its image line followed by ``objects_per_image *
proposals_per_object + clutter_per_image`` proposal lines. The loader
derives every line's position from the header alone, so it reads the file
one image's lines at a time, decodes and parses only the lines of the splits
it is asked for, and refuses a file of any other line count (after the
header, it counts the lines in fixed-size chunks of bytes before it parses
one).
"""

from __future__ import annotations

import json
import math
import operator
import os
from bisect import bisect_right
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import NORM_FLOOR, check_fields, from_dict, is_integer
from .discovery import Proposal
from .encoder import MockTextEncoder
from .forked import in_halves, split_at
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
_CHUNK_BYTES = 1 << 16  # the loader counts a file's lines in chunks of this size
_FEATURES = ("det", "img")  # a proposal record's feature keys, in the order of an image's block
_SOURCES = ("object", "clutter", "unknown")  # the oracle sources a proposal line may hold
_SOURCE_INDEX = {source: i for i, source in enumerate(_SOURCES)}  # an image's ``source`` column holds these
_NONE = -1  # the ``gt`` and ``label`` columns' value for none
_NUMBERS = frozenset((int, float))  # the types a box coordinate or feature entry of a dataset line may have


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
            raise ValueError(f"ScenarioConfig.n_base must be at least 1, got {self.n_base}")
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


@dataclass(frozen=True, slots=True)
class SynthImage:
    """One image: its annotated (base-object) boxes and its ``n`` proposals as read-only columns.

    ``gt_boxes`` (g, 4) holds the annotated boxes' corners (x1, y1, x2, y2).
    ``features`` is the ``(2, n, dim)`` block of their ``det`` rows, then their
    ``img`` rows; ``boxes`` (n, 4) holds their corners, ``rpn`` their scores,
    ``gt`` their annotated base ids, ``label`` their oracle labels (int64, -1
    for none) and ``source`` their oracle sources as positions in ``_SOURCES``.
    Every column is made read-only when the image is built.
    """

    image_id: int
    gt_boxes: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)
    boxes: np.ndarray = field(repr=False)
    rpn: np.ndarray = field(repr=False)
    gt: np.ndarray = field(repr=False)
    label: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)

    def __post_init__(self):
        for column in (self.gt_boxes, self.features, self.boxes, self.rpn, self.gt, self.label, self.source):
            column.setflags(write=False)

    def __reduce__(self):
        """Unpickled through the constructor, so the columns an image arrives with are read-only too."""
        return SynthImage, (self.image_id, self.gt_boxes, self.features, self.boxes, self.rpn, self.gt, self.label,
                            self.source)

    def proposal_records(self, rows: np.ndarray) -> tuple[Proposal, ...]:
        """The records of the proposals in ``rows``, in order, holding rows of ``features``."""
        det, img = self.features
        return tuple(Proposal(det_feature=det[r], img_feature=img[r], gt_label=None if gt == _NONE else gt)
                     for r, gt in zip(rows.tolist(), self.gt[rows].tolist()))


def _box_fault(corners: np.ndarray) -> tuple[int, str] | None:
    """The first row of ``corners`` that is not a box, with what is wrong; a box has finite (x1, y1) < (x2, y2)."""
    lo, hi = corners[:, :2], corners[:, 2:]
    if np.logical_and.reduce(good := (lo < hi) & np.isfinite(lo) & np.isfinite(hi), axis=None):
        return None
    row = int(np.logical_and.reduce(good, axis=1).argmin())
    box = x1, y1, x2, y2 = corners[row].tolist()
    return row, f"non-finite box coordinate in {box}" if x1 < x2 and y1 < y2 else f"degenerate box {box} as float64"


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


def _row_normalized(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row over its norm, written to ``out`` if given, and the (n, 1) norms; the row dot
    product is the arithmetic of ``np.linalg.norm`` on one row."""
    norms = np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    return np.divide(x, norms, out=out), norms


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
    normal. The image's columns are then computed at once, with the
    arithmetic of the per-proposal draws. A box size range that gives a
    degenerate box is refused with the first such box (proposals before base
    annotations).
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

    rows = [per_object] * n_objects + [config.clutter_per_image]  # each object's proposals, then the clutter
    label = np.array(cats + [_NONE], np.int64).repeat(rows)
    directions = noise[:, 0]
    directions[:n_object_proposals] = prototypes[label[:n_object_proposals]]
    directions[n_object_proposals:] = _row_normalized(directions[n_object_proposals:])[0]
    features = np.empty((2, n, dim))  # det rows, then img rows
    img_norms = _row_normalized(directions + config.sigma_feat * noise[:, 1], out=features[1])[1]
    det_norms = _row_normalized(features[1] + config.sigma_det * noise[:, 2], out=features[0])[1]
    for name, norms in (("sigma_feat", img_norms), ("sigma_det", det_norms)):
        # A NaN norm fails the first comparison; an image without proposals passes both.
        least, most = np.minimum.reduce(norms, None, initial=math.inf), np.maximum.reduce(norms, None, initial=0.0)
        if not (0.0 < least and most < math.inf):
            raise ValueError(f"ScenarioConfig.{name} = {getattr(config, name)} is too large: the features of "
                             f"image {image_id} overflow to rows without a finite nonzero norm")
    scores[:n_object_proposals] = config.object_score_mean + config.object_score_std * scores[:n_object_proposals]
    scores[n_object_proposals:] = config.clutter_score_mean + config.clutter_score_std * scores[n_object_proposals:]
    gt_corners = _random_boxes(gt_u, config)
    boxes = np.concatenate([
        _jittered_boxes(gt_corners.repeat(per_object, axis=0), box_u[:n_object_proposals], config.image_size),
        _random_boxes(box_u[n_object_proposals:], config),
    ])
    is_base = np.array(bases + [False])
    gt_boxes = gt_corners[is_base[:-1]]
    for corners in (boxes, gt_boxes):
        if fault := _box_fault(corners):
            raise ValueError(fault[1])
    gt = np.where(is_base.repeat(rows), label, _NONE)
    source = np.array([_SOURCE_INDEX["object"]] * n_objects + [_SOURCE_INDEX["clutter"]], np.int64).repeat(rows)
    return SynthImage(image_id=image_id, gt_boxes=gt_boxes, features=features, boxes=boxes, rpn=_clipped(scores),
                      gt=gt, label=label, source=source)


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
        train_images, eval_images = (  # the train split's draws, then the eval split's
            tuple(_generate_image(rng, i, config, rows, base_ids, hidden_ids, hidden_cdf) for i in range(n))
            for n in (config.n_train_images, config.n_eval_images)
        )
    return Scenario(config=config, encoder=encoder, base_ids=base_ids, novel_ids=novel_ids,
                    distractor_ids=distractor_ids, name_seeds=name_seeds, prototypes=prototypes,
                    train_images=train_images, eval_images=eval_images)


# -- dataset files ------------------------------------------------------------


def _image_text(split: str, image: SynthImage) -> str:
    """The image's line, then its proposal lines, each ending in a newline."""
    records = [{"type": "image", "split": split, "image": image.image_id,
                "gt_boxes": image.gt_boxes.tolist()}]
    records += [
        {"type": "proposal", "split": split, "image": image.image_id, "box": box, "rpn": rpn, "det": d, "img": i,
         "gt": None if gt == _NONE else gt, "oracle": {"label": None if label == _NONE else label,
                                                       "source": _SOURCES[source]}}
        for box, rpn, d, i, gt, label, source in zip(image.boxes.tolist(), image.rpn.tolist(), *image.features.tolist(),
                                                      image.gt.tolist(), image.label.tolist(), image.source.tolist())
    ]
    return "".join(canonical_json(rec) + "\n" for rec in records)


def write_dataset(scenario: Scenario, path) -> None:
    """One-line-per-record dataset file: header, then image and proposal lines.

    The parent writes the header, then formats and writes the first half of
    the images one at a time. Where the process may run on two CPUs, a forked
    child formats the second half into its own memory meanwhile, and the
    parent then writes those texts in order as they arrive
    (``forked.in_halves``); elsewhere the parent formats them too. Either way
    the parent holds at most one image's text, and the file's bytes are the
    same. A write that fails removes its partial file.
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
    items = [("train", image) for image in scenario.train_images] + [("eval", image) for image in scenario.eval_images]
    try:
        with path.open("w", encoding="utf-8") as f:
            f.write(canonical_json(header) + "\n")
            with closing(in_halves(items, lambda part: (_image_text(*item) for item in part))) as texts:
                for text in texts:
                    f.write(text)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def load_dataset(path, splits: tuple[str, ...] = SPLITS) -> Scenario:
    """Rebuild a Scenario from a dataset file (prototypes recomputed via the encoder).

    The file is read one image's lines at a time, so the load holds the
    scenario it builds and at most one image's text. Each image's lines are
    decoded, checked and turned into columns at once, each rule over all of
    its rows; an image that fails a rule is refused by its first fault in
    file order. Where the process may run on two CPUs, the requested images are
    parsed in two halves: this process parses the first, while one forked
    child parses the second and sends its images' columns back in order
    (``forked.in_halves``); the scenario and every refusal are the same
    either way. Only the lines of ``splits`` are decoded and parsed; a split
    that was not requested is None. The header fixes the layout (see the
    module docstring), so a file whose line count differs from it, or a
    parsed line that is not the record its position calls for, is a
    ``ValueError``, as are a malformed file, a line that is not UTF-8 or not
    one JSON value, a feature that is not a list of numbers or is not finite
    or has zero norm, a bad box, gt box or rpn score (a bool is not a
    number), a ``gt`` that is not a base id of the header, an oracle that is
    not an object, an oracle label that is not a category id of the header or
    a source the writer cannot write, a missing key (a line's by its place),
    an unknown split name, a negative category id and a header whose
    ``config_hash`` does not match its settings.
    """
    unknown = [s for s in splits if s not in SPLITS]
    if unknown:
        raise ValueError(f"unknown dataset splits {unknown}; known: {list(SPLITS)}")
    try:
        return _parse_dataset(path, splits)
    except KeyError as exc:  # the header's; a line's missing key is refused by its place
        raise ValueError(f"dataset {path} lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed dataset {path}: {exc}") from None


def _parse_dataset(path, splits: tuple[str, ...]) -> Scenario:
    """Parse the header and the lines of ``splits``, one image at a time (``_parse_image``).

    After the header, the file's lines are counted in fixed-size chunks of
    bytes, noting where the requested images start and where the second half
    of them starts. The images are then read from their first byte, so no
    line of another split is read again, and parsed in two halves by
    ``forked.in_halves``: a forked child opens its own handle, seeks to the
    second half and parses it while this process parses the first.
    """
    with Path(path).open("rb") as f:
        head = f.readline()
        if not head:
            raise ValueError(f"empty dataset file {path}")
        header = _decoded(head, f"line 1 of dataset {path}, the header line,")
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
            if not 0 <= rec["id"] < 1 << 63:  # an int64 column holds it, and -1 stays its none
                raise ValueError(f"dataset {path} header holds a category id {rec['id']} outside [0, 2**63)")
            name_seeds[rec["id"]] = rec["name_seed"]
        sizes = (len(base_ids), len(novel_ids), len(distractor_ids))
        wanted = (config.n_base, config.n_novel, config.n_distractor)
        if sizes != wanted or len(name_seeds) != sum(sizes):  # a repeated id overwrote a name seed
            raise ValueError(f"dataset {path} header lists {sizes} base, novel and distractor categories under "
                             f"{len(name_seeds)} distinct ids; its settings call for {wanted} under distinct ids")
        prototypes = {i: encoder.encode_named_category(s) for i, s in name_seeds.items()}
        # The column value of each id a proposal line's gt and oracle label may hold, and of null.
        gt_values = {None: _NONE, **{i: i for i in base_ids}}
        label_values = {None: _NONE, **{i: i for i in name_seeds}}

        per_image = 1 + config.objects_per_image * config.proposals_per_object + config.clutter_per_image
        counts = {"train": config.n_train_images, "eval": config.n_eval_images}
        expected = 1 + per_image * sum(counts.values())
        firsts = {"train": 1, "eval": 1 + counts["train"] * per_image}  # each split's first line (from 0)
        order = [(split, i, firsts[split] + i * per_image) for split in SPLITS if split in splits
                 for i in range(counts[split])]  # each requested image, with its first line
        halves = {order[j][2] for j in (0, split_at(len(order))) if j < len(order)}  # where each half starts
        offset, n_lines, last = f.tell(), 1, b"\n"
        starts = {}  # the byte offset of each half's first line
        while chunk := f.read(_CHUNK_BYTES):
            found = chunk.count(b"\n")
            for n in halves - starts.keys():
                if n - n_lines <= found:
                    starts[n] = offset + len(chunk) - len(chunk.split(b"\n", n - n_lines)[-1])
            n_lines, last, offset = n_lines + found, chunk[-1:], offset + len(chunk)
        n_lines += last != b"\n"  # the last line may lack its newline
        if n_lines != expected:
            raise ValueError(f"dataset {path} has {n_lines} lines, but its header implies {expected}")
        parent = os.getpid()

        def parse(part):
            if not part:
                return
            # A forked child reads through a handle of its own: an inherited one shares its offset.
            with nullcontext(f) if os.getpid() == parent else Path(path).open("rb") as own:
                own.seek(starts[part[0][2]])
                for split, i, line in part:
                    yield _parse_image(own, path, line, per_image, split, i, config.dim, gt_values, label_values)

        images: dict[str, tuple[SynthImage, ...] | None] = dict.fromkeys(SPLITS)
        with closing(in_halves(order, parse)) as parsed:
            for split in SPLITS:
                if split in splits:
                    images[split] = tuple(islice(parsed, counts[split]))

    scenario = Scenario(config=config, encoder=encoder, base_ids=base_ids, novel_ids=novel_ids,
                        distractor_ids=distractor_ids, name_seeds=name_seeds, prototypes=prototypes,
                        train_images=images["train"], eval_images=images["eval"])
    if header["config_hash"] != scenario.dataset_hash():
        raise ValueError(f"dataset {path} header config_hash does not match its settings")
    return scenario


def _where(path, n: int, line: str, split: str, image_id: int) -> str:
    """The place of line ``n`` (from 0), ``line`` (as "the image line") of ``split`` image ``image_id``."""
    return f"line {n + 1} of dataset {path}, {line} of {split} image {image_id},"


def _decoded(line: bytes, where: str):
    """``line`` as one JSON value, or a ``ValueError`` that starts with ``where`` if it is not UTF-8 or not JSON."""
    try:
        return json.loads(str(line, "utf-8"))
    except UnicodeDecodeError as exc:  # a ValueError too, so it is caught first
        raise ValueError(f"{where} is not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also an int past Python's int-string limit, or deep nesting
        raise ValueError(f"{where} is not JSON: {exc}") from None


_SCAN = json.JSONDecoder().scan_once  # json.loads' scanner: the JSON value at an index of a str, and its end
_SPACE = json.decoder.WHITESPACE.match  # the whitespace json.loads allows before and after that value
_DET, _IMG, _GT, _ORACLE, _LABEL, _SOURCE, _BOX, _RPN = map(
    operator.itemgetter, ("det", "img", "gt", "oracle", "label", "source", "box", "rpn"))
_IDS = frozenset((int, type(None)))  # the types a proposal's gt and oracle label may have


def _records(lines: list[bytes], split: str, image_id: int) -> list[dict]:
    """The records of ``lines``, the image line and then proposal lines of ``split`` image ``image_id``, up
    to the first line that is not one JSON value (as ``json.loads`` decodes it) holding the record its
    position calls for."""
    recs = []
    for line in lines:
        kind = "proposal" if recs else "image"
        try:
            text = str(line, "utf-8")
            rec, end = _SCAN(text, _SPACE(text, 0).end())
        except (ValueError, StopIteration, RecursionError):  # not UTF-8, or not JSON
            break
        if not (_SPACE(text, end).end() == len(text) and type(rec) is dict
                and (rec.get("type"), rec.get("split"), rec.get("image")) == (kind, split, image_id)):
            break
        recs.append(rec)
    return recs


def _checked(check, rows: list, holds, *args):
    """``check(rows, *args)``, whose checks each run over all ``rows`` at once.

    Where one fails, ``check`` runs on one row at a time, and the first row
    that fails on its own is refused by its first fault: a ``ValueError`` as
    ``holds(row)`` and then its problem, a missing key (``KeyError``) as
    ``holds(row)`` and then "no key" and the key.
    """
    try:
        return check(rows, *args)
    except (ValueError, KeyError):
        for row in range(len(rows)):
            try:
                check(rows[row:row + 1], *args)
            except ValueError as exc:
                raise ValueError(f"{holds(row)} {exc}") from None
            except KeyError as exc:
                raise ValueError(f"{holds(row)} no key {exc}") from None
        raise


def _corners(boxes: list) -> np.ndarray:
    """The (n, 4) corners of ``boxes``: each a list of 4 ints or floats (numpy would take a bool as 0 or 1, and
    parse a string) that fit a float, with finite (x1, y1) < (x2, y2); else a ``ValueError`` that, for one box,
    names its fault."""
    if not ({list}.issuperset(map(type, boxes)) and {4}.issuperset(map(len, boxes))):
        raise ValueError(f"{boxes[0]!r} is not a list of 4 numbers")
    kinds = set(map(type, chain.from_iterable(boxes)))
    if not kinds <= _NUMBERS:
        raise ValueError(f"{'bool' if bool in kinds else 'non-number'} coordinate in {boxes[0]}")
    try:
        corners = np.array(boxes, np.float64).reshape(len(boxes), 4)
    except OverflowError as exc:  # an int too large for a float
        raise ValueError(exc) from None
    if fault := _box_fault(corners):  # int corners that float64 rounds onto each other are degenerate too
        raise ValueError(fault[1])
    return corners


def _features(rows: list, dim: int, key: str) -> np.ndarray:
    """The (n, dim) ``key`` rows: each a list of ``dim`` ints and floats (so no row is broadcast, and no bool or
    numeric string is coerced) that fit a float; else a ``ValueError`` that, for one row, names its fault."""
    try:
        if not ({list}.issuperset(map(type, rows)) and {dim}.issuperset(map(len, rows))):
            raise ValueError(f"not a list of config.dim = {dim} numbers")
        if not _NUMBERS.issuperset(map(type, chain.from_iterable(rows))):
            entries = list(chain.from_iterable(rows))
            j = [type(entry) in _NUMBERS for entry in entries].index(False)
            raise ValueError(f"entry {j} is {entries[j]!r}, not an int or a float")
        return np.array(rows, np.float64).reshape(len(rows), dim)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ValueError(f"a bad {key} feature: {exc}") from None


def _ids(values: list, kinds: frozenset, column_values: dict, problem: str) -> np.ndarray:
    """The int64 column ``column_values`` maps ``values`` to; a value of a type outside ``kinds`` (a bool is not
    an int) or outside ``column_values`` is a ``ValueError`` of ``problem``, which, for one row, names it."""
    if kinds.issuperset(map(type, values)) and all(map(column_values.__contains__, values)):
        return np.array(list(map(column_values.__getitem__, values)), np.int64)
    raise ValueError(problem.format(values[0]))


def _scores(scores: list) -> np.ndarray:
    """The rpn column: each score a number (not a bool) in [0, 1]; else a ``ValueError`` that, for one row,
    names its fault."""
    try:
        if bool in map(type, scores):
            raise ValueError(f"rpn_score must be a number, got {scores[0]}")
        if not all([0.0 <= score <= 1.0 for score in scores]):  # a non-number fails the comparison
            raise ValueError(f"rpn_score must lie in [0, 1], got {scores[0]}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"a bad rpn score: {exc}") from None
    return np.array(scores, np.float64)


def _proposal_columns(recs: list[dict], dim: int, gt_values: dict, label_values: dict):
    """The (feature block, corners, rpn, gt, label, source) columns of the proposal records ``recs``.

    Each field is read and checked over all records at once, in the order
    one line's fields are checked: ``det`` and ``img``, then ``gt``, oracle
    label and source (all three read before any is checked), ``box`` and
    ``rpn``. ``gt_values`` and ``label_values`` map each id a line may hold,
    and null, to its column value. A missing key is a ``KeyError`` (an
    oracle's as ``oracle.label`` or ``oracle.source``). Run on one record,
    the first fault raised is that line's first fault in file order.
    """
    block = np.array([_features(list(map(_DET, recs)), dim, "det"), _features(list(map(_IMG, recs)), dim, "img")])
    gts, oracles = list(map(_GT, recs)), list(map(_ORACLE, recs))
    if not {dict}.issuperset(map(type, oracles)):
        raise ValueError(f"an oracle of {oracles[0]!r}, which is not an object")
    try:
        labels, sources = list(map(_LABEL, oracles)), list(map(_SOURCE, oracles))
    except KeyError as exc:
        raise KeyError(f"oracle.{exc.args[0]}") from None
    gt = _ids(gts, _IDS, gt_values, "a gt of {!r}, which is neither null nor a base category id of the header")
    label = _ids(labels, _IDS, label_values,
                 "an oracle label of {!r}, which is neither null nor a category id of the header")
    source = _ids(sources, frozenset((str,)), _SOURCE_INDEX,
                  f"an oracle source of {{!r}}, which is not one of {', '.join(map(repr, _SOURCES))}")
    try:
        corners = _corners(list(map(_BOX, recs)))
    except ValueError as exc:
        raise ValueError(f"a bad box: {exc}") from None
    return block, corners, _scores(list(map(_RPN, recs))), gt, label, source


def _parse_image(f, path, first: int, per_image: int, split: str, image_id: int, dim: int, gt_values: dict,
                 label_values: dict) -> SynthImage:
    """One image from the next ``per_image`` lines of ``f``, the first of which is line ``first`` (from 0).

    The image is refused by its first fault in file order: a line that is
    not the record its position calls for (``_records``), then, in the
    image line, its gt boxes in list order (``_corners``), and in each
    proposal line its fields in order (``_proposal_columns``). The checks
    run over all of the image's rows at once; only where one fails are they
    run on one row at a time, to name the first faulty row (``_checked``).
    Proposal line ``i`` fills row ``i``. The feature block is then checked
    once: every row finite and with a direction (a norm above
    ``core.NORM_FLOOR``, as ``core.unit_rows`` takes it).
    """
    lines = [f.readline() for _ in range(per_image)]
    recs = _records(lines, split, image_id)

    def at(n: int, line: str = "a proposal line") -> str:  # the place of the image's line n (from 0)
        return _where(path, first + n, line, split, image_id)

    if recs:
        if "gt_boxes" not in recs[0]:
            raise ValueError(f"{at(0, 'the image line')} holds no key 'gt_boxes'")
        if type(gt_boxes := recs[0]["gt_boxes"]) is not list:
            raise ValueError(f"{at(0, 'the image line')} holds bad gt_boxes: {gt_boxes!r} is not a list of boxes")
        gt_corners = _checked(_corners, gt_boxes, lambda _: f"{at(0, 'the image line')} holds bad gt_boxes:")
        block, corners, rpn, gt, label, source = _checked(
            _proposal_columns, recs[1:], lambda row: f"{at(1 + row)} holds", dim, gt_values, label_values)
    if len(recs) < per_image:  # the first line that is not its record, after every line before it passed
        where = at(len(recs), f"the {'proposal' if recs else 'image'} line")
        _decoded(lines[len(recs)].removesuffix(b"\n"), where)
        raise ValueError(f"{where} holds another record")
    with np.errstate(over="ignore"):  # a row too long to square still has a direction
        norms = np.sqrt(np.add.reduce(block * block, axis=2))
    if not (np.isfinite(block).all() and np.minimum.reduce(norms, axis=None, initial=math.inf) > NORM_FLOOR):
        for fault, bad in (("non-finite", ~np.isfinite(block).all(axis=2)), ("zero-norm", norms <= NORM_FLOOR)):
            for key, bad_rows in zip(_FEATURES, bad):
                if bad_rows.any():  # the first bad proposal's line
                    raise ValueError(f"{at(1 + int(bad_rows.argmax()))} holds a {fault} {key} feature")
    return SynthImage(image_id=image_id, gt_boxes=gt_corners, features=block, boxes=corners, rpn=rpn, gt=gt,
                      label=label, source=source)
