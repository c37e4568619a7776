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
identities live only in each image's oracle columns, consumed by evaluation
and tests; no training-time code path reads them.

A dataset file holds one JSON record per line, in a layout its header
fixes: the header line, then the ``n_train_images`` train images, then the
``n_eval_images`` eval images, each split numbering its images 0..n-1.
Each image is its image line followed by ``objects_per_image *
proposals_per_object + clutter_per_image`` proposal lines. The loader
derives every line's position from the header alone, so it reads the file
one line at a time, decodes and parses only the lines of the splits it is
asked for, and refuses a file of any other line count (after the header, it
counts the lines in fixed-size chunks of bytes before it parses one).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import NORM_FLOOR, check_fields, from_dict, is_integer
from .discovery import OracleInfo, Proposal
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
_CHUNK_BYTES = 1 << 16  # the loader counts a file's lines in chunks of this size
_FEATURES = ("det", "img")  # a proposal record's feature keys, in the order of an image's block
_SOURCES = ("object", "clutter", "unknown")  # the oracle sources a proposal line may hold
_SOURCE_INDEX = {source: i for i, source in enumerate(_SOURCES)}  # an image's ``source`` column holds these
_NONE = -1  # the ``gt`` and ``label`` columns' value for none


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


@dataclass(frozen=True, slots=True)
class SynthImage:
    """One image: its annotated (base-object) boxes and its ``n`` proposals as read-only columns.

    ``gt_boxes`` (g, 4) holds the annotated boxes' corners (x1, y1, x2, y2).
    ``features`` is the ``(2, n, dim)`` block of their ``det`` rows, then their
    ``img`` rows; ``boxes`` (n, 4) holds their corners, ``rpn`` their scores,
    ``gt`` their annotated base ids, ``label`` their oracle labels (int64, -1
    for none) and ``source`` their oracle sources as positions in ``_SOURCES``.
    ``oracles`` maps each label to its records by source, shared by the
    images of a generated scenario or of one load.
    """

    image_id: int
    gt_boxes: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)
    boxes: np.ndarray = field(repr=False)
    rpn: np.ndarray = field(repr=False)
    gt: np.ndarray = field(repr=False)
    label: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)
    oracles: dict[int, tuple[OracleInfo, ...]] = field(repr=False)

    @property
    def proposals(self) -> tuple[Proposal, ...]:
        """The records of the image's proposals, built on each read (``proposal_records`` of every row)."""
        return self.proposal_records(np.arange(len(self.rpn)))

    def proposal_records(self, rows: np.ndarray) -> tuple[Proposal, ...]:
        """The records of the proposals in ``rows``, in order: rows of ``boxes`` and ``features``, shared oracles."""
        det, img = self.features
        columns = (column[rows].tolist() for column in (self.rpn, self.gt, self.label, self.source))
        return tuple(Proposal(box=self.boxes[r], rpn_score=rpn, det_feature=det[r], img_feature=img[r],
                              gt_label=None if gt == _NONE else gt, oracle=self.oracles[label][source])
                     for r, rpn, gt, label, source in zip(rows.tolist(), *columns))


def _box_fault(corners: np.ndarray) -> tuple[int, str] | None:
    """The first row of ``corners`` that is not a box, with what is wrong; a box has finite (x1, y1) < (x2, y2)."""
    if (corners[:, :2] < corners[:, 2:]).all() and np.isfinite(corners).all():
        return None
    ordered = (corners[:, :2] < corners[:, 2:]).all(axis=1)
    row = int((~(ordered & np.isfinite(corners).all(axis=1))).argmax())
    box = corners[row].tolist()
    return row, f"degenerate box {box} as float64" if not ordered[row] else f"non-finite box coordinate in {box}"


def _oracle_records(ids) -> dict[int, tuple[OracleInfo, ...]]:
    """Each category id, and -1 for none, mapped to its oracle records in ``_SOURCES`` order."""
    return {label: tuple(OracleInfo(None if label == _NONE else label, source) for source in _SOURCES)
            for label in (_NONE, *ids)}


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
    oracles: dict[int, tuple[OracleInfo, ...]],
) -> SynthImage:
    """One image, its draws taken in the order the dataset format fixes.

    Each object draws whether it is hidden (only if there are hidden
    categories), its category (a uniform searched in ``hidden_cdf``, the cdf
    ``Generator.choice(p=...)`` builds, or a uniform base index), its
    annotation's four uniforms, then per proposal ``2 * dim`` feature noises,
    four jitter uniforms and a score normal. Each clutter proposal draws
    ``3 * dim`` normals (its direction first), four box uniforms and a score
    normal. The image's columns are then computed at once, with the
    arithmetic of the per-proposal draws; ``oracles`` is the scenario's
    shared oracle records. A box size range that gives a degenerate box is
    refused with the first such box (proposals before base annotations).
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
    rpn = _clipped(scores)
    for column in (gt_boxes, features, boxes, rpn, gt, label, source):
        column.setflags(write=False)
    return SynthImage(image_id=image_id, gt_boxes=gt_boxes, features=features, boxes=boxes, rpn=rpn, gt=gt,
                      label=label, source=source, oracles=oracles)


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
    oracles = _oracle_records(ids)

    rng = np.random.default_rng([4, config.seed])
    # Sigmas large enough to overflow the features are refused per image, in one error, not in warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        train_images, eval_images = (  # the train split's draws, then the eval split's
            tuple(_generate_image(rng, i, config, rows, base_ids, hidden_ids, hidden_cdf, oracles) for i in range(n))
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
                    f.write(_image_text(split, image))
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def load_dataset(path, splits: tuple[str, ...] = SPLITS) -> Scenario:
    """Rebuild a Scenario from a dataset file (prototypes recomputed via the encoder).

    The file is read one line at a time, so the load holds the scenario it
    builds and at most one line's text. Only the lines of
    ``splits`` are decoded and parsed; a split that was not requested is
    None. The header fixes the layout (see the module docstring), so a file
    whose line count differs from it, or a parsed line that is not the record
    its position calls for, is a ``ValueError``, as are a malformed file, a
    line that is not UTF-8, a feature that is not finite or has zero norm, a
    bad box, gt box or rpn score (a bool is not a number), a ``gt`` that is
    not a base id of the header, an oracle label that is not a category id of
    the header or a source the writer cannot write, a missing key, an unknown
    split name, a negative category id and a header whose ``config_hash``
    does not match its settings. Every image of the load shares one oracle
    record per (label, source).
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


def _parse_dataset(path, splits: tuple[str, ...]) -> Scenario:
    """Parse the header and the lines of ``splits``, one line at a time.

    After the header, the file's lines are counted in fixed-size chunks of
    bytes, noting where the eval split starts; each requested split is then
    read from its first byte, so no line of another split is read again.
    """
    with Path(path).open("rb") as f:
        head = f.readline()
        if not head:
            raise ValueError(f"empty dataset file {path}")
        try:
            header = json.loads(str(head, "utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"line 1 of dataset {path}, the header line, is not UTF-8: {exc}") from None
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
        prototypes = {i: encoder.encode_named_category(s) for i, s in name_seeds.items()}
        oracles = _oracle_records(name_seeds)

        per_image = 1 + config.objects_per_image * config.proposals_per_object + config.clutter_per_image
        counts = {"train": config.n_train_images, "eval": config.n_eval_images}
        expected = 1 + per_image * sum(counts.values())
        offset, n_lines, last = f.tell(), 1, b"\n"
        starts = {"train": offset}  # the byte offset of each split's first line
        while chunk := f.read(_CHUNK_BYTES):
            found, left = chunk.count(b"\n"), counts["train"] * per_image + 1 - n_lines  # train lines still to end
            if "eval" not in starts and left <= found:
                starts["eval"] = offset + len(chunk) - len(chunk.split(b"\n", left)[-1])
            n_lines, last, offset = n_lines + found, chunk[-1:], offset + len(chunk)
        n_lines += last != b"\n"  # the last line may lack its newline
        if n_lines != expected:
            raise ValueError(f"dataset {path} has {n_lines} lines, but its header implies {expected}")
        images: dict[str, tuple[SynthImage, ...] | None] = dict.fromkeys(SPLITS)
        first = 1  # the line number (from 0) of the split's first line
        for split in SPLITS:
            if split in splits:
                f.seek(starts.get(split, offset))  # an eval split past the end of the file has no lines
                images[split] = tuple(_parse_image(f, path, first + i * per_image, per_image, split, i, config.dim,
                                                   base_ids, oracles) for i in range(counts[split]))
            first += counts[split] * per_image

    scenario = Scenario(config=config, encoder=encoder, base_ids=base_ids, novel_ids=novel_ids,
                        distractor_ids=distractor_ids, name_seeds=name_seeds, prototypes=prototypes,
                        train_images=images["train"], eval_images=images["eval"])
    if header["config_hash"] != scenario.dataset_hash():
        raise ValueError(f"dataset {path} header config_hash does not match its settings")
    return scenario


def _where(path, n: int, line: str, split: str, image_id: int) -> str:
    """The place of line ``n`` (from 0), ``line`` (as "the image line") of ``split`` image ``image_id``."""
    return f"line {n + 1} of dataset {path}, {line} of {split} image {image_id},"


def _record(path, line: bytes, n: int, kind: str, split: str, image_id: int) -> dict:
    """``line``, line ``n`` (from 0) of the file, which its position makes the ``kind`` line of ``split`` image ``image_id``."""
    try:
        rec = json.loads(str(line.removesuffix(b"\n"), "utf-8"))
        position = (kind, split, image_id)
        if isinstance(rec, dict) and (rec.get("type"), rec.get("split"), rec.get("image")) == position:
            return rec
        problem = "holds another record"
    except UnicodeDecodeError as exc:
        problem = f"is not UTF-8: {exc}"
    except json.JSONDecodeError as exc:
        problem = f"is not JSON: {exc}"
    raise ValueError(f"{_where(path, n, f'the {kind} line', split, image_id)} {problem}")


def _check_box(coords) -> None:
    """Refuse a box of a dataset line that is not a list of 4 ints or floats (numpy would take a bool as
    0 or 1, and parse a string); an image's rows are then checked as boxes at once (``_box_fault``)."""
    if type(coords) is not list or len(coords) != 4:
        raise ValueError(f"{coords!r} is not a list of 4 numbers")
    kinds = set(map(type, coords))
    if not kinds <= {int, float}:
        raise ValueError(f"{'bool' if bool in kinds else 'non-number'} coordinate in {coords}")


def _parse_image(f, path, first: int, per_image: int, split: str, image_id: int, dim: int,
                 base_ids: tuple[int, ...], oracles: dict[int, tuple[OracleInfo, ...]]) -> SynthImage:
    """One image from the next ``per_image`` lines of ``f``, the first of which is line ``first`` (from 0).

    Proposal line ``i`` fills row ``i`` of the columns. The image's gt and
    proposal boxes are checked as one array (``_box_fault``) and the feature
    block once: every row finite and with a direction (a norm above
    ``core.NORM_FLOOR``, as ``core.unit_rows`` takes it). A line is refused
    for a feature that is not a list of ``dim`` numbers (so no row is
    broadcast), a bad box (``_check_box``, then ``_box_fault``) or rpn score,
    a ``gt`` that is neither null nor one of ``base_ids``, an oracle label
    that is neither null nor a category id (a key of ``oracles`` but -1) and
    a source outside ``_SOURCES``.
    """
    rec = _record(path, f.readline(), first, "image", split, image_id)
    image_line = _where(path, first, "the image line", split, image_id)
    gt_coords, rows = rec["gt_boxes"], per_image - 1
    try:
        if type(gt_coords) is not list:
            raise ValueError(f"{gt_coords!r} is not a list of boxes")
        corners = np.empty((len(gt_coords) + rows, 4))  # the gt boxes, then the proposals' boxes
        for j, coords in enumerate(gt_coords):
            _check_box(coords)
            corners[j] = coords
    except (ValueError, OverflowError) as exc:  # an int too large for a float overflows
        raise ValueError(f"{image_line} holds bad gt_boxes: {exc}") from None
    n_gt = len(gt_coords)
    gt_boxes, boxes = corners[:n_gt], corners[n_gt:]
    block, rpn = np.empty((2, rows, dim)), np.empty(rows)
    gts, labels, sources = np.empty(rows, np.int64), np.empty(rows, np.int64), np.empty(rows, np.int64)
    for i in range(rows):
        n = first + 1 + i
        rec = _record(path, f.readline(), n, "proposal", split, image_id)
        where = _where(path, n, "a proposal line", split, image_id)
        for k, key in enumerate(_FEATURES):
            try:
                if type(rec[key]) is not list or len(rec[key]) != dim:
                    raise ValueError(f"not a list of config.dim = {dim} numbers")
                block[k, i] = rec[key]
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{where} holds a bad {key} feature: {exc}") from None
        gt, label, source = rec["gt"], rec["oracle"]["label"], rec["oracle"]["source"]
        if gt is not None and not (is_integer(gt) and gt in base_ids):
            raise ValueError(f"{where} holds a gt of {gt!r}, which is neither null nor a base category id of the "
                             "header")
        if label is not None and not (is_integer(label) and label >= 0 and label in oracles):
            raise ValueError(f"{where} holds an oracle label of {label!r}, which is neither null nor a category id "
                             "of the header")
        if type(source) is not str or source not in _SOURCE_INDEX:
            raise ValueError(f"{where} holds an oracle source of {source!r}, which is not one of "
                             f"{', '.join(map(repr, _SOURCES))}")
        try:
            _check_box(rec["box"])
            boxes[i] = rec["box"]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{where} holds a bad box: {exc}") from None
        score = rec["rpn"]
        try:
            if type(score) is bool or not 0.0 <= score <= 1.0:
                raise ValueError(f"rpn_score must {'be a number' if type(score) is bool else 'lie in [0, 1]'}, "
                                 f"got {score}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where} holds a bad rpn score: {exc}") from None
        rpn[i], sources[i] = score, _SOURCE_INDEX[source]
        gts[i], labels[i] = _NONE if gt is None else gt, _NONE if label is None else label
    if bad_box := _box_fault(corners):  # int corners that float64 rounds onto each other are degenerate too
        row, problem = bad_box
        where = image_line if row < n_gt else _where(path, first + 1 + row - n_gt, "a proposal line", split, image_id)
        raise ValueError(f"{where} holds {'bad gt_boxes' if row < n_gt else 'a bad box'}: {problem}")
    with np.errstate(over="ignore"):  # a row too long to square still has a direction
        norms = np.sqrt(np.add.reduce(block * block, axis=2))
    if not (np.isfinite(block).all() and np.minimum.reduce(norms, axis=None, initial=math.inf) > NORM_FLOOR):
        for fault, bad in (("non-finite", ~np.isfinite(block).all(axis=2)), ("zero-norm", norms <= NORM_FLOOR)):
            for key, bad_rows in zip(_FEATURES, bad):
                if bad_rows.any():  # the first bad proposal's line
                    where = _where(path, first + 1 + int(bad_rows.argmax()), "a proposal line", split, image_id)
                    raise ValueError(f"{where} holds a {fault} {key} feature")
    for column in (corners, gt_boxes, boxes, block, rpn, gts, labels, sources):
        column.setflags(write=False)
    return SynthImage(image_id=image_id, gt_boxes=gt_boxes, features=block, boxes=boxes, rpn=rpn, gt=gts,
                      label=labels, source=sources, oracles=oracles)
