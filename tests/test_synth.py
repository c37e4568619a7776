"""Scenario generator: determinism, geometry, oracle isolation, file round-trips."""

import contextlib
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from oracles import corners, joined_dataset_text, per_proposal_images, records, whole_file_parse_dataset
from util import EDGE_WORLDS, assert_no_child_left, count_calls

from ovlab import forked, synth
from ovlab.core import ZeroNormError, unit_rows
from ovlab.encoder import MockTextEncoder
from ovlab.metrics import EvalConfig, evaluate
from ovlab.synth import (
    _SOURCES,
    SPLITS,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    load_dataset,
    write_dataset,
)
from ovlab.trainer import TrainConfig, train


def _fields(p) -> tuple:
    """A record's box corners, score, gt label and oracle record, comparable whether its box is a row or a ``Box``."""
    return corners(p.box), p.rpn_score, p.gt_label, p.oracle


def _gt_corners(image) -> list[list[float]]:
    return [corners(b) for b in image.gt_boxes]


@pytest.fixture(scope="module")
def enc():
    return MockTextEncoder(seed=7)


@pytest.fixture(scope="module")
def small_config():
    return ScenarioConfig(n_train_images=8, n_eval_images=4, seed=2)


@pytest.fixture(scope="module")
def scenario(enc, small_config):
    return generate_scenario(small_config, enc)


def test_generation_deterministic(enc, small_config):
    a = generate_scenario(small_config, enc)
    b = generate_scenario(small_config, enc)
    assert a.name_seeds == b.name_seeds
    for i in a.prototypes:
        np.testing.assert_array_equal(a.prototypes[i], b.prototypes[i])
    pa = records(a.train_images[0])[0]
    pb = records(b.train_images[0])[0]
    np.testing.assert_array_equal(pa.det_feature, pb.det_feature)
    assert pa.box.tolist() == pb.box.tolist() and pa.rpn_score == pb.rpn_score


def test_noiseless_features_equal_prototypes(enc):
    config = ScenarioConfig(
        n_train_images=4, n_eval_images=2, sigma_feat=0.0, sigma_det=0.0, seed=3
    )
    scen = generate_scenario(config, enc)
    for image in scen.train_images:
        for p in records(image):
            if p.oracle.source != "object":
                continue
            proto = scen.prototypes[p.oracle.generative_label]
            np.testing.assert_allclose(p.img_feature, proto, atol=1e-14)
            np.testing.assert_allclose(p.det_feature, proto, atol=1e-14)


def test_prototypes_match_encoder_named_categories(scenario, enc):
    for cat, seed in scenario.name_seeds.items():
        np.testing.assert_array_equal(scenario.prototypes[cat], enc.encode_named_category(seed))


def test_prototype_separation(scenario):
    floor_cos = np.cos(np.radians(scenario.config.min_angle_deg))
    hidden_cos = np.cos(np.radians(scenario.config.hidden_min_angle_deg))
    cone_cos = np.cos(np.radians(scenario.config.novel_cone_deg))
    novel = set(scenario.novel_ids)
    ids = sorted(scenario.prototypes)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            c = float(scenario.prototypes[a] @ scenario.prototypes[b])
            limit = hidden_cos if (a in novel and b in novel) else floor_cos
            assert c <= limit + 1e-12
    # Novel categories share a semantic cone around the first novel prototype.
    anchor = scenario.prototypes[scenario.novel_ids[0]]
    for n in scenario.novel_ids[1:]:
        assert float(scenario.prototypes[n] @ anchor) >= cone_cos - 1e-12


def test_infeasible_separation_raises(enc):
    config = ScenarioConfig(min_angle_deg=178.0, max_rejection_tries=200, seed=0)
    with pytest.raises(RuntimeError, match="rejection sampling"):
        generate_scenario(config, enc)


def test_reference_scenario_nearest_prototype_accuracy(enc):
    scen = generate_scenario(ScenarioConfig(seed=0), enc)
    ids = sorted(scen.prototypes)
    protos = np.stack([scen.prototypes[i] for i in ids])
    total = hit = 0
    for image in scen.eval_images:
        for p in records(image):
            if p.oracle.generative_label is None:
                continue
            pred = ids[int(np.argmax(protos @ p.img_feature))]
            hit += pred == p.oracle.generative_label
            total += 1
    assert hit / total >= 0.99


def test_split_fg_bg_partitions(scenario):
    # Annotated (foreground) proposals are base objects labeled with their
    # own category; every other proposal is unlabeled background.
    for image in scenario.train_images:
        proposals = records(image)
        fg = [p for p in proposals if p.gt_label is not None]
        bg = [p for p in proposals if p.gt_label is None]
        assert len(fg) + len(bg) == len(proposals)
        for p in fg:
            assert p.oracle.generative_label in scenario.base_ids
            assert p.gt_label == p.oracle.generative_label


def test_every_hidden_object_is_background(scenario):
    # Novel and distractor objects are unlabeled, like every other
    # background proposal.
    hidden = set(scenario.hidden_ids)
    for image in scenario.train_images:
        for p in records(image):
            if p.oracle.generative_label in hidden:
                assert p.gt_label is None


def test_no_hidden_objects_means_clutter_only_background(enc):
    config = ScenarioConfig(
        n_novel=0, n_distractor=0, n_train_images=5, n_eval_images=2, seed=4
    )
    scen = generate_scenario(config, enc)
    for image in scen.train_images:
        for p in records(image):
            assert p.gt_label is not None or p.oracle.source == "clutter"


def test_rpn_scores_separate_objects_from_clutter(scenario):
    obj = [p.rpn_score for im in scenario.train_images for p in records(im)
           if p.oracle.source == "object"]
    clut = [p.rpn_score for im in scenario.train_images for p in records(im)
            if p.oracle.source == "clutter"]
    assert np.mean(obj) > 0.9
    assert np.mean(clut) < 0.7
    assert np.mean([s >= 0.95 for s in obj]) > 0.5
    assert np.mean([s >= 0.95 for s in clut]) < 0.05


def test_gt_boxes_cover_only_base_objects(scenario):
    for image in scenario.train_images:
        n_base_objects = len(
            {
                tuple(p.box[:2].tolist())
                for p in records(image)
                if p.gt_label is not None
            }
        )
        assert len(image.gt_boxes) >= 1 or n_base_objects == 0


def test_features_unit_norm(scenario):
    for image in scenario.train_images:
        for p in records(image):
            assert abs(np.linalg.norm(p.det_feature) - 1.0) < 1e-12
            assert abs(np.linalg.norm(p.img_feature) - 1.0) < 1e-12


def test_dataset_file_round_trip(tmp_path, scenario):
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    loaded = load_dataset(path)
    assert loaded.base_ids == scenario.base_ids
    assert loaded.novel_ids == scenario.novel_ids
    assert loaded.name_seeds == scenario.name_seeds
    assert len(loaded.train_images) == len(scenario.train_images)
    for li, si in zip(loaded.train_images, scenario.train_images):
        assert li.gt_boxes.tolist() == si.gt_boxes.tolist()
        for lp, sp in zip(records(li), records(si), strict=True):
            np.testing.assert_array_equal(lp.det_feature, sp.det_feature)
            np.testing.assert_array_equal(lp.img_feature, sp.img_feature)
            assert lp.gt_label == sp.gt_label
            assert lp.oracle == sp.oracle
    for i in scenario.prototypes:
        np.testing.assert_array_equal(loaded.prototypes[i], scenario.prototypes[i])


def test_dataset_file_byte_deterministic(tmp_path, scenario):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(scenario, p1)
    write_dataset(scenario, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("split", ["train", "eval"])
def test_loading_one_split_matches_the_full_load(tmp_path, scenario, split):
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    full, part = load_dataset(path), load_dataset(path, (split,))
    other = "eval" if split == "train" else "train"
    assert getattr(part, f"{other}_images") is None
    with pytest.raises(ValueError, match=f"the {other} split of this scenario was not loaded"):
        part.images(other)
    for name in ("config", "base_ids", "novel_ids", "distractor_ids", "name_seeds"):
        assert getattr(part, name) == getattr(full, name), name
    assert part.encoder.config() == full.encoder.config()
    assert part.dataset_hash() == full.dataset_hash()
    assert part.prototypes.keys() == full.prototypes.keys()
    for i in full.prototypes:
        assert part.prototypes[i].tobytes() == full.prototypes[i].tobytes()
    images, want = part.images(split), full.images(split)
    assert len(images) == len(want) > 0
    for li, fi in zip(images, want):
        assert li.image_id == fi.image_id and li.gt_boxes.tolist() == fi.gt_boxes.tolist()
        for lp, fp in zip(records(li), records(fi), strict=True):
            assert lp.det_feature.tobytes() == fp.det_feature.tobytes()
            assert lp.img_feature.tobytes() == fp.img_feature.tobytes()
            assert _fields(lp) == _fields(fp)


def _assert_columns_hold_the_records(image, want):
    """``image``'s columns hold the records ``want``, field by field and feature bit for bit (-1 for none)."""
    n = len(want)
    shapes = {"boxes": (n, 4), "rpn": (n,), "gt": (n,), "label": (n,), "source": (n,)}
    for name, shape in shapes.items():
        column = getattr(image, name)
        assert column.shape == shape and not column.flags.writeable, name
    assert image.gt.dtype == image.label.dtype == np.int64
    assert image.boxes.tolist() == [corners(p.box) for p in want]
    assert image.rpn.tolist() == [p.rpn_score for p in want]
    assert image.gt.tolist() == [-1 if p.gt_label is None else p.gt_label for p in want]
    assert image.label.tolist() == [-1 if p.oracle.generative_label is None else p.oracle.generative_label
                                    for p in want]
    assert [_SOURCES[s] for s in image.source.tolist()] == [p.oracle.source for p in want]
    for k, key in enumerate(("det", "img")):
        assert image.features[k].tobytes() == b"".join(getattr(p, f"{key}_feature").tobytes() for p in want)


def _assert_same_images(got, want):
    """The images ``got`` hold, as columns and as the records they build, the records of ``want``."""
    assert len(got) == len(want)
    for gi, wi in zip(got, want):
        assert gi.image_id == wi.image_id and _gt_corners(gi) == _gt_corners(wi)
        got_records, want_records = records(gi), records(wi)
        _assert_columns_hold_the_records(gi, want_records)
        assert len(got_records) == len(want_records)
        for gp, wp in zip(got_records, want_records):
            assert gp.det_feature.tobytes() == wp.det_feature.tobytes()
            assert gp.img_feature.tobytes() == wp.img_feature.tobytes()
            assert _fields(gp) == _fields(wp)


def _small_configs(st):
    """A hypothesis strategy of small valid worlds, each count down to zero."""
    return st.builds(
        ScenarioConfig,
        dim=st.integers(8, 16), n_base=st.integers(1, 3), n_novel=st.integers(0, 2),
        n_distractor=st.integers(0, 2), n_train_images=st.integers(0, 3), n_eval_images=st.integers(0, 3),
        objects_per_image=st.integers(0, 3), proposals_per_object=st.integers(0, 2),
        clutter_per_image=st.integers(0, 2), sigma_feat=st.floats(0.0, 0.5), sigma_det=st.floats(0.0, 0.5),
        base_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**31),
    )


def test_a_written_scenario_loads_back_split_by_split():
    # Round trip over random valid worlds: each split alone, and both, load
    # back as the generated scenario; a split not asked for is None.
    hypothesis = pytest.importorskip("hypothesis")
    import tempfile
    from pathlib import Path

    @hypothesis.settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_small_configs(hypothesis.strategies))
    def round_trip(config):
        scenario = generate_scenario(config, MockTextEncoder(seed=7, dim=config.dim))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            write_dataset(scenario, path)
            for splits in (("train",), ("eval",), ("train", "eval")):
                loaded = load_dataset(path, splits)
                for name in ("config", "base_ids", "novel_ids", "distractor_ids", "name_seeds"):
                    assert getattr(loaded, name) == getattr(scenario, name), name
                assert loaded.encoder.config() == scenario.encoder.config()
                assert loaded.dataset_hash() == scenario.dataset_hash()
                assert {i: a.tobytes() for i, a in loaded.prototypes.items()} == \
                    {i: a.tobytes() for i, a in scenario.prototypes.items()}
                for split in ("train", "eval"):
                    if split in splits:
                        _assert_same_images(loaded.images(split), scenario.images(split))
                    else:
                        assert getattr(loaded, f"{split}_images") is None

    round_trip()


def _assert_holds_its_blocks(scenario: Scenario):
    """Each image of the loaded splits hands out its read-only ``(2, n, dim)`` feature block, whose
    rows are the features of the records it builds; the records of its background rows are the
    records without a gt."""
    for image in (scenario.train_images or ()) + (scenario.eval_images or ()):
        assert image.features.shape == (2, len(image.rpn), scenario.config.dim)
        assert not image.features.flags.writeable
        assert image.gt_boxes.shape == (len(image.gt_boxes), 4) and image.gt_boxes.dtype == np.float64
        assert not image.gt_boxes.flags.writeable
        for p, det, img in zip(records(image), *image.features, strict=True):
            for feature, row in ((p.det_feature, det), (p.img_feature, img)):
                assert np.shares_memory(feature, row) and feature.tobytes() == row.tobytes()
        background = [p for p in records(image) if p.gt_label is None]
        for got, want in zip(records(image, np.flatnonzero(image.gt < 0)), background, strict=True):
            assert _fields(got) == _fields(want) and got.gt_label is None
            assert np.shares_memory(got.box, image.boxes) and not got.box.flags.writeable
            assert np.shares_memory(got.det_feature, image.features)
            assert (got.det_feature.tobytes(), got.img_feature.tobytes()) == (want.det_feature.tobytes(),
                                                                            want.img_feature.tobytes())


@pytest.mark.parametrize("edit", [dict(proposals_per_object=1), dict(proposals_per_object=0, clutter_per_image=0)])
def test_the_generator_refuses_a_degenerate_box(enc, monkeypatch, edit):
    # Annotations of zero width make their proposals' boxes degenerate, which are refused first;
    # with no proposal, the base annotation itself is refused.
    real = synth._random_boxes

    def zero_width(u, config):
        boxes = real(u, config)
        boxes[:, 2] = boxes[:, 0]
        return boxes

    monkeypatch.setattr(synth, "_random_boxes", zero_width)
    config = ScenarioConfig(n_train_images=1, n_eval_images=0, base_fraction=1.0, seed=1, **edit)
    with pytest.raises(ValueError, match=r"^degenerate box \[(\d+\.\d+), [\d.]+, \1, [\d.]+\] as float64$"):
        generate_scenario(config, enc)


def test_records_hold_no_instance_dict(scenario):
    # Slotted records: a proposal costs its fields, with no per-instance ``__dict__``.
    image = scenario.train_images[0]
    proposal = image.proposal_records(np.arange(1))[0]
    for record in (proposal, image):
        assert not hasattr(record, "__dict__"), type(record).__name__


def _assert_generated_as_the_oracle(scenario, tmp_path):
    """``scenario`` equals the per-proposal oracle's draws, feature bits and written bytes included."""
    _assert_holds_its_blocks(scenario)
    train, eval_ = per_proposal_images(scenario)
    _assert_same_images(scenario.train_images, train)
    _assert_same_images(scenario.eval_images, eval_)
    assert not any(p.det_feature.flags.writeable or p.img_feature.flags.writeable
                   for image in scenario.train_images + scenario.eval_images for p in records(image))
    path = tmp_path / "got.jsonl"
    write_dataset(scenario, path)
    want = joined_dataset_text(dataclasses.replace(scenario, train_images=train, eval_images=eval_))
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("world", ["reference", *EDGE_WORLDS])
def test_generation_matches_the_per_proposal_oracle(enc, tmp_path, world):
    # The batched generator takes every draw the per-proposal one took, in
    # the same order, and computes bit-identical features, boxes and scores.
    if world == "reference":
        config = ScenarioConfig(seed=5)
    else:
        config = ScenarioConfig(n_train_images=6, n_eval_images=4, seed=5, **EDGE_WORLDS[world])
    scenario = generate_scenario(config, enc)
    _assert_generated_as_the_oracle(scenario, tmp_path)
    if world == "clipped":  # the edge cases the clipping handles do occur
        proposals = [p for image in scenario.train_images + scenario.eval_images for p in records(image)]
        coords = [c for p in proposals for c in p.box.tolist()]
        assert 0.0 in coords and config.image_size in coords
        assert {0.0, 1.0} <= {p.rpn_score for p in proposals}


def test_generation_matches_the_per_proposal_oracle_on_random_worlds(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_small_configs(hypothesis.strategies))
    def same_as_oracle(config):
        _assert_generated_as_the_oracle(generate_scenario(config, MockTextEncoder(seed=7, dim=config.dim)), tmp_path)

    same_as_oracle()


@pytest.mark.parametrize("empty", [False, True])
def test_the_streamed_file_is_the_joined_text(tmp_path, scenario, empty):
    if empty:
        scenario = dataclasses.replace(scenario, train_images=(), eval_images=())
    path = tmp_path / "new" / "dir" / "data.jsonl"  # the parent directories are created
    write_dataset(scenario, path)
    assert path.read_bytes() == joined_dataset_text(scenario).encode("utf-8")


def test_a_failed_write_leaves_no_file(tmp_path, scenario):
    # A non-finite feature is refused by the JSON encoder midway through
    # the file; the lines already streamed are removed.
    image = scenario.eval_images[-1]
    features = image.features.copy()
    features[0, 0] = np.nan
    broken = dataclasses.replace(image, features=features)
    scenario = dataclasses.replace(scenario, eval_images=(*scenario.eval_images[:-1], broken))
    path = tmp_path / "data.jsonl"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_dataset(scenario, path)
    assert not path.exists()


GENERATE_CALL_BUDGET = 3  # Python-level calls per generated proposal on the reference world
LOAD_CALL_BUDGET = 3  # Python-level calls per loaded proposal of a both-split reference load, in-process


def test_generation_stays_within_its_call_budget(enc):
    # Counted as ``count_calls`` counts them, of one reference
    # ``generate_scenario`` (run once before it is counted).
    config = ScenarioConfig()
    generate_scenario(config, enc)
    scenario, calls = count_calls(generate_scenario, config, enc)
    per_proposal = calls / sum(len(image.rpn) for image in scenario.train_images + scenario.eval_images)
    assert per_proposal <= GENERATE_CALL_BUDGET, per_proposal


def test_a_load_stays_within_its_call_budget(tmp_path, monkeypatch, enc):
    # Counted as ``count_calls`` counts them, of one load of both splits of
    # the reference world (run once before it is counted) that parses every
    # image in-process: an image's lines are checked as columns, and walked
    # one at a time only to name a fault.
    monkeypatch.setattr(forked, "_cpu_count", lambda: 1)
    path = tmp_path / "data.jsonl"
    write_dataset(generate_scenario(ScenarioConfig(), enc), path)
    load_dataset(path)
    loaded, calls = count_calls(load_dataset, path)
    per_proposal = calls / sum(len(image.rpn) for image in loaded.train_images + loaded.eval_images)
    assert per_proposal <= LOAD_CALL_BUDGET, per_proposal


def test_unknown_split_name_is_refused(tmp_path, scenario):
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    for splits in (("test",), ("train", "Eval"), "train"):
        with pytest.raises(ValueError, match="unknown dataset splits"):
            load_dataset(path, splits)


def test_a_line_out_of_its_position_names_the_split_and_image(tmp_path, scenario):
    # Two eval proposal lines of different images trade places: the line
    # count still matches the header, but each line's image id does not.
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_text().splitlines()
    eval_props = [i for i, line in enumerate(lines)
                  if '"split":"eval"' in line and '"type":"proposal"' in line]
    first = eval_props[0]
    second = next(i for i in eval_props if json.loads(lines[i])["image"] == 1)
    lines[first], lines[second] = lines[second], lines[first]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {first + 1} .* proposal line of eval image 0"):
        load_dataset(path)
    with pytest.raises(ValueError, match="eval image 0"):
        load_dataset(path, ("eval",))
    # The train split does not parse those lines.
    assert len(load_dataset(path, ("train",)).images("train")) == len(scenario.train_images)


@pytest.mark.parametrize("ending", ["crlf", "no-final-newline"])
def test_line_endings_load_as_the_lines_they_hold(tmp_path, scenario, ending):
    # The loader counts and splits lines in bytes; a file with CRLF endings
    # or without a final newline still holds the same lines.
    path, edited = tmp_path / "data.jsonl", tmp_path / f"{ending}.jsonl"
    write_dataset(scenario, path)
    data = path.read_bytes()
    edited.write_bytes(data.replace(b"\n", b"\r\n") if ending == "crlf" else data[:-1])
    for splits in (("train", "eval"), ("train",), ("eval",)):
        want, got = load_dataset(path, splits), load_dataset(edited, splits)
        assert got.dataset_hash() == want.dataset_hash()
        for split in splits:
            for gi, wi in zip(got.images(split), want.images(split), strict=True):
                assert gi.gt_boxes.tolist() == wi.gt_boxes.tolist()
                for gp, wp in zip(records(gi), records(wi), strict=True):
                    assert gp.det_feature.tobytes() == wp.det_feature.tobytes()
                    assert gp.img_feature.tobytes() == wp.img_feature.tobytes()
                    assert _fields(gp) == _fields(wp)
    # A line count the header does not imply is still refused.
    edited.write_bytes(data + b"\n")
    with pytest.raises(ValueError, match="has .* lines, but its header implies"):
        load_dataset(edited, ("train",))


@pytest.mark.parametrize("split", ["train", "eval"])
def test_a_broken_line_is_named_by_its_line_in_the_file(tmp_path, scenario, split):
    # Only the requested split's lines are decoded, but an error still names
    # the line's number in the whole file.
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_text().splitlines()
    n = max(i for i, line in enumerate(lines) if f'"split":"{split}"' in line)
    lines[n] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    for splits in ((split,), ("train", "eval")):
        with pytest.raises(ValueError, match=f"^line {n + 1} of dataset .* of {split} image"):
            load_dataset(path, splits)


SPLIT_SETS = (("train",), ("eval",), ("train", "eval"))


def _whole_file_load(path, splits):
    """``load_dataset`` with the whole-file oracle parsing in place of the streamed parser."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_parse_dataset", whole_file_parse_dataset)
        return load_dataset(path, splits)


def _assert_same_scenario(got: Scenario, want: Scenario):
    """Equal settings, hash and prototypes, and equal images, feature bits included, in each split."""
    for name in ("config", "base_ids", "novel_ids", "distractor_ids", "name_seeds"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.encoder.config() == want.encoder.config()
    assert got.dataset_hash() == want.dataset_hash()
    assert {i: a.tobytes() for i, a in got.prototypes.items()} == {i: a.tobytes() for i, a in want.prototypes.items()}
    for split in SPLITS:
        got_images, want_images = getattr(got, f"{split}_images"), getattr(want, f"{split}_images")
        if want_images is None:
            assert got_images is None, split
        else:
            _assert_same_images(got_images, want_images)
            assert not any(p.det_feature.flags.writeable or p.img_feature.flags.writeable
                           for image in got_images for p in records(image))


def _assert_streamed_as_the_oracle(path):
    for splits in SPLIT_SETS:
        loaded = load_dataset(path, splits)
        _assert_holds_its_blocks(loaded)
        _assert_same_scenario(loaded, _whole_file_load(path, splits))


@pytest.mark.parametrize("world", ["reference", "no_proposals", *EDGE_WORLDS, "crlf", "no_final_newline"])
def test_the_streamed_load_is_the_whole_file_load(tmp_path, enc, scenario, world):
    # Read one image at a time, the file builds the scenario the whole-file
    # parser builds, bit for bit, whichever splits are asked for.
    path = tmp_path / "data.jsonl"
    if world == "reference":
        write_dataset(generate_scenario(ScenarioConfig(), enc), path)
    elif world in ("crlf", "no_final_newline"):
        write_dataset(scenario, path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\n", b"\r\n") if world == "crlf" else data[:-1])
    else:
        edit = dict(objects_per_image=0, clutter_per_image=0) if world == "no_proposals" else EDGE_WORLDS[world]
        write_dataset(generate_scenario(ScenarioConfig(n_train_images=6, n_eval_images=4, seed=5, **edit), enc),
                      path)
    _assert_streamed_as_the_oracle(path)


def test_the_streamed_load_is_the_whole_file_load_on_random_worlds():
    hypothesis = pytest.importorskip("hypothesis")
    import tempfile
    from pathlib import Path

    @hypothesis.settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_small_configs(hypothesis.strategies))
    def same_as_oracle(config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            write_dataset(generate_scenario(config, MockTextEncoder(seed=7, dim=config.dim)), path)
            _assert_streamed_as_the_oracle(path)

    same_as_oracle()


def _edit_line(n: int, edit):
    """A file fault: ``edit`` applied to the record on line ``n`` (from 0)."""
    def apply(lines):
        rec = json.loads(lines[n])
        edit(rec)
        lines[n] = json.dumps(rec)
    return apply


def _set(path: tuple, value):
    """A record edit that sets the value at the key path ``path``."""
    def edit(rec):
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
    return edit


def _faults(*faults):
    """A file fault made of ``faults``, applied in order."""
    def apply(lines):
        for fault in faults:
            fault(lines)
    return apply


def _split_and_merged(lines):
    """Train image 0's first proposal line split at its first comma into two lines, and its next two
    proposal lines joined by a comma into one: the image keeps its 14 lines, and the lines joined by
    commas still read as its 14 records."""
    k = lines[2].index(",")
    lines[2:5] = [lines[2][:k], lines[2][k + 1:], lines[3] + "," + lines[4]]


def _edit_text(n: int, edit):
    """A file fault: ``edit`` applied to the text of line ``n`` (from 0), for a value ``json.dumps`` cannot write."""
    def apply(lines):
        lines[n] = edit(lines[n])
    return apply


def _huge_rpn(line: str) -> str:
    """The line with its rpn score written as a 5,000-digit int, past Python's 4,300-digit int-string limit."""
    return re.sub(r'"rpn":[^,}]+', '"rpn":' + "7" * 5000, line)


def _deep_key(line: str) -> str:
    """The line with one more key, a list nested past the recursion limit."""
    return '{"deep":' + "[" * 10**5 + "]" * 10**5 + "," + line[1:]


# Lines ``json.loads`` refuses with a plain ``ValueError`` or a ``RecursionError``, not a ``JSONDecodeError``:
# (line, edit, the start of the problem it reports). The first is a proposal line of train image 5, the
# second of train image 2.
PAST_A_LIMIT = {
    "rpn_past_the_int_digit_limit": (1 + 14 * 5 + 3, _huge_rpn,
                                     "Exceeds the limit (4300 digits) for integer string conversion"),
    "nested_past_the_recursion_limit": (1 + 14 * 2 + 4, _deep_key, "maximum recursion depth exceeded"),
}


def _refusal(load, path, splits) -> str | None:
    try:
        load(path, splits)
    except ValueError as exc:
        return str(exc)
    return None


# Each fault edits the lines of the 8 + 4 image fixture world: the header is
# line 0, train image 0 starts at line 1 and each image has 14 lines. Where a
# load forks, the child parses train images 4-7 of a train load, eval images
# 2-3 of an eval load and train images 6-7 and the eval images of a load of both.
FILE_FAULTS = {
    "one_line_too_many": lambda lines: lines.append(""),
    "one_line_too_few": lambda lines: lines.pop(20),
    "header_only": lambda lines: lines.__delitem__(slice(1, None)),
    "train_lines_swapped": lambda lines: lines.insert(16, lines.pop(2)),
    "eval_lines_swapped": lambda lines: lines.insert(-15, lines.pop(-2)),
    "image_line_moved": lambda lines: lines.insert(3, lines.pop(1)),
    "train_line_not_json": lambda lines: lines.__setitem__(5, "{not json"),
    "eval_line_truncated": lambda lines: lines.__setitem__(-3, lines[-3][:40]),
    "image_line_not_an_object": lambda lines: lines.__setitem__(15, "[1, 2]"),
    "det_too_short": _edit_line(2, lambda rec: rec["det"].pop()),
    "img_not_a_list": _edit_line(-1, _set(("img",), 5)),
    "det_holds_a_string": _edit_line(3, lambda rec: rec["det"].__setitem__(0, "x")),
    "det_a_numeric_string": _edit_line(1 + 14 * 7 + 2, lambda rec: rec["det"].__setitem__(0, "0.5")),  # train image 7
    "img_a_bool": _edit_line(-2, lambda rec: rec["img"].__setitem__(5, True)),
    "det_not_finite": _edit_line(4, lambda rec: rec["det"].__setitem__(1, float("nan"))),
    "img_not_finite": _edit_line(-4, lambda rec: rec["img"].__setitem__(0, float("inf"))),
    "det_zero": _edit_line(6, lambda rec: rec.__setitem__("det", [0.0] * len(rec["det"]))),
    "img_zero": _edit_line(-5, lambda rec: rec.__setitem__("img", [0.0] * len(rec["img"]))),
    "proposal_lacks_a_key": _edit_line(7, lambda rec: rec.pop("rpn")),
    "gt_boxes_not_a_list": _edit_line(1, _set(("gt_boxes",), 5)),
    "gt_box_degenerate": _edit_line(15, _set(("gt_boxes",), [[5, 5, 1, 1]])),
    "gt_box_too_short": _edit_line(-14, _set(("gt_boxes",), [[1, 2, 3]])),
    "box_degenerate": _edit_line(8, _set(("box",), [5, 5, 1, 1])),
    "box_too_short": _edit_line(-6, _set(("box",), [1, 2, 3])),
    "rpn_above_one": _edit_line(9, _set(("rpn",), 1.5)),
    "gt_a_string": _edit_line(2, _set(("gt",), "a")),
    "gt_not_a_base_id": _edit_line(3, _set(("gt",), 999)),
    "gt_a_novel_id": _edit_line(4, _set(("gt",), 8)),
    "gt_a_float": _edit_line(5, _set(("gt",), 1.5)),
    "gt_a_bool": _edit_line(6, _set(("gt",), True)),
    "label_not_a_category_id": _edit_line(-2, _set(("oracle", "label"), 999)),
    "label_a_string": _edit_line(-3, _set(("oracle", "label"), "x")),
    "label_a_bool": _edit_line(-4, _set(("oracle", "label"), True)),
    "label_a_float": _edit_line(-5, _set(("oracle", "label"), 1.0)),
    "label_minus_one": _edit_line(-8, _set(("oracle", "label"), -1)),
    "source_unknown": _edit_line(7, _set(("oracle", "source"), "scrubbed")),
    "source_not_a_string": _edit_line(-7, _set(("oracle", "source"), ["object"])),
    "det_a_bool_and_box_degenerate": _faults(_edit_line(2, lambda rec: rec["det"].__setitem__(3, True)),
                                             _edit_line(2, _set(("box",), [5, 5, 1, 1]))),
    "rpn_above_one_then_img_a_string": _faults(_edit_line(3, _set(("rpn",), 1.5)),
                                               _edit_line(6, lambda rec: rec["img"].__setitem__(0, "x"))),
    "record_split_and_records_merged": _split_and_merged,
    "det_a_huge_int": _edit_line(-3, lambda rec: rec["det"].__setitem__(2, 10**400)),
    **{name: _edit_text(n, edit) for name, (n, edit, _) in PAST_A_LIMIT.items()},
    "header_not_json": lambda lines: lines.__setitem__(0, "{header"),
    "header_not_an_object": lambda lines: lines.__setitem__(0, "[]"),
    "header_format": _edit_line(0, _set(("format",), "other")),
    "header_version": _edit_line(0, _set(("version",), 2)),
    "header_encoder_dim": _edit_line(0, _set(("encoder", "dim"), 16)),
    "header_unknown_setting": _edit_line(0, _set(("config", "colour"), 1)),
    "header_category_id": _edit_line(0, lambda rec: rec["base"][0].__setitem__("id", 1.5)),
    "header_lacks_a_key": _edit_line(0, lambda rec: rec.pop("base")),
    "header_extra_base_record": _edit_line(0, lambda rec: rec["base"].append({"id": 99, "name_seed": 500})),
    "header_repeated_id": _edit_line(0, lambda rec: rec["oracle"]["distractor"][0].__setitem__("id", 0)),
    "header_dropped_record": _edit_line(0, lambda rec: rec["oracle"]["novel"].pop()),
    "header_config_hash": _edit_line(0, _set(("config_hash",), "0" * 16)),
    "empty_file": lambda lines: lines.clear(),
}


@pytest.mark.parametrize("fault", FILE_FAULTS)
def test_the_streamed_load_refuses_what_the_whole_file_load_refuses(tmp_path, monkeypatch, scenario, fault):
    # Every fault is refused, by the split that holds it, with the message the
    # whole-file parser gives, whether the load parses every image in-process
    # or forks a child for the second half of them.
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_text().splitlines()
    FILE_FAULTS[fault](lines)
    path.write_text("".join(line + "\n" for line in lines))
    want = [_refusal(_whole_file_load, path, splits) for splits in SPLIT_SETS]
    assert want[-1] is not None
    for n in (1, 2):
        monkeypatch.setattr(forked, "_cpu_count", lambda n=n: n)
        assert [_refusal(load_dataset, path, splits) for splits in SPLIT_SETS] == want, n
    assert_no_child_left()


def test_a_surrogate_in_a_line_is_refused_as_not_utf8(tmp_path, monkeypatch, scenario):
    # The UTF-8 form of a lone surrogate in a string of an extra key:
    # ``json.loads`` of the bytes decodes it with "surrogatepass" and takes
    # it, but each line is decoded strictly, so the load refuses it, as the
    # whole-file parser does, whether it forks or not.
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_bytes().split(b"\n")
    n = 1 + 14 * 5 + 3  # a proposal line of train image 5
    lines[n] = b'{"note":"\xed\xa0\x80",' + lines[n][1:]
    assert json.loads(lines[n])["note"] == "\ud800"
    path.write_bytes(b"\n".join(lines))
    want = [_refusal(_whole_file_load, path, splits) for splits in SPLIT_SETS]
    assert want[1] is None and want[0] == want[2], want  # the eval split does not decode it
    assert want[0].startswith(f"line {n + 1} of dataset {path}, the proposal line of train image 5, is not UTF-8: "
                              "'utf-8' codec can't decode byte 0xed"), want[0]
    for cpus in (1, 2):
        monkeypatch.setattr(forked, "_cpu_count", lambda cpus=cpus: cpus)
        assert [_refusal(load_dataset, path, splits) for splits in SPLIT_SETS] == want, cpus
    assert_no_child_left()


@pytest.mark.parametrize("fault", PAST_A_LIMIT)
def test_a_line_past_a_json_limit_is_refused_by_its_line(tmp_path, monkeypatch, scenario, fault):
    # The refusal names the file and the line, as every refusal of a line that is not JSON does,
    # whether the load forks or not (train image 5 is in a forked train load's second half, 2 in its first).
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_text().splitlines()
    FILE_FAULTS[fault](lines)
    path.write_text("".join(line + "\n" for line in lines))
    n, _, problem = PAST_A_LIMIT[fault]
    want = f"line {n + 1} of dataset {path}, the proposal line of train image {(n - 1) // 14}, is not JSON: {problem}"
    for cpus in (1, 2):
        monkeypatch.setattr(forked, "_cpu_count", lambda cpus=cpus: cpus)
        assert _refusal(load_dataset, path, ("train",)).startswith(want), cpus
    assert_no_child_left()


def _field_paths(value, path=()):
    """The key or index path of every value inside ``value``, at any depth."""
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _load_or_refusal(load, path, splits):
    """The scenario ``load`` builds, or the message it refuses the file with."""
    try:
        return load(path, splits)
    except ValueError as exc:
        return str(exc)


def test_a_random_field_loads_or_is_refused_as_the_whole_file_load(tmp_path, scenario):
    # One field of one line of the fixture world's file set to a value of a
    # random kind: whether the load forks or not, it builds the whole-file
    # parser's scenario, bit for bit, or refuses the file with its message.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_text().splitlines()
    dim = scenario.config.dim
    values = st.one_of(
        st.booleans(), st.text(max_size=3), st.floats(-2.0, 2.0).map(str), st.none(),
        st.lists(st.floats(0.0, 1.0), max_size=5), st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim),
        st.dictionaries(st.sampled_from(["label", "source", "det"]),
                        st.none() | st.integers(-1, 20) | st.sampled_from(_SOURCES), max_size=2),
        st.integers(2**1024, 10**400), st.just(float("nan")), st.floats(), st.integers(max_value=-1),
        st.integers(0, 20),
    )

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def same_as_oracle(data):
        n = data.draw(st.integers(0, len(lines) - 1), label="line")
        rec = json.loads(lines[n])
        _set(data.draw(st.sampled_from(list(_field_paths(rec))), label="field"), data.draw(values, label="value"))(rec)
        path.write_text("".join(line + "\n" for line in [*lines[:n], json.dumps(rec), *lines[n + 1:]]))
        for splits in SPLIT_SETS:
            want = _load_or_refusal(_whole_file_load, path, splits)
            for cpus in (1, 2):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(forked, "_cpu_count", lambda cpus=cpus: cpus)
                    got = _load_or_refusal(load_dataset, path, splits)
                if isinstance(want, str) or isinstance(got, str):
                    assert got == want, (splits, cpus)
                else:
                    _assert_same_scenario(got, want)
        assert_no_child_left()

    same_as_oracle()


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cpus(request, monkeypatch):
    """The CPU count ``forked.in_halves`` sees: 1 runs every image in-process, 2 forks a child for the second half."""
    monkeypatch.setattr(forked, "_cpu_count", lambda: request.param)
    return request.param


def _columns(scenario: Scenario) -> list:
    """Every column of every loaded image, as its bytes, dtype, shape and write flag."""
    return [(split, image.image_id, name, column.tobytes(), column.dtype.str, column.shape, column.flags.writeable)
            for split in SPLITS if getattr(scenario, f"{split}_images") is not None
            for image in scenario.images(split) for name in synth.SynthImage.__slots__
            if isinstance(column := getattr(image, name), np.ndarray)]


@pytest.mark.parametrize("seed", [0, 3])
def test_the_forked_and_in_process_paths_write_and_load_the_same(tmp_path, monkeypatch, enc, seed):
    # The reference world's file and every column of every load are the same
    # bytes whether the writer and loader fork or not.
    scenario = generate_scenario(ScenarioConfig(seed=seed), enc)
    written, loads = {}, {}
    for n in (1, 2):
        monkeypatch.setattr(forked, "_cpu_count", lambda n=n: n)
        path = tmp_path / f"{n}.jsonl"
        write_dataset(scenario, path)
        written[n] = path.read_bytes()
        loads[n] = [_columns(load_dataset(path, splits)) for splits in SPLIT_SETS]
        assert_no_child_left()
    assert written[1] == written[2]
    assert loads[1] == loads[2]
    assert all(not writeable for columns in loads[2] for *_, writeable in columns)


def _broken(tmp_path, scenario, *edits):
    """The fixture world's file with each ``(line, key)`` edit removing ``key`` from that line."""
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_text().splitlines()
    for n, key in edits:
        _edit_line(n, lambda rec, key=key: rec.pop(key))(lines)
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_the_first_fault_in_file_order_wins_across_the_split(tmp_path, scenario, cpus):
    # One fault in train image 1 (the parent's half of a load of both
    # splits) and one in eval image 3 (the child's half): the first is refused.
    path = _broken(tmp_path, scenario, (1 + 14 * 1 + 3, "gt"), (-1, "rpn"))
    with pytest.raises(ValueError, match=r"^dataset .* lacks key 'gt'$"):
        load_dataset(path)
    with pytest.raises(ValueError, match=r"^dataset .* lacks key 'rpn'$"):  # a missing key of the child's half
        load_dataset(path, ("eval",))
    assert_no_child_left()


def test_a_load_refused_in_either_half_leaves_no_child(tmp_path, monkeypatch, enc):
    # The parent's half fails at its first image while the child still
    # parses 62 images; then the child's half fails at its last image.
    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
    path = tmp_path / "data.jsonl"
    write_dataset(generate_scenario(ScenarioConfig(n_train_images=4, seed=1), enc), path)
    lines = path.read_text().splitlines()
    for n, split in ((2, "train"), (len(lines) - 1, "eval")):
        edited = list(lines)
        _edit_line(n, _set(("det",), "x"))(edited)
        path.write_text("".join(line + "\n" for line in edited))
        with pytest.raises(ValueError, match=f"^line {n + 1} of dataset .* of {split} image .* holds a bad det "):
            load_dataset(path)
        assert_no_child_left()


def test_a_write_whose_child_fails_removes_its_file_and_leaves_no_child(tmp_path, monkeypatch, scenario):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
    image_text = synth._image_text

    def failing(split, image):
        if split == "eval" and image.image_id == 3:  # in the child's half
            raise ZeroNormError(f"{split} image {image.image_id} has no text")
        return image_text(split, image)

    monkeypatch.setattr(synth, "_image_text", failing)
    path = tmp_path / "data.jsonl"
    with pytest.raises(ZeroNormError, match="^eval image 3 has no text$"):
        write_dataset(scenario, path)
    assert not path.exists()
    assert_no_child_left()


@pytest.mark.parametrize("feature", ["det", "img"])
def test_a_feature_without_a_direction_is_refused_by_its_line(tmp_path, scenario, feature):
    # A row that ``core.unit_rows`` would refuse, zeros or entries whose
    # squares underflow, is refused when the file loads, by its line; a row
    # too long to square without overflow has a direction and loads.
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_text().splitlines()
    n = 2 + 14 * 3  # a proposal line of train image 3
    for value, refused in ((0.0, True), (1e-170, True), (1e-150, False), (1e200, False)):
        rec = json.loads(lines[n])
        rec[feature] = [value] * len(rec[feature])
        path.write_text("\n".join([*lines[:n], json.dumps(rec), *lines[n + 1:]]) + "\n")
        with pytest.raises(ZeroNormError) if refused else contextlib.nullcontext(), np.errstate(over="ignore"):
            unit_rows(np.array([rec[feature]]))
        if refused:
            with pytest.raises(ValueError, match=f"^line {n + 1} of dataset .*, a proposal line of train image 3, "
                                                 f"holds a zero-norm {feature} feature$"):
                load_dataset(path, ("train",))
        else:
            loaded = load_dataset(path, ("train",))
            assert getattr(records(loaded.train_images[3])[0], f"{feature}_feature")[0] == value
        assert load_dataset(path, ("eval",)).eval_images is not None  # the eval split does not read it


@pytest.mark.parametrize("split", ["train", "eval"])
def test_a_byte_that_is_not_utf8_is_named_by_its_line(tmp_path, scenario, split):
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_bytes().split(b"\n")
    n = max(i for i, line in enumerate(lines) if f'"split":"{split}"'.encode() in line)
    image = json.loads(lines[n])["image"]
    lines[n] = lines[n].replace(b'"det":[', b'"det":[\xff', 1)
    path.write_bytes(b"\n".join(lines))
    for splits in ((split,), ("train", "eval")):
        with pytest.raises(ValueError, match=f"^line {n + 1} of dataset .*, the proposal line of {split} image "
                                             f"{image}, is not UTF-8: 'utf-8' codec can't decode byte 0xff"):
            load_dataset(path, splits)
    other = "eval" if split == "train" else "train"
    assert load_dataset(path, (other,)).images(other)  # the other split does not decode it
    path.write_bytes(b"\xff" + b"\n".join(lines))
    with pytest.raises(ValueError, match="^line 1 of dataset .*, the header line, is not UTF-8: "):
        load_dataset(path, (other,))


class _LoggedFile:
    """A binary file that logs the byte range of every ``read`` and ``readline`` it serves."""

    def __init__(self, f):
        self.f, self.ranges = f, []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def _logged(self, data: bytes) -> bytes:
        end = self.f.tell()
        self.ranges.append((end - len(data), end))
        return data

    def read(self, size=-1):
        return self._logged(self.f.read(size))

    def readline(self):
        return self._logged(self.f.readline())

    def seek(self, offset):
        return self.f.seek(offset)

    def tell(self):
        return self.f.tell()


@pytest.mark.parametrize("split", ["train", "eval"])
def test_a_one_split_load_reads_no_byte_of_the_other_split_after_counting(tmp_path, monkeypatch, scenario, split):
    # The counting pass reads every byte after the header once; then a load
    # of one split reads only the header and that split's lines.
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_bytes().splitlines(keepends=True)
    per_image = 14
    eval_line = 1 + scenario.config.n_train_images * per_image
    train_start, eval_start = len(lines[0]), sum(map(len, lines[:eval_line]))
    other = (eval_start, len(b"".join(lines))) if split == "train" else (train_start, eval_start)
    logs = []

    class LoggedPath(type(path)):
        def open(self, mode="r", *args, **kwargs):
            logs.append(_LoggedFile(super().open(mode, *args, **kwargs)))
            return logs[-1]

    monkeypatch.setattr(synth, "Path", LoggedPath)
    loaded = load_dataset(path, (split,))
    _assert_same_images(loaded.images(split), scenario.images(split))
    (log,) = logs
    counted = log.ranges.index((len(b"".join(lines)),) * 2)  # the read that finds the end of the file
    assert log.ranges[:counted] and all(start >= train_start for start, _ in log.ranges[1:counted])
    read_after = [(start, end) for start, end in log.ranges[counted + 1:] if start < end]
    assert read_after and all(end <= other[0] or start >= other[1] for start, end in read_after), read_after


def test_a_negative_category_id_is_refused(tmp_path, scenario):
    # -1 is the columns' value for none, so no header id may be negative.
    path = tmp_path / "data.jsonl"
    write_dataset(scenario, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["oracle"]["distractor"][0]["id"] = -1
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match=r"header holds a category id -1 outside \[0, "):
        load_dataset(path, ("train",))


LOADED_BYTES_PER_PROPOSAL = 760  # traced bytes a both-split load of the reference world keeps per proposal


def test_a_load_holds_no_more_than_an_image_of_text(enc):
    # On the default reference world (a file of about 3.4 MB), the memory a
    # load of both splits allocates beyond the scenario it returns stays
    # below an eighth of the file's size: the load never holds the file. The
    # scenario it keeps costs at most ``LOADED_BYTES_PER_PROPOSAL`` a
    # proposal, of which its two feature rows hold 512: each image holds its
    # proposals as columns, with no per-proposal object.
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        write_dataset(generate_scenario(ScenarioConfig(), enc), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(loaded.eval_images) == ScenarioConfig().n_eval_images
    assert size > 3e6
    assert peak - kept < size / 8, (peak - kept, size)
    n_proposals = sum(len(image.rpn) for image in loaded.train_images + loaded.eval_images)
    assert kept <= LOADED_BYTES_PER_PROPOSAL * n_proposals, kept / n_proposals


def test_dataset_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(json.dumps({"format": "other"}) + "\n")
    with pytest.raises(ValueError):
        load_dataset(path)


def _scrub_oracle(scenario: Scenario, split: str) -> Scenario:
    """``scenario`` with every oracle label and source of ``split``'s images replaced by garbage."""
    images = tuple(dataclasses.replace(image, label=np.full_like(image.label, 999), source=np.full_like(image.source, 2))
                   for image in scenario.images(split))
    return dataclasses.replace(scenario, **{f"{split}_images": images})


def test_training_never_reads_oracle_records(scenario):
    # Training does not notice a scrubbed train split; evaluation does notice a scrubbed eval
    # split, so the scrub reaches the columns that the oracle lives in.
    config = TrainConfig(steps=5, seed=9)
    _, clean = train(config, scenario)
    _, scrubbed = train(config, _scrub_oracle(scenario, "train"))
    assert clean.to_json() == scrubbed.to_json()
    settings = EvalConfig()
    assert (evaluate(clean, scenario, settings).to_json()
            != evaluate(clean, _scrub_oracle(scenario, "eval"), settings).to_json())


def test_an_image_built_from_writable_columns_holds_them_read_only(scenario):
    image = scenario.train_images[0]
    label = image.label.copy()
    assert label.flags.writeable
    replaced = dataclasses.replace(image, label=label)
    assert replaced.label is label and not label.flags.writeable
    for name in ("gt_boxes", "features", "boxes", "rpn", "gt", "label", "source"):
        assert not getattr(replaced, name).flags.writeable, name


def test_reference_scenario_defaults_pinned():
    config = ScenarioConfig()
    assert config.dim == 32
    assert config.n_base == 8
    assert config.n_novel == 4
    assert config.n_distractor == 3
    assert config.sigma_feat == 0.1
