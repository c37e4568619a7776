"""Command-line surface: every subcommand, overrides, manifests, determinism."""

import json
import re

import pytest
from util import assert_no_child_left

from ovlab import forked
from ovlab.cli import main
from ovlab.persist import config_hash, sha256_file

SMALL = [
    "--set", "scenario.n_train_images=8",
    "--set", "scenario.n_eval_images=4",
    "--set", "train.steps=6",
]


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    assert main(["gen", "--out", str(path), *SMALL]) == 0
    return path


def test_gen_writes_dataset(dataset):
    header = json.loads(dataset.read_text().splitlines()[0])
    assert header["format"] == "ovlab-dataset"
    assert header["config"]["n_train_images"] == 8


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["gen", "--out", str(a), *SMALL]) == 0
    assert main(["gen", "--out", str(b), *SMALL]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["gen", "--out", str(a), *SMALL]) == 0
    assert main(["gen", "--out", str(b), "--seed", "99", *SMALL]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_estimate_k(dataset, tmp_path, capsys):
    out = tmp_path / "k.json"
    assert main(["estimate-k", "--dataset", str(dataset), "--out", str(out), *SMALL]) == 0
    text = capsys.readouterr().out
    assert "estimated count" in text
    rec = json.loads(out.read_text())
    assert rec["count"] >= 2 and len(rec["scores"]) >= 1


def test_train_eval_pipeline(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(run), *SMALL]) == 0
    assert (run / "checkpoint.json").exists()
    assert (run / "history.json").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    names = {a["path"] for a in manifest["artifacts"]}
    assert names == {"checkpoint.json", "history.json"}
    for a in manifest["artifacts"]:
        assert sha256_file(run / a["path"]) == a["sha256"]

    ev = tmp_path / "eval"
    assert main([
        "eval", "--checkpoint", str(run / "checkpoint.json"),
        "--dataset", str(dataset), "--out-dir", str(ev),
    ]) == 0
    report = json.loads((ev / "report.json").read_text())
    assert 0.0 <= report["novel_top1"] <= 1.0
    assert (ev / "report.txt").exists()
    assert "novel top-1" in capsys.readouterr().out


def test_train_byte_deterministic(dataset, tmp_path):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    for r in (r1, r2):
        assert main(["train", "--dataset", str(dataset), "--out-dir", str(r), *SMALL]) == 0
    for name in ("checkpoint.json", "history.json", "manifest.json"):
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes()


def test_eval_no_rectify_flag(dataset, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(run), *SMALL]) == 0
    ev = tmp_path / "eval_nr"
    assert main([
        "eval", "--checkpoint", str(run / "checkpoint.json"),
        "--dataset", str(dataset), "--out-dir", str(ev), "--no-rectify",
    ]) == 0
    assert json.loads((ev / "report.json").read_text())["rectified"] is False


def test_rectify_report(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(run), *SMALL]) == 0
    out = tmp_path / "rect"
    assert main([
        "rectify-report", "--checkpoint", str(run / "checkpoint.json"),
        "--dataset", str(dataset), "--out-dir", str(out), "--max-proposals", "5",
    ]) == 0
    rec = json.loads((out / "rectification.json").read_text())
    assert len(rec["proposals"]) == 5
    assert all(0.0 <= f <= 1.0 for f in rec["shrinking_factors"])
    assert "mean factor" in capsys.readouterr().out


def test_rectify_report_rejects_a_non_positive_proposal_count(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(run), *SMALL]) == 0
    for count in ("0", "-3"):
        capsys.readouterr()
        assert main([
            "rectify-report", "--checkpoint", str(run / "checkpoint.json"),
            "--dataset", str(dataset), "--out-dir", str(tmp_path / "rect"), "--max-proposals", count,
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--max-proposals" in err[0], err
    assert not (tmp_path / "rect").exists()


def test_rectify_report_checks_the_checkpoint_like_eval(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(run), *SMALL]) == 0
    for extra, message in (
        (["--set", "scenario.n_base=5"],
         "error: checkpoint was trained on another dataset; it differs in: base categories, dataset_hash"),
        # Same shape and base categories, but another world: trained on another dataset.
        (["--seed", "99"], "error: checkpoint was trained on another dataset; it differs in: dataset_hash"),
    ):
        other = tmp_path / "other.jsonl"
        assert main(["gen", "--out", str(other), *SMALL, *extra]) == 0
        errors = []
        for command in ("eval", "rectify-report"):
            capsys.readouterr()
            assert main([
                command, "--checkpoint", str(run / "checkpoint.json"),
                "--dataset", str(other), "--out-dir", str(tmp_path / command),
            ]) == 1
            errors.append(capsys.readouterr().err.splitlines())
        assert errors[0] == errors[1] == [message]
    assert not (tmp_path / "eval").exists() and not (tmp_path / "rectify-report").exists()


def test_ablate_small_grid(dataset, tmp_path):
    out = tmp_path / "abl"
    assert main([
        "ablate", "--dataset", str(dataset), "--out-dir", str(out),
        *SMALL,
        "--set", 'ablation.combos=["baseline","full"]',
        "--set", "ablation.seeds=[0]",
    ]) == 0
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    assert [r["name"] for r in rows] == ["baseline", "full"]
    assert (out / "ablation.txt").exists()


def test_gradcheck_passes(tmp_path):
    out = tmp_path / "gc.json"
    assert main(["gradcheck", "--instances", "2", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["passed"] is True


def test_a_flag_beats_the_config_file_and_set(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr("ovlab.cli.gradcheck_table", lambda n, seed: runs.append((n, seed)) or ([], True))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gradcheck": {"instances": 3}}))
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    assert main(["gradcheck", "--config", str(cfg), "--instances", "2"]) == 0
    assert main(["gradcheck", "--instances", "2", "--set", "gradcheck.instances=5"]) == 0
    assert main(["gradcheck", "--seed", "9", "--set", "gradcheck.seed=1"]) == 0
    assert runs == [(3, 0), (2, 0), (2, 0), (10, 9)]


def test_config_file_drives_commands(tmp_path):
    cfg = tmp_path / "config.json"
    weights = [2, 1, 1, 1, 1, 1, 1.5]  # a list (JSON has no tuple) of ints and floats
    cfg.write_text(json.dumps({
        "scenario": {"n_train_images": 6, "n_eval_images": 3, "seed": 11, "hidden_weights": weights},
        "train": {"steps": 4},
    }))
    data = tmp_path / "d.jsonl"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    header = json.loads(data.read_text().splitlines()[0])
    assert header["config"]["n_train_images"] == 6
    assert header["config"]["seed"] == 11
    assert header["config"]["hidden_weights"] == weights
    # The header round-trips through the same check, and its config_hash still matches.
    assert main(["train", "--config", str(cfg), "--dataset", str(data), "--out-dir", str(tmp_path / "r")]) == 0


def test_train_refuses_a_non_finite_feature_by_its_line(dataset, tmp_path, capsys):
    # A NaN in a proposal's features is refused when the dataset loads, by its
    # line in the file, not later by k-means as a row of the filtered pool.
    lines = dataset.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if '"split":"train"' in line and '"type":"proposal"' in line)
    rec = json.loads(lines[n])
    rec["img"][3] = float("nan")
    lines[n] = json.dumps(rec)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(tmp_path / "run"), *SMALL]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"line {n + 1} " in err[0] and "train image 0" in err[0] and "non-finite img feature" in err[0]
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_zero_norm_feature_by_its_line(dataset, tmp_path, capsys):
    # A feature with no direction is refused when the dataset loads, by its
    # line, not later by the first normalization that meets it.
    lines = dataset.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if '"split":"train"' in line and '"type":"proposal"' in line)
    rec = json.loads(lines[n])
    rec["det"] = [0.0] * len(rec["det"])
    lines[n] = json.dumps(rec)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(tmp_path / "run"), *SMALL]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line {n + 1} of dataset {dataset}, a proposal line of train image 0, "
                   "holds a zero-norm det feature"]
    assert not (tmp_path / "run").exists()


def test_eval_names_a_byte_that_is_not_utf8_by_its_line(dataset, checkpoint, tmp_path, capsys):
    lines = dataset.read_bytes().split(b"\n")
    n = max(i for i, line in enumerate(lines) if b'"split":"eval"' in line)
    image = json.loads(lines[n])["image"]
    lines[n] = lines[n].replace(b'"img":[', b'"img":[\xff', 1)
    dataset.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                 "--out-dir", str(tmp_path / "ev")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: line {n + 1} of dataset {dataset}, the proposal line of eval image {image}, "
                             "is not UTF-8: 'utf-8' codec can't decode byte 0xff in position "), err
    assert not (tmp_path / "ev").exists()


# A value that a proposal or image line of image 0 of a split may not hold: its split, its
# line's type, its key path and the start of what the error line says after the line's place.
BAD_VALUES = {
    "gt_a_string": ("train", "proposal", ("gt",), "a",
                    "holds a gt of 'a', which is neither null nor a base category id of the header"),
    "gt_not_a_base_id": ("train", "proposal", ("gt",), 999, "holds a gt of 999, which is neither null"),
    "gt_a_float": ("train", "proposal", ("gt",), 1.5, "holds a gt of 1.5, which is neither null"),
    "gt_a_bool": ("train", "proposal", ("gt",), True, "holds a gt of True, which is neither null"),
    "label_not_a_category_id": ("eval", "proposal", ("oracle", "label"), 999,
                                "holds an oracle label of 999, which is neither null nor a category id of the header"),
    "label_a_string": ("eval", "proposal", ("oracle", "label"), "x", "holds an oracle label of 'x', which is neither"),
    "label_a_bool": ("eval", "proposal", ("oracle", "label"), True, "holds an oracle label of True, which is neither"),
    "label_minus_one": ("eval", "proposal", ("oracle", "label"), -1,
                        "holds an oracle label of -1, which is neither null nor a category id of the header"),
    "label_a_float": ("eval", "proposal", ("oracle", "label"), 1.0, "holds an oracle label of 1.0, which is neither"),
    "source_unknown": ("eval", "proposal", ("oracle", "source"), "scrubbed",
                       "holds an oracle source of 'scrubbed', which is not one of 'object', 'clutter', 'unknown'"),
    "rpn_above_one": ("train", "proposal", ("rpn",), 1.5,
                      "holds a bad rpn score: rpn_score must lie in [0, 1], got 1.5"),
    "rpn_a_bool": ("train", "proposal", ("rpn",), True, "holds a bad rpn score: rpn_score must be a number, got True"),
    "box_a_bool": ("eval", "proposal", ("box",), [True, 0, 5, 5],
                   "holds a bad box: bool coordinate in [True, 0, 5, 5]"),
    "box_degenerate": ("train", "proposal", ("box",), [5, 5, 1, 1],
                       "holds a bad box: degenerate box [5.0, 5.0, 1.0, 1.0] as float64"),
    "box_too_short": ("eval", "proposal", ("box",), [1, 2, 3], "holds a bad box: "),
    "box_a_string": ("train", "proposal", ("box",), [0, 0, "5", 5],
                     "holds a bad box: non-number coordinate in [0, 0, '5', 5]"),
    "box_not_finite": ("eval", "proposal", ("box",), [0, 0, float("inf"), 5],
                       "holds a bad box: non-finite box coordinate in [0.0, 0.0, inf, 5.0]"),
    "box_rounds_degenerate": ("train", "proposal", ("box",), [2**53, 0, 2**53 + 1, 5],
                              "holds a bad box: degenerate box [9007199254740992.0, 0.0, 9007199254740992.0, 5.0] "
                              "as float64"),
    "box_too_large": ("eval", "proposal", ("box",), [0, 0, 10**400, 5],
                      "holds a bad box: int too large to convert to float"),
    "det_too_large": ("train", "proposal", ("det",), [10**400] * 32,
                      "holds a bad det feature: int too large to convert to float"),
    "det_a_numeric_string": ("eval", "proposal", ("det",), ["0.5"] + [0.5] * 31,
                             "holds a bad det feature: entry 0 is '0.5', not an int or a float"),
    "img_a_bool": ("train", "proposal", ("img",), [0.5] * 31 + [True],
                   "holds a bad img feature: entry 31 is True, not an int or a float"),
    "gt_box_degenerate": ("train", "image", ("gt_boxes",), [[5, 5, 1, 1]],
                          "holds bad gt_boxes: degenerate box [5.0, 5.0, 1.0, 1.0] as float64"),
    "gt_box_a_bool": ("train", "image", ("gt_boxes",), [[0, 0, 5, True]],
                      "holds bad gt_boxes: bool coordinate in [0, 0, 5, True]"),
    "gt_box_too_large": ("train", "image", ("gt_boxes",), [[0, 0, 10**400, 5]],
                         "holds bad gt_boxes: int too large to convert to float"),
    "gt_box_too_short": ("eval", "image", ("gt_boxes",), [[1, 2, 3]],
                         "holds bad gt_boxes: [1, 2, 3] is not a list of 4 numbers"),
    "gt_box_a_string": ("train", "image", ("gt_boxes",), [[0, None, 5, 5]],
                        "holds bad gt_boxes: non-number coordinate in [0, None, 5, 5]"),
    "gt_box_not_finite": ("train", "image", ("gt_boxes",), [[float("nan"), 0, 5, 5]],
                          "holds bad gt_boxes: degenerate box [nan, 0.0, 5.0, 5.0] as float64"),
    "gt_box_minus_infinite": ("eval", "image", ("gt_boxes",), [[float("-inf"), 0, 5, 5]],
                              "holds bad gt_boxes: non-finite box coordinate in [-inf, 0.0, 5.0, 5.0]"),
    "gt_box_rounds_degenerate": ("eval", "image", ("gt_boxes",), [[0, 2**53, 5, 2**53 + 1]],
                                 "holds bad gt_boxes: degenerate box [0.0, 9007199254740992.0, 5.0, "
                                 "9007199254740992.0] as float64"),
}


@pytest.mark.parametrize("fault", BAD_VALUES)
def test_a_bad_value_is_refused_by_its_line(dataset, checkpoint, tmp_path, capsys, fault):
    # The command that reads the split refuses the file when it loads, with
    # one error line that names the line, and writes nothing.
    split, kind, keys, value, message = BAD_VALUES[fault]
    lines = dataset.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if f'"split":"{split}"' in line and f'"type":"{kind}"' in line)
    rec = json.loads(lines[n])
    node = rec
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    lines[n] = json.dumps(rec)
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    command = ["train", *SMALL] if split == "train" else ["eval", "--checkpoint", str(checkpoint)]
    capsys.readouterr()
    assert main([*command, "--dataset", str(dataset), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    place = "a proposal line" if kind == "proposal" else "the image line"
    assert len(err) == 1, err
    assert err[0].startswith(f"error: line {n + 1} of dataset {dataset}, {place} of {split} image 0, {message}"), err
    assert not out.exists()


def test_a_mutated_dataset_is_refused_in_one_error_line(dataset, checkpoint, monkeypatch, capsys):
    # A truncated file, two swapped lines that an eval load reads, or a byte
    # of such a line made non-ASCII (so not UTF-8): ``eval`` exits 1 with one
    # error line and no traceback, writes nothing and leaves no forked child.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import tempfile
    from pathlib import Path

    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
    data = dataset.read_bytes()
    lines = data.splitlines(keepends=True)
    keys = [(rec.get("type"), rec.get("split"), rec.get("image")) for rec in map(json.loads, lines)]
    first_eval = keys.index(("image", "eval", 0))
    read = [0, *range(first_eval, len(lines))]  # the header and the eval lines
    eval_start = len(b"".join(lines[:first_eval]))
    mutations = st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, len(data) - 2)),  # the last byte alone is the final newline
        st.tuples(st.just("swap"), st.sampled_from(read), st.integers(0, len(lines) - 1)),
        st.tuples(st.just("flip"), st.one_of(st.integers(0, len(lines[0]) - 1), st.integers(eval_start, len(data) - 1)),
                  st.integers(0x80, 0xFF)),
    )

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(mutations)
    def refused(mutation):
        kind, *args = mutation
        if kind == "truncate":
            mutated = data[:args[0]]
        elif kind == "swap":
            i, j = args
            hypothesis.assume(keys[i] != keys[j])  # two lines of one image's proposals may trade places
            swapped = list(lines)
            swapped[i], swapped[j] = lines[j], lines[i]
            mutated = b"".join(swapped)
        else:
            at, mask = args
            mutated = data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "data.jsonl", Path(tmp) / "out"
            path.write_bytes(mutated)
            capsys.readouterr()
            code = main(["eval", "--dataset", str(path), "--checkpoint", str(checkpoint), "--out-dir", str(out)])
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert code == 1 and len(err) == 1 and err[0].startswith("error: "), (mutation, err)
            assert "Traceback" not in captured.out + captured.err
            assert not out.exists()
        assert_no_child_left()

    refused()


@pytest.mark.filterwarnings("error")
def test_a_diverging_run_ends_in_one_error_line(dataset, tmp_path, capsys):
    # Each setting overflows the parameters within the first steps. The run
    # stops at the first step whose loss, gradient or update is not finite,
    # with one error line and no numpy warning before it, and writes nothing.
    run = tmp_path / "run"
    for override in ("train.temperature=1e-300", "train.learning_rate=1e300", "train.weight_decay=1e308",
                     "train.learning_rate=1e150"):
        capsys.readouterr()
        assert main(["train", "--dataset", str(dataset), "--out-dir", str(run), *SMALL, "--set", override]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(r"error: training diverged at step \d+: ", err[0]), (override, err)
    assert not run.exists()


def test_train_zero_steps_succeeds(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(run),
                 *SMALL, "--set", "train.steps=0"]) == 0
    assert (run / "checkpoint.json").exists()
    out = capsys.readouterr().out
    assert "trained 0 steps" in out and "loss:" not in out
    # Baseline mode trains no underlying category, and the summary says so.
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(tmp_path / "base"),
                 *SMALL, "--set", "train.steps=0", "--set", "train.baseline_mode=true"]) == 0
    assert "underlying categories: 0\n" in capsys.readouterr().out


def test_bad_override_fails(dataset, tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "x.jsonl"), "--set", "nonsense"]) == 1
    gen = ["gen", "--out", str(tmp_path / "x.jsonl")]
    train = ["train", "--dataset", str(dataset), "--out-dir", str(tmp_path / "r")]
    baseline = [*train, "--set", "train.baseline_mode=true"]  # filters nothing, yet refuses a bad threshold
    ablate = ["ablate", "--dataset", str(dataset), "--out-dir", str(tmp_path / "r")]
    gradcheck = ["gradcheck", "--out", str(tmp_path / "r" / "gc.json")]
    # A section or an intermediate node that is not an object, or a value of the wrong type.
    for command, override in (
        (train, "train=5"),
        (train, "train.steps.x=1"),
        (train, "train.steps=2.5"),
        (train, 'train.temperature="x"'),
        (train, "train.nms_iou=null"),
        (train, 'train.baseline_mode="no"'),
        (train, "train.use_prompts=1"),
        (train, "train.learning_rate=NaN"),
        (train, "train.negative_weight=-1"),
        (train, "train.relax_threshold=5"),
        (train, "train.momentum=1"),
        (train, "train.gt_iou_cut=5"),
        (train, "train.gt_iou_cut=0"),
        (baseline, "train.score_threshold=1.5"),
        (gen, "encoder.dim=2.5"),
        (gen, "encoder.seed=[1]"),
        (gen, "scenario.n_base=2.5"),
        (gen, "scenario.objects_per_image=-1"),
        (gen, "scenario.hidden_weights=5"),
        (gen, 'scenario.novel_cone_deg="a"'),
        (gen, 'scenario.image_size="x"'),
        (gen, "scenario.image_size=Infinity"),
        (gen, "scenario.sigma_feat=NaN"),
        (ablate, "ablation.seeds=3"),
        (ablate, 'ablation.combos="full"'),
        (ablate, "ablation.combos=[]"),
        (gradcheck, 'gradcheck.instances="a"'),
        (gradcheck, "gradcheck.instances=0"),
    ):
        capsys.readouterr()
        assert main([*command, "--set", override]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), (override, err)
        if override.endswith(("=NaN", "=Infinity")):  # a float, but not a finite one
            assert "must be finite float, got" in err[0], (override, err)
    # Box and score settings are refused before any draw, by the field at fault.
    for override, field in (
        ("scenario.box_max=200", "box_max"),
        ("scenario.box_min=-5", "box_min"),
        ("scenario.box_min=31", "box_min"),
        ("scenario.object_score_std=-0.1", "object_score_std"),
        ("scenario.clutter_score_std=-1", "clutter_score_std"),
        ("scenario.base_fraction=1.5", "base_fraction"),
    ):
        capsys.readouterr()
        assert main([*gen, "--set", override]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ScenarioConfig.{field} "), (override, err)
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "x.jsonl").exists()
    # A box size range that starts at zero is accepted.
    assert main([*gen, "--set", "scenario.box_min=0", "--set", "scenario.n_train_images=2",
                 "--set", "scenario.n_eval_images=2"]) == 0


@pytest.fixture()
def checkpoint(dataset, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(run), *SMALL]) == 0
    return run / "checkpoint.json"


def _eval_error(checkpoint, dataset, out_dir, capsys, *extra) -> str:
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--out-dir", str(out_dir), *extra])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error:"), (extra, err)
    assert not out_dir.exists()
    return err[0]


def test_eval_rejects_wrong_typed_settings(checkpoint, dataset, tmp_path, capsys):
    for override, key in (
        ('eval.recall_threshold="x"', "recall_threshold"),
        ("eval.recall_threshold=1.5", "recall_threshold"),
        ("eval.recall_threshold=true", "recall_threshold"),
        ('eval.rectify="no"', "rectify"),
        ("eval.rectify=0", "rectify"),
    ):
        assert key in _eval_error(checkpoint, dataset, tmp_path / "ev", capsys, "--set", override)


def test_eval_rejects_malformed_checkpoints(checkpoint, dataset, tmp_path, capsys):
    rec = json.loads(checkpoint.read_text())
    short = dict(rec, context_vectors=rec["context_vectors"][:-1])
    centers = dict(rec, cluster_centers=rec["cluster_centers"][:-1])
    narrow = dict(rec, cluster_centers=[row[:-1] for row in rec["cluster_centers"]])
    for name, payload, message in (
        ("list", [rec], "not a checkpoint"),
        ("missing", {k: v for k, v in rec.items() if k != "sub_background"}, "sub_background"),
        ("short", short, "context vectors"),
        ("centers", centers, "cluster centers"),
        ("narrow", narrow, "cluster centers"),
        ("config", dict(rec, train_config=dict(rec["train_config"], bogus=1)), "bogus"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        assert message in _eval_error(path, dataset, tmp_path / "ev", capsys), name
    # A checkpoint copies its encoder settings, its ordered (id, name_seed)
    # base list and the dataset hash from its dataset. Each edit below used
    # to evaluate; both commands now refuse it with the same line. The
    # dataset hash does not cover name seeds, so the edited header keeps a
    # valid config_hash.
    reseeded = dict(rec, encoder=dict(rec["encoder"], seed=rec["encoder"]["seed"] + 1))
    rebased = dict(rec, base=[dict(rec["base"][0], name_seed=rec["base"][0]["name_seed"] + 1), *rec["base"][1:]])
    lines = dataset.read_text().splitlines()
    header = json.loads(lines[0])
    header["base"][0]["name_seed"] += 1
    renamed = tmp_path / "renamed.jsonl"
    renamed.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    for payload, data, fact in ((reseeded, dataset, "encoder"), (rebased, dataset, "base categories"),
                                (rec, renamed, "base categories")):
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(payload))
        errors = []
        for command in ("eval", "rectify-report"):
            capsys.readouterr()
            assert main([command, "--checkpoint", str(path), "--dataset", str(data),
                         "--out-dir", str(tmp_path / command)]) == 1
            errors.append(capsys.readouterr().err.splitlines())
        assert errors[0] == errors[1] == [f"error: checkpoint was trained on another dataset; it differs in: {fact}"]
    assert not (tmp_path / "eval").exists() and not (tmp_path / "rectify-report").exists()


def test_eval_rejects_checkpoint_fields_of_the_wrong_type(checkpoint, dataset, tmp_path, capsys):
    # A float count used to load (the shape check compares 13.0 == 13),
    # evaluate, and re-serialize to other bytes; every scalar field is typed.
    rec = json.loads(checkpoint.read_text())
    base = rec["base"]
    for name, payload, message in (
        ("float_count", dict(rec, n_discovered=float(rec["n_discovered"])), "n_discovered"),
        ("bool_count", dict(rec, n_discovered=True), "n_discovered"),
        ("hash", dict(rec, dataset_hash=7), "dataset_hash"),
        ("base_id", dict(rec, base=[dict(base[0], id=float(base[0]["id"])), *base[1:]]), "base_categories"),
        ("name_seed", dict(rec, base=[dict(base[0], name_seed="1"), *base[1:]]), "base_categories"),
        ("rng_state", dict(rec, rng_state=[]), "rng_state"),
        ("branch_totals", dict(rec, branch_totals=None), "branch_totals"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        assert message in _eval_error(path, dataset, tmp_path / "ev", capsys), name


def test_rectify_report_rejects_an_empty_eval_split(tmp_path, capsys):
    data, run = tmp_path / "d.jsonl", tmp_path / "run"
    empty = [*SMALL, "--set", "scenario.n_eval_images=0"]
    assert main(["gen", "--out", str(data), *empty]) == 0
    assert main(["train", "--dataset", str(data), "--out-dir", str(run), *empty]) == 0
    capsys.readouterr()
    assert main([
        "rectify-report", "--checkpoint", str(run / "checkpoint.json"),
        "--dataset", str(data), "--out-dir", str(tmp_path / "rect"),
    ]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "no proposals" in err[0], err
    assert not (tmp_path / "rect").exists()


def test_out_of_order_or_empty_dataset_fails(dataset, checkpoint, tmp_path, capsys):
    lines = dataset.read_text().splitlines()
    first_image = next(i for i, line in enumerate(lines) if json.loads(line).get("type") == "image")
    rec = json.loads(lines[first_image])
    assert json.loads(lines[first_image + 1])["type"] == "proposal"
    lines[first_image], lines[first_image + 1] = lines[first_image + 1], lines[first_image]
    swapped, empty = tmp_path / "swapped.jsonl", tmp_path / "empty.jsonl"
    swapped.write_text("\n".join(lines) + "\n")
    empty.write_text("")
    cases = [(swapped, f"{rec['split']} image {rec['image']}"), (empty, "empty")]
    # Header edits: each is refused with a message that names what is wrong.
    header = json.loads(lines[0])
    # An encoder narrower than the scenario, under a recomputed (so valid) config_hash.
    narrow = dict(header, encoder=dict(header["encoder"], dim=header["config"]["dim"] - 1))
    narrow["config_hash"] = config_hash({"scenario": narrow["config"], "encoder": narrow["encoder"]})
    for name, edited, message in (
        ("unknown_key", dict(header, config=dict(header["config"], bogus=1)), "bogus"),
        ("no_config", {k: v for k, v in header.items() if k != "config"}, "'config'"),
        ("sigma_type", dict(header, config=dict(header["config"], sigma_det="0.15")), "sigma_det"),
        ("encoder_key", dict(header, encoder=dict(header["encoder"], bogus=1)), "bogus"),
        ("hash", dict(header, config_hash="0" * 64), "config_hash"),
        ("encoder_dim", narrow, "encoder dim"),
        # A float name seed used to be truncated by the encoder, and training failed only at its end.
        ("name_seed_type", dict(header, base=[dict(header["base"][0], name_seed=0.5), *header["base"][1:]]),
         "name_seed"),
    ):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join([json.dumps(edited), *dataset.read_text().splitlines()[1:]]) + "\n")
        cases.append((path, message))
    # Layout edits: the header fixes the line count, whichever split a command parses.
    original = dataset.read_text().splitlines()
    middle = len(original) // 2
    layout = []
    for name, edited in (
        ("dropped", original[:-1]),
        ("appended", [*original, original[-1]]),
        ("blank", [*original[:middle], "", *original[middle:]]),
    ):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(edited) + "\n")
        layout.append((path, "its header implies"))
    # Every feature one entry narrower than the header's config.dim.
    narrow_features = tmp_path / "narrow_features.jsonl"
    records = [json.loads(line) for line in original]
    for rec in records[1:]:
        if rec["type"] == "proposal":
            rec["det"], rec["img"] = rec["det"][:-1], rec["img"][:-1]
    narrow_features.write_text("\n".join(json.dumps(rec) for rec in records) + "\n")
    layout.append((narrow_features, f"bad det feature: not a list of config.dim = {header['config']['dim']} numbers"))
    cases += layout
    # One 1-wide feature after the first row of its image: it used to be broadcast into its block row unnoticed.
    broadcast = [json.loads(line) for line in original]
    broadcast[first_image + 2]["det"] = [0.5]
    (tmp_path / "broadcast.jsonl").write_text("\n".join(json.dumps(rec) for rec in broadcast) + "\n")
    cases.append((tmp_path / "broadcast.jsonl", "bad det feature: not a list of config.dim"))
    for path, message in cases:
        capsys.readouterr()
        assert main(["train", "--dataset", str(path), "--out-dir", str(tmp_path / "r"), *SMALL]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
    assert not (tmp_path / "r").exists()
    for path, message in layout:
        assert message in _eval_error(checkpoint, path, tmp_path / "ev", capsys), path.name


def _command_outputs(argv, out, capsys):
    """Exit code, stderr lines and the bytes of every file under ``out`` of one CLI call."""
    capsys.readouterr()
    code = main(argv)
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return code, capsys.readouterr().err.splitlines(), files


@pytest.mark.parametrize("split", ["train", "eval"])
def test_each_command_parses_only_the_split_it_reads(dataset, checkpoint, tmp_path, capsys, split):
    # One proposal line of ``split`` becomes invalid JSON. The commands that
    # read that split refuse the file; the others never parse the line and
    # write what they write on the intact file.
    lines = dataset.read_text().splitlines()
    n = max(i for i, line in enumerate(lines[1:], 1)
            if json.loads(line)["type"] == "proposal" and json.loads(line)["split"] == split)
    lines[n] = "{not json"
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    ck = ["--checkpoint", str(checkpoint)]
    readers = {
        "train": ("train", ["--out-dir", "{out}", *SMALL]),
        "estimate-k": ("train", ["--out", "{out}/k.json", *SMALL]),
        "eval": ("eval", [*ck, "--out-dir", "{out}"]),
        "rectify-report": ("eval", [*ck, "--out-dir", "{out}"]),
        "ablate": (split, ["--out-dir", "{out}", *SMALL,
                           "--set", 'ablation.combos=["full"]', "--set", "ablation.seeds=[0]"]),
    }
    for command, (reads, args) in readers.items():
        outputs = []
        for name, data in (("intact", dataset), ("broken", broken)):
            out = tmp_path / f"{command}-{name}"
            argv = [command, "--dataset", str(data), *(a.replace("{out}", str(out)) for a in args)]
            outputs.append(_command_outputs(argv, out, capsys))
        (code, err, files), (broken_code, broken_err, broken_files) = outputs
        assert code == 0 and err == [] and files, command
        if reads == split:
            assert broken_code == 1 and len(broken_err) == 1, (command, broken_err)
            assert broken_err[0].startswith("error:") and f"{split} image" in broken_err[0], broken_err
            assert broken_files == {}, command
        else:
            assert (broken_code, broken_err, broken_files) == (0, [], files), command


def test_unknown_config_key_fails(tmp_path, capsys):
    # Every command builds every section, so gen refuses a bad eval key too.
    for override, name in (
        ("scenario.bogus_knob=3", "bogus"),
        ("encoder.bogus=1", "bogus"),
        ("eval.bogus=1", "bogus"),
        ("evall.rectify=false", "evall"),
    ):
        capsys.readouterr()
        assert main(["gen", "--out", str(tmp_path / "x.jsonl"), "--set", override]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0], (override, err)
    assert not (tmp_path / "x.jsonl").exists()


def test_an_out_of_range_setting_is_named_in_the_error(dataset, tmp_path, capsys):
    # Each of these used to fail later, with an error that named no setting
    # (or the wrong one, or only after 10,000 rejection tries).
    train = ["train", "--dataset", str(dataset), "--out-dir", str(tmp_path / "r"), *SMALL]
    gen = ["gen", "--out", str(tmp_path / "g" / "x.jsonl")]
    for command, overrides, name in (
        (train, ["train.extra_categories=-3"], "TrainConfig.extra_categories"),
        (train, ["train.seed=-1"], "TrainConfig.seed"),
        (train, ["train.discovered_categories=0"], "TrainConfig.discovered_categories"),
        (gen, ["encoder.seed=-1"], "MockTextEncoder.seed"),
        (gen, ["encoder.hidden_dim=0"], "MockTextEncoder.hidden_dim"),
        (gen, ["encoder.dim=0"], "MockTextEncoder.dim"),
        (gen, ["encoder.dim=0", "scenario.dim=0"], "ScenarioConfig.dim"),
        (gen, ["scenario.sigma_det=1e200"], "ScenarioConfig.sigma_det"),  # all-zero det features
        (gen, ["scenario.sigma_feat=1e308"], "ScenarioConfig.sigma_feat"),  # NaN features
    ):
        capsys.readouterr()
        assert main([*command, *(a for o in overrides for a in ("--set", o))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0], (overrides, err)
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "g").exists()


def test_unknown_ablation_combo_fails(dataset, tmp_path):
    assert main([
        "ablate", "--dataset", str(dataset), "--out-dir", str(tmp_path / "a"),
        "--set", 'ablation.combos=["nope"]',
    ]) == 1


ENCODER_READERS = {  # every command but gen, with its output under "{out}"
    "estimate-k": ["--dataset", "{data}", "--out", "{out}/k.json"],
    "train": ["--dataset", "{data}", "--out-dir", "{out}"],
    "eval": ["--checkpoint", "{ck}", "--dataset", "{data}", "--out-dir", "{out}"],
    "rectify-report": ["--checkpoint", "{ck}", "--dataset", "{data}", "--out-dir", "{out}"],
    "ablate": ["--dataset", "{data}", "--out-dir", "{out}"],
    "gradcheck": ["--instances", "1", "--out", "{out}/gc.json"],
}


@pytest.mark.parametrize("command", sorted(ENCODER_READERS))
def test_a_command_that_reads_no_encoder_settings_refuses_an_encoder_override(
    command, dataset, checkpoint, tmp_path, capsys
):
    # These commands take the encoder from the dataset header, the checkpoint
    # or their own instances, so an encoder override would be silently ignored.
    out = tmp_path / "out"
    args = [a.format(data=dataset, ck=checkpoint, out=out) for a in ENCODER_READERS[command]]
    for override in ("encoder.dim=16", 'encoder={"seed": 3}'):
        capsys.readouterr()
        assert main([command, *args, *SMALL, "--set", override]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert override in err[0] and command in err[0] and "only gen" in err[0], err
    assert not out.exists()


def test_gen_and_a_config_file_still_set_the_encoder(tmp_path):
    data = tmp_path / "d.jsonl"
    assert main(["gen", "--out", str(data), *SMALL, "--set", "encoder.dim=16", "--set", "scenario.dim=16"]) == 0
    assert json.loads(data.read_text().splitlines()[0])["encoder"]["dim"] == 16
    # A shared config file may hold an encoder section; commands other than gen ignore it.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"encoder": {"dim": 16}, "scenario": {"dim": 16}}))
    run = ["train", "--config", str(cfg), "--dataset", str(data), "--out-dir", str(tmp_path / "r")]
    assert main([*run, *SMALL]) == 0
