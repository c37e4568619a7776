"""Command-line surface: every subcommand, overrides, manifests, determinism."""

import json

import pytest

from ovlab.cli import main
from ovlab.persist import sha256_file

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


def test_config_file_drives_commands(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "scenario": {"n_train_images": 6, "n_eval_images": 3, "seed": 11},
        "train": {"steps": 4},
    }))
    data = tmp_path / "d.jsonl"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    header = json.loads(data.read_text().splitlines()[0])
    assert header["config"]["n_train_images"] == 6
    assert header["config"]["seed"] == 11


def test_train_zero_steps_succeeds(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(run),
                 *SMALL, "--set", "train.steps=0"]) == 0
    assert (run / "checkpoint.json").exists()
    out = capsys.readouterr().out
    assert "trained 0 steps" in out and "loss:" not in out


def test_bad_override_fails(dataset, tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "x.jsonl"), "--set", "nonsense"]) == 1
    # A section or an intermediate node that is not an object.
    for override in ("train=5", "train.steps.x=1"):
        capsys.readouterr()
        assert main([
            "train", "--dataset", str(dataset), "--out-dir", str(tmp_path / "r"),
            "--set", override,
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), (override, err)


def test_out_of_order_or_empty_dataset_fails(dataset, tmp_path, capsys):
    lines = dataset.read_text().splitlines()
    first_image = next(i for i, line in enumerate(lines) if json.loads(line).get("type") == "image")
    rec = json.loads(lines[first_image])
    assert json.loads(lines[first_image + 1])["type"] == "proposal"
    lines[first_image], lines[first_image + 1] = lines[first_image + 1], lines[first_image]
    swapped, empty = tmp_path / "swapped.jsonl", tmp_path / "empty.jsonl"
    swapped.write_text("\n".join(lines) + "\n")
    empty.write_text("")
    for path, message in ((swapped, f"{rec['split']} image {rec['image']}"), (empty, "empty")):
        capsys.readouterr()
        assert main(["train", "--dataset", str(path), "--out-dir", str(tmp_path / "r"), *SMALL]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err


def test_unknown_config_key_fails(tmp_path):
    assert main([
        "gen", "--out", str(tmp_path / "x.jsonl"), "--set", "scenario.bogus_knob=3",
    ]) == 1


def test_unknown_ablation_combo_fails(dataset, tmp_path):
    assert main([
        "ablate", "--dataset", str(dataset), "--out-dir", str(tmp_path / "a"),
        "--set", 'ablation.combos=["nope"]',
    ]) == 1
