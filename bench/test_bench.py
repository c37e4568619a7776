"""Self-test of the benchmark: a tiny-scale smoke run and the correctness checks.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import ovlab.discovery  # noqa: E402
import ovlab.trainer  # noqa: E402
from tracing import Hook, Tracer  # noqa: E402
from workloads import END_TO_END, PER_LAYER, Workload  # noqa: E402

TINY = Workload(
    "tiny",
    "smoke test",
    config={"scenario": {"n_train_images": 8, "n_eval_images": 6}, "train": {"steps": 3, "k_max": 4}},
    train_runs=2,
    ablation_seeds=1,
)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(tmp_path, trace):
    result = harness.run_workload(TINY, seed=3, seconds=0, trace=trace, work=tmp_path / "work")
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] == (6 if not trace else 12)
    expected = PER_LAYER if trace else END_TO_END
    for metric in expected:
        assert result["metrics"][metric.name]["unit"] == metric.unit
    assert result["missing_hooks"] == []
    assert {"dataset.jsonl", "train0/checkpoint.json", "eval1/report.json",
            "ablate/ablation.json"} <= set(result["artifacts"])
    if trace:
        assert (tmp_path / "work-spans.jsonl").stat().st_size > 0
        assert result["metrics"]["metrics.trainings"]["value"] == 4  # 4 distinct training keys
    else:
        assert result["metrics"]["ablate_s"]["value"] > 0


def test_times_are_scaled_by_the_probes_around_each_command_and_nothing_else_is():
    half_speed, full_speed = harness.PROBE_NOMINAL_S * 2, harness.PROBE_NOMINAL_S
    outcome = harness.Outcome(rounds=[
        {"commands": {"gen": 1.0, "train0": 4.0}, "probes": {"gen": full_speed, "train0": half_speed},
         "figures": {"novel_top1": 0.5}},
        {"commands": {"gen": 3.0, "train0": 2.0}, "probes": {"gen": half_speed, "train0": full_speed},
         "figures": {"novel_top1": 0.7}},
    ])
    figures = harness.end_to_end(outcome)
    assert figures["setup_s"] == (1.25, 2) and figures["train_s"] == (2.0, 2)
    assert figures["pipeline_s"] == (3.25, 2)
    assert figures["novel_top1"] == (0.6, 2)
    assert harness.end_to_end(outcome, scaled=False)["train_s"] == (3.0, 2)


def test_mismatched_artifact_fails_the_command(tmp_path):
    outcome = harness.Outcome(hashes={"train0/checkpoint.json": "0" * 64})
    assert not harness.run_round(TINY, 3, tmp_path / "work", outcome)
    assert outcome.failed == 1
    assert outcome.errors[0].startswith("train0: train0/checkpoint.json differs")


def test_report_with_a_missing_proposal_is_rejected(tmp_path):
    outcome = harness.Outcome()
    assert harness.run_round(TINY, 3, tmp_path / "work", outcome)
    report = tmp_path / "work" / "eval0" / "report.json"
    n = harness.scenario_sizes(TINY.ovlab_config(3))["eval_proposals"]
    harness.check_report(report, n)
    with pytest.raises(ValueError, match="scored"):
        harness.check_report(report, n + 1)


def test_missing_hooks_are_reported_and_patches_are_undone():
    original = ovlab.discovery.kmeans
    tracer = Tracer(hooks=(
        Hook("gone", "ovlab.discovery", "no_such_function"),
        Hook("gone", "ovlab.trainer", "Checkpoint.no_such_method"),
        Hook("discovery.kmeans", "ovlab.discovery", "kmeans"),
    ))
    with tracer:
        assert ovlab.discovery.kmeans is not original
        assert ovlab.trainer.kmeans is ovlab.discovery.kmeans  # every namespace that binds it
    assert ovlab.discovery.kmeans is original and ovlab.trainer.kmeans is original
    assert tracer.missing == [
        "ovlab.discovery.no_such_function", "ovlab.trainer.Checkpoint.no_such_method",
    ]


def test_without_the_program_the_launcher_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reference", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
