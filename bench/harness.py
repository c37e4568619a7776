"""Benchmark worker: runs one workload through ``ovlab.cli.main`` in this process.

Started by ``run.py`` in a fresh process per workload (so ``peak_rss_mb``
belongs to that workload) with BLAS and OpenMP pinned to one thread and
``src`` on ``PYTHONPATH``. A round is the workload's closed loop of CLI
commands; rounds repeat until ``--seconds`` is spent, and ``end_to_end``
summarises them. With ``--trace 1`` the worker runs one untraced and one
traced round instead, and reports the per-layer metrics of the traced one.

End-to-end timings are wall-clock seconds scaled to a fixed machine speed
(the per-layer timings of a traced run are not scaled). Right before each
command, and once per ``PROBE_EVERY_S`` of its time right after it, the
worker times ``speed_probe``, a fixed copy of the kind of step the training
loop takes. The command's time is multiplied by ``PROBE_NOMINAL_S`` over the
mean of the probe before it and the median of the probes after it. A shared
2-vCPU host switches between speed levels about 1.6x apart, for seconds to
minutes at a time, which moves raw times of the same code by 10-50% between
runs; the probes next to a command see the level it ran at, and the scaled
times move about a fifth as much. Raw medians are printed too.

Every command is one operation. It fails on a non-zero exit, an exception or
a failed check: the eval report validates, the ablation table is complete,
and every artifact is byte-identical to the same artifact of the first round.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ovlab
from ovlab.cli import main as ovlab_main
from ovlab.metrics import STANDARD_COMBOS, EvalReport
from ovlab.synth import ScenarioConfig

from tracing import Tracer
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

# Probe time that scaled times are expressed against: a scaled second is a
# second on a machine where ``speed_probe`` takes this long.
PROBE_NOMINAL_S = 0.05
PROBE_EVERY_S = 0.5
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((48, 64))
_PROBE_C = _PROBE_RNG.standard_normal((23, 64))
_PROBE_Y = np.eye(23)[_PROBE_RNG.integers(0, 23, 48)]


def speed_probe() -> float:
    """Wall time of a fixed copy of the kind of step ovlab's training loop takes.

    Cosine scores of 48 features against 23 categories at temperature 0.02,
    softmax, the gradient and an update, and a Python log-sum-exp over one
    row: tiny matrices, so numpy call overhead and the interpreter dominate,
    as they do in ``train``. It calls nothing in ``ovlab``, so a change to the
    program does not change the probe.
    """
    start = time.perf_counter()
    x = _PROBE_X / np.linalg.norm(_PROBE_X, axis=1, keepdims=True)
    c = _PROBE_C.copy()
    for _ in range(600):
        z = x @ (c / np.linalg.norm(c, axis=1, keepdims=True)).T / 0.02
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        c -= 1e-3 * ((p - _PROBE_Y).T @ x)
        top = float(z[0].max())
        math.log(math.fsum(math.exp(v - top) for v in z[0]))
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def scenario_sizes(config: dict) -> dict[str, int]:
    """Images and proposals an ovlab config implies; ScenarioConfig fills in the defaults."""
    sc = ScenarioConfig(**config.get("scenario", {}))
    per_image = sc.objects_per_image * sc.proposals_per_object + sc.clutter_per_image
    return {
        "train_images": sc.n_train_images,
        "eval_images": sc.n_eval_images,
        "train_proposals": sc.n_train_images * per_image,
        "eval_proposals": sc.n_eval_images * per_image,
    }


def check_report(path: Path, n_proposals: int) -> dict:
    """Validate an eval report and return it; raises ValueError when it is wrong."""
    report = EvalReport.from_json(path.read_text(encoding="utf-8"))
    report.validate()
    if not report.rectified:
        raise ValueError(f"{path.name}: report is not rectified")
    counted = report.n_novel + report.n_base + report.n_background
    if counted != n_proposals:
        raise ValueError(f"{path.name}: scored {counted} proposals, dataset has {n_proposals}")
    return json.loads(path.read_text(encoding="utf-8"))


def check_ablation(path: Path, seeds: list[int]) -> dict:
    """Every standard combination has one score per seed, all in [0, 1]."""
    rows = {r["name"]: r for r in json.loads(path.read_text(encoding="utf-8"))["rows"]}
    if sorted(rows) != sorted(c.name for c in STANDARD_COMBOS):
        raise ValueError(f"ablation rows {sorted(rows)} are not the standard combinations")
    for row in rows.values():
        if row["seeds"] != seeds or len(row["novel_top1"]) != len(seeds):
            raise ValueError(f"ablation row {row['name']} does not cover seeds {seeds}")
        if not all(0.0 <= v <= 1.0 for v in row["novel_top1"] + row["base_top1"]):
            raise ValueError(f"ablation row {row['name']} has a score outside [0, 1]")
    return rows


@dataclass
class Outcome:
    """What a run did: operations, failures, artifact hashes and per-round figures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)  # artifact -> sha256 of the first round
    # {"commands": {label: s}, "probes": {label: probe s}, "figures": {...}}
    rounds: list[dict] = field(default_factory=list)
    sizes: dict[str, int] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def check_artifacts(self, work: Path, names: list[str]) -> None:
        """Record each artifact's hash, or compare it with the first round's; raises on mismatch."""
        for name in names:
            digest = sha256(work / name)
            expected = self.hashes.setdefault(name, digest)
            if digest != expected:
                raise ValueError(f"{name} differs from the first round: {digest} != {expected}")


def run_command(outcome: Outcome, label: str, argv: list[str],
                tracer: Tracer | None) -> tuple[float, float] | None:
    """Run one CLI command; return its wall time and the probe time around it, or None."""
    outcome.attempted += 1
    gc.collect()
    if tracer is not None:
        tracer.run = label
    try:
        before = speed_probe()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = ovlab_main(argv)
            elapsed = time.perf_counter() - start
        after = [speed_probe() for _ in range(1 + int(elapsed / PROBE_EVERY_S))]
    except Exception as exc:  # a traceback out of the CLI is a failed operation
        outcome.fail(f"{label}: {type(exc).__name__}: {exc}")
        return None
    if code != 0:
        outcome.fail(f"{label}: exit code {code}")
        return None
    return elapsed, (before + statistics.median(after)) / 2


def command_kind(label: str) -> str:
    """End-to-end metric a command's time counts toward: ``train2`` -> ``train_s``."""
    return {"gen": "setup_s", "train": "train_s", "eval": "eval_s", "ablate": "ablate_s"}[
        label.rstrip("0123456789")
    ]


def run_round(workload: Workload, seed: int, work: Path, outcome: Outcome,
              tracer: Tracer | None = None) -> bool:
    """One closed loop of the workload's commands; appends its figures to ``outcome.rounds``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload.ovlab_config(seed)
    (work / "config.json").write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    common = ["--config", str(work / "config.json")]
    dataset = str(work / "dataset.jsonl")
    n_proposals = scenario_sizes(config)["eval_proposals"]
    times: dict[str, float] = {}
    probes: dict[str, float] = {}

    def step(label, argv, artifacts, check=None):
        timed = run_command(outcome, label, argv, tracer)
        if timed is None:
            return None
        try:
            outcome.check_artifacts(work, artifacts)
            result = check(work / artifacts[-1]) if check else True
        except (ValueError, KeyError, TypeError, OSError) as exc:
            outcome.fail(f"{label}: {exc}")
            return None
        times[label], probes[label] = timed
        return result

    if not step("gen", ["gen", *common, "--out", dataset], ["dataset.jsonl"]):
        return False
    for i, train_seed in enumerate(workload.train_seeds(seed)):
        argv = ["train", *common, "--set", f"train.seed={train_seed}", "--dataset", dataset,
                "--out-dir", str(work / f"train{i}")]
        if not step(f"train{i}", argv, [f"train{i}/history.json", f"train{i}/checkpoint.json"]):
            return False
    reports = []
    for i in range(workload.train_runs):
        argv = ["eval", *common, "--rectify", "--checkpoint", str(work / f"train{i}/checkpoint.json"),
                "--dataset", dataset, "--out-dir", str(work / f"eval{i}")]
        report = step(f"eval{i}", argv, [f"eval{i}/report.json"],
                      lambda p: check_report(p, n_proposals))
        if not report:
            return False
        reports.append(report)
    figures = {
        name: statistics.fmean(r[name] for r in reports)
        for name in ("novel_top1", "base_top1", "novel_recall")
    }
    if workload.ablation_seeds:
        seeds = workload.ablation_seed_list(seed)
        argv = ["ablate", *common, "--dataset", dataset, "--out-dir", str(work / "ablate")]
        rows = step("ablate", argv, ["ablate/ablation.json"], lambda p: check_ablation(p, seeds))
        if not rows:
            return False
        figures["novel_top1"] = rows["full"]["novel_top1_median"]
        figures["base_top1"] = rows["full"]["base_top1_median"]
    outcome.rounds.append({"commands": times, "probes": probes, "figures": figures})
    outcome.sizes = input_sizes(config, work, tracer)
    return True


def input_sizes(config: dict, work: Path, tracer: Tracer | None) -> dict[str, int]:
    checkpoint = json.loads((work / "train0/checkpoint.json").read_text(encoding="utf-8"))
    sizes = scenario_sizes(config) | {
        "steps": checkpoint["train_config"]["steps"],
        "vocabulary": len(checkpoint["vocabulary"]),
        "dataset_bytes": (work / "dataset.jsonl").stat().st_size,
    }
    if tracer is not None:
        sizes["filtered_background_features"] = int(tracer.counts["discovery.features"])
    return sizes


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def end_to_end(outcome: Outcome, scaled: bool = True) -> dict[str, tuple[float, int]]:
    """Each end-to-end figure with its sample count (the number of rounds).

    A command's time is its median over the rounds, each round's time scaled
    by the probes around it (module docstring) unless ``scaled`` is false,
    and a figure sums the commands that count toward it (``setup_s`` is the
    median ``gen``).
    """
    rounds = outcome.rounds
    n = len(rounds)
    per_command = {
        label: statistics.median(
            r["commands"][label] * (PROBE_NOMINAL_S / r["probes"][label] if scaled else 1.0)
            for r in rounds
        )
        for label in rounds[0]["commands"]
    }
    out: dict[str, tuple[float, int]] = {}
    for label, seconds in per_command.items():
        kind = command_kind(label)
        out[kind] = (out.get(kind, (0.0, n))[0] + seconds, n)
    out["pipeline_s"] = (sum(per_command.values()), n)
    for name in rounds[0]["figures"]:
        out[name] = (statistics.median(r["figures"][name] for r in rounds), n)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload and return its full result (``print_result`` prints it)."""
    outcome = Outcome()
    tracer = Tracer() if trace else None
    figures: dict[str, tuple[float, int]] = {}
    raw: dict[str, tuple[float, int]] = {}
    if tracer is None:
        start = time.perf_counter()
        while run_round(workload, seed, work, outcome):
            # Stop at the round boundary nearest to the time budget.
            last = sum(outcome.rounds[-1]["commands"].values())
            if time.perf_counter() - start + last / 2 >= seconds:
                break
        if outcome.rounds:
            figures = end_to_end(outcome)
            raw = {k: v for k, v in end_to_end(outcome, scaled=False).items() if k.endswith("_s")}
        units = {m.name: m.unit for m in END_TO_END} | {"ablate_s": "s"}
    else:
        if run_round(workload, seed, work, outcome):
            with tracer:
                traced_ok = run_round(workload, seed, work, outcome, tracer)
            if traced_ok:
                untraced, traced = (sum(r["commands"].values()) for r in outcome.rounds)
                figures = {k: (v, 1) for k, v in tracer.layer_metrics(traced / untraced).items()}
                tracer.write_spans(work.parent / f"{work.name}-spans.jsonl")
        units = {m.name: m.unit for m in PER_LAYER}
    shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "correct": outcome.failed == 0 and bool(outcome.rounds),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in figures.items()},
        "raw_wall_s": {k: v for k, (v, n) in raw.items()},
        "probe_median_s": statistics.median(
            [t for r in outcome.rounds for t in r["probes"].values()] or [0.0]
        ),
        "artifacts": outcome.hashes,
        "rounds": outcome.rounds,
        "sizes": outcome.sizes,
        "missing_hooks": tracer.missing if tracer else [],
        "machine": machine_info(),
        "why": workload.why,
    }


def print_result(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result the contract asks for."""
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}")
    for key, value in result["machine"].items():
        print(f"  machine {key}: {value}")
    if result["probe_median_s"]:
        print(f"  speed probe median: {result['probe_median_s']:.6f} s "
              f"(times scaled to {PROBE_NOMINAL_S} s)")
    for name, seconds in result["raw_wall_s"].items():
        print(f"  raw wall {name}: {seconds:.6f} s")
    for key, value in result["sizes"].items():
        print(f"  size {key}: {value}")
    for name, digest in sorted(result["artifacts"].items()):
        print(f"  sha256 {digest}  {name}")
    for hook in result["missing_hooks"]:
        print(f"  hook missing: {hook}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    moves = {m.name: f"  should move: {m.moves}" for m in PER_LAYER}
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6f} {m['unit']:<6} ({m['samples']} samples)"
              f"{moves.get(name, '')}")
    wanted = {m.name for m in (PER_LAYER if result["trace"] else END_TO_END)}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in result["metrics"].items() if k in wanted
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(ovlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: ovlab was imported from {ovlab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    out = ROOT / ".bench_work"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          out / tag)
    (out / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
