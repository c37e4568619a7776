"""Workloads and metric tables of the ovlab benchmark.

Pure data: importing this module imports nothing from ``ovlab``, so the
launcher can validate its arguments before it knows the program is present.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""  # per-layer metrics: the end-to-end metric and workload it should move


# Reported on every workload by an untraced run. ``ablate_s`` is reported too,
# but only on ``ablate``: it is not listed here because every metric here must
# be non-zero on every workload.
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("train_s", "s", "lower"),
    Metric("eval_s", "s", "lower"),
    Metric("pipeline_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("novel_top1", "ratio", "higher"),
    Metric("base_top1", "ratio", "higher"),
    Metric("novel_recall", "ratio", "higher"),
)

REF_TRAIN = "train_s on reference"
ABLATE = "pipeline_s on ablate (the ablate command)"


def large(metrics: str) -> str:
    """``large`` is not gated in BENCHMARK.json: what it shows there is for information only."""
    return f"; {metrics} on large (informational, ungated)"


# Reported by a traced run, one traced round of the workload. Each layer names
# the gated end-to-end metric and workload it should move first.
PER_LAYER = (
    Metric("synth.generate_s", "s", "lower", "setup_s on reference and ablate" + large("setup_s")),
    Metric("synth.write_s", "s", "lower",
           "setup_s, peak_rss_mb on reference and ablate" + large("setup_s, peak_rss_mb")),
    Metric("synth.load_s", "s", "lower",
           f"train_s, eval_s on reference; {ABLATE}" + large("train_s, eval_s")),
    Metric("synth.load_calls", "count", "lower",
           f"train_s, eval_s on reference; {ABLATE}" + large("train_s, eval_s")),
    Metric("synth.dataset_mb", "MB", "lower",
           "setup_s, train_s, eval_s on reference" + large("setup_s, train_s, eval_s")),
    Metric("persist.checkpoint_s", "s", "lower",
           "train_s, eval_s on reference (small)" + large("train_s, eval_s")),
    Metric("discovery.kmeans_calls", "count", "lower", f"{REF_TRAIN}; {ABLATE}" + large("train_s")),
    Metric("discovery.kmeans_s", "s", "lower", f"{REF_TRAIN}; {ABLATE}" + large("train_s")),
    Metric("discovery.kmeans_iters", "count", "lower", f"{REF_TRAIN}; {ABLATE}" + large("train_s")),
    Metric("discovery.kmeans_repeat_ratio", "ratio", "lower",
           f"{REF_TRAIN}; {ABLATE}" + large("train_s")),
    Metric("discovery.silhouette_calls", "count", "lower",
           f"{REF_TRAIN}; {ABLATE}" + large("train_s, peak_rss_mb")),
    Metric("discovery.silhouette_s", "s", "lower",
           f"{REF_TRAIN}; {ABLATE}" + large("train_s, peak_rss_mb")),
    Metric("discovery.silhouette_points", "count", "lower",
           f"{REF_TRAIN}; {ABLATE}" + large("train_s, peak_rss_mb")),
    Metric("discovery.estimate_s", "s", "lower",
           f"{REF_TRAIN}; {ABLATE}" + large("train_s, peak_rss_mb")),
    Metric("discovery.nms_calls", "count", "lower", REF_TRAIN),
    Metric("discovery.nms_s", "s", "lower", REF_TRAIN),
    Metric("discovery.nms_keep_ratio", "ratio", "higher", REF_TRAIN),
    Metric("discovery.filter_s", "s", "lower", REF_TRAIN),
    Metric("trainer.prep_s", "s", "lower", f"{REF_TRAIN}; {ABLATE}" + large("train_s")),
    Metric("trainer.steps", "count", "higher", f"{REF_TRAIN}; {ABLATE}"),
    Metric("trainer.step_ms", "ms", "lower", f"{REF_TRAIN}; {ABLATE}"),
    Metric("trainer.loss_s", "s", "lower", f"{REF_TRAIN}; {ABLATE}"),
    Metric("trainer.grad_s", "s", "lower", f"{REF_TRAIN}; {ABLATE}"),
    Metric("trainer.sgd_s", "s", "lower", f"{REF_TRAIN}; {ABLATE}"),
    Metric("trainer.loop_self_s", "s", "lower", f"{REF_TRAIN}; {ABLATE}"),
    Metric("pseudo.label_calls", "count", "lower", REF_TRAIN),
    Metric("pseudo.label_s", "s", "lower", REF_TRAIN),
    Metric("pseudo.positive_ratio", "ratio", "higher", REF_TRAIN),
    Metric("pseudo.repeat_ratio", "ratio", "lower", REF_TRAIN),
    Metric("vocab.build_calls", "count", "lower", REF_TRAIN),
    Metric("vocab.build_s", "s", "lower", REF_TRAIN),
    Metric("encoder.encode_calls", "count", "lower", REF_TRAIN),
    Metric("encoder.encode_s", "s", "lower", REF_TRAIN),
    Metric("encoder.vjp_calls", "count", "lower", REF_TRAIN),
    Metric("encoder.vjp_s", "s", "lower", REF_TRAIN),
    Metric("losses.terms_calls", "count", "lower", REF_TRAIN),
    Metric("losses.terms_s", "s", "lower", REF_TRAIN),
    Metric("core.cosine_calls", "count", "lower", f"{REF_TRAIN}, eval_s on reference" + large("eval_s")),
    Metric("core.cosine_s", "s", "lower", f"{REF_TRAIN}, eval_s on reference" + large("eval_s")),
    Metric("core.cosine_flops", "flop", "lower", f"{REF_TRAIN}, eval_s on reference" + large("eval_s")),
    Metric("core.cosine_bytes", "B", "lower", f"{REF_TRAIN}, eval_s on reference" + large("eval_s")),
    Metric("core.logsumexp_calls", "count", "lower", f"{REF_TRAIN}, eval_s on reference" + large("eval_s")),
    Metric("core.logsumexp_s", "s", "lower", f"{REF_TRAIN}, eval_s on reference" + large("eval_s")),
    Metric("rectify.factor_calls", "count", "lower", "eval_s on reference" + large("eval_s")),
    Metric("rectify.factor_s", "s", "lower", "eval_s on reference" + large("eval_s")),
    Metric("rectify.score_calls", "count", "lower", "eval_s on reference" + large("eval_s")),
    Metric("rectify.score_s", "s", "lower", "eval_s on reference" + large("eval_s")),
    Metric("metrics.evaluate_calls", "count", "lower", f"eval_s on reference; {ABLATE}"),
    Metric("metrics.evaluate_self_s", "s", "lower", f"eval_s on reference; {ABLATE}"),
    Metric("metrics.trainings", "count", "lower", ABLATE),
    Metric("metrics.preps_per_seed", "count", "lower", ABLATE),
    Metric("cli.self_s", "s", "lower", "pipeline_s on reference and ablate (small)"),
    Metric("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced pipeline_s"),
)


@dataclass(frozen=True)
class Workload:
    """One closed loop of CLI commands: ``gen``, then trains and rectified evals, then ``ablate``.

    The workload seed is the scenario seed and the first train seed; train
    ``i`` of a round uses seed ``seed + i``, and the ablation runs seeds
    ``seed .. seed + ablation_seeds - 1``.
    """

    name: str
    why: str
    config: dict = field(default_factory=dict)  # ovlab config file, seeds excluded
    train_runs: int = 1
    ablation_seeds: int = 0

    def ovlab_config(self, seed: int) -> dict:
        config = copy.deepcopy(self.config)
        config.setdefault("scenario", {})["seed"] = seed
        config.setdefault("train", {})["seed"] = seed
        if self.ablation_seeds:
            config["ablation"] = {"seeds": self.ablation_seed_list(seed)}
        return config

    def train_seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.train_runs)]

    def ablation_seed_list(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.ablation_seeds)]


# The ROADMAP's large world. The default 60 degree prototype separation cannot
# be met by 60 categories in 128 dimensions, so it is relaxed to 45 degrees.
# ``large`` is run by name and is not listed in BENCHMARK.json: each of its
# commands takes 6-16 s, so a run holds one sample, and on a shared 2-vCPU
# host its run-to-run spread reached 0.2-0.4 of the median, above any bound
# the benchmark may set.
LARGE_CONFIG = {
    "scenario": {
        "dim": 128,
        "n_base": 40,
        "n_novel": 10,
        "n_distractor": 10,
        "n_train_images": 400,
        "n_eval_images": 600,
        "objects_per_image": 10,
        "min_angle_deg": 45.0,
    },
    "encoder": {"dim": 128},
    "train": {"k_max": 30, "steps": 50},
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference",
            "Default world: 48 train/120 eval images, 1,560 eval proposals, 300 steps, vocab ~23, "
            "2 train seeds; the step loop (numpy call overhead) dominates, discovery ~10%",
            train_runs=2,
        ),
        Workload(
            "large",
            "dim 128, 60 categories, 400 train/600 eval images, 13.8k eval proposals, 50 steps, "
            "~2k filtered bg features; k-means, silhouette and 127 MB dataset I/O dominate",
            config=LARGE_CONFIG,
        ),
        Workload(
            "ablate",
            "Reference world: one train+eval, then ablate over 6 combos x 1 seed; repeated "
            "discovery prep, baseline and unrectified paths",
            ablation_seeds=1,
        ),
    )
}
