"""Command-line surface: scenario generation, training, evaluation, reports.

One JSON configuration file drives every command; individual keys can be
overridden on the command line with ``--set section.key=value`` and every
command accepts ``--seed``. A flag that sets a key (``--seed``,
``--instances``, ``--rectify``/``--no-rectify``) beats both the file and
``--set``. Only ``gen`` reads the encoder settings; the other commands take
their encoder from their input and refuse a ``--set encoder.*``. All
artifacts are written deterministically so reruns with identical
configuration are byte-identical, and each output directory gets a manifest
listing its artifacts with content hashes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import check_fields, from_dict
from .discovery import Proposal
from .encoder import MockTextEncoder, init_context_vectors
from .metrics import STANDARD_COMBOS, AblationSpec, evaluate, inference_vocab, run_ablation
from .losses import COMPONENTS, ProposalBatch, proposal_blocks
from .persist import canonical_json, config_hash, sha256_file, write_text
from .pseudo import BackgroundPartition, PseudoLabel
from .rectify import rectification_report
from .synth import ScenarioConfig, generate_scenario, load_dataset, write_dataset
from .trainer import (
    Checkpoint,
    TrainConfig,
    finite_diff_gradients,
    history_to_json,
    loss_and_gradients,
    pool_background,
    sweep_category_count,
    train,
    underlying_count,
)
from .vocab import FixedRows, build_training_vocab

GRADCHECK_TOLERANCES = {1.0: 1e-5, 0.05: 1e-4}
GRADCHECK_STEP = 1e-5  # central-difference step size
COMBOS_BY_NAME = {c.name: c for c in STANDARD_COMBOS}


@dataclass(frozen=True)
class EvalConfig:
    """The ``eval`` section: whether to rectify and the probability that counts as recalled."""

    rectify: bool = True
    recall_threshold: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if not 0 <= self.recall_threshold <= 1:
            raise ValueError(f"EvalConfig.recall_threshold must lie in [0, 1], got {self.recall_threshold}")


@dataclass(frozen=True)
class AblationConfig:
    """The ``ablation`` section: training seeds and combination names (all standard ones if unset)."""

    seeds: tuple[int, ...] = tuple(range(10))
    combos: tuple[str, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"AblationConfig.seeds must be nonnegative and not empty, got {self.seeds}")
        if self.combos == ():
            raise ValueError("AblationConfig.combos must name at least one combination, or be null for all")
        unknown = [n for n in self.combos or () if n not in COMBOS_BY_NAME]
        if unknown:
            raise ValueError(f"unknown ablation combos {unknown}; known: {sorted(COMBOS_BY_NAME)}")


@dataclass(frozen=True)
class GradcheckConfig:
    """The ``gradcheck`` section: the first instance seed and the number of instances."""

    seed: int = 0
    instances: int = 10

    def __post_init__(self):
        check_fields(self)
        if self.seed < 0 or self.instances < 1:
            raise ValueError(f"GradcheckConfig needs seed >= 0 and instances >= 1, got {self}")


SECTIONS = {"scenario": ScenarioConfig, "encoder": MockTextEncoder, "train": TrainConfig,
            "eval": EvalConfig, "ablation": AblationConfig, "gradcheck": GradcheckConfig}
SECTION_DEFAULTS = {"encoder": {"seed": 7}}  # values the file and every override may replace


def _flag(key: str, value) -> list[str]:
    """The override of a flag that sets ``key`` (none if the flag is unset)."""
    return [] if value is None else [f"{key}={json.dumps(value)}"]


def load_config(path: str | None, overrides: list[str], seed: int | None) -> dict:
    """Merge the config file, then ``overrides`` in order, then --seed into one object per name in ``SECTIONS``.

    A command appends its own flags (``_flag``) after the --set overrides, so a flag beats both.
    """
    config: dict = {}
    if path:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
    if seed is not None:
        overrides = [*overrides, *(f"{s}.seed={seed}" for s in ("scenario", "train", "gradcheck"))]
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {item!r}: {p!r} is not an object")
        node[parts[-1]] = value
    unknown = set(config) - set(SECTIONS)
    if unknown:
        raise ValueError(f"unknown config sections {sorted(unknown)}; known: {list(SECTIONS)}")
    return {name: from_dict(cls, config.get(name, {}), **SECTION_DEFAULTS.get(name, {}))
            for name, cls in SECTIONS.items()}


def _refuse_encoder_overrides(command: str, overrides: list[str]) -> None:
    """Refuse ``--set encoder.*`` on a command that takes its encoder from its input, not the config.

    Only ``gen`` builds an encoder from the ``encoder`` section. An ``encoder``
    section in a config file stays accepted, because one file may drive every command.
    """
    for item in overrides:
        if item.split("=", 1)[0].split(".")[0] == "encoder":
            raise ValueError(f"--set {item}: {command} takes its encoder from its dataset, checkpoint "
                             "or instances; only gen reads encoder settings")


def _write_manifest(out_dir: Path, extra: dict | None = None) -> None:
    artifacts = sorted(
        p.name for p in out_dir.iterdir() if p.is_file() and p.name != "manifest.json"
    )
    payload = {
        "artifacts": [{"path": name, "sha256": sha256_file(out_dir / name)} for name in artifacts],
    }
    if extra:
        payload.update(extra)
    write_text(out_dir / "manifest.json", canonical_json(payload) + "\n")


# -- commands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    scenario = generate_scenario(config["scenario"], config["encoder"])
    write_dataset(scenario, args.out)
    n_train = sum(len(im.rpn) for im in scenario.train_images)
    n_eval = sum(len(im.rpn) for im in scenario.eval_images)
    print(f"wrote {args.out}")
    print(f"categories: {len(scenario.base_ids)} base, {len(scenario.novel_ids)} novel, "
          f"{len(scenario.distractor_ids)} distractor")
    print(f"proposals: {n_train} train, {n_eval} eval")
    print(f"config hash: {scenario.dataset_hash()}")
    return 0


def cmd_estimate_k(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    tcfg = config["train"]
    features = pool_background(load_dataset(args.dataset, ("train",)), tcfg)
    estimate = sweep_category_count(features, tcfg)
    print(f"{'k':>4} {'silhouette':>12}")
    for k, score in estimate.scores:
        marker = "  <-- selected" if k == estimate.count else ""
        print(f"{k:>4} {score:>12.4f}{marker}")
    print(f"estimated count: {estimate.count}"
          + (" (low confidence)" if estimate.low_confidence else ""))
    print(f"vocabulary will use {underlying_count(tcfg, estimate.count)} underlying categories")
    if args.out:
        write_text(
            args.out,
            canonical_json(
                {
                    "count": estimate.count,
                    "best_score": estimate.best_score,
                    "low_confidence": estimate.low_confidence,
                    "scores": [[k, s] for k, s in estimate.scores],
                    "n_features": int(features.shape[0]),
                }
            )
            + "\n",
        )
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    tcfg = config["train"]
    scenario = load_dataset(args.dataset, ("train",))
    history, checkpoint = train(tcfg, scenario)
    out_dir = Path(args.out_dir)
    checkpoint.save(out_dir / "checkpoint.json")
    write_text(out_dir / "history.json", history_to_json(history) + "\n")
    _write_manifest(out_dir, {"train_config_hash": config_hash(asdict(tcfg))})
    print(f"trained {tcfg.steps} steps (seed {tcfg.seed})")
    if history.steps:
        first, last = history.steps[0].breakdown.total, history.steps[-1].breakdown.total
        print(f"loss: {first:.6f} (step 1) -> {last:.6f} (step {tcfg.steps})")
    print(f"underlying categories: {underlying_count(tcfg, checkpoint.n_discovered)}")
    print(f"wrote {out_dir / 'checkpoint.json'}")
    return 0


def cmd_eval(args) -> int:
    settings = load_config(args.config, [*args.set, *_flag("eval.rectify", args.rectify)], args.seed)["eval"]
    checkpoint = Checkpoint.load(args.checkpoint)
    scenario = load_dataset(args.dataset, ("eval",))
    report = evaluate(checkpoint, scenario, rectify=settings.rectify, recall_threshold=settings.recall_threshold)
    out_dir = Path(args.out_dir)
    write_text(out_dir / "report.json", report.to_json() + "\n")
    write_text(out_dir / "report.txt", report.render() + "\n")
    _write_manifest(out_dir, {"dataset_hash": scenario.dataset_hash()})
    print(report.render())
    return 0


def cmd_rectify_report(args) -> int:
    load_config(args.config, args.set, args.seed)
    if args.max_proposals < 1:
        raise ValueError(f"--max-proposals must be at least 1, got {args.max_proposals}")
    checkpoint = Checkpoint.load(args.checkpoint)
    scenario = load_dataset(args.dataset, ("eval",))
    vocab = inference_vocab(checkpoint, scenario)
    tau = checkpoint.config.temperature
    blocks = [image.features[0] for image in scenario.images("eval")]  # each image's det rows
    if not sum(len(block) for block in blocks):
        raise ValueError(f"the eval split of {args.dataset} has no proposals to report on")
    report = rectification_report(vocab, tau, np.concatenate(blocks)[: args.max_proposals])
    out_dir = Path(args.out_dir)
    write_text(out_dir / "rectification.json", canonical_json(report) + "\n")
    lines = [f"{'category':>10} {'factor':>10}"]
    for i, f in enumerate(report["shrinking_factors"]):
        lines.append(f"{i:>10} {f:>10.4f}")
    lines.append(f"mean factor: {report['mean_shrinking_factor']:.4f}")
    text = "\n".join(lines)
    write_text(out_dir / "rectification.txt", text + "\n")
    _write_manifest(out_dir, {"dataset_hash": scenario.dataset_hash()})
    print(text)
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    tcfg = config["train"]
    settings = config["ablation"]
    combos = tuple(COMBOS_BY_NAME[n] for n in settings.combos) if settings.combos else STANDARD_COMBOS
    scenario = load_dataset(args.dataset)
    result = run_ablation(AblationSpec(combos=combos, seeds=settings.seeds), scenario, tcfg)
    out_dir = Path(args.out_dir)
    write_text(out_dir / "ablation.json", result.to_json() + "\n")
    write_text(out_dir / "ablation.txt", result.render() + "\n")
    _write_manifest(
        out_dir,
        {"dataset_hash": scenario.dataset_hash(), "train_config_hash": config_hash(asdict(tcfg))},
    )
    print(result.render())
    return 0


def _gradcheck_instance(seed: int, tau: float):
    """One random small training setup for the oracle comparison: stacked blocks, vocabulary, config."""
    rng = np.random.default_rng([9, seed])
    enc = MockTextEncoder(seed=int(rng.integers(1 << 16)), dim=16, ctx_dim=8, hidden_dim=32, prefix_dim=4)

    def unit():
        v = rng.standard_normal(enc.dim)
        return v / np.linalg.norm(v)

    def prop(label=None):
        return Proposal(
            box=np.array([0.0, 0.0, 10.0, 10.0]),
            rpn_score=0.9,
            det_feature=unit(),
            img_feature=unit(),
            gt_label=label,
        )

    n_base, n_disc, n_extra = 4, 3, 2
    base_emb = np.stack([enc.encode_named_category(s) for s in range(n_base)])
    ctx = init_context_vectors(n_disc + n_extra, seed=seed, ctx_dim=enc.ctx_dim) + rng.normal(
        0, 0.4, (n_disc + n_extra, enc.ctx_dim)
    )
    sub = unit()
    vocab = build_training_vocab(FixedRows(tuple(range(n_base)), base_emb, enc, len(ctx), n_disc), ctx, sub)
    batch = ProposalBatch(
        foreground=tuple(prop(label=int(rng.integers(n_base))) for _ in range(6)),
        background=tuple(prop() for _ in range(10)),
    )
    partition = BackgroundPartition(
        positives=tuple(
            (prop(), PseudoLabel(int(rng.integers(n_disc)), 0.99)) for _ in range(3)
        ),
        negatives=tuple(prop() for _ in range(3)),
    )
    config = TrainConfig(temperature=tau, discovered_categories=n_disc, extra_categories=n_extra)
    return [proposal_blocks(batch, partition, vocab)], vocab, config


def gradcheck_table(n_instances: int, seed: int) -> tuple[list[dict], bool]:
    """Compare analytic and central-difference gradients across seeded instances.

    Returns per-(tau, component) rows with the worst relative L2 error over
    unflagged instances, plus an overall pass flag against the tolerances.
    """
    rows = []
    ok = True
    for tau, tol in GRADCHECK_TOLERANCES.items():
        for component in COMPONENTS:
            worst = 0.0
            flagged = 0
            for i in range(n_instances):
                blocks, vocab, config = _gradcheck_instance(seed + i, tau)
                _, analytic = loss_and_gradients(blocks, vocab, config, component)
                fd, flips = finite_diff_gradients(blocks, vocab, config, GRADCHECK_STEP, component)
                if flips:
                    flagged += 1
                    continue
                num = float(np.linalg.norm(analytic.flat - fd.flat))
                den = max(float(np.linalg.norm(fd.flat)), 1e-12)
                worst = float(np.maximum(worst, num / den))  # a NaN error propagates and fails
            passed = bool(worst <= tol)
            ok = ok and passed
            rows.append(
                {
                    "tau": tau,
                    "component": component,
                    "worst_rel_error": worst,
                    "tolerance": tol,
                    "flagged": flagged,
                    "passed": passed,
                }
            )
    return rows, ok


def cmd_gradcheck(args) -> int:
    overrides = [*args.set, *_flag("gradcheck.instances", args.instances)]
    settings = load_config(args.config, overrides, args.seed)["gradcheck"]
    rows, ok = gradcheck_table(settings.instances, settings.seed)
    print(f"{'tau':>6} {'component':<12} {'worst rel err':>14} {'tol':>8} {'flagged':>8} {'status':>8}")
    for r in rows:
        status = "ok" if r["passed"] else "FAIL"
        print(
            f"{r['tau']:>6} {r['component']:<12} {r['worst_rel_error']:>14.3e} "
            f"{r['tolerance']:>8.0e} {r['flagged']:>8} {status:>8}"
        )
    if args.out:
        write_text(args.out, canonical_json({"rows": rows, "passed": ok}) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovlab",
        description="Desk-scale open-vocabulary classification head laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument(
            "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override one configuration value (repeatable)",
        )

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("estimate-k", help="estimate the latent background category count")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_estimate_k)

    p = sub.add_parser("train", help="train the classification head")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the held-out split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    rect = p.add_mutually_exclusive_group()
    rect.add_argument("--rectify", dest="rectify", action="store_true", default=None)
    rect.add_argument("--no-rectify", dest="rectify", action="store_false")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rectify-report", help="export shrinking factors and probability pairs")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--max-proposals", type=int, default=50)
    p.set_defaults(func=cmd_rectify_report)

    p = sub.add_parser("ablate", help="train and evaluate the module-toggle grid")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against central differences")
    common(p)
    p.add_argument("--instances", type=int, default=None, help="instance count (config default 10)")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "gen":
            _refuse_encoder_overrides(args.command, args.set)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
