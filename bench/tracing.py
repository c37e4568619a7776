"""In-memory span tracer over the public functions of each ``ovlab`` layer.

``Tracer.install`` wraps every hook below in each ``ovlab`` module namespace
that binds it (``ovlab.trainer.kmeans`` as well as ``ovlab.discovery.kmeans``),
and ``Tracer.uninstall`` puts the originals back. Each call records a span
(name, start, end, parent, run id) and, for some hooks, counters taken from
its arguments and result. Nothing under ``src/`` is edited; a hook whose
target no longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run: str


# -- counters: (tracer, args, kwargs, result) -> None -------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _digest(array) -> str:
    return hashlib.sha1(np.asarray(array).tobytes()).hexdigest()


def _count_write(tr, args, kwargs, result):
    tr.counts["synth.dataset_mb"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size / 1e6


def _count_kmeans(tr, args, kwargs, result):
    key = (
        _digest(_arg(args, kwargs, 0, "features")),
        int(_arg(args, kwargs, 1, "k")),
        int(_arg(args, kwargs, 2, "seed")),
        kwargs.get("max_iters", args[3] if len(args) > 3 else None),
        kwargs.get("n_init", args[4] if len(args) > 4 else None),
    )
    tr.repeat("discovery.kmeans", key)
    tr.counts["discovery.kmeans_iters"] += result.n_iterations


def _count_silhouette(tr, args, kwargs, result):
    tr.counts["discovery.silhouette_points"] += len(_arg(args, kwargs, 0, "features"))


def _count_estimate(tr, args, kwargs, result):
    tr.counts["discovery.features"] = len(_arg(args, kwargs, 0, "features"))


def _count_nms(tr, args, kwargs, result):
    tr.counts["discovery.nms_boxes"] += len(_arg(args, kwargs, 0, "boxes"))
    tr.counts["discovery.nms_kept"] += len(result)


def _count_pseudo(tr, args, kwargs, result):
    proposals = _arg(args, kwargs, 0, "batch_bg")
    features = b"".join(p.img_feature.tobytes() for p in proposals)
    key = (hashlib.sha1(features).hexdigest(), _digest(_arg(args, kwargs, 2, "centers")))
    tr.repeat("pseudo.label", key)
    tr.counts["pseudo.positives"] += len(result.positives)
    tr.counts["pseudo.filtered"] += len(result.positives) + len(result.negatives)


def _count_train(tr, args, kwargs, result):
    tr.counts["trainer.steps"] += _arg(args, kwargs, 0, "config").steps


def _count_cosine(tr, args, kwargs, result):
    n, d = np.shape(_arg(args, kwargs, 0, "queries"))
    m = np.shape(_arg(args, kwargs, 1, "references"))[0]
    # Row norms, normalisation and the (n, d) x (d, m) product; read both
    # inputs and write the (n, m) result once, in float64.
    tr.counts["core.cosine_flops"] += 2 * n * m * d + 3 * (n + m) * d
    tr.counts["core.cosine_bytes"] += 8 * ((n + m) * d + n * m)


def _count_ablation(tr, args, kwargs, result):
    tr.counts["metrics.ablation_seeds"] += len(_arg(args, kwargs, 0, "spec").seeds)


@dataclass(frozen=True)
class Hook:
    span: str
    module: str
    attr: str  # "function" or "Class.method"
    count: Callable | None = None


HOOKS = (
    Hook("synth.generate", "ovlab.synth", "generate_scenario"),
    Hook("synth.write", "ovlab.synth", "write_dataset", _count_write),
    Hook("synth.load", "ovlab.synth", "load_dataset"),
    Hook("persist.checkpoint_save", "ovlab.trainer", "Checkpoint.save"),
    Hook("persist.checkpoint_load", "ovlab.trainer", "Checkpoint.load"),
    Hook("discovery.kmeans", "ovlab.discovery", "kmeans", _count_kmeans),
    Hook("discovery.silhouette", "ovlab.discovery", "silhouette_score", _count_silhouette),
    Hook("discovery.estimate", "ovlab.discovery", "estimate_category_count", _count_estimate),
    Hook("discovery.nms", "ovlab.discovery", "nms_indices", _count_nms),
    Hook("discovery.filter", "ovlab.discovery", "filter_background_proposals"),
    Hook("trainer.train", "ovlab.trainer", "train", _count_train),
    Hook("trainer.prep", "ovlab.trainer", "prepare_background"),
    Hook("trainer.loss", "ovlab.trainer", "loss_final"),
    Hook("trainer.grad", "ovlab.trainer", "compute_gradients"),
    Hook("trainer.sgd", "ovlab.trainer", "sgd_step"),
    Hook("pseudo.label", "ovlab.pseudo", "generate_pseudo_labels", _count_pseudo),
    Hook("vocab.build_training", "ovlab.vocab", "build_training_vocab"),
    Hook("vocab.build_inference", "ovlab.vocab", "build_inference_vocab"),
    Hook("encoder.encode", "ovlab.encoder", "MockTextEncoder.encode_context"),
    Hook("encoder.vjp", "ovlab.encoder", "MockTextEncoder.encode_context_vjp"),
    Hook("losses.nll", "ovlab.losses", "nll_terms"),
    Hook("losses.mass", "ovlab.losses", "mass_terms"),
    Hook("losses.uniform", "ovlab.losses", "uniform_terms"),
    Hook("core.cosine", "ovlab.core", "cosine_matrix", _count_cosine),
    Hook("core.logsumexp", "ovlab.core", "logsumexp"),
    Hook("rectify.factor", "ovlab.rectify", "compute_shrinking_factors"),
    Hook("rectify.score", "ovlab.rectify", "inference_probs"),
    Hook("metrics.evaluate", "ovlab.metrics", "evaluate"),
    Hook("metrics.ablation", "ovlab.metrics", "run_ablation", _count_ablation),
    Hook("cli.gen", "ovlab.cli", "cmd_gen"),
    Hook("cli.train", "ovlab.cli", "cmd_train"),
    Hook("cli.eval", "ovlab.cli", "cmd_eval"),
    Hook("cli.ablate", "ovlab.cli", "cmd_ablate"),
)


class Tracer:
    """Collects spans and counters while installed; one per traced round."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.run = ""  # set by the caller before each command
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._restore: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- counters ---------------------------------------------------------

    def repeat(self, prefix: str, key) -> None:
        self.counts[f"{prefix}_repeats"] += key in self._seen[prefix]
        self._seen[prefix].add(key)

    # -- patching ---------------------------------------------------------

    def _wrap(self, hook: Hook, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(hook.span, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook.count is not None:
                hook.count(self, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ovlab" or n.startswith("ovlab.")]
        for hook in self.hooks:
            home = sys.modules.get(hook.module)
            cls_name, _, meth = hook.attr.rpartition(".")
            owner = getattr(home, cls_name, None) if cls_name else home
            if owner is None or not hasattr(owner, meth):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            if cls_name:
                raw = inspect.getattr_static(owner, meth)
                if isinstance(raw, staticmethod):
                    self._set(owner, meth, staticmethod(self._wrap(hook, raw.__func__)))
                else:
                    self._set(owner, meth, self._wrap(hook, raw))
                continue
            original = getattr(owner, meth)
            wrapped = self._wrap(hook, original)
            for module in modules:
                if getattr(module, meth, None) is original:
                    self._set(module, meth, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON line per span, times in seconds from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start - self.t0, s.end - self.t0, s.parent, s.run]))
                out.write("\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (total minus direct children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for s, c in zip(self.spans, child):
            row = out[s.name]
            row["calls"] += 1
            row["total"] += s.end - s.start
            row["self"] += s.end - s.start - c
        return out

    def _under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ancestor span called ``ancestor``."""
        inside = [False] * len(self.spans)
        found = 0
        for i, s in enumerate(self.spans):
            parent = s.parent
            inside[i] = parent >= 0 and (inside[parent] or self.spans[parent].name == ancestor)
            found += inside[i] and s.name == name
        return found

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric of the benchmark, from the spans and counters."""
        sm = self.summary()
        c = self.counts

        def calls(*names):
            return sum(sm[n]["calls"] for n in names if n in sm)

        def total(*names):
            return sum(sm[n]["total"] for n in names if n in sm)

        def self_time(*names):
            return sum(sm[n]["self"] for n in names if n in sm)

        def ratio(num, den):
            return num / den if den else 0.0

        steps = c["trainer.steps"]
        seeds = c["metrics.ablation_seeds"]
        return {
            "synth.generate_s": total("synth.generate"),
            "synth.write_s": total("synth.write"),
            "synth.load_s": total("synth.load"),
            "synth.load_calls": calls("synth.load"),
            "synth.dataset_mb": c["synth.dataset_mb"],
            "persist.checkpoint_s": total("persist.checkpoint_save", "persist.checkpoint_load"),
            "discovery.kmeans_calls": calls("discovery.kmeans"),
            "discovery.kmeans_s": total("discovery.kmeans"),
            "discovery.kmeans_iters": c["discovery.kmeans_iters"],
            "discovery.kmeans_repeat_ratio": ratio(
                c["discovery.kmeans_repeats"], calls("discovery.kmeans")
            ),
            "discovery.silhouette_calls": calls("discovery.silhouette"),
            "discovery.silhouette_s": total("discovery.silhouette"),
            "discovery.silhouette_points": c["discovery.silhouette_points"],
            "discovery.estimate_s": total("discovery.estimate"),
            "discovery.nms_calls": calls("discovery.nms"),
            "discovery.nms_s": total("discovery.nms"),
            "discovery.nms_keep_ratio": ratio(c["discovery.nms_kept"], c["discovery.nms_boxes"]),
            "discovery.filter_s": total("discovery.filter"),
            "trainer.prep_s": total("trainer.prep"),
            "trainer.steps": steps,
            "trainer.step_ms": ratio(total("trainer.train") - total("trainer.prep"), steps) * 1e3,
            "trainer.loss_s": total("trainer.loss"),
            "trainer.grad_s": total("trainer.grad"),
            "trainer.sgd_s": total("trainer.sgd"),
            "trainer.loop_self_s": self_time("trainer.train"),
            "pseudo.label_calls": calls("pseudo.label"),
            "pseudo.label_s": total("pseudo.label"),
            "pseudo.positive_ratio": ratio(c["pseudo.positives"], c["pseudo.filtered"]),
            "pseudo.repeat_ratio": ratio(c["pseudo.label_repeats"], calls("pseudo.label")),
            "vocab.build_calls": calls("vocab.build_training", "vocab.build_inference"),
            "vocab.build_s": total("vocab.build_training", "vocab.build_inference"),
            "encoder.encode_calls": calls("encoder.encode"),
            "encoder.encode_s": total("encoder.encode"),
            "encoder.vjp_calls": calls("encoder.vjp"),
            "encoder.vjp_s": total("encoder.vjp"),
            "losses.terms_calls": calls("losses.nll", "losses.mass", "losses.uniform"),
            "losses.terms_s": total("losses.nll", "losses.mass", "losses.uniform"),
            "core.cosine_calls": calls("core.cosine"),
            "core.cosine_s": total("core.cosine"),
            "core.cosine_flops": c["core.cosine_flops"],
            "core.cosine_bytes": c["core.cosine_bytes"],
            "core.logsumexp_calls": calls("core.logsumexp"),
            "core.logsumexp_s": total("core.logsumexp"),
            "rectify.factor_calls": calls("rectify.factor"),
            "rectify.factor_s": total("rectify.factor"),
            "rectify.score_calls": calls("rectify.score"),
            "rectify.score_s": total("rectify.score"),
            "metrics.evaluate_calls": calls("metrics.evaluate"),
            "metrics.evaluate_self_s": self_time("metrics.evaluate"),
            "metrics.trainings": self._under("trainer.train", "metrics.ablation"),
            "metrics.preps_per_seed": ratio(self._under("trainer.prep", "metrics.ablation"), seeds),
            "cli.self_s": self_time("cli.gen", "cli.train", "cli.eval", "cli.ablate"),
            "trace.overhead_ratio": overhead_ratio,
        }
