"""The benchmark's tracer still sees the package's discovery, pseudo-labelling, objective and scoring hooks.

``bench/tracing.py`` patches public functions of the package by name; a
refactor that stops calling one of them through its module would silently
leave a bench metric at 0. This test imports the tracer as it is and only
reads it.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import ovlab.cli  # noqa: F401  the tracer patches the modules already imported; the CLI imports every one
from ovlab.encoder import MockTextEncoder
from ovlab.metrics import EvalConfig, evaluate
from ovlab.synth import ScenarioConfig, generate_scenario
from ovlab.trainer import TrainConfig, filtered_background, prepare_background, train

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_a_traced_prep_fires_the_filter_nms_and_labelling_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    scenario = generate_scenario(ScenarioConfig(n_train_images=8, n_eval_images=0, seed=4), MockTextEncoder(seed=7))
    config = TrainConfig(seed=1)
    with Tracer() as tracer:
        prep = prepare_background(scenario, config)
    assert tracer.missing == []
    summary = tracer.summary()
    n_images = len(scenario.train_images)
    # One filter per image, for the pool; the labeller labels the rows it kept without filtering them again.
    assert summary["discovery.filter"]["calls"] == n_images
    assert summary["pseudo.label"]["calls"] == n_images
    assert summary["discovery.nms"]["calls"] >= n_images  # each filter's NMS, then the per-class NMS
    kept = sum(map(len, filtered_background(scenario, config)))
    assert tracer.counts["pseudo.filtered"] == kept == sum(len(p.positives) + len(p.negatives)
                                                           for p in prep.partitions)
    assert kept > n_images
    # The labeller runs inside the prep's span, in a training too, so the bench's step time (a training's time
    # less its prep's) holds no labelling.
    with Tracer() as tracer:
        train(replace(config, steps=1), scenario)
    labels = [i for i, span in enumerate(tracer.spans) if span.name == "pseudo.label"]
    assert len(labels) == n_images
    assert all("trainer.prep" in _ancestors(tracer.spans, i) for i in labels)


def _ancestors(spans, index: int) -> list[str]:
    """The names of the spans that enclose span ``index``, innermost first."""
    names = []
    while (index := spans[index].parent) >= 0:
        names.append(spans[index].name)
    return names


@pytest.mark.parametrize("n_novel", [4, 0])
def test_a_traced_evaluate_fires_one_cosine_per_scored_image(monkeypatch, n_novel):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    scenario = generate_scenario(ScenarioConfig(n_train_images=6, n_eval_images=5, n_novel=n_novel, seed=4),
                                 MockTextEncoder(seed=7))
    _, checkpoint = train(TrainConfig(steps=3, seed=1), scenario)
    scored = sum(1 for image in scenario.images("eval") if len(image.label))
    assert scored > 1
    for rectify in (True, False):
        with Tracer() as tracer:
            evaluate(checkpoint, scenario, EvalConfig(rectify=rectify))
        assert tracer.missing == []
        # One cosine matrix per eval image with proposals, and one for the shrinking factors unless
        # there is no novel block to share mass with; each image's cosines are taken by one scorer call.
        summary = tracer.summary()
        assert summary["core.cosine"]["calls"] == scored + (n_novel > 0)
        assert summary["rectify.score"]["calls"] == scored


def test_a_traced_training_fires_one_objective_per_step(monkeypatch):
    # Each step evaluates its objective and gradient in one hooked call, and the encoder's
    # pullback and every loss term run inside it.
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    scenario = generate_scenario(ScenarioConfig(n_train_images=6, n_eval_images=0, seed=4), MockTextEncoder(seed=7))
    with Tracer() as tracer:
        train(TrainConfig(steps=3, seed=1), scenario)
    assert tracer.missing == []
    assert tracer.summary()["trainer.grad"]["calls"] == 3
    for name in ("encoder.vjp", "losses.nll", "losses.mass", "losses.uniform"):
        spans = [i for i, span in enumerate(tracer.spans) if span.name == name]
        assert len(spans) >= 3 and all("trainer.grad" in _ancestors(tracer.spans, i) for i in spans), name
