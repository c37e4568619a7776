"""The benchmark's tracer still sees the package's discovery and pseudo-labelling hooks.

``bench/tracing.py`` patches public functions of the package by name; a
refactor that stops calling one of them through its module would silently
leave a bench metric at 0. This test imports the tracer as it is and only
reads it.
"""

from pathlib import Path

import ovlab.cli  # noqa: F401  the tracer patches the modules already imported; the CLI imports every one
from ovlab.encoder import MockTextEncoder
from ovlab.synth import ScenarioConfig, generate_scenario
from ovlab.trainer import TrainConfig, _filtered_background, prepare_discovery

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_a_traced_prep_fires_the_filter_nms_and_labelling_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    scenario = generate_scenario(ScenarioConfig(n_train_images=8, n_eval_images=0, seed=4), MockTextEncoder(seed=7))
    config = TrainConfig(seed=1)
    with Tracer() as tracer:
        prep = prepare_discovery(scenario, config)
    assert tracer.missing == []
    summary = tracer.summary()
    n_images = len(scenario.train_images)
    # One filter per image for the pool, and one more inside each image's labelling.
    assert summary["discovery.filter"]["calls"] == 2 * n_images
    assert summary["pseudo.label"]["calls"] == n_images
    assert summary["discovery.nms"]["calls"] >= 2 * n_images  # each filter's NMS, then the per-class NMS
    kept = sum(map(len, _filtered_background(scenario, config)))
    assert tracer.counts["pseudo.filtered"] == kept == sum(len(p.positives) + len(p.negatives)
                                                           for p in prep.partitions)
    assert kept > n_images
