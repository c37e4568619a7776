"""Evaluation metrics and the ablation runner."""

from collections import Counter

import numpy as np
import pytest
from oracles import per_proposal_evaluate, records
from util import EDGE_WORLDS

from ovlab.encoder import MockTextEncoder
from ovlab.metrics import (
    AblationConfig,
    EvalConfig,
    EvalReport,
    evaluate,
    inference_vocab,
    run_ablation,
)
from ovlab.rectify import compute_shrinking_factors, score
from ovlab.synth import ScenarioConfig, generate_scenario
from ovlab.trainer import TrainConfig, train


@pytest.fixture(scope="module")
def enc():
    return MockTextEncoder(seed=7)


@pytest.fixture(scope="module")
def noiseless_scenario(enc):
    config = ScenarioConfig(
        n_train_images=10, n_eval_images=6, sigma_feat=0.0, sigma_det=0.0, seed=5
    )
    return generate_scenario(config, enc)


@pytest.fixture(scope="module")
def small_scenario(enc):
    config = ScenarioConfig(n_train_images=10, n_eval_images=6, seed=6)
    return generate_scenario(config, enc)


def test_perfect_information_ceiling(noiseless_scenario):
    # Noiseless features coincide with the class embeddings (which are the
    # generative prototypes), so classification is exact for both splits.
    config = TrainConfig(steps=30, seed=0, baseline_mode=True, use_discovery=False)
    _, checkpoint = train(config, noiseless_scenario)
    report = evaluate(checkpoint, noiseless_scenario, EvalConfig(rectify=False))
    assert report.novel_top1 == 1.0
    assert report.base_top1 == 1.0


def test_rectify_identity_without_novel_categories(enc):
    config = ScenarioConfig(
        n_novel=0, n_distractor=3, n_train_images=10, n_eval_images=6, seed=7
    )
    scen = generate_scenario(config, enc)
    tconfig = TrainConfig(steps=20, seed=1)
    _, checkpoint = train(tconfig, scen)
    on = evaluate(checkpoint, scen, EvalConfig(rectify=True))
    off = evaluate(checkpoint, scen, EvalConfig(rectify=False))
    assert on.base_top1 == off.base_top1
    assert on.confusion == off.confusion
    assert on.mean_shrinking_factor == 1.0


def test_report_round_trip(small_scenario):
    config = TrainConfig(steps=15, seed=2)
    _, checkpoint = train(config, small_scenario)
    report = evaluate(checkpoint, small_scenario, EvalConfig(rectify=True))
    recovered = EvalReport.from_json(report.to_json())
    assert recovered == report


def test_report_render_mentions_metrics(small_scenario):
    config = TrainConfig(steps=5, seed=3)
    _, checkpoint = train(config, small_scenario)
    text = evaluate(checkpoint, small_scenario, EvalConfig(rectify=True)).render()
    assert "novel top-1" in text and "base top-1" in text


def test_confusion_rows_sum_to_instance_counts(small_scenario):
    config = TrainConfig(steps=10, seed=4)
    _, checkpoint = train(config, small_scenario)
    report = evaluate(checkpoint, small_scenario, EvalConfig(rectify=True))
    total = sum(sum(row.values()) for row in report.confusion.values())
    assert total == report.n_novel + report.n_base + report.n_background
    report.validate()


TALLY_WORLDS = {
    **{f"reference_{seed}": dict(seed=seed) for seed in range(3)},
    **{name: dict(n_train_images=6, n_eval_images=4, seed=5, **edit) for name, edit in EDGE_WORLDS.items()},
}
# Worlds whose training split leaves too little background to discover categories in; their
# checkpoint is a baseline one.
UNDISCOVERABLE = {"no_hidden", "all_base", "no_objects", "no_object_proposals", "clipped"}


@pytest.mark.parametrize("world", TALLY_WORLDS)
def test_evaluation_tallies_as_the_per_proposal_oracle(enc, world):
    # Scoring each image's feature block and taking its decisions and tally
    # as arrays over its columns gives the report, byte for byte, that
    # scoring stacked rows and deciding and tallying proposal by proposal
    # gave, rectified or not, at every recall threshold. A world where
    # discovery runs is also tallied with a baseline checkpoint.
    scenario = generate_scenario(ScenarioConfig(**TALLY_WORLDS[world]), enc)
    assert any(len(image.rpn) for image in scenario.eval_images)
    checkpoints = [train(TrainConfig(steps=20, seed=0, baseline_mode=baseline), scenario)[1]
                   for baseline in sorted({world in UNDISCOVERABLE, True})]
    for checkpoint in checkpoints:
        for rectify in (True, False):
            for threshold in (0.0, 0.5, 1.0):
                got = evaluate(checkpoint, scenario, EvalConfig(rectify=rectify, recall_threshold=threshold))
                want = per_proposal_evaluate(checkpoint, scenario, rectify=rectify, recall_threshold=threshold)
                assert got.to_json() == want.to_json(), (checkpoint.config.baseline_mode, rectify, threshold)
    checkpoint = checkpoints[0]
    vocab = inference_vocab(checkpoint, scenario)
    tau = checkpoint.config.temperature
    for factors in (compute_shrinking_factors(vocab, tau), None):
        for image in scenario.eval_images:
            if len(image.rpn):
                block = score(image.features[0], vocab, tau, factors)
                stacked = score(np.stack([p.det_feature for p in records(image)]), vocab, tau, factors)
                assert [a.tobytes() for a in block] == [a.tobytes() for a in stacked]


def test_evaluate_does_not_mutate_inputs(small_scenario):
    config = TrainConfig(steps=5, seed=5)
    _, checkpoint = train(config, small_scenario)
    ctx_before = checkpoint.context_vectors.copy()
    feat_before = small_scenario.eval_images[0].features.copy()
    evaluate(checkpoint, small_scenario, EvalConfig(rectify=True))
    np.testing.assert_array_equal(checkpoint.context_vectors, ctx_before)
    np.testing.assert_array_equal(small_scenario.eval_images[0].features, feat_before)


def test_evaluate_dimension_mismatch(enc, small_scenario):
    other = MockTextEncoder(seed=1, dim=16)
    scen16 = generate_scenario(
        ScenarioConfig(dim=16, n_train_images=6, n_eval_images=2, seed=8), other
    )
    config = TrainConfig(steps=2, seed=0)
    _, checkpoint = train(config, scen16)
    with pytest.raises(ValueError):
        evaluate(checkpoint, small_scenario, EvalConfig())


def test_ablation_single_combo_single_seed(small_scenario):
    settings = AblationConfig(seeds=(0,), combos=("baseline",))
    result = run_ablation(settings, small_scenario, TrainConfig(steps=10))
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["name"] == "baseline"
    assert len(row["novel_top1"]) == 1
    assert "baseline" in result.render()


def test_ablation_deterministic(small_scenario):
    settings = AblationConfig(seeds=(0, 1), combos=("full",))
    config = TrainConfig(steps=10)
    a = run_ablation(settings, small_scenario, config)
    b = run_ablation(settings, small_scenario, config)
    assert a.to_json() == b.to_json()


def test_ablation_shares_training_across_rectify_flags(small_scenario, monkeypatch):
    # Rows differing only in the rectify flag must reuse the same checkpoint.
    import ovlab.metrics as eval_mod

    calls = []
    real_train = eval_mod.train

    def counting_train(config, scenario, prep=None):
        calls.append(config.seed)
        return real_train(config, scenario, prep)

    monkeypatch.setattr(eval_mod, "train", counting_train)
    settings = AblationConfig(seeds=(0, 1), combos=("prompts", "prompts+rectify"))
    result = run_ablation(settings, small_scenario, TrainConfig(steps=10))
    assert len(calls) == 2  # one training per seed, shared by both rows
    assert {r["name"] for r in result.rows} == {"prompts", "prompts+rectify"}


def test_ablation_shares_one_discovery_prep_per_seed(small_scenario, monkeypatch):
    # One sweep per seed and one labelling per (seed, image), and every
    # training still matches a standalone run of its configuration byte for byte.
    import ovlab.metrics as eval_mod
    import ovlab.trainer as trainer_mod

    trained = []
    sweeps = []
    labelled = Counter()
    real_train = eval_mod.train
    real_estimate = trainer_mod.estimate_category_count
    real_label = trainer_mod.generate_pseudo_labels

    def recording_train(config, scenario, prep=None):
        history, checkpoint = real_train(config, scenario, prep)
        trained.append((config, checkpoint))
        return history, checkpoint

    def counting_estimate(features, k_min, k_max, seed):
        sweeps.append(seed)
        return real_estimate(features, k_min, k_max, seed)

    def counting_label(batch_bg, boxes, centers, **kwargs):
        labelled[boxes.tobytes()] += 1  # an image's kept boxes
        return real_label(batch_bg, boxes, centers, **kwargs)

    monkeypatch.setattr(eval_mod, "train", recording_train)
    monkeypatch.setattr(trainer_mod, "estimate_category_count", counting_estimate)
    monkeypatch.setattr(trainer_mod, "generate_pseudo_labels", counting_label)
    seeds = (0, 1)
    run_ablation(AblationConfig(seeds=seeds), small_scenario, TrainConfig(steps=10))
    monkeypatch.undo()

    assert sorted(sweeps) == list(seeds)
    assert len(labelled) == len(small_scenario.train_images)
    assert set(labelled.values()) == {len(seeds)}
    assert len(trained) == 4 * len(seeds)  # baseline, prompts, discovery, full
    for config, checkpoint in trained:
        assert (checkpoint.cluster_centers is None) == (config.baseline_mode or not config.use_discovery)
        if config.seed == seeds[0]:
            _, alone = train(config, small_scenario)
            assert checkpoint.to_json() == alone.to_json(), config
