"""Objective composition, gradient correctness, SGD, and the training loop."""

import dataclasses
import math

import numpy as np
import pytest

from ovlab.encoder import MockTextEncoder, init_context_vectors
from ovlab.losses import ProposalBatch
from ovlab.pseudo import BackgroundPartition, PseudoLabel
from ovlab.synth import ScenarioConfig, generate_scenario
from ovlab.trainer import (
    Checkpoint,
    Gradients,
    Params,
    TrainConfig,
    TrainingDivergedError,
    central_difference,
    compute_gradients,
    feature_gradients,
    finite_diff_gradients,
    initial_params,
    loss_final,
    sgd_step,
    train,
)
from ovlab.vocab import build_training_vocab

from util import make_proposal, unit


@pytest.fixture(scope="module")
def enc():
    return MockTextEncoder(seed=3, dim=16, ctx_dim=8, hidden_dim=32, prefix_dim=4)


def _setup(enc, seed, n_base=4, n_disc=3, n_extra=2, n_fg=6, n_bg=10, tau=0.05):
    rng = np.random.default_rng(seed)
    base_emb = np.stack([enc.encode_named_category(s) for s in range(n_base)])
    ctx = init_context_vectors(n_disc + n_extra, seed=seed, ctx_dim=enc.ctx_dim) + rng.normal(
        0, 0.4, (n_disc + n_extra, enc.ctx_dim)
    )
    sub = unit(rng, enc.dim)
    vocab = build_training_vocab(
        list(range(n_base)), base_emb, ctx, sub, enc, n_discovered=n_disc
    )
    batch = ProposalBatch(
        foreground=tuple(
            make_proposal(unit(rng, enc.dim), gt_label=int(rng.integers(n_base)))
            for _ in range(n_fg)
        ),
        background=tuple(make_proposal(unit(rng, enc.dim)) for _ in range(n_bg)),
    )
    partition = BackgroundPartition(
        positives=tuple(
            (make_proposal(unit(rng, enc.dim)), PseudoLabel(i, int(rng.integers(n_disc)), 0.99))
            for i in range(3)
        ),
        negatives=tuple(make_proposal(unit(rng, enc.dim)) for _ in range(3)),
    )
    config = TrainConfig(temperature=tau, discovered_categories=n_disc, extra_categories=n_extra)
    return batch, vocab, partition, config


# -- objective ------------------------------------------------------------------


def test_loss_breakdown_additivity(enc):
    batch, vocab, partition, config = _setup(enc, seed=0)
    br = loss_final(batch, vocab, partition, config)
    assert br.total == pytest.approx(br.foreground + br.background + br.pseudo, abs=1e-12)
    assert br.n_foreground == 6 and br.n_background == 10
    assert len(br.branches) == 10


def test_loss_toggles_zero_terms(enc):
    batch, vocab, partition, config = _setup(enc, seed=1)
    no_prompts = dataclasses.replace(config, use_prompts=False)
    br = loss_final(batch, vocab, partition, no_prompts)
    assert br.background == 0.0 and br.branches == ()
    assert br.total == pytest.approx(br.foreground + br.pseudo, abs=1e-12)

    no_discovery = dataclasses.replace(config, use_discovery=False)
    br = loss_final(batch, vocab, partition, no_discovery)
    assert br.pseudo == 0.0
    assert br.total == pytest.approx(br.foreground + br.background, abs=1e-12)


def test_loss_baseline_mode_single_embedding(enc):
    # Baseline vocabulary: background loss is the plain cross-entropy toward
    # the one background embedding.
    rng = np.random.default_rng(2)
    base_emb = np.stack([enc.encode_named_category(s) for s in range(3)])
    sub = unit(rng, enc.dim)
    vocab = build_training_vocab(
        [0, 1, 2], base_emb, np.zeros((0, enc.ctx_dim)), sub, enc, baseline_mode=True
    )
    bg = tuple(make_proposal(unit(rng, enc.dim)) for _ in range(5))
    batch = ProposalBatch(foreground=(), background=bg)
    config = TrainConfig(temperature=0.2, baseline_mode=True, use_discovery=False)
    br = loss_final(batch, vocab, None, config)
    from ovlab.core import softmax_probs

    oracle = -np.mean(
        [math.log(softmax_probs(p.det_feature, list(vocab.embeddings), 0.2)[-1]) for p in bg]
    )
    assert br.background == pytest.approx(oracle, rel=1e-10)
    assert br.total == pytest.approx(br.background, abs=1e-12)


# -- analytic vs finite-difference gradients ---------------------------------------


@pytest.mark.parametrize("tau,tol", [(1.0, 1e-5), (0.05, 1e-4)])
@pytest.mark.parametrize(
    "component", ["foreground", "mass", "uniform", "switched", "pseudo", "final"]
)
def test_gradients_match_central_differences(enc, tau, tol, component):
    worst = 0.0
    for seed in range(5):
        batch, vocab, partition, config = _setup(enc, seed=seed, tau=tau)
        analytic = compute_gradients(batch, vocab, partition, config, component=component)
        fd, flips = finite_diff_gradients(
            batch, vocab, partition, config, h=1e-5, component=component
        )
        if flips:
            continue
        num = np.linalg.norm(analytic.flat() - fd.flat())
        den = max(float(np.linalg.norm(fd.flat())), 1e-12)
        worst = max(worst, num / den)
    assert worst <= tol


@pytest.mark.parametrize("tau,tol", [(1.0, 1e-5), (0.05, 1e-4)])
def test_feature_gradients_match_central_differences(enc, tau, tol):
    for seed in range(3):
        batch, vocab, partition, config = _setup(enc, seed=seed, tau=tau)
        grads = feature_gradients(batch, vocab, partition, config, component="final")
        h = 1e-6
        for group, n_check in (("foreground", 2), ("background", 2)):
            g = grads[group]
            proposals = batch.foreground if group == "foreground" else batch.background
            for idx in range(n_check):
                original = proposals[idx].det_feature

                def value_at(feat):
                    new = make_proposal(feat, gt_label=proposals[idx].gt_label)
                    fg = list(batch.foreground)
                    bg = list(batch.background)
                    (fg if group == "foreground" else bg)[idx] = new
                    b2 = ProposalBatch(foreground=tuple(fg), background=tuple(bg))
                    return loss_final(b2, vocab, partition, config).total

                fd = central_difference(value_at, original, h)
                rel = np.linalg.norm(fd - g[idx]) / max(np.linalg.norm(fd), 1e-12)
                assert rel < tol


def test_gradients_vanish_when_saturated(enc):
    # Perfectly classified orthogonal setup at sharp temperature: every
    # softmax is saturated and all gradients collapse.
    rng = np.random.default_rng(4)
    base_emb = np.eye(enc.dim)[:3]
    sub = np.eye(enc.dim)[3]
    ctx = init_context_vectors(2, seed=0, ctx_dim=enc.ctx_dim)
    vocab = build_training_vocab([0, 1, 2], base_emb, ctx, sub, enc, n_discovered=2)
    batch = ProposalBatch(
        foreground=tuple(make_proposal(base_emb[i], gt_label=i) for i in range(3)),
        background=(make_proposal(sub),),
    )
    config = TrainConfig(temperature=0.02, discovered_categories=2, extra_categories=0,
                         use_discovery=False)
    grads = compute_gradients(batch, vocab, None, config)
    assert np.all(np.abs(grads.flat()) < 1e-8)


def test_disabled_everything_zero_gradients(enc):
    batch, vocab, partition, config = _setup(enc, seed=5, n_fg=0)
    off = dataclasses.replace(config, use_prompts=False, use_discovery=False)
    grads = compute_gradients(batch, vocab, partition, off)
    np.testing.assert_array_equal(grads.flat(), 0.0)


def test_baseline_mode_has_no_context_gradients(enc):
    rng = np.random.default_rng(6)
    base_emb = np.stack([enc.encode_named_category(s) for s in range(3)])
    sub = unit(rng, enc.dim)
    vocab = build_training_vocab(
        [0, 1, 2], base_emb, np.zeros((0, enc.ctx_dim)), sub, enc, baseline_mode=True
    )
    batch = ProposalBatch(
        foreground=(make_proposal(unit(rng, enc.dim), gt_label=0),),
        background=(make_proposal(unit(rng, enc.dim)),),
    )
    config = TrainConfig(temperature=0.1, baseline_mode=True, use_discovery=False)
    grads = compute_gradients(batch, vocab, None, config)
    assert grads.context.shape == (0, enc.ctx_dim)
    assert np.any(grads.sub_background != 0.0)


def test_unknown_component_rejected(enc):
    batch, vocab, partition, config = _setup(enc, seed=7)
    with pytest.raises(ValueError):
        compute_gradients(batch, vocab, partition, config, component="bogus")


# -- finite-difference machinery ------------------------------------------------------


def test_central_difference_exact_on_quadratic():
    rng = np.random.default_rng(8)
    n = 6
    a = rng.standard_normal(n)
    b_mat = rng.standard_normal((n, n))
    b_mat = b_mat + b_mat.T

    def f(x):
        return float(a @ x + 0.5 * x @ b_mat @ x)

    x0 = rng.standard_normal(n)
    exact = a + b_mat @ x0
    for h in (1e-2, 1e-4):
        fd = central_difference(f, x0, h)
        np.testing.assert_allclose(fd, exact, rtol=1e-9, atol=1e-9)


def test_finite_difference_error_shrinks_quadratically(enc):
    # Halving h should shrink the truncation error roughly fourfold in the
    # smooth regime (h large enough that roundoff is negligible).
    batch, vocab, partition, config = _setup(enc, seed=9, tau=0.3)
    analytic = compute_gradients(batch, vocab, partition, config).flat()
    errs = []
    for h in (2e-3, 1e-3):
        fd, flips = finite_diff_gradients(batch, vocab, partition, config, h=h)
        assert flips == 0
        errs.append(np.linalg.norm(fd.flat() - analytic))
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.5


def test_branch_straddle_flagged(enc):
    # A proposal sitting exactly on the switch boundary: any perturbation can
    # flip its branch, and the stencil must report that.
    rng = np.random.default_rng(10)
    base_emb = np.eye(enc.dim)[:1]
    sub = np.eye(enc.dim)[1]
    ctx = init_context_vectors(1, seed=1, ctx_dim=enc.ctx_dim)
    vocab = build_training_vocab([0], base_emb, ctx, sub, enc, n_discovered=1)
    q = np.eye(enc.dim)[0] * 0.9 + np.eye(enc.dim)[1] * 0.1
    q /= np.linalg.norm(q)
    batch = ProposalBatch(foreground=(), background=(make_proposal(q),))
    config = TrainConfig(temperature=0.05, discovered_categories=1, extra_categories=0,
                         use_discovery=False)
    from ovlab.losses import batch_logits, mass_terms

    logits = batch_logits(batch.background_features(), vocab, config.temperature)
    _, _, masses = mass_terms(logits, vocab.background_indices())
    on_boundary = dataclasses.replace(config, relax_threshold=float(masses[0]))
    _, flips = finite_diff_gradients(batch, vocab, None, on_boundary, h=1e-5)
    assert flips > 0


def test_finite_diff_rejects_bad_step(enc):
    batch, vocab, partition, config = _setup(enc, seed=11)
    with pytest.raises(ValueError):
        finite_diff_gradients(batch, vocab, partition, config, h=0.0)


# -- optimizer ----------------------------------------------------------------------


def _zero_like(params):
    return Params(
        context_vectors=np.zeros_like(params.context_vectors),
        sub_background=np.zeros_like(params.sub_background),
    )


def test_sgd_zero_gradient_weight_decay_shrinkage():
    rng = np.random.default_rng(12)
    params = Params(context_vectors=rng.standard_normal((3, 4)), sub_background=unit(rng, 6))
    grads = Gradients(context=np.zeros((3, 4)), sub_background=np.zeros(6))
    new, _ = sgd_step(params, grads, _zero_like(params), lr=0.1, momentum=0.9, weight_decay=0.01)
    np.testing.assert_allclose(
        new.context_vectors, params.context_vectors * (1.0 - 0.1 * 0.01), rtol=1e-12
    )
    # The sub-background is re-projected to the sphere, undoing pure shrinkage.
    np.testing.assert_allclose(new.sub_background, params.sub_background, atol=1e-12)


def test_sgd_plain_gradient_descent():
    rng = np.random.default_rng(13)
    params = Params(context_vectors=rng.standard_normal((2, 3)), sub_background=unit(rng, 4))
    grads = Gradients(context=rng.standard_normal((2, 3)), sub_background=np.zeros(4))
    new, _ = sgd_step(params, grads, _zero_like(params), lr=0.5, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(
        new.context_vectors, params.context_vectors - 0.5 * grads.context, rtol=1e-12
    )


def test_sgd_velocity_recurrence():
    rng = np.random.default_rng(14)
    params = Params(context_vectors=rng.standard_normal((2, 2)), sub_background=unit(rng, 3))
    g1 = Gradients(context=rng.standard_normal((2, 2)), sub_background=rng.standard_normal(3))
    g2 = Gradients(context=rng.standard_normal((2, 2)), sub_background=rng.standard_normal(3))
    m, wd, lr = 0.9, 0.01, 0.1
    p1, v1 = sgd_step(params, g1, _zero_like(params), lr, m, wd)
    expected_v1 = g1.context + wd * params.context_vectors
    np.testing.assert_allclose(v1.context_vectors, expected_v1, rtol=1e-12)
    p2, v2 = sgd_step(p1, g2, v1, lr, m, wd)
    expected_v2 = m * expected_v1 + g2.context + wd * p1.context_vectors
    np.testing.assert_allclose(v2.context_vectors, expected_v2, rtol=1e-12)
    np.testing.assert_allclose(
        p2.context_vectors, p1.context_vectors - lr * expected_v2, rtol=1e-12
    )


def test_sgd_sub_background_unit_norm():
    rng = np.random.default_rng(15)
    params = Params(context_vectors=np.zeros((1, 2)), sub_background=unit(rng, 5))
    grads = Gradients(context=np.zeros((1, 2)), sub_background=rng.standard_normal(5))
    new, _ = sgd_step(params, grads, _zero_like(params), lr=0.3, momentum=0.0, weight_decay=0.0)
    assert abs(np.linalg.norm(new.sub_background) - 1.0) < 1e-12


def test_sgd_shape_mismatch():
    params = Params(context_vectors=np.zeros((2, 2)), sub_background=np.ones(3))
    grads = Gradients(context=np.zeros((3, 2)), sub_background=np.ones(3))
    with pytest.raises(ValueError):
        sgd_step(params, grads, _zero_like(params), 0.1, 0.9, 0.0)


# -- training loop -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_scenario():
    enc = MockTextEncoder(seed=5)
    config = ScenarioConfig(
        n_train_images=10, n_eval_images=4, n_base=4, n_novel=2, n_distractor=1, seed=1
    )
    return generate_scenario(config, enc)


def test_train_zero_steps_returns_initialization(small_scenario):
    config = TrainConfig(steps=0, seed=3)
    history, checkpoint = train(config, small_scenario)
    assert history.steps == ()
    enc = checkpoint.encoder_obj()
    params = initial_params(config, enc, checkpoint.n_discovered)
    np.testing.assert_array_equal(checkpoint.context_vectors, params.context_vectors)
    np.testing.assert_array_equal(checkpoint.sub_background, params.sub_background)


def test_train_deterministic(small_scenario):
    config = TrainConfig(steps=8, seed=4)
    h1, c1 = train(config, small_scenario)
    h2, c2 = train(config, small_scenario)
    assert c1.to_json() == c2.to_json()
    from ovlab.trainer import history_to_json

    assert history_to_json(h1) == history_to_json(h2)


def test_train_frozen_components_untouched(small_scenario):
    enc = MockTextEncoder(**small_scenario.encoder_config)
    base_before = np.stack(
        [enc.encode_named_category(small_scenario.name_seeds[i]) for i in small_scenario.base_ids]
    )
    proto_before = {k: v.copy() for k, v in small_scenario.prototypes.items()}
    config = TrainConfig(steps=6, seed=5)
    _, checkpoint = train(config, small_scenario)
    enc_after = MockTextEncoder(**small_scenario.encoder_config)
    base_after = np.stack(
        [enc_after.encode_named_category(small_scenario.name_seeds[i]) for i in small_scenario.base_ids]
    )
    np.testing.assert_array_equal(base_before, base_after)
    for k, v in small_scenario.prototypes.items():
        np.testing.assert_array_equal(v, proto_before[k])
    # Re-running with identical config reproduces identical frozen centers.
    _, checkpoint2 = train(config, small_scenario)
    np.testing.assert_array_equal(checkpoint.cluster_centers, checkpoint2.cluster_centers)


def test_train_records_history(small_scenario):
    config = TrainConfig(steps=5, seed=6)
    history, checkpoint = train(config, small_scenario)
    assert len(history.steps) == 5
    for i, step in enumerate(history.steps):
        assert step.step == i
        assert math.isfinite(step.breakdown.total)
        assert step.n_mass_branch + step.n_uniform_branch == len(step.breakdown.branches)
    assert checkpoint.branch_totals["mass_branch"] == sum(
        s.n_mass_branch for s in history.steps
    )


def test_train_aborts_on_non_finite_loss(small_scenario, monkeypatch):
    import ovlab.trainer as trainer_mod

    def bad_loss(batch, vocab, partition, config, component="final"):
        from ovlab.losses import LossBreakdown

        breakdown = LossBreakdown(
            foreground=math.nan, background=0.0, pseudo=0.0, total=math.nan,
            branches=(), n_foreground=0, n_background=0,
        )
        zero = Gradients(np.zeros_like(vocab.context_vectors), np.zeros(vocab.dim))
        return breakdown, zero

    monkeypatch.setattr(trainer_mod, "loss_and_gradients", bad_loss)
    with pytest.raises(TrainingDivergedError, match="step 0"):
        trainer_mod.train(TrainConfig(steps=3, seed=7), small_scenario)


def test_checkpoint_round_trip(tmp_path, small_scenario):
    config = TrainConfig(steps=4, seed=8)
    _, checkpoint = train(config, small_scenario)
    path = tmp_path / "ck.json"
    checkpoint.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.to_json() == checkpoint.to_json()
    np.testing.assert_array_equal(loaded.context_vectors, checkpoint.context_vectors)
    vocab = loaded.build_vocab()
    assert vocab.size == len(small_scenario.base_ids) + loaded.context_vectors.shape[0] + 1


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        Checkpoint.load(path)


def test_checkpoint_serializes_vocabulary_records(small_scenario):
    import json

    _, checkpoint = train(TrainConfig(steps=3, seed=10), small_scenario)
    payload = json.loads(checkpoint.to_json())
    records = payload["vocabulary"]
    vocab = checkpoint.build_vocab()
    assert len(records) == vocab.size
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "base" and kinds[-1] == "sub_background"
    under = [r for r in records if r["kind"] == "underlying"]
    assert all(r["context_vector"] is not None for r in under)


def test_hyperparameter_defaults_pinned():
    # Shared experiment constants; changing any of these silently would
    # invalidate every calibrated suite.
    config = TrainConfig()
    assert config.temperature == 0.02
    assert config.relax_threshold == 0.02
    assert config.score_threshold == 0.95
    assert config.negative_weight == 0.05
    assert config.extra_categories == 10
    assert config.momentum == 0.90
    assert config.weight_decay == 2.5e-5
