"""Objective composition, gradient correctness, SGD, and the training loop."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from ovlab.encoder import MockTextEncoder, init_context_vectors
from ovlab.losses import COMPONENTS, MASS_BRANCH, UNIFORM_BRANCH, ProposalBatch, proposal_blocks
from ovlab.metrics import STANDARD_COMBOS
from ovlab.pseudo import BackgroundPartition, PseudoLabel
from ovlab.synth import ScenarioConfig, generate_scenario
from ovlab.trainer import (
    Checkpoint,
    Params,
    TrainConfig,
    TrainingDivergedError,
    compute_gradients,
    finite_diff_gradients,
    history_to_json,
    initial_params,
    loss_and_gradients,
    loss_final,
    prepare_background,
    prepare_discovery,
    sgd_step,
    train,
)

from oracles import central_difference, raw_proposal_blocks, two_block_sgd_step, unfused_loss_and_gradients
from util import make_proposal, training_vocab, unit


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
    vocab = training_vocab(
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
            (make_proposal(unit(rng, enc.dim)), PseudoLabel(int(rng.integers(n_disc)), 0.99))
            for _ in range(3)
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
    vocab = training_vocab(
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
        blocks = [proposal_blocks(batch, partition, vocab)]
        fd, flips = finite_diff_gradients(blocks, vocab, config, h=1e-5, component=component)
        if flips:
            continue
        num = np.linalg.norm(analytic.flat - fd.flat)
        den = max(float(np.linalg.norm(fd.flat)), 1e-12)
        worst = max(worst, num / den)
    assert worst <= tol


def test_gradients_vanish_when_saturated(enc):
    # Perfectly classified orthogonal setup at sharp temperature: every
    # softmax is saturated and all gradients collapse.
    rng = np.random.default_rng(4)
    base_emb = np.eye(enc.dim)[:3]
    sub = np.eye(enc.dim)[3]
    ctx = init_context_vectors(2, seed=0, ctx_dim=enc.ctx_dim)
    vocab = training_vocab([0, 1, 2], base_emb, ctx, sub, enc, n_discovered=2)
    batch = ProposalBatch(
        foreground=tuple(make_proposal(base_emb[i], gt_label=i) for i in range(3)),
        background=(make_proposal(sub),),
    )
    config = TrainConfig(temperature=0.02, discovered_categories=2, extra_categories=0,
                         use_discovery=False)
    grads = compute_gradients(batch, vocab, None, config)
    assert np.all(np.abs(grads.flat) < 1e-8)


def test_disabled_everything_zero_gradients(enc):
    batch, vocab, partition, config = _setup(enc, seed=5, n_fg=0)
    off = dataclasses.replace(config, use_prompts=False, use_discovery=False)
    grads = compute_gradients(batch, vocab, partition, off)
    np.testing.assert_array_equal(grads.flat, 0.0)


def test_baseline_mode_has_no_context_gradients(enc):
    rng = np.random.default_rng(6)
    base_emb = np.stack([enc.encode_named_category(s) for s in range(3)])
    sub = unit(rng, enc.dim)
    vocab = training_vocab(
        [0, 1, 2], base_emb, np.zeros((0, enc.ctx_dim)), sub, enc, baseline_mode=True
    )
    batch = ProposalBatch(
        foreground=(make_proposal(unit(rng, enc.dim), gt_label=0),),
        background=(make_proposal(unit(rng, enc.dim)),),
    )
    config = TrainConfig(temperature=0.1, baseline_mode=True, use_discovery=False)
    grads = compute_gradients(batch, vocab, None, config)
    assert grads.context_vectors.shape == (0, enc.ctx_dim)
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
    analytic = compute_gradients(batch, vocab, partition, config).flat
    errs = []
    for h in (2e-3, 1e-3):
        fd, flips = finite_diff_gradients([proposal_blocks(batch, partition, vocab)], vocab, config, h=h)
        assert flips == 0
        errs.append(np.linalg.norm(fd.flat - analytic))
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.5


def test_branch_straddle_flagged(enc):
    # A proposal sitting exactly on the switch boundary: any perturbation can
    # flip its branch, and the stencil must report that.
    rng = np.random.default_rng(10)
    base_emb = np.eye(enc.dim)[:1]
    sub = np.eye(enc.dim)[1]
    ctx = init_context_vectors(1, seed=1, ctx_dim=enc.ctx_dim)
    vocab = training_vocab([0], base_emb, ctx, sub, enc, n_discovered=1)
    q = np.eye(enc.dim)[0] * 0.9 + np.eye(enc.dim)[1] * 0.1
    q /= np.linalg.norm(q)
    batch = ProposalBatch(foreground=(), background=(make_proposal(q),))
    config = TrainConfig(temperature=0.05, discovered_categories=1, extra_categories=0,
                         use_discovery=False)
    from ovlab.core import cosine_matrix, log_softmax_rows
    from ovlab.losses import mass_terms

    features = np.stack([p.det_feature for p in batch.background])
    logits = cosine_matrix(features, vocab.embeddings) / config.temperature
    _, _, masses = mass_terms(log_softmax_rows(logits)[:, vocab.background_indices()])
    on_boundary = dataclasses.replace(config, relax_threshold=float(masses[0]))
    _, flips = finite_diff_gradients([proposal_blocks(batch, None, vocab)], vocab, on_boundary, h=1e-5)
    assert flips > 0


def test_finite_diff_rejects_bad_step(enc):
    batch, vocab, partition, config = _setup(enc, seed=11)
    with pytest.raises(ValueError):
        finite_diff_gradients([proposal_blocks(batch, partition, vocab)], vocab, config, h=0.0)


# -- optimizer ----------------------------------------------------------------------


def _zero_like(params):
    return Params(
        context_vectors=np.zeros_like(params.context_vectors),
        sub_background=np.zeros_like(params.sub_background),
    )


def test_sgd_zero_gradient_weight_decay_shrinkage():
    rng = np.random.default_rng(12)
    params = Params(context_vectors=rng.standard_normal((3, 4)), sub_background=unit(rng, 6))
    grads = Params(context_vectors=np.zeros((3, 4)), sub_background=np.zeros(6))
    new, _ = sgd_step(params, grads, _zero_like(params), lr=0.1, momentum=0.9, weight_decay=0.01)
    np.testing.assert_allclose(
        new.context_vectors, params.context_vectors * (1.0 - 0.1 * 0.01), rtol=1e-12
    )
    # The sub-background is re-projected to the sphere, undoing pure shrinkage.
    np.testing.assert_allclose(new.sub_background, params.sub_background, atol=1e-12)


def test_sgd_plain_gradient_descent():
    rng = np.random.default_rng(13)
    params = Params(context_vectors=rng.standard_normal((2, 3)), sub_background=unit(rng, 4))
    grads = Params(context_vectors=rng.standard_normal((2, 3)), sub_background=np.zeros(4))
    new, _ = sgd_step(params, grads, _zero_like(params), lr=0.5, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(
        new.context_vectors, params.context_vectors - 0.5 * grads.context_vectors, rtol=1e-12
    )


def test_sgd_velocity_recurrence():
    rng = np.random.default_rng(14)
    params = Params(context_vectors=rng.standard_normal((2, 2)), sub_background=unit(rng, 3))
    g1 = Params(context_vectors=rng.standard_normal((2, 2)), sub_background=rng.standard_normal(3))
    g2 = Params(context_vectors=rng.standard_normal((2, 2)), sub_background=rng.standard_normal(3))
    m, wd, lr = 0.9, 0.01, 0.1
    p1, v1 = sgd_step(params, g1, _zero_like(params), lr, m, wd)
    expected_v1 = g1.context_vectors + wd * params.context_vectors
    np.testing.assert_allclose(v1.context_vectors, expected_v1, rtol=1e-12)
    p2, v2 = sgd_step(p1, g2, v1, lr, m, wd)
    expected_v2 = m * expected_v1 + g2.context_vectors + wd * p1.context_vectors
    np.testing.assert_allclose(v2.context_vectors, expected_v2, rtol=1e-12)
    np.testing.assert_allclose(
        p2.context_vectors, p1.context_vectors - lr * expected_v2, rtol=1e-12
    )


def test_sgd_sub_background_unit_norm():
    rng = np.random.default_rng(15)
    params = Params(context_vectors=np.zeros((1, 2)), sub_background=unit(rng, 5))
    grads = Params(context_vectors=np.zeros((1, 2)), sub_background=rng.standard_normal(5))
    new, _ = sgd_step(params, grads, _zero_like(params), lr=0.3, momentum=0.0, weight_decay=0.0)
    assert abs(np.linalg.norm(new.sub_background) - 1.0) < 1e-12


def test_sgd_shape_mismatch():
    params = Params(context_vectors=np.zeros((2, 3)), sub_background=np.ones(3))
    # Another context shape (with and without another flat size), or another sub-background size.
    for ctx, sub in (((3, 3), 3), ((3, 2), 3), ((2, 3), 4)):
        grads = Params(context_vectors=np.zeros(ctx), sub_background=np.ones(sub))
        with pytest.raises(ValueError, match="do not match"):
            sgd_step(params, grads, _zero_like(params), 0.1, 0.9, 0.0)


@pytest.mark.parametrize("n_ctx", [0, 5])
def test_flat_sgd_updates_like_the_two_block_update(n_ctx):
    # One update of the flat vector must equal the separate updates of the
    # two blocks, to the bit, step after step.
    rng = np.random.default_rng(16 + n_ctx)
    params = oracle = Params(rng.standard_normal((n_ctx, 4)), unit(rng, 6))
    velocity = oracle_velocity = Params(np.zeros((n_ctx, 4)), np.zeros(6))
    for _ in range(50):
        grads = Params(context_vectors=rng.standard_normal((n_ctx, 4)), sub_background=rng.standard_normal(6))
        params, velocity = sgd_step(params, grads, velocity, lr=0.1, momentum=0.9, weight_decay=2.5e-5)
        oracle, oracle_velocity = two_block_sgd_step(oracle, grads, oracle_velocity, 0.1, 0.9, 2.5e-5)
        for got, want in ((params, oracle), (velocity, oracle_velocity)):
            assert got.context_vectors.tobytes() == want.context_vectors.tobytes()
            assert got.sub_background.tobytes() == want.sub_background.tobytes()
    # Both blocks are views into the one flat vector the update wrote.
    assert params.sub_background.base is params.flat and params.flat.shape == (n_ctx * 4 + 6,)


# -- training loop -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_scenario():
    enc = MockTextEncoder(seed=5)
    config = ScenarioConfig(
        n_train_images=10, n_eval_images=4, n_base=4, n_novel=2, n_distractor=1, seed=1
    )
    return generate_scenario(config, enc)


def test_baseline_trains_on_a_world_without_training_images():
    # No image to sample: every step sees an empty batch, so nothing moves.
    scenario = generate_scenario(ScenarioConfig(n_train_images=0, n_eval_images=1, seed=2),
                                 MockTextEncoder(seed=5))
    config = TrainConfig(steps=3, seed=4, baseline_mode=True, use_discovery=False)
    history, checkpoint = train(config, scenario)
    assert [s.breakdown.total for s in history.steps] == [0.0, 0.0, 0.0]


def test_train_zero_steps_returns_initialization(small_scenario):
    config = TrainConfig(steps=0, seed=3)
    history, checkpoint = train(config, small_scenario)
    assert history.steps == ()
    enc = checkpoint.encoder
    params = initial_params(config, enc, checkpoint.n_discovered)
    np.testing.assert_array_equal(checkpoint.context_vectors, params.context_vectors)
    np.testing.assert_array_equal(checkpoint.sub_background, params.sub_background)


def test_train_deterministic(small_scenario):
    config = TrainConfig(steps=8, seed=4)
    h1, c1 = train(config, small_scenario)
    h2, c2 = train(config, small_scenario)
    assert c1.to_json() == c2.to_json()
    assert history_to_json(h1) == history_to_json(h2)


def test_train_frozen_components_untouched(small_scenario):
    # Training uses the scenario's own encoder, so that encoder must come out as it went in.
    enc = small_scenario.encoder
    enc_before = enc.config()
    base_before = np.stack(
        [enc.encode_named_category(small_scenario.name_seeds[i]) for i in small_scenario.base_ids]
    )
    proto_before = {k: v.copy() for k, v in small_scenario.prototypes.items()}
    config = TrainConfig(steps=6, seed=5)
    _, checkpoint = train(config, small_scenario)
    assert checkpoint.encoder.config() == small_scenario.encoder.config() == enc_before
    base_after = np.stack(
        [enc.encode_named_category(small_scenario.name_seeds[i]) for i in small_scenario.base_ids]
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

    def bad_loss(blocks, vocab, config, component="final"):
        from ovlab.losses import LossBreakdown

        breakdown = LossBreakdown(
            foreground=math.nan, background=0.0, pseudo=0.0, total=math.nan,
            branches=(),
        )
        zero = Params(np.zeros_like(vocab.context_vectors), np.zeros(vocab.dim))
        return breakdown, zero

    monkeypatch.setattr(trainer_mod, "loss_and_gradients", bad_loss)
    with pytest.raises(TrainingDivergedError, match="step 0"):
        trainer_mod.train(TrainConfig(steps=3, seed=7), small_scenario)


TRAINING_TOGGLES = sorted({(c.baseline_mode, c.use_prompts, c.use_discovery) for c in STANDARD_COMBOS})


@pytest.mark.parametrize("baseline_mode,use_prompts,use_discovery", TRAINING_TOGGLES)
def test_fused_step_trains_like_the_unfused_oracle(small_scenario, monkeypatch, baseline_mode,
                                                   use_prompts, use_discovery):
    # The step computes each quantity once (unit rows per run, one log-softmax,
    # one gradient, one encoder forward); the oracle recomputes each where it
    # is used. Both must train to the same bytes under every ablation toggle set.
    import ovlab.trainer as trainer_mod

    config = TrainConfig(steps=20, seed=3, baseline_mode=baseline_mode, use_prompts=use_prompts,
                         use_discovery=use_discovery)
    prep = prepare_discovery(small_scenario, config)
    history, checkpoint = train(config, small_scenario, prep)
    monkeypatch.setattr(trainer_mod, "proposal_blocks", raw_proposal_blocks)
    monkeypatch.setattr(trainer_mod, "loss_and_gradients", unfused_loss_and_gradients)
    oracle_history, oracle_checkpoint = train(config, small_scenario, prep)
    assert history_to_json(history) == history_to_json(oracle_history)
    assert checkpoint.to_json() == oracle_checkpoint.to_json()
    assert history.totals()["pseudo_positive"] > 0 or not use_discovery


def test_every_component_gradient_matches_the_unfused_oracle(monkeypatch):
    # Training reaches the oracle only through "final"; this checks every
    # component under every toggle pair, with a threshold that puts some
    # background proposals on each switch branch. The oracle gets the same
    # instance stacked without unit-normalizing, as training's oracle does.
    import ovlab.cli as cli

    seen = set()
    for seed, tau in itertools.product(range(3), (1.0, 0.05, 0.02)):
        blocks, vocab, config = cli._gradcheck_instance(seed, tau)
        monkeypatch.setattr(cli, "proposal_blocks", raw_proposal_blocks)
        raw, _, _ = cli._gradcheck_instance(seed, tau)
        monkeypatch.undo()
        for use_prompts, use_discovery in itertools.product((True, False), repeat=2):
            cfg = dataclasses.replace(config, relax_threshold=0.3, use_prompts=use_prompts,
                                      use_discovery=use_discovery)
            for component in COMPONENTS:
                breakdown, grads = loss_and_gradients(blocks, vocab, cfg, component)
                oracle_breakdown, oracle = unfused_loss_and_gradients(raw, vocab, cfg, component)
                assert breakdown == oracle_breakdown, (seed, tau, use_prompts, use_discovery, component)
                for block in ("context_vectors", "sub_background"):
                    got, want = getattr(grads, block), getattr(oracle, block)
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (component, block)
                seen.update(breakdown.branches)
    assert seen == {MASS_BRANCH, UNIFORM_BRANCH}


def test_every_step_calls_the_hooked_layers(small_scenario, monkeypatch):
    # The benchmark times these layers by wrapping them by name wherever a
    # module binds them; a step that stopped calling one would leave its
    # metric reading 0.
    import sys

    from ovlab.encoder import MockTextEncoder as Encoder

    homes = {"sgd_step": "ovlab.trainer", "build_training_vocab": "ovlab.vocab",
             "nll_terms": "ovlab.losses", "mass_terms": "ovlab.losses", "uniform_terms": "ovlab.losses"}
    calls = dict.fromkeys([*homes, "encode_context_vjp"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, home in homes.items():
        original = getattr(sys.modules[home], name)
        for module in [m for n, m in sys.modules.items() if n.startswith("ovlab")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(Encoder, "encode_context_vjp", counted("encode_context_vjp", Encoder.encode_context_vjp))

    per_run = {}
    for steps in (0, 3):
        config = TrainConfig(steps=steps, seed=4)
        prep = prepare_discovery(small_scenario, config)
        calls.update(dict.fromkeys(calls, 0))
        train(config, small_scenario, prep)
        per_run[steps] = dict(calls)
    per_step = {name: per_run[3][name] - per_run[0][name] for name in calls}
    for name in ("sgd_step", "build_training_vocab", "encode_context_vjp"):
        assert per_step[name] == 3, per_step
    for name in ("nll_terms", "mass_terms", "uniform_terms"):
        assert per_step[name] >= 3, per_step


STEP_CALL_BUDGET = 52  # Python-level calls per training step


def test_a_training_step_stays_within_its_call_budget(small_scenario):
    # Every Python-level call of a step costs far more than the step's
    # arithmetic. Counted as ``sys.setprofile`` "call" events of a 3-step run
    # minus those of a 0-step run, each run once before it is counted, with
    # the garbage collector paused: a collection's calls depend on the tests
    # that ran before.
    import gc
    import sys

    counts = {}
    for steps in (0, 3):
        config = TrainConfig(steps=steps, seed=4)
        prep = prepare_discovery(small_scenario, config)
        train(config, small_scenario, prep)
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            train(config, small_scenario, prep)
        finally:
            sys.setprofile(None)
            gc.enable()
        counts[steps] = calls
    per_step = (counts[3] - counts[0]) / 3
    assert per_step <= STEP_CALL_BUDGET, per_step


def test_train_refuses_a_discovery_prep_it_cannot_use(small_scenario):
    prep = prepare_discovery(small_scenario, TrainConfig(steps=1, seed=1, use_discovery=False))
    assert prep.centers is None and prep.partitions is None
    with pytest.raises(ValueError, match="other settings"):
        train(TrainConfig(steps=1, seed=2, use_discovery=False), small_scenario, prep)
    # Any setting other than the module toggles counts, not only those discovery reads.
    with pytest.raises(ValueError, match="other settings"):
        train(TrainConfig(steps=1, seed=1, learning_rate=0.2, use_discovery=False), small_scenario, prep)
    with pytest.raises(ValueError, match="no cluster centers"):
        train(TrainConfig(steps=1, seed=1), small_scenario, prep)
    # A run that differs only in the module toggles uses the prep.
    _, checkpoint = train(TrainConfig(steps=1, seed=1, use_prompts=False, use_discovery=False),
                          small_scenario, prep)
    assert checkpoint.n_discovered == prep.n_discovered
    # A baseline run keeps nothing of any prep.
    _, checkpoint = train(TrainConfig(steps=1, seed=2, baseline_mode=True), small_scenario, prep)
    assert checkpoint.n_discovered == 0 and checkpoint.cluster_centers is None


def test_discovery_prep_calls_the_module_kmeans_once_per_clustering(small_scenario, monkeypatch):
    # The bench times discovery by hooking ``kmeans`` in both namespaces that
    # bind it; a sweep makes one call per k, and a pinned count one call.
    import ovlab.discovery
    import ovlab.trainer

    calls = []
    kmeans = ovlab.discovery.kmeans

    def counted(features, k, seed):
        calls.append(k)
        return kmeans(features, k, seed)

    for module in (ovlab.discovery, ovlab.trainer):
        monkeypatch.setattr(module, "kmeans", counted)
    config = TrainConfig(seed=2, k_min=2, k_max=6)
    prepare_background(small_scenario, config)
    assert calls == [2, 3, 4, 5, 6]
    calls.clear()
    prepare_background(small_scenario, dataclasses.replace(config, discovered_categories=3))
    assert calls == [3]


def test_train_refuses_a_discovery_prep_of_another_scenario():
    enc = MockTextEncoder(seed=7)
    one, two = (generate_scenario(ScenarioConfig(n_train_images=10, n_eval_images=0, seed=s), enc)
                for s in (1, 2))
    config = TrainConfig(steps=5, seed=1)
    foreign = prepare_discovery(one, config)
    for run in (config, dataclasses.replace(config, use_discovery=False),
                dataclasses.replace(config, baseline_mode=True)):
        with pytest.raises(ValueError, match="another scenario"):
            train(run, two, foreign)
    # The scenario's own prep is accepted, and trains as a run that makes its own.
    _, own = train(config, two, prepare_discovery(two, config))
    _, fresh = train(config, two)
    assert own.to_json() == fresh.to_json()


@pytest.mark.parametrize("config", [
    TrainConfig(steps=4, seed=8),
    TrainConfig(steps=4, seed=8, baseline_mode=True),  # empty context block, no centers
    TrainConfig(steps=4, seed=8, use_discovery=False),  # context block, no centers
], ids=["full", "baseline", "no-discovery"])
def test_checkpoint_round_trip(tmp_path, small_scenario, config):
    _, checkpoint = train(config, small_scenario)
    path = tmp_path / "ck.json"
    checkpoint.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.to_json() == checkpoint.to_json()
    assert (checkpoint.cluster_centers is None) == (config.baseline_mode or not config.use_discovery)
    again = tmp_path / "again.json"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()  # save, load, save: the same bytes
    assert loaded.config == config and loaded.encoder.config() == checkpoint.encoder.config()
    np.testing.assert_array_equal(loaded.context_vectors, checkpoint.context_vectors)
    assert (loaded.cluster_centers is None) == (checkpoint.cluster_centers is None)
    vocab = loaded.build_vocab()
    assert vocab.size == len(small_scenario.base_ids) + loaded.context_vectors.shape[0] + 1


def test_checkpoint_load_refuses_context_vectors_of_another_width(tmp_path, small_scenario):
    import json

    _, checkpoint = train(TrainConfig(steps=1, seed=8), small_scenario)
    rec = json.loads(checkpoint.to_json())
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(dict(rec, context_vectors=[row[:-1] for row in rec["context_vectors"]])))
    with pytest.raises(ValueError, match="context vectors of shape"):
        Checkpoint.load(path)


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


FLOAT_FIELDS = ("temperature", "learning_rate", "nms_iou", "score_threshold")
BOOL_FIELDS = ("use_prompts", "use_discovery", "baseline_mode")


@pytest.mark.parametrize(
    "name",
    ["steps", "batch_images", "seed", "k_min", "k_max", "extra_categories", "discovered_categories",
     *FLOAT_FIELDS, *BOOL_FIELDS],
)
def test_train_config_rejects_non_integer_counts(name):
    # Each field admits only its annotated type; an accepted value is stored unconverted.
    if name in FLOAT_FIELDS:
        bad = ("x", "0.5", True, None, [0.5], math.nan, math.inf, -math.inf)
        good = (np.int64(1), 1, 0.25)
    elif name in BOOL_FIELDS:
        bad, good = (1, 0, "no", "false", None), (False, True)
    else:
        bad, good = (2.5, 3.0, "3", True), (np.int64(3), 3)
    for value in bad:
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})
    for value in good:
        stored = getattr(TrainConfig(**{name: value}), name)
        assert stored == value and type(stored) is type(value)
    assert TrainConfig(discovered_categories=None).discovered_categories is None


@pytest.mark.parametrize(
    "name,value",
    [pytest.param("negative_weight", -0.1, id="negative_weight"),
     pytest.param("relax_threshold", 5.0, id="relax_threshold_above_one"),
     pytest.param("relax_threshold", -0.01, id="relax_threshold_negative"),
     pytest.param("momentum", 1.0, id="momentum_one"),
     pytest.param("momentum", 3.0, id="momentum_above_one"),
     pytest.param("gt_iou_cut", 5.0, id="gt_iou_cut_above_one"),
     pytest.param("gt_iou_cut", 0.0, id="gt_iou_cut_zero"),
     pytest.param("nms_iou", 0.0, id="nms_iou_zero"),
     pytest.param("pseudo_nms_iou", 1.5, id="pseudo_nms_iou_above_one")],
)
def test_train_config_rejects_out_of_range_values(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})
