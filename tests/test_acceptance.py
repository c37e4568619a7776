"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``) and
asserts both the substance of the criterion and its runtime budget. The
reference scenario is the shipped default configuration; every run is
deterministic given the seeds fixed here.
"""

import math
import statistics
import time

import numpy as np
import pytest

from ovlab.cli import gradcheck_table, main
from ovlab.core import log_softmax_rows
from ovlab.discovery import kmeans, estimate_category_count, nms_indices, iou
from ovlab.encoder import MockTextEncoder
from ovlab.losses import (
    MASS_BRANCH,
    UNIFORM_BRANCH,
    mass_terms,
    objective_terms,
    proposal_groups,
    stack_blocks,
)
from ovlab.metrics import AblationConfig, run_ablation
from ovlab.pseudo import _center_probs, _labels, generate_pseudo_labels
from ovlab.rectify import compute_shrinking_factors, score
from ovlab.synth import ScenarioConfig, generate_scenario
from ovlab.trainer import TrainConfig, filtered_background, prepare_background, train

from oracles import records
from util import block_sums, make_vocab, unit


def _report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail}; {elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.1f}s exceeded {budget}s"


@pytest.fixture(scope="module")
def reference_scenario():
    return generate_scenario(ScenarioConfig(seed=0), MockTextEncoder(seed=7))


def _random_inference_vocab(rng, n_novel):
    d = 16
    n_base = int(rng.integers(2, 5))
    n_under = int(rng.integers(1, 5))
    return make_vocab(
        base_emb=np.array([unit(rng, d) for _ in range(n_base)]),
        under_emb=np.array([unit(rng, d) for _ in range(n_under)]),
        sub=unit(rng, d),
        novel_emb=np.array([unit(rng, d) for _ in range(n_novel)]) if n_novel else None,
        inference=True,
    )


def test_criterion_1_normalization_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst_sum = 0.0
    worst_recon = 0.0
    pairs = 0
    for _ in range(100):
        vocab = _random_inference_vocab(rng, n_novel=int(rng.integers(0, 4)))
        cats = list(vocab.embeddings)
        for _ in range(10):
            q = unit(rng, 16)
            for tau in (1.0, 0.02):
                probs, bg_mass = score(q[None, :], vocab, tau)
                worst_sum = max(worst_sum, abs(float(probs.sum() + bg_mass[0]) - 1.0))
                foreground, underlying, sub_background = block_sums(q, vocab, tau)
                brute = math.fsum(
                    math.exp(float(np.dot(q, e) / np.linalg.norm(e)) / tau) for e in cats
                )
                recon = foreground + underlying + sub_background
                worst_recon = max(worst_recon, abs(recon - brute) / brute)
            pairs += 1
    elapsed = time.monotonic() - start
    ok = pairs == 1000 and worst_sum < 1e-9 and worst_recon < 1e-9
    _report(
        "criterion 1 (normalization)",
        ok,
        f"1000 pairs, worst prob-sum dev {worst_sum:.2e}, worst denominator dev {worst_recon:.2e}",
        elapsed,
        5.0,
    )


def test_criterion_2_gradient_suite():
    start = time.monotonic()
    rows, ok = gradcheck_table(n_instances=50, seed=0)
    elapsed = time.monotonic() - start
    worst = max(r["worst_rel_error"] for r in rows)
    flagged = sum(r["flagged"] for r in rows)
    _report(
        "criterion 2 (gradients)",
        ok,
        f"50 instances x 6 components x 2 temperatures, worst rel err {worst:.2e}, "
        f"{flagged} flagged stencils skipped",
        elapsed,
        60.0,
    )


def test_criterion_3_rectification_suite():
    start = time.monotonic()
    rng = np.random.default_rng(3003)
    cases = 0
    ok = True
    detail = ""
    worst_oracle = 0.0
    for v in range(50):
        n_novel = 0 if v % 5 == 0 else int(rng.integers(1, 4))
        vocab = _random_inference_vocab(rng, n_novel=n_novel)
        tau = 0.02 if v % 2 == 0 else 1.0
        factors = compute_shrinking_factors(vocab, tau)
        # (a) factors in [0, 1]; brute-force factor oracle.
        if not (np.all(factors >= 0.0) and np.all(factors <= 1.0)):
            ok, detail = False, "factor outside [0,1]"
            break
        emb = vocab.embeddings
        start_u = vocab.block_indices.underlying.start
        for j in range(vocab.n_underlying):
            anchor = emb[start_u + j]
            scores = [
                math.exp(float(np.dot(anchor, e) / (np.linalg.norm(anchor) * np.linalg.norm(e))) / tau)
                for e in emb
            ]
            denom = math.fsum(s for i, s in enumerate(scores) if i != start_u + j)
            shared = math.fsum(scores[i] for i in range(*vocab.novel_slice.indices(vocab.size)))
            expected = min(1.0, max(0.0, 1.0 - shared / denom))
            # Near-zero factors arise from 1 - x with x ~ 1: relative
            # precision is unattainable there in float64 for any
            # implementation, so the oracle match carries an absolute floor.
            dev = abs(factors[j] - expected)
            if dev > 1e-12:
                worst_oracle = max(worst_oracle, dev / max(expected, 1e-300))
        for _ in range(20):
            q = unit(rng, 16)
            underlying = block_sums(q, vocab, tau)[1]
            shrunk = block_sums(q, vocab, tau, factors)[1]
            plain = score(q[None, :], vocab, tau)[0][0]
            fixed = score(q[None, :], vocab, tau, factors)[0][0]
            # (b) shrunken sum never exceeds the plain sum.
            if shrunk > underlying * (1 + 1e-12):
                ok, detail = False, "rectified sum exceeded plain sum"
                break
            # (c) rectification never lowers a foreground probability.
            if not np.all(fixed >= plain - 1e-15):
                ok, detail = False, "rectified probability decreased"
                break
            # (d) empty novel block: exact identity.
            if n_novel == 0 and not np.allclose(fixed, plain, atol=1e-12):
                ok, detail = False, "identity violated with empty novel block"
                break
            # (e) term-by-term oracle for the rectified probabilities.
            qn = q / np.linalg.norm(q)
            scores = [
                math.exp(float(np.dot(qn, e / np.linalg.norm(e))) / tau) for e in emb
            ]
            shrunk_oracle = math.fsum(
                scores[start_u + j] * factors[j] for j in range(vocab.n_underlying)
            )
            fg_n = vocab.n_base + vocab.n_novel
            denom_oracle = math.fsum(scores[:fg_n]) + shrunk_oracle + scores[-1]
            for i in range(fg_n):
                expected = scores[i] / denom_oracle
                dev = abs(fixed[i] - expected) / max(expected, 1e-300)
                worst_oracle = max(worst_oracle, dev)
            cases += 1
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and cases == 1000 and worst_oracle < 1e-10
    _report(
        "criterion 3 (rectification)",
        ok,
        detail or f"1000 cases, worst oracle dev {worst_oracle:.2e}",
        elapsed,
        10.0,
    )


def _acceptance_blobs(rng, n_blobs=5, per_blob=200, d=16, sep_to_noise=8.0):
    centers = []
    while len(centers) < n_blobs:
        c = unit(rng, d)
        if all(abs(float(c @ p)) < 0.5 for p in centers):
            centers.append(c)
    dists = [
        np.linalg.norm(centers[i] - centers[j])
        for i in range(n_blobs)
        for j in range(i + 1, n_blobs)
    ]
    sigma = min(dists) / (sep_to_noise * np.sqrt(d))
    pts = []
    for c in centers:
        for _ in range(per_blob):
            v = c + sigma * rng.standard_normal(d)
            pts.append(v / np.linalg.norm(v))
    return np.array(pts)


def test_criterion_4_discovery_suite():
    start = time.monotonic()
    hits = 0
    monotone = True
    for seed in range(20):
        rng = np.random.default_rng([4004, seed])
        pts = _acceptance_blobs(rng)
        estimate = estimate_category_count(pts, 2, 10, seed=seed)
        hits += estimate.count == 5
        for k in (2, 5, 9):
            hist = kmeans(pts, k, seed=seed).objective_history
            monotone = monotone and all(
                hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1)
            )

    def brute_nms(boxes, scores, thr):
        remaining = list(range(len(boxes)))
        kept = []
        while remaining:
            best = min(remaining, key=lambda i: (-scores[i], i))
            kept.append(best)
            remaining = [i for i in remaining if i != best and iou(boxes[i], boxes[best]) < thr]
        return kept

    rng = np.random.default_rng(4005)
    nms_ok = True
    for trial in range(200):
        boxes = []
        for _ in range(20):
            x1, y1 = rng.uniform(0, 60, 2)
            boxes.append((x1, y1, x1 + rng.uniform(1, 25), y1 + rng.uniform(1, 25)))
        scores = rng.uniform(0, 1, 20).round(2).tolist()
        thr = (0.3, 0.5, 0.7)[trial % 3]
        nms_ok = nms_ok and nms_indices(boxes, scores, thr) == brute_nms(boxes, scores, thr)
    elapsed = time.monotonic() - start
    ok = hits >= 19 and monotone and nms_ok
    _report(
        "criterion 4 (discovery)",
        ok,
        f"count recovered in {hits}/20 seeds, objectives monotone: {monotone}, "
        f"NMS oracle match: {nms_ok}",
        elapsed,
        30.0,
    )


def test_criterion_5_pseudo_label_suite(reference_scenario):
    start = time.monotonic()
    scen = reference_scenario
    ids = sorted(scen.prototypes)
    protos = np.stack([scen.prototypes[i] for i in ids])

    total = hit = 0
    for image in scen.eval_images:
        for p in records(image):
            if p.oracle.generative_label is None:
                continue
            pred = ids[int(np.argmax(protos @ p.img_feature))]
            hit += pred == p.oracle.generative_label
            total += 1
    bayes = hit / total

    # Cluster at the generative hidden-category count: this suite measures the
    # labeling mechanism's precision given adequate granularity; estimator
    # quality (and its expected underestimation, which the expansion
    # categories absorb) is criterion 4's subject.
    config = TrainConfig(seed=0, discovered_categories=len(scen.hidden_ids))
    centers = prepare_background(scen, config).centers
    # Majority generative label per cluster over the filtered training pool.
    votes: dict[int, dict] = {}
    partitions = []
    for image, rows in zip(scen.train_images, filtered_background(scen, config)):
        part = generate_pseudo_labels(
            records(image, rows), image.boxes[rows], centers, tau=config.temperature,
            theta=config.score_threshold, nms_iou=config.pseudo_nms_iou,
        )
        partitions.append((image.label[rows[part.positives]].tolist(), part.categories.tolist()))
        for key, category in zip(*partitions[-1]):
            votes.setdefault(category, {})
            votes[category][key] = votes[category].get(key, 0) + 1
    majority = {c: max(v, key=v.get) for c, v in votes.items()}
    n_pos = correct = 0
    for generative_labels, categories in partitions:
        for key, category in zip(generative_labels, categories):
            n_pos += 1
            correct += key == majority[category]
    precision = correct / n_pos

    rng = np.random.default_rng(5005)
    invariant = all(
        _labels(_center_probs(q[None, :], centers, tau=1.0))[0][0]
        == _labels(_center_probs(q[None, :], centers, tau=0.02))[0][0]
        for q in (unit(rng, scen.config.dim) for _ in range(1000))
    )
    elapsed = time.monotonic() - start
    ok = bayes >= 0.99 and precision >= 0.98 and invariant
    _report(
        "criterion 5 (pseudo labels)",
        ok,
        f"Bayes proxy {bayes:.4f}, precision {precision:.4f} over {n_pos} labels, "
        f"argmax temperature-invariant: {invariant}",
        elapsed,
        10.0,
    )


def test_criterion_6_branch_suite():
    start = time.monotonic()
    gamma = 0.02
    tau = 0.25  # keeps the required cosine gap representable on the sphere
    eye = np.eye(4)
    vocab = make_vocab(base_emb=eye[:1], under_emb=None, sub=eye[1])

    def with_mass(target):
        delta = tau * math.log((1.0 - target) / target)
        c_base, c_sub = delta / 2.0, -delta / 2.0
        residual = math.sqrt(1.0 - c_base**2 - c_sub**2)
        q = c_base * eye[0] + c_sub * eye[1] + residual * eye[3]
        return q / np.linalg.norm(q)

    def groups(batch):
        return proposal_groups([stack_blocks([], [], batch, [], [], [], vocab)], vocab)

    def switch(batch, gamma):
        _, slices, targets, cosines = groups(batch)
        return objective_terms(cosines, slices, targets, vocab, tau, gamma, 0.0, True, True).branches

    below = with_mass(gamma - 1e-6)
    above = with_mass(gamma + 1e-6)
    batch = [below, above]
    branches = switch(batch, gamma=gamma)
    eps_ok = branches == (UNIFORM_BRANCH, MASS_BRANCH)

    # Knife edge: the threshold equals the computed mass bit-for-bit, and the
    # inclusive comparison must select the mass branch.
    knife = [with_mass(gamma)]
    _, slices, _, cosines = groups(knife)
    logp = log_softmax_rows(cosines / tau)[slices["background"]]
    exact_mass = float(mass_terms(logp[:, vocab.block_indices.background])[2][0])
    assert abs(exact_mass - gamma) < 1e-12
    eq_branches = switch(knife, gamma=exact_mass)
    above_branches = switch(knife, gamma=float(np.nextafter(exact_mass, 1.0)))
    edge_ok = eq_branches == (MASS_BRANCH,) and above_branches == (UNIFORM_BRANCH,)
    elapsed = time.monotonic() - start
    _report(
        "criterion 6 (branch switch)",
        eps_ok and edge_ok,
        f"branches at threshold-1e-6/threshold/threshold+1e-6 = "
        f"{branches[0]}/{eq_branches[0]}/{branches[1]}, inclusive equality honored",
        elapsed,
        5.0,
    )


def test_criterion_7_training_trend(reference_scenario):
    start = time.monotonic()
    decreases = 0
    deltas = []
    for seed in range(10):
        config = TrainConfig(steps=200, seed=seed)
        history, _ = train(config, reference_scenario)
        first = history.steps[0].breakdown.total
        last = history.steps[-1].breakdown.total
        decreases += last < first
        deltas.append(first - last)
    elapsed = time.monotonic() - start
    _report(
        "criterion 7 (training trend)",
        decreases == 10,
        f"loss decreased over 200 steps in {decreases}/10 seeds "
        f"(median drop {statistics.median(deltas):.2f})",
        elapsed,
        120.0,
    )


def test_criterion_8_ablation_directions(reference_scenario):
    start = time.monotonic()
    settings = AblationConfig(seeds=tuple(range(10)), combos=("baseline", "prompts", "prompts+rectify", "full"))
    result = run_ablation(settings, reference_scenario, TrainConfig())
    rows = {r["name"]: r for r in result.rows}
    full = rows["full"]["novel_top1"]
    base = rows["baseline"]["novel_top1"]
    pr = rows["prompts+rectify"]["novel_top1"]
    p = rows["prompts"]["novel_top1"]
    wins_a = sum(f > b for f, b in zip(full, base))
    wins_b = sum(f > b for f, b in zip(pr, p))
    med_full = statistics.median(full)
    med_pr = statistics.median(pr)
    ok = wins_a >= 8 and wins_b >= 8 and med_full >= med_pr
    elapsed = time.monotonic() - start
    _report(
        "criterion 8 (ablation directions)",
        ok,
        f"full>baseline in {wins_a}/10, rectify gain in {wins_b}/10, "
        f"full median {med_full:.3f} vs prompts+rectify {med_pr:.3f}",
        elapsed,
        600.0,
    )


def test_criterion_9_byte_determinism(tmp_path):
    start = time.monotonic()
    small = [
        "--set", "scenario.n_train_images=8",
        "--set", "scenario.n_eval_images=4",
        "--set", "train.steps=6",
        "--set", "ablation.seeds=[0]",
        "--set", 'ablation.combos=["baseline","full"]',
    ]
    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        data = root / "data.jsonl"
        assert main(["gen", "--out", str(data), *small]) == 0
        assert main([
            "estimate-k", "--dataset", str(data), "--out", str(root / "k.json"), *small,
        ]) == 0
        assert main(["train", "--dataset", str(data), "--out-dir", str(root / "train"), *small]) == 0
        assert main([
            "eval", "--checkpoint", str(root / "train" / "checkpoint.json"),
            "--dataset", str(data), "--out-dir", str(root / "eval"), *small,
        ]) == 0
        assert main([
            "rectify-report", "--checkpoint", str(root / "train" / "checkpoint.json"),
            "--dataset", str(data), "--out-dir", str(root / "rect"),
            "--max-proposals", "10", *small,
        ]) == 0
        assert main([
            "ablate", "--dataset", str(data), "--out-dir", str(root / "abl"), *small,
        ]) == 0
        assert main([
            "gradcheck", "--instances", "2", "--out", str(root / "gc.json"), *small,
        ]) == 0
        artifacts = sorted(
            p.relative_to(root) for p in root.rglob("*") if p.is_file()
        )
        outputs.append({str(rel): (root / rel).read_bytes() for rel in artifacts})
    identical = outputs[0] == outputs[1]
    elapsed = time.monotonic() - start
    _report(
        "criterion 9 (determinism)",
        identical,
        f"{len(outputs[0])} artifacts byte-identical across reruns",
        elapsed,
        120.0,
    )
