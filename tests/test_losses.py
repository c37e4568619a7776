"""The background-prompt loss family against brute-force oracles."""

import math

import numpy as np
import pytest

from ovlab.core import log_softmax_rows
from ovlab.encoder import MockTextEncoder
from ovlab.losses import MASS_BRANCH, UNIFORM_BRANCH, mass_terms, objective_terms, proposal_groups, stack_blocks

from oracles import proposal_groups as oracle_groups, softmax_probs
from util import make_vocab, training_vocab, unit


def _eye_vocab(n_base, n_under, d=None, n_discovered=None):
    """Mutually orthogonal categories: standard basis rows."""
    d = d or (n_base + n_under + 1)
    eye = np.eye(d)
    return make_vocab(
        base_emb=eye[:n_base],
        under_emb=eye[n_base : n_base + n_under],
        sub=eye[n_base + n_under],
        n_discovered=n_discovered,
    )


def _batch(fg=(), labels=(), bg=()):
    """Foreground detector rows with their base ids, and background rows: one image without pseudo-labels."""
    return fg, labels, bg


def _groups(batch, vocab):
    """``proposal_groups`` of a batch stacked into one block."""
    return proposal_groups([stack_blocks(*batch, [], [], [], vocab)], vocab)


def _terms(batch, vocab, tau, gamma=0.0):
    """``objective_terms`` of a batch without pseudo-labels."""
    _, slices, targets, cosines = _groups(batch, vocab)
    return objective_terms(cosines, slices, targets, vocab, tau, gamma, 0.0, True, True)


def _loss(component, batch, vocab, tau):
    """One component of the objective on a batch without pseudo-labels."""
    return _terms(batch, vocab, tau).values[component]


def _switched(batch, vocab, tau, gamma):
    """The switched loss of a batch and the switch pattern its background masses select."""
    terms = _terms(batch, vocab, tau, gamma)
    return terms.values["switched"], terms.branches


def _masses(batch, vocab, tau):
    """Each background proposal's background mass, the value ``objective_terms`` compares with gamma."""
    _, slices, _, cosines = _groups(batch, vocab)
    logp = log_softmax_rows(cosines / tau)
    return mass_terms(logp[slices["background"]][:, vocab.block_indices.background])[2]


# -- background mass -------------------------------------------------------------


def test_background_mass_no_base_categories():
    vocab = make_vocab(base_emb=np.zeros((0, 3)), under_emb=np.eye(3)[:2], sub=np.eye(3)[2])
    q = unit(np.random.default_rng(0), 3)
    assert _masses(_batch(bg=[q]), vocab, tau=1.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_background_mass_symmetric_thirds():
    vocab = _eye_vocab(1, 1)
    q = np.ones(3) / math.sqrt(3.0)  # equal cosine to all three categories
    assert _masses(_batch(bg=[q]), vocab, tau=0.7)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_background_mass_matches_index_sum_oracle():
    rng = np.random.default_rng(1)
    vocab = _eye_vocab(2, 2, d=8)
    bg = [unit(rng, 8) for _ in range(20)]
    for q, mass in zip(bg, _masses(_batch(bg=bg), vocab, tau=0.5)):
        probs = softmax_probs(q, list(vocab.embeddings), tau=0.5)
        oracle = sum(probs[i] for i in (2, 3, 4))  # underlying rows then sub slot
        assert mass == pytest.approx(oracle, abs=1e-12)


# -- foreground loss -------------------------------------------------------------


def test_foreground_loss_perfect_classification_saturates():
    # Feature equal to its class embedding, everything else orthogonal, at
    # sharp temperature: -log(exp(50)/(exp(50) + m - 1)) = log1p((m-1)e^-50).
    for m in (4, 50, 100):
        eye = np.eye(m + 1)
        vocab = make_vocab(base_emb=eye[: m - 1], under_emb=None, sub=eye[m - 1])
        batch = _batch(fg=[eye[0]], labels=[0])
        loss = _loss("foreground", batch, vocab, tau=0.02)
        expected = math.log1p((m - 1) * math.exp(-50.0))
        assert loss == pytest.approx(expected, rel=1e-6)
        assert loss < 1e-18


def test_foreground_loss_symmetric_two_category():
    eye = np.eye(3)
    vocab = make_vocab(base_emb=eye[:1], under_emb=None, sub=eye[1])
    q = (eye[0] + eye[1]) / math.sqrt(2.0)
    batch = _batch(fg=[q], labels=[0])
    assert _loss("foreground", batch, vocab, tau=0.31) == pytest.approx(math.log(2.0), abs=1e-12)


def test_foreground_loss_mean_not_sum():
    rng = np.random.default_rng(2)
    vocab = _eye_vocab(3, 2, d=8)
    fg, labels = [unit(rng, 8) for _ in range(4)], [i % 3 for i in range(4)]
    single = _loss("foreground", _batch(fg=fg, labels=labels), vocab, tau=0.5)
    doubled = _loss("foreground", _batch(fg=fg + fg, labels=labels + labels), vocab, tau=0.5)
    assert single == pytest.approx(doubled, rel=1e-12)


def test_foreground_loss_empty_set_is_zero():
    vocab = _eye_vocab(2, 1)
    assert _loss("foreground", _batch(), vocab, tau=1.0) == 0.0


def test_foreground_loss_nonnegative_sweep():
    rng = np.random.default_rng(5)
    vocab = _eye_vocab(3, 2, d=10)
    for tau in (1.0, 0.05):
        for _ in range(30):
            q = unit(rng, 10)
            batch = _batch(fg=[q], labels=[int(rng.integers(3))])
            assert _loss("foreground", batch, vocab, tau) >= 0.0


# -- background mass loss ---------------------------------------------------------


def test_mass_loss_half_mass():
    # One base and one sub-background category, equidistant feature: mass 1/2.
    eye = np.eye(3)
    vocab = make_vocab(base_emb=eye[:1], under_emb=None, sub=eye[1])
    q = (eye[0] + eye[1]) / math.sqrt(2.0)
    loss = _loss("mass", _batch(bg=[q]), vocab, tau=0.11)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_mass_loss_no_base_limit():
    vocab = make_vocab(base_emb=np.zeros((0, 4)), under_emb=np.eye(4)[:2], sub=np.eye(4)[2])
    rng = np.random.default_rng(6)
    loss = _loss("mass", _batch(bg=[unit(rng, 4)]), vocab, tau=0.5)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_mass_loss_brute_force_oracle():
    rng = np.random.default_rng(7)
    vocab = _eye_vocab(3, 3, d=12)
    bg = [unit(rng, 12) for _ in range(9)]
    loss = _loss("mass", _batch(bg=bg), vocab, tau=0.2)
    # Independent path: scalar softmax, explicit index sum, then -log.
    total = 0.0
    for q in bg:
        probs = softmax_probs(q, list(vocab.embeddings), tau=0.2)
        total += -math.log(sum(probs[i] for i in (3, 4, 5, 6)))
    assert loss == pytest.approx(total / len(bg), rel=1e-10)


def test_mass_loss_empty_background_is_zero():
    vocab = _eye_vocab(2, 1)
    assert _loss("mass", _batch(), vocab, tau=1.0) == 0.0


# -- relaxed loss ------------------------------------------------------------------


def test_relaxed_loss_uniform_probabilities():
    # Feature equidistant from every category: p = 1/m for all, so the
    # relaxed average is exactly -log(1/m) = log m.
    m = 5
    eye = np.eye(m + 1)
    vocab = make_vocab(base_emb=eye[:2], under_emb=eye[2:4], sub=eye[4])
    q = eye[:m].sum(axis=0) / math.sqrt(m)
    loss = _loss("uniform", _batch(bg=[q]), vocab, tau=0.4)
    assert loss == pytest.approx(math.log(m), abs=1e-12)


def test_relaxed_loss_degenerate_single_term():
    # Empty underlying block: the average reduces to -log p(sub-background).
    eye = np.eye(3)
    vocab = make_vocab(base_emb=eye[:1], under_emb=None, sub=eye[1])
    rng = np.random.default_rng(8)
    bg = [unit(rng, 3)]
    relaxed = _loss("uniform", _batch(bg=bg), vocab, tau=0.3)
    mass = _loss("mass", _batch(bg=bg), vocab, tau=0.3)
    assert relaxed == pytest.approx(mass, rel=1e-12)


def test_relaxed_loss_brute_force_oracle():
    rng = np.random.default_rng(9)
    vocab = _eye_vocab(2, 4, d=10)
    bg = [unit(rng, 10) for _ in range(7)]
    loss = _loss("uniform", _batch(bg=bg), vocab, tau=0.15)
    total = 0.0
    for q in bg:
        probs = softmax_probs(q, list(vocab.embeddings), tau=0.15)
        inner = sum(-math.log(probs[i]) for i in (2, 3, 4, 5, 6))
        total += inner / 5.0
    assert loss == pytest.approx(total / len(bg), rel=1e-10)


# -- switched loss ----------------------------------------------------------------


def _mass_of(q, vocab, tau):
    return float(_masses(_batch(bg=[q]), vocab, tau)[0])


def _proposal_with_mass(vocab, tau, target):
    """Feature in the span of one base and the sub-background direction whose
    background mass lands on the target (up to float rounding).

    The required cosine gap tau * log((1-target)/target) must stay within
    sqrt(2) for a unit query, which bounds the usable temperature.
    """
    base_dir = vocab.embeddings[0]
    sub_dir = vocab.embeddings[vocab.block_indices.sub_background]
    delta = tau * math.log((1.0 - target) / target)
    assert abs(delta) <= math.sqrt(2.0), "infeasible mass target for this temperature"
    c_base = delta / 2.0
    c_sub = -delta / 2.0
    residual = math.sqrt(max(0.0, 1.0 - c_base**2 - c_sub**2))
    ortho = np.zeros(vocab.dim)
    ortho[-1] = 1.0  # last axis unused by this two-category vocabulary
    q = c_base * base_dir + c_sub * sub_dir + residual * ortho
    return q / np.linalg.norm(q)


def _two_cat_vocab():
    eye = np.eye(4)
    return make_vocab(base_emb=eye[:1], under_emb=None, sub=eye[1])


def test_switch_inclusive_at_threshold():
    vocab = _two_cat_vocab()
    tau = 0.25
    p = _proposal_with_mass(vocab, tau, 0.02)
    mass = _mass_of(p, vocab, tau)
    # Exactly at the threshold the mass branch is taken (inclusive).
    _, branches = _switched(_batch(bg=[p]), vocab, tau, gamma=mass)
    assert branches == (MASS_BRANCH,)
    _, branches = _switched(
        _batch(bg=[p]), vocab, tau, gamma=float(np.nextafter(mass, 1.0))
    )
    assert branches == (UNIFORM_BRANCH,)


def test_switch_epsilon_around_default_threshold():
    vocab = _two_cat_vocab()
    tau = 0.25
    gamma = 0.02
    below = _proposal_with_mass(vocab, tau, gamma - 1e-6)
    above = _proposal_with_mass(vocab, tau, gamma + 1e-6)
    _, branches = _switched(_batch(bg=[below, above]), vocab, tau, gamma=gamma)
    assert branches == (UNIFORM_BRANCH, MASS_BRANCH)


def test_switch_gamma_zero_equals_mass_loss():
    rng = np.random.default_rng(10)
    vocab = _eye_vocab(2, 3, d=8)
    bg = [unit(rng, 8) for _ in range(6)]
    value, branches = _switched(_batch(bg=bg), vocab, tau=0.3, gamma=0.0)
    assert set(branches) == {MASS_BRANCH}
    assert value == _loss("mass", _batch(bg=bg), vocab, tau=0.3)


def test_switch_gamma_one_equals_relaxed_loss():
    rng = np.random.default_rng(11)
    vocab = _eye_vocab(2, 3, d=8)
    bg = [unit(rng, 8) for _ in range(6)]
    value, branches = _switched(_batch(bg=bg), vocab, tau=0.3, gamma=1.0)
    assert set(branches) == {UNIFORM_BRANCH}
    assert value == _loss("uniform", _batch(bg=bg), vocab, tau=0.3)


def test_switch_permutation_invariance():
    rng = np.random.default_rng(13)
    vocab = _eye_vocab(3, 2, d=9)
    bg = [unit(rng, 9) for _ in range(8)]
    v1, b1 = _switched(_batch(bg=bg), vocab, tau=0.1, gamma=0.02)
    order = list(reversed(range(len(bg))))
    v2, b2 = _switched(
        _batch(bg=[bg[i] for i in order]), vocab, tau=0.1, gamma=0.02
    )
    assert v1 == pytest.approx(v2, rel=1e-14)
    assert b2 == tuple(b1[i] for i in order)


def test_all_losses_nonnegative_random_sweep():
    rng = np.random.default_rng(14)
    vocab = _eye_vocab(3, 3, d=10)
    for tau in (1.0, 0.05):
        bg = [unit(rng, 10) for _ in range(5)]
        batch = _batch(bg=bg)
        assert _loss("mass", batch, vocab, tau) >= 0.0
        assert _loss("uniform", batch, vocab, tau) >= 0.0
        value, _ = _switched(batch, vocab, tau, gamma=0.02)
        assert value >= 0.0


# -- block assembly ------------------------------------------------------------


def _random_images(rng, vocab, n_images, with_partition):
    """Per-image ``stack_blocks`` arguments (vocabulary aside) with random group sizes, some of them empty."""
    d = vocab.dim
    images = []
    for _ in range(n_images):
        fg = [(unit(rng, d), int(rng.choice(vocab.base_ids))) for _ in range(rng.integers(0, 4))]
        bg = [unit(rng, d) for _ in range(rng.integers(0, 5))]
        positives, categories, negatives = [], [], []
        if with_partition:
            categories = [int(rng.integers(vocab.n_discovered)) for _ in range(rng.integers(0, 3))]
            positives = [unit(rng, d) for _ in categories]
            negatives = [unit(rng, d) for _ in range(rng.integers(0, 3))]
        images.append(([q for q, _ in fg], [label for _, label in fg], bg, positives, categories, negatives))
    return images


def test_zero_norm_feature_fails_at_stacking_time():
    from ovlab.core import ZeroNormError

    vocab = _eye_vocab(2, 1)
    with pytest.raises(ZeroNormError):
        stack_blocks([np.eye(4)[0]], [0], [np.zeros(4)], [], [], [], vocab)
    # So does a labeled group with one target too few (read in row order, the pseudo-positive's target
    # would become the second foreground row's) or one too many.
    rows = [np.eye(4)[0], np.eye(4)[1]]
    for labels, categories, group in [([0], [0], "foreground"), ([0, 1], [0, 0], "pseudo_positive")]:
        with pytest.raises(ValueError, match=f"^{group} group: "):
            stack_blocks(rows, labels, [], rows[:1], categories, [], vocab)


@pytest.mark.parametrize("kind", ["partition", "no_partition", "baseline"])
def test_block_assembly_matches_per_proposal_oracle(kind):
    # Training stacks each image once, as unit rows, and concatenates the
    # sampled images' blocks; that must equal assembling the union batch
    # proposal by proposal and normalizing its rows.
    rng = np.random.default_rng({"partition": 20, "no_partition": 21, "baseline": 22}[kind])
    enc = MockTextEncoder(dim=12, ctx_dim=6, seed=3)
    base_ids = [4, 9, 2]
    base_emb = np.stack([enc.encode_named_category(s) for s in base_ids])
    if kind == "baseline":
        vocab = training_vocab(base_ids, base_emb, np.zeros((0, 6)), unit(rng, 12), enc,
                                     baseline_mode=True)
    else:
        vocab = training_vocab(base_ids, base_emb, rng.normal(size=(5, 6)), unit(rng, 12), enc,
                                     n_discovered=3)
    for _ in range(20):
        images = _random_images(rng, vocab, int(rng.integers(1, 5)), kind == "partition")
        union = [[x for image in images for x in image[part]] for part in range(6)]
        got = proposal_groups([stack_blocks(*image, vocab) for image in images], vocab)
        want = oracle_groups(*union, vocab)
        assert got[1] == want[1]  # slices
        targets = np.concatenate([want[2]["foreground"], want[2]["pseudo_positive"]])  # in row order
        unit_rows = want[0] / np.linalg.norm(want[0], axis=1, keepdims=True)  # blocks hold unit rows
        for g, w in [(got[0], unit_rows), (got[3], want[3]), (got[2], targets)]:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
