"""Classification losses for the prompt-learning head.

The training objective has four proposal groups scored against the training
vocabulary and these components:

* foreground cross-entropy on annotated proposals;
* a background-mass loss that raises the summed probability of the
  underlying-plus-sub-background block for each unlabeled proposal;
* a relaxed variant that spreads the pull uniformly over that block;
* the switched loss that picks, per proposal, mass or relaxed depending on
  whether the block's current probability mass clears a threshold; and
* the pseudo-label loss: cross-entropy of mined positives toward their
  discovered category plus the weighted mass pull of the remaining filtered
  proposals toward the expansion-plus-sub-background block.

``objective_terms`` is the one implementation: from one cosine matrix over
every group's stacked proposals it returns every component value, the
switch pattern, and every component's gradient with respect to the logits;
the trainer chains those through the cosine layer and the encoder, and
``batch_terms`` evaluates it on one batch. ``proposal_blocks`` stacks a
batch's groups once (training does so per image, at the start of a run)
and ``proposal_groups`` concatenates blocks into that one matrix. All means
are over proposals, so duplicating a batch leaves every loss unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import check_temperature, cosine_matrix, log_softmax_rows
from .discovery import Proposal
from .vocab import Vocabulary

__all__ = [
    "MASS_BRANCH",
    "UNIFORM_BRANCH",
    "COMPONENTS",
    "ProposalBatch",
    "LossBreakdown",
    "ObjectiveTerms",
    "ProposalBlocks",
    "background_mass",
    "proposal_blocks",
    "proposal_groups",
    "objective_terms",
    "batch_terms",
    "switched_background_loss",
]

MASS_BRANCH = "mass"
UNIFORM_BRANCH = "uniform"
COMPONENTS = ("foreground", "mass", "uniform", "switched", "pseudo", "final")


@dataclass(frozen=True)
class ProposalBatch:
    """Foreground (annotated) and background (everything else) proposals of one step."""

    foreground: tuple[Proposal, ...]
    background: tuple[Proposal, ...]

    def __post_init__(self):
        for p in self.foreground:
            if p.gt_label is None:
                raise ValueError("foreground proposals must carry a base label")
        for p in self.background:
            if p.gt_label is not None:
                raise ValueError("background proposals must not carry a base label")


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar loss components of one batch; total = foreground + background + pseudo."""

    foreground: float
    background: float
    pseudo: float
    total: float
    branches: tuple[str, ...]
    n_foreground: int
    n_background: int


def background_mass(probs, vocab: Vocabulary) -> float:
    """Summed probability of the underlying block plus the sub-background slot.

    ``probs`` must be a probability vector aligned with the vocabulary order.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (vocab.size,):
        raise ValueError(f"probability vector of length {p.shape} does not match vocabulary size {vocab.size}")
    return float(p[vocab.background_indices()].sum())


# -- per-proposal terms (value plus d value / d logits) -----------------------


def nll_terms(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-log p(target) per row, with its logit gradient p - onehot(target)."""
    logp = log_softmax_rows(logits)
    rows = np.arange(logits.shape[0])
    values = -logp[rows, targets]
    grad = np.exp(logp)
    grad[rows, targets] -= 1.0
    return values, grad


def mass_terms(
    logits: np.ndarray, member_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-log of the member-set probability mass per row, its gradient, and the mass.

    Gradient per row: p - q, where q renormalizes p over the member set.
    """
    logp = log_softmax_rows(logits)
    member_logp = logp[:, member_indices]
    shift = member_logp.max(axis=1, keepdims=True)
    log_mass = (np.log(np.exp(member_logp - shift).sum(axis=1, keepdims=True)) + shift).ravel()
    values = -log_mass
    grad = np.exp(logp)
    grad[:, member_indices] -= np.exp(member_logp - log_mass[:, None])
    return values, grad, np.exp(log_mass)


def uniform_terms(
    logits: np.ndarray, member_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean of -log p(c) over the member set per row, with gradient p - uniform(set)."""
    logp = log_softmax_rows(logits)
    k = len(member_indices)
    values = -logp[:, member_indices].mean(axis=1)
    grad = np.exp(logp)
    grad[:, member_indices] -= 1.0 / k
    return values, grad


def switched_branches(masses: np.ndarray, gamma: float) -> tuple[str, ...]:
    """Mass branch where the block mass clears gamma (inclusive), uniform otherwise."""
    return tuple(MASS_BRANCH if m >= gamma else UNIFORM_BRANCH for m in masses)


# -- the objective ------------------------------------------------------------


GROUPS = ("foreground", "background", "pseudo_positive", "pseudo_negative")


class ProposalBlocks(NamedTuple):
    """One batch's detector features stacked per proposal group, with target positions.

    ``features`` maps every name of ``GROUPS`` to an (n, dim) array, empty
    for a group without proposals; ``targets`` maps the two labeled groups,
    "foreground" and "pseudo_positive", to int64 vocabulary positions.
    """

    features: dict[str, np.ndarray]
    targets: dict[str, np.ndarray]


def proposal_blocks(batch: ProposalBatch, partition, vocab: Vocabulary) -> ProposalBlocks:
    """Stack a batch's proposals (and a pseudo-label partition's, if any) into ``ProposalBlocks``.

    Target positions come from ``vocab``'s layout, which stays fixed while
    the parameters train, so a run stacks each training image once.
    """
    positives = partition.positives if partition is not None else ()
    negatives = partition.negatives if partition is not None else ()
    rows = {
        "foreground": [p.det_feature for p in batch.foreground],
        "background": [p.det_feature for p in batch.background],
        "pseudo_positive": [p.det_feature for p, _ in positives],
        "pseudo_negative": [p.det_feature for p in negatives],
    }
    features = {name: np.stack(r) if r else np.zeros((0, vocab.dim)) for name, r in rows.items()}
    targets = {
        "foreground": np.array([vocab.base_position(p.gt_label) for p in batch.foreground], dtype=np.int64),
        "pseudo_positive": np.array(
            [vocab.underlying_position(lab.category) for _, lab in positives], dtype=np.int64
        ),
    }
    return ProposalBlocks(features, targets)


def proposal_groups(blocks, vocab: Vocabulary):
    """Stacked features, group row slices, targets and the one vocabulary cosine matrix.

    ``blocks`` is a sequence of ``ProposalBlocks`` (one per sampled image in
    training); rows run through ``GROUPS`` in order, each group's rows in
    block order. ``slices`` names each non-empty group's rows, and targets
    exist for the two labeled groups only.
    """
    slices, parts, start = {}, [], 0
    for name in GROUPS:
        group = [b.features[name] for b in blocks]
        n = sum(len(f) for f in group)
        if n:
            slices[name] = slice(start, start + n)
            start += n
            parts.extend(group)
    features = np.concatenate(parts) if parts else np.zeros((0, vocab.dim))
    targets = {  # the leading empty block keeps an empty sequence int64
        name: np.concatenate([np.zeros(0, np.int64)] + [b.targets[name] for b in blocks])
        for name in ("foreground", "pseudo_positive")
    }
    return features, slices, targets, cosine_matrix(features, vocab.embeddings)


class ObjectiveTerms(NamedTuple):
    """What ``objective_terms`` returns."""

    values: dict[str, float]  # every component of COMPONENTS
    branches: tuple[str, ...]  # switch pattern selected from the current masses
    logit_grads: dict[str, np.ndarray]  # component -> (n, V) d value / d logits


def objective_terms(
    cosines: np.ndarray, slices: dict[str, slice], targets: dict[str, np.ndarray], vocab: Vocabulary,
    tau: float, gamma: float = 0.0, negative_weight: float = 0.0,
    use_prompts: bool = True, use_discovery: bool = True, branches: tuple[str, ...] | None = None,
) -> ObjectiveTerms:
    """Every component value, the switch pattern, and every component's logit gradients.

    ``cosines``, ``slices`` and ``targets`` come from ``proposal_groups``;
    every mean and weight is folded into the gradients, and rows a component
    does not read have zero gradient. "final" is foreground plus the switched
    loss (when ``use_prompts``) plus the pseudo-label loss (when
    ``use_discovery``). ``branches`` pins the switch selection — finite
    difference stencils use it to avoid differencing across the switch
    discontinuity — while the returned pattern is always the one the current
    masses select.
    """
    z = cosines / check_temperature(tau)
    values = dict.fromkeys(COMPONENTS, 0.0)
    grads = {name: np.zeros_like(z) for name in COMPONENTS[:-1]}
    live: tuple[str, ...] = ()

    if "foreground" in slices:
        rows = slices["foreground"]
        vals, g = nll_terms(z[rows], targets["foreground"])
        values["foreground"] = float(vals.mean())
        grads["foreground"][rows] = g / g.shape[0]

    if "background" in slices:
        rows = slices["background"]
        bg_idx = vocab.background_indices()
        mass_vals, g_mass, masses = mass_terms(z[rows], bg_idx)
        uniform_vals, g_uniform = uniform_terms(z[rows], bg_idx)
        live = switched_branches(masses, gamma)
        if branches is None:
            branches = live
        elif len(branches) != len(live):
            raise ValueError("pinned branches must match the background count")
        sel = np.array([b == MASS_BRANCH for b in branches])
        n = len(live)
        values["mass"] = float(mass_vals.mean())
        values["uniform"] = float(uniform_vals.mean())
        values["switched"] = float(np.where(sel, mass_vals, uniform_vals).mean())
        grads["mass"][rows] = g_mass / n
        grads["uniform"][rows] = g_uniform / n
        grads["switched"][rows] = np.where(sel[:, None], g_mass, g_uniform) / n

    if "pseudo_positive" in slices:
        rows = slices["pseudo_positive"]
        vals, g = nll_terms(z[rows], targets["pseudo_positive"])
        values["pseudo"] += float(vals.mean())
        grads["pseudo"][rows] = g / g.shape[0]
    if "pseudo_negative" in slices:
        rows = slices["pseudo_negative"]
        members = np.concatenate([vocab.expansion_indices(), [vocab.sub_background_index]])
        vals, g, _ = mass_terms(z[rows], members)
        values["pseudo"] += negative_weight * float(vals.mean())
        grads["pseudo"][rows] = g * (negative_weight / g.shape[0])

    toggles = {"foreground": True, "switched": use_prompts, "pseudo": use_discovery}
    parts = [name for name, on in toggles.items() if on]
    values["final"] = sum(values[name] for name in parts)
    grads["final"] = sum(grads[name] for name in parts)
    return ObjectiveTerms(values, live, grads)


def batch_terms(
    batch: ProposalBatch, partition, vocab: Vocabulary, tau: float, gamma: float = 0.0,
    negative_weight: float = 0.0, branches: tuple[str, ...] | None = None,
) -> ObjectiveTerms:
    """``objective_terms`` of one batch (and optional pseudo-label partition)."""
    _, slices, targets, cosines = proposal_groups([proposal_blocks(batch, partition, vocab)], vocab)
    return objective_terms(cosines, slices, targets, vocab, tau, gamma, negative_weight, branches=branches)


def switched_background_loss(
    batch: ProposalBatch,
    vocab: Vocabulary,
    tau: float,
    gamma: float,
    forced_branches: tuple[str, ...] | None = None,
) -> tuple[float, tuple[str, ...]]:
    """Per-proposal switch between the mass loss and the relaxed loss.

    A proposal whose background mass is at least gamma (inclusive) takes the
    mass branch; otherwise the relaxed branch. The endpoints are admitted so
    the degenerate identities are expressible: at 0 every proposal takes the
    mass branch, at 1 only proposals with full background mass do.
    ``forced_branches`` pins the selection regardless of the current mass.
    """
    if not (0.0 <= gamma <= 1.0) and forced_branches is None:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    terms = batch_terms(batch, None, vocab, tau, gamma, branches=forced_branches)
    return terms.values["switched"], tuple(forced_branches or terms.branches)
