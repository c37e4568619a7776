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

``objective_terms`` is the one implementation: from one cosine matrix per
group it returns every component value, the switch pattern, and every
component's gradient with respect to the logits; the trainer chains those
through the cosine layer and the encoder. The per-component loss functions
below are views of it. All means are over proposals, so duplicating a batch
leaves every loss unchanged.
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
    "batch_logits",
    "background_mass",
    "proposal_groups",
    "objective_terms",
    "batch_terms",
    "foreground_loss",
    "background_mass_loss",
    "relaxed_background_loss",
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

    @staticmethod
    def _features(proposals) -> np.ndarray:
        return np.stack([p.det_feature for p in proposals])

    def foreground_features(self) -> np.ndarray:
        return self._features(self.foreground)

    def background_features(self) -> np.ndarray:
        return self._features(self.background)

    def foreground_targets(self, vocab: Vocabulary) -> np.ndarray:
        return np.array([vocab.base_position(p.gt_label) for p in self.foreground], dtype=np.int64)


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


def batch_logits(features: np.ndarray, vocab: Vocabulary, tau: float) -> np.ndarray:
    """Per-proposal logits: cosines against every vocabulary embedding, over tau."""
    tau = check_temperature(tau)
    return cosine_matrix(features, vocab.embeddings) / tau


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


def proposal_groups(batch: ProposalBatch, partition, vocab: Vocabulary):
    """Features, targets and vocabulary cosines of each non-empty proposal group.

    Groups are "foreground", "background", "pseudo_positive" and
    "pseudo_negative" (the last two from a pseudo-label partition, if any);
    targets exist for the two labeled groups only.
    """
    features: dict[str, np.ndarray] = {}
    targets: dict[str, np.ndarray] = {}
    if batch.foreground:
        features["foreground"] = batch.foreground_features()
        targets["foreground"] = batch.foreground_targets(vocab)
    if batch.background:
        features["background"] = batch.background_features()
    if partition is not None and partition.positives:
        features["pseudo_positive"] = np.stack([p.det_feature for p, _ in partition.positives])
        targets["pseudo_positive"] = np.array(
            [vocab.underlying_position(lab.category) for _, lab in partition.positives]
        )
    if partition is not None and partition.negatives:
        features["pseudo_negative"] = np.stack([p.det_feature for p in partition.negatives])
    cosines = {name: cosine_matrix(f, vocab.embeddings) for name, f in features.items()}
    return features, targets, cosines


class ObjectiveTerms(NamedTuple):
    """What ``objective_terms`` returns."""

    values: dict[str, float]  # every component of COMPONENTS
    branches: tuple[str, ...]  # switch pattern selected from the current masses
    logit_grads: dict[str, dict[str, np.ndarray]]  # component -> group -> d value / d logits


def objective_terms(
    cosines: dict[str, np.ndarray], targets: dict[str, np.ndarray], vocab: Vocabulary,
    tau: float, gamma: float = 0.0, negative_weight: float = 0.0,
    use_prompts: bool = True, use_discovery: bool = True, branches: tuple[str, ...] | None = None,
) -> ObjectiveTerms:
    """Every component value, the switch pattern, and every component's logit gradients.

    ``cosines`` holds one matrix per group of ``proposal_groups``; every mean
    and weight is folded into the gradients. "final" is foreground plus the
    switched loss (when ``use_prompts``) plus the pseudo-label loss (when
    ``use_discovery``). ``branches`` pins the switch selection — finite
    difference stencils use it to avoid differencing across the switch
    discontinuity — while the returned pattern is always the one the current
    masses select.
    """
    tau = check_temperature(tau)
    values = dict.fromkeys(COMPONENTS, 0.0)
    grads: dict[str, dict[str, np.ndarray]] = {name: {} for name in COMPONENTS}
    live: tuple[str, ...] = ()

    if "foreground" in cosines:
        vals, g = nll_terms(cosines["foreground"] / tau, targets["foreground"])
        values["foreground"] = float(vals.mean())
        grads["foreground"]["foreground"] = g / g.shape[0]

    if "background" in cosines:
        z = cosines["background"] / tau
        bg_idx = vocab.background_indices()
        mass_vals, g_mass, masses = mass_terms(z, bg_idx)
        uniform_vals, g_uniform = uniform_terms(z, bg_idx)
        live = switched_branches(masses, gamma)
        if branches is None:
            branches = live
        elif len(branches) != len(live):
            raise ValueError("pinned branches must match the background count")
        sel = np.array([b == MASS_BRANCH for b in branches])
        n = z.shape[0]
        values["mass"] = float(mass_vals.mean())
        values["uniform"] = float(uniform_vals.mean())
        values["switched"] = float(np.where(sel, mass_vals, uniform_vals).mean())
        grads["mass"]["background"] = g_mass / n
        grads["uniform"]["background"] = g_uniform / n
        grads["switched"]["background"] = np.where(sel[:, None], g_mass, g_uniform) / n

    if "pseudo_positive" in cosines:
        vals, g = nll_terms(cosines["pseudo_positive"] / tau, targets["pseudo_positive"])
        values["pseudo"] += float(vals.mean())
        grads["pseudo"]["pseudo_positive"] = g / g.shape[0]
    if "pseudo_negative" in cosines:
        members = np.concatenate([vocab.expansion_indices(), [vocab.sub_background_index]])
        vals, g, _ = mass_terms(cosines["pseudo_negative"] / tau, members)
        values["pseudo"] += negative_weight * float(vals.mean())
        grads["pseudo"]["pseudo_negative"] = g * (negative_weight / g.shape[0])

    values["final"] = (
        values["foreground"]
        + (values["switched"] if use_prompts else 0.0)
        + (values["pseudo"] if use_discovery else 0.0)
    )
    grads["final"] = {
        **grads["foreground"],
        **(grads["switched"] if use_prompts else {}),
        **(grads["pseudo"] if use_discovery else {}),
    }
    return ObjectiveTerms(values, live, grads)


def batch_terms(
    batch: ProposalBatch, partition, vocab: Vocabulary, tau: float, gamma: float = 0.0,
    negative_weight: float = 0.0, branches: tuple[str, ...] | None = None,
) -> ObjectiveTerms:
    """``objective_terms`` of one batch (and optional pseudo-label partition)."""
    _, targets, cosines = proposal_groups(batch, partition, vocab)
    return objective_terms(cosines, targets, vocab, tau, gamma, negative_weight, branches=branches)


# -- per-component views ------------------------------------------------------


def foreground_loss(batch: ProposalBatch, vocab: Vocabulary, tau: float) -> float:
    """Mean cross-entropy of annotated proposals against their base category; 0 when empty."""
    return batch_terms(batch, None, vocab, tau).values["foreground"]


def background_mass_loss(batch: ProposalBatch, vocab: Vocabulary, tau: float) -> float:
    """Mean over background proposals of -log(background block mass)."""
    return batch_terms(batch, None, vocab, tau).values["mass"]


def relaxed_background_loss(batch: ProposalBatch, vocab: Vocabulary, tau: float) -> float:
    """Mean over background proposals of the uniform pull toward the background block."""
    return batch_terms(batch, None, vocab, tau).values["uniform"]


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
