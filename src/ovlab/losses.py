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
switch pattern and the logit gradient of the one component asked for; the
trainer chains that through the cosine layer and the encoder.
Every component has the same logit gradient per proposal, w * (p - q): p
the row's probabilities, q a target distribution over the vocabulary
(one-hot at the target for the cross-entropies, p renormalized over the
member set for a mass term, uniform over the member set for the relaxed
term, and per proposal one of the last two for the switch) and w the
term's weight over the group's proposal count. All means are over
proposals, so duplicating a batch leaves every loss unchanged. A batch
reaches the objective in one form, a sequence of ``ProposalBlocks``, which
``stack_blocks`` builds from row arrays: the foreground's, the background's
and a pseudo-label partition's positives and negatives.

What training computes when:

* per run, ``stack_blocks`` stacks each training image's groups once, as
  unit rows (``core.unit_rows``, so a zero-norm feature fails at stacking
  time) with their vocabulary target positions; the vocabulary's block index
  arrays and column slices (``Vocabulary.block_indices``) come from the
  run's ``vocab.FixedRows``;
* per step, ``proposal_groups`` gathers the sampled images' rows with one
  concatenation in ``GROUPS`` order (and the labeled rows' targets with one
  more) and takes one cosine matrix against the step vocabulary's unit
  embeddings; ``objective_terms`` takes one row log-softmax over all rows,
  reads both labeled groups' values with one ``nll_terms`` gather, gathers
  each unlabeled group's member columns once for ``mass_terms`` and
  ``uniform_terms``, and turns the ``exp`` of the log-softmax, p, into the
  requested gradient in place, group by group (the groups' row blocks are
  disjoint): subtract q on the entries it covers and scale by w, or zero a
  group the gradient does not read.

Every sum keeps the order of the formula it computes, so that the values,
and the bytes of every artifact built from them, do not depend on how the
work is laid out: a row sum of gathered member columns, for one, adds the
members one after another (see ``objective_terms``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import check_temperature, log_softmax_rows, unit_cosines, unit_rows
from .vocab import Vocabulary

__all__ = [
    "MASS_BRANCH",
    "UNIFORM_BRANCH",
    "COMPONENTS",
    "LossBreakdown",
    "ObjectiveTerms",
    "ProposalBlocks",
    "stack_blocks",
    "proposal_groups",
    "objective_terms",
]

MASS_BRANCH = "mass"
UNIFORM_BRANCH = "uniform"
COMPONENTS = ("foreground", "mass", "uniform", "switched", "pseudo", "final")


class LossBreakdown(NamedTuple):
    """Scalar loss components of one batch; total = foreground + background + pseudo."""

    foreground: float
    background: float
    pseudo: float
    total: float
    branches: tuple[str, ...]


# -- per-proposal terms -------------------------------------------------------
#
# Each takes its rows' log-probabilities ``logp`` (the mass and relaxed terms
# only the member-set columns) and returns the value per row;
# ``objective_terms`` writes their gradients (see the module docstring).


def nll_terms(logp: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """-log p(target) of each of the given rows (positions into ``logp``)."""
    return -logp[rows, targets]


def mass_terms(member_logp: np.ndarray):
    """-log of the member-set probability mass per row, the member shares, and the mass.

    The shares renormalize p over the member set: the q of the mass term.
    """
    shift = np.maximum.reduce(member_logp, axis=1, keepdims=True)
    shares = np.exp(member_logp - shift)
    log_mass = np.log(np.add.reduce(shares, axis=1, keepdims=True))
    log_mass += shift
    np.subtract(member_logp, log_mass, out=shares)
    log_mass = log_mass.ravel()
    return -log_mass, np.exp(shares, out=shares), np.exp(log_mass)


def uniform_terms(member_logp: np.ndarray) -> np.ndarray:
    """Mean of -log p(c) over the member set per row."""
    return np.add.reduce(member_logp, axis=1) / -member_logp.shape[1]  # ``-(sum / k)``, exactly


# -- the objective ------------------------------------------------------------


GROUPS = ("foreground", "background", "pseudo_positive", "pseudo_negative")


class ProposalBlocks(NamedTuple):
    """One batch's detector features stacked per proposal group, with target positions.

    ``features`` maps every name of ``GROUPS`` to an (n, dim) array of unit
    rows, empty for a group without proposals; ``targets`` maps the two labeled groups,
    "foreground" and "pseudo_positive", to int64 vocabulary positions.
    """

    features: dict[str, np.ndarray]
    targets: dict[str, np.ndarray]


def stack_blocks(foreground, labels, background, positives, categories, negatives,
                 vocab: Vocabulary) -> ProposalBlocks:
    """``ProposalBlocks`` of detector rows (each an (n, dim) array or a list of rows): the foreground's
    (base ids ``labels``), the background's, the pseudo-positives' (discovered ``categories``) and the
    pseudo-negatives'. Features are stored as unit rows, so a zero-norm feature raises ``ZeroNormError``
    here, and ``labels`` or ``categories`` whose length is not their group's row count a ``ValueError``.
    Target positions come from ``vocab``'s layout, which stays fixed while the parameters train, so a run
    stacks each training image once."""
    rows = {"foreground": foreground, "background": background,
            "pseudo_positive": positives, "pseudo_negative": negatives}
    for name, ids in (("foreground", labels), ("pseudo_positive", categories)):
        if len(ids) != len(rows[name]):
            raise ValueError(f"{name} group: {len(ids)} targets for {len(rows[name])} rows")
    features = {name: unit_rows(np.asarray(r))[0] if len(r) else np.zeros((0, vocab.dim)) for name, r in rows.items()}
    targets = {
        "foreground": np.array([vocab.base_position(label) for label in labels], dtype=np.int64),
        "pseudo_positive": np.array([vocab.underlying_position(c) for c in categories], dtype=np.int64),
    }
    return ProposalBlocks(features, targets)


_NO_TARGETS = np.zeros(0, np.int64)  # keeps an empty target sequence int64
_LABELED = ("foreground", "pseudo_positive")  # the groups with targets, in ``GROUPS`` order


def proposal_groups(blocks, vocab: Vocabulary):
    """Stacked unit features, group row slices, targets and the one vocabulary cosine matrix.

    ``blocks`` is a sequence of ``ProposalBlocks`` (one per sampled image in
    training); rows run through ``GROUPS`` in order, each group's rows in
    block order, gathered with one concatenation. ``slices`` names each
    non-empty group's rows. ``targets`` holds the target positions of the two
    labeled groups' rows, in row order: the foreground's, then the pseudo-positives'.
    """
    parts = [b.features[name] for name in GROUPS for b in blocks]
    sizes, k = list(map(len, parts)), len(blocks)
    slices, start = {}, 0
    for g, name in enumerate(GROUPS):
        n = sum(sizes[g * k:(g + 1) * k])
        if n:
            slices[name] = slice(start, start + n)
            start += n
    features = np.concatenate(parts) if start else np.zeros((0, vocab.dim))
    targets = np.concatenate([_NO_TARGETS] + [b.targets[name] for name in _LABELED for b in blocks])
    return features, slices, targets, unit_cosines(features, vocab.unit_embeddings[0])


class ObjectiveTerms(NamedTuple):
    """What ``objective_terms`` returns."""

    values: dict[str, float]  # every component of COMPONENTS
    branches: tuple[str, ...]  # switch pattern selected from the current masses
    logit_grad: np.ndarray  # (n, V) d value / d logits of the requested component


_BRANCH_OF = (UNIFORM_BRANCH, MASS_BRANCH)  # indexed by "mass >= gamma"
_BACKGROUND_COMPONENTS = ("mass", "uniform", "switched")


def objective_terms(
    cosines: np.ndarray, slices: dict[str, slice], targets: np.ndarray, vocab: Vocabulary,
    tau: float, gamma: float = 0.0, negative_weight: float = 0.0,
    use_prompts: bool = True, use_discovery: bool = True, branches: tuple[str, ...] | None = None,
    component: str = "final",
) -> ObjectiveTerms:
    """Every component value, the switch pattern, and the logit gradient of ``component``.

    ``cosines``, ``slices`` and ``targets`` come from ``proposal_groups``.
    "final" is foreground plus the switched loss (when ``use_prompts``) plus
    the pseudo-label loss (when ``use_discovery``). The gradient folds in
    every mean and weight, and rows the component does not read are zero.
    ``branches`` pins the switch selection — finite difference stencils use
    it to avoid differencing across the switch discontinuity — while the
    returned pattern is always the one the current masses select.
    """
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}; choose from {COMPONENTS}")
    logp = log_softmax_rows(cosines / check_temperature(tau))
    grad = np.exp(logp)  # p; each group's rows become w * (p - q) below, or zero
    # Whether the requested gradient reads each group: its own component, or "final" with the term on.
    final = component == "final"
    pseudo_read = component == "pseudo" or (final and use_discovery)
    foreground = pseudo = mass = uniform = switched = 0.0
    live: tuple[str, ...] = ()
    indices = vocab.block_indices

    # Both labeled groups take -log p(target) in one gather and their gradient's
    # one-hot in one scatter; the foreground rows, if any, come first.
    fg, pp = slices.get("foreground"), slices.get("pseudo_positive")
    if len(targets):
        n_fg = fg.stop if fg is not None else 0
        rows = np.arange(len(targets))
        if pp is not None:
            rows[n_fg:] += pp.start - n_fg
        vals = nll_terms(logp, rows, targets)
        grad[rows, targets] -= 1.0
        if fg is not None:
            foreground += float(np.add.reduce(vals[:n_fg]) / n_fg)
            g = grad[fg]
            if final or component == "foreground":
                g /= n_fg
            else:
                g.fill(0.0)
        if pp is not None:
            n = pp.stop - pp.start
            pseudo += float(np.add.reduce(vals[n_fg:]) / n)
            g = grad[pp]
            if pseudo_read:
                g /= n
            else:
                g.fill(0.0)

    # Member columns are gathered by position, which lays them out column by
    # column: the terms' row sums then add the members one after another. (A
    # column slice would be a row-major view, summed pairwise: other bits.)
    rows = slices.get("background")
    if rows is not None:
        member_logp = logp[rows][:, indices.background]
        mass_vals, shares, masses = mass_terms(member_logp)
        uniform_vals = uniform_terms(member_logp)
        sel = masses >= gamma
        live = tuple(map(_BRANCH_OF.__getitem__, sel.tolist()))
        if branches is not None:
            if len(branches) != len(live):
                raise ValueError("pinned branches must match the background count")
            sel = np.array([b == MASS_BRANCH for b in branches])
        n, k = len(live), shares.shape[1]
        mass = float(np.add.reduce(mass_vals) / n)
        uniform = float(np.add.reduce(uniform_vals) / n)
        switched = float(np.add.reduce(np.where(sel, mass_vals, uniform_vals)) / n)
        g = grad[rows]
        if component in _BACKGROUND_COMPONENTS or (final and use_prompts):
            q = (shares if component == "mass" else 1.0 / k if component == "uniform"
                 else np.where(sel[:, None], shares, 1.0 / k))
            g[:, indices.background_columns] -= q
            g /= n
        else:
            g.fill(0.0)

    rows = slices.get("pseudo_negative")
    if rows is not None:
        vals, shares, _ = mass_terms(logp[rows][:, indices.pseudo_negative])
        n = len(vals)
        pseudo += negative_weight * float(np.add.reduce(vals) / n)
        g = grad[rows]
        if pseudo_read:
            g[:, indices.pseudo_negative_columns] -= shares
            g *= negative_weight / n
        else:
            g.fill(0.0)

    total = 0.0 + foreground  # the sum of the components "final" holds, in this order
    if use_prompts:
        total += switched
    if use_discovery:
        total += pseudo
    values = {"foreground": foreground, "mass": mass, "uniform": uniform, "switched": switched,
              "pseudo": pseudo, "final": total}
    return ObjectiveTerms(values, live, grad)
