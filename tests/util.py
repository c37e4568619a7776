"""Shared constructors for hand-built vocabularies and proposals, the edge-case scenario worlds, one query's
linear block sums from the inference scorer, a check that no forked child outlived its call, and a count of
the Python-level calls a call makes."""

import gc
import os
import sys

import numpy as np
import pytest

from ovlab.discovery import Proposal
from ovlab.rectify import _shifted_scores
from ovlab.vocab import FixedRows, Vocabulary, build_training_vocab


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def training_vocab(base_ids, base_emb, ctx, sub, encoder, n_discovered=None, baseline_mode=False):
    """``build_training_vocab`` over ``FixedRows`` made from the same arguments, for a one-off vocabulary."""
    ctx = np.asarray(ctx, dtype=np.float64)
    fixed = FixedRows(tuple(base_ids), base_emb, encoder, len(ctx), n_discovered, baseline_mode)
    return build_training_vocab(fixed, ctx, sub)


def make_vocab(
    base_emb,
    under_emb=None,
    sub=None,
    n_discovered=None,
    novel_emb=None,
    novel_ids=None,
    base_ids=None,
    encoder=None,
    context_vectors=None,
    inference=None,
):
    """Build a Vocabulary snapshot directly from chosen embedding rows.

    Lets tests pick exact geometry (orthogonal blocks, prescribed cosines)
    without routing the underlying block through the encoder.
    """
    base_emb = np.asarray(base_emb, dtype=np.float64)
    if base_emb.size == 0:
        base_emb = base_emb.reshape(0, sub.shape[0] if sub is not None else 0)
    d = base_emb.shape[1] if base_emb.size else (sub.shape[0] if sub is not None else None)
    under_emb = (
        np.asarray(under_emb, dtype=np.float64)
        if under_emb is not None
        else np.zeros((0, d))
    )
    novel_emb = (
        np.asarray(novel_emb, dtype=np.float64)
        if novel_emb is not None
        else np.zeros((0, d))
    )
    if sub is None:
        raise ValueError("sub embedding required")
    base_ids = tuple(base_ids) if base_ids is not None else tuple(range(base_emb.shape[0]))
    novel_ids = (
        tuple(novel_ids)
        if novel_ids is not None
        else tuple(range(1000, 1000 + novel_emb.shape[0]))
    )
    n_under = under_emb.shape[0]
    if n_discovered is None:
        n_discovered = n_under
    if context_vectors is None:
        context_vectors = np.zeros((n_under, 1))
    if inference is None:
        inference = bool(novel_emb.shape[0]) or novel_ids != ()
    stacked = np.vstack([base_emb, novel_emb, under_emb, np.asarray(sub)[None, :]])
    stacked.setflags(write=False)
    return Vocabulary(
        base_ids=base_ids,
        novel_ids=novel_ids,
        n_discovered=n_discovered,
        embeddings=stacked,
        context_vectors=np.asarray(context_vectors, dtype=np.float64),
        encoder=encoder,
        inference=inference,
    )


def make_proposal(det_feature, img_feature=None, gt_label=None):
    det = np.asarray(det_feature, dtype=np.float64)
    img = np.asarray(img_feature, dtype=np.float64) if img_feature is not None else det
    return Proposal(
        det_feature=det,
        img_feature=img,
        gt_label=gt_label,
    )


def block_sums(q, vocab, tau, factors=None) -> tuple[float, float, float]:
    """One query's linear sums of exp(logit) over the foreground, underlying and sub-background blocks, underlying
    scores shrunk by ``factors``: the scorer ``rectify._shifted_scores``'s shifted block sums, each times exp(shift)."""
    shift, fg, under, sub = _shifted_scores(np.asarray(q, dtype=np.float64)[None, :], vocab, tau, factors)
    scale = np.exp(shift[0])
    return float(scale * fg[0].sum()), float(scale * under[0].sum()), float(scale * sub[0])


# ``ScenarioConfig`` edits, each applied to a world of 6 train and 4 eval images, that reach
# the generator's edge cases.
EDGE_WORLDS = {
    "no_hidden": dict(n_novel=0, n_distractor=0),
    "all_hidden": dict(base_fraction=0.0),
    "all_base": dict(base_fraction=1.0),
    "custom_hidden_weights": dict(hidden_weights=(0.0, 3.0, 1.0, 0.5, 2.0, 0.0, 1.0)),
    "no_objects": dict(objects_per_image=0),
    "no_object_proposals": dict(proposals_per_object=0),
    "no_clutter": dict(clutter_per_image=0),
    "clipped": dict(box_min=60.0, box_max=100.0, object_score_std=0.1, clutter_score_std=1.0),
    "fixed_size_boxes": dict(box_min=20.0, box_max=20.0),
    "boxes_from_zero": dict(box_min=0.0),
    "noiseless": dict(sigma_feat=0.0, sigma_det=0.0),
}


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_calls(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``'s result and the ``sys.setprofile`` "call" events it made, ``fn``'s own
    included, with the garbage collector paused: a collection's calls depend on the tests that ran before."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, calls
