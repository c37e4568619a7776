"""Ordered registry of category sets and their embeddings.

The ordering contract every probability vector relies on:

    [base block | novel block | underlying block | sub-background]

Novel categories exist only in inference vocabularies. The underlying block
holds the context-vector-backed background categories; its first
``n_discovered`` entries are aligned index-for-index with the frozen cluster
centers, the remainder are the safety-expansion categories. The final slot
is the learnable sub-background embedding (or, in baseline mode, the single
catch-all background embedding, with an empty underlying block).

Training never moves a position, and only the underlying block and the
sub-background row change: a run checks its base rows and lays out its block
indices once in ``FixedRows``, and ``build_training_vocab`` then embeds only
the moving rows of each step's vocabulary.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import DimensionMismatchError, unit_rows
from .encoder import ContextForward, MockTextEncoder

__all__ = [
    "Kind",
    "CategoryId",
    "BlockIndices",
    "Vocabulary",
    "FixedRows",
    "build_training_vocab",
    "build_inference_vocab",
]


class Kind(Enum):
    BASE = "base"
    NOVEL = "novel"
    UNDERLYING = "underlying"
    SUB_BACKGROUND = "sub_background"


@dataclass(frozen=True)
class CategoryId:
    index: int
    kind: Kind


class BlockIndices(NamedTuple):
    """Positions of a vocabulary's blocks, fixed by its block sizes.

    Both member sets are contiguous and end at the sub-background slot, so
    each is held twice: as a read-only position array and as the column slice
    that reads the same entries as a view.
    """

    background: np.ndarray  # the underlying block plus the sub-background slot
    # the expansion categories plus the sub-background slot: the member set the
    # pseudo-label loss pulls unlabeled filtered proposals toward
    pseudo_negative: np.ndarray
    background_columns: slice
    pseudo_negative_columns: slice
    underlying: slice
    sub_background: int


def _block_indices(n_before: int, n_underlying: int, n_discovered: int) -> BlockIndices:
    """``BlockIndices`` of a vocabulary whose underlying block starts at ``n_before``."""
    sub = n_before + n_underlying
    background = np.arange(n_before, sub + 1)
    background.setflags(write=False)
    return BlockIndices(background, background[n_discovered:],  # a view, read-only like its base
                        slice(n_before, sub + 1), slice(n_before + n_discovered, sub + 1),
                        slice(n_before, sub), sub)


@dataclass(frozen=True)
class Vocabulary:
    """Immutable snapshot of every category the head scores against.

    ``embeddings`` stacks all category embeddings in block order. The
    snapshot also carries the context vectors, the encoder and (for a
    training vocabulary) the encoder's ``ContextForward`` of the underlying
    block, so gradient code can chain through that block without extra
    arguments or a second forward pass. A zero-norm embedding row has no
    direction and raises ``ZeroNormError`` on construction.

    ``indices`` lets the caller hand over the block indices it already has
    (``build_training_vocab`` takes them from the run's ``FixedRows``); left
    out, they are computed here.
    """

    base_ids: tuple[int, ...]
    novel_ids: tuple[int, ...]
    n_discovered: int
    embeddings: np.ndarray
    context_vectors: np.ndarray
    encoder: MockTextEncoder | None
    inference: bool = False
    indices: InitVar[BlockIndices | None] = None
    # Set by ``build_training_vocab`` only, so it is always the forward of
    # these context vectors.
    context_forward: ContextForward | None = field(init=False, repr=False, default=None)
    # ``core.unit_rows`` of the embeddings (unit rows and their (size, 1)
    # norms), which the cosine layer and its gradient share.
    unit_embeddings: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    block_indices: BlockIndices = field(init=False, repr=False, compare=False)

    def __post_init__(self, indices):
        if indices is None:
            indices = _block_indices(self.n_base + self.n_novel, self.n_underlying, self.n_discovered)
        object.__setattr__(self, "unit_embeddings", unit_rows(self.embeddings))
        object.__setattr__(self, "block_indices", indices)

    # -- counts and index blocks -------------------------------------------

    @property
    def n_base(self) -> int:
        return len(self.base_ids)

    @property
    def n_novel(self) -> int:
        return len(self.novel_ids)

    @property
    def n_underlying(self) -> int:
        return len(self.context_vectors)

    @property
    def size(self) -> int:
        return self.n_base + self.n_novel + self.n_underlying + 1

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def novel_slice(self) -> slice:
        return slice(self.n_base, self.n_base + self.n_novel)

    @property
    def underlying_slice(self) -> slice:
        return self.block_indices.underlying

    @property
    def sub_background_index(self) -> int:
        return self.block_indices.sub_background

    @property
    def foreground_slice(self) -> slice:
        """Base and novel blocks together."""
        return slice(0, self.n_base + self.n_novel)

    def background_indices(self) -> np.ndarray:
        """Positions of the underlying block plus the sub-background slot (a read-only array)."""
        return self.block_indices.background

    def base_position(self, base_id: int) -> int:
        try:
            return self.base_ids.index(base_id)
        except ValueError:
            raise KeyError(f"unknown base category id {base_id}") from None

    def underlying_position(self, cluster_index: int) -> int:
        """Vocabulary position of the underlying category aligned with a cluster index."""
        if not (0 <= cluster_index < self.n_discovered):
            raise IndexError(
                f"cluster index {cluster_index} outside the {self.n_discovered} discovered categories"
            )
        return self.underlying_slice.start + cluster_index

    def categories(self) -> list[CategoryId]:
        """Ordered CategoryId list matching the embedding rows."""
        out = [CategoryId(i, Kind.BASE) for i in self.base_ids]
        out += [CategoryId(i, Kind.NOVEL) for i in self.novel_ids]
        out += [CategoryId(i, Kind.UNDERLYING) for i in range(self.n_underlying)]
        out.append(CategoryId(0, Kind.SUB_BACKGROUND))
        return out

    def records(self) -> list[dict]:
        """Serializable ordered records {id, kind, embedding, context vector or None}."""
        recs = []
        under_start = self.underlying_slice.start
        for pos, cat in enumerate(self.categories()):
            rec = {
                "id": cat.index,
                "kind": cat.kind.value,
                "embedding": self.embeddings[pos].tolist(),
                "context_vector": None,
            }
            if cat.kind is Kind.UNDERLYING:
                rec["context_vector"] = self.context_vectors[pos - under_start].tolist()
            recs.append(rec)
        return recs


@dataclass(frozen=True)
class FixedRows:
    """What every training vocabulary of one run shares, checked and derived once.

    The base rows, the encoder and the block sizes never change while the
    parameters train, so a run checks them once and then builds each step's
    vocabulary with ``build_training_vocab``, which embeds only the rows that
    move (the underlying block and the sub-background).
    ``n_discovered`` defaults to the whole underlying block. In baseline mode
    the underlying block must be empty and the final slot is the single
    background embedding.
    """

    base_ids: tuple[int, ...]
    base_embeddings: np.ndarray
    encoder: MockTextEncoder
    n_underlying: int
    n_discovered: int | None = None
    baseline_mode: bool = False
    block_indices: BlockIndices = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base_ids = tuple(int(i) for i in self.base_ids)
        base_emb = _frozen(self.base_embeddings)
        if base_emb.ndim != 2 or base_emb.shape[0] != len(base_ids):
            raise ValueError(
                f"need one embedding per base id: {len(base_ids)} ids, embeddings {base_emb.shape}"
            )
        n_under, encoder = self.n_underlying, self.encoder
        if self.baseline_mode and n_under != 0:
            raise ValueError("baseline mode admits no underlying categories")
        if n_under and encoder.dim != base_emb.shape[1]:
            raise DimensionMismatchError(
                f"encoder dimension {encoder.dim} != base dimension {base_emb.shape[1]}"
            )
        n_discovered = n_under if self.n_discovered is None else self.n_discovered
        if not (0 <= n_discovered <= n_under):
            raise ValueError(
                f"discovered-category count {n_discovered} outside [0, {n_under}]"
            )
        unit_rows(base_emb)  # a zero-norm base row fails here, once per run
        for name, value in (("base_ids", base_ids), ("base_embeddings", base_emb),
                            ("n_discovered", int(n_discovered)),
                            ("block_indices", _block_indices(len(base_ids), n_under, n_discovered))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.base_embeddings.shape[1]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def build_training_vocab(fixed: FixedRows, context_vectors, sub_background) -> Vocabulary:
    """The training-time vocabulary [base..., underlying..., sub-background] of the live parameters.

    Underlying embeddings are recomputed from ``context_vectors`` on every
    call, so the returned snapshot always reflects the live parameters; it
    keeps that encoder forward for the gradient's pullback. The block indices
    come from ``fixed``; the unit rows are taken over every row, which costs
    less than normalizing the moving rows and concatenating them with the
    base rows' (each row's norm is the same to the bit either way).
    """
    ctx = _frozen(context_vectors)  # the snapshot's own copy, which the forward also reads
    if ctx.size == 0:
        ctx = ctx.reshape(0, fixed.encoder.ctx_dim)
    if ctx.shape[0] != fixed.n_underlying:
        raise ValueError(f"{ctx.shape[0]} context vectors for an underlying block of {fixed.n_underlying}")
    sub = np.asarray(sub_background, dtype=np.float64)
    if sub.shape != fixed.base_embeddings.shape[1:]:
        raise DimensionMismatchError(
            f"sub-background embedding must have shape ({fixed.dim},), got {sub.shape}"
        )

    forward = fixed.encoder.forward(ctx) if fixed.n_underlying else None
    moving = [forward.embeddings, sub[None, :]] if forward is not None else [sub[None, :]]
    stacked = np.concatenate([fixed.base_embeddings, *moving])
    stacked.setflags(write=False)  # a new array, so freezing needs no copy
    vocab = Vocabulary(
        base_ids=fixed.base_ids,
        novel_ids=(),
        n_discovered=fixed.n_discovered,
        embeddings=stacked,
        context_vectors=ctx,
        encoder=fixed.encoder,
        inference=False,
        indices=fixed.block_indices,
    )
    object.__setattr__(vocab, "context_forward", forward)
    return vocab


def build_inference_vocab(training_vocab: Vocabulary, novel_ids, novel_embeddings) -> Vocabulary:
    """Insert the novel block into a training vocabulary for inference-time scoring."""
    novel_ids = tuple(int(i) for i in novel_ids)
    novel_emb = np.asarray(novel_embeddings, dtype=np.float64)
    if novel_emb.size == 0:
        novel_emb = novel_emb.reshape(0, training_vocab.dim)
    if novel_emb.ndim != 2 or novel_emb.shape[0] != len(novel_ids):
        raise ValueError(
            f"need one embedding per novel id: {len(novel_ids)} ids, embeddings {novel_emb.shape}"
        )
    if novel_emb.shape[0] and novel_emb.shape[1] != training_vocab.dim:
        raise DimensionMismatchError(
            f"novel embedding dimension {novel_emb.shape[1]} != vocabulary dimension {training_vocab.dim}"
        )
    collisions = set(training_vocab.base_ids) & set(novel_ids)
    if collisions:
        raise ValueError(f"novel ids collide with base ids: {sorted(collisions)}")
    if len(set(novel_ids)) != len(novel_ids):
        raise ValueError("duplicate novel ids")

    n_base = training_vocab.n_base
    emb = training_vocab.embeddings
    stacked = np.vstack([emb[:n_base], novel_emb, emb[n_base:]])
    return Vocabulary(
        base_ids=training_vocab.base_ids,
        novel_ids=novel_ids,
        n_discovered=training_vocab.n_discovered,
        embeddings=_frozen(stacked),
        context_vectors=training_vocab.context_vectors,
        encoder=training_vocab.encoder,
        inference=True,
    )
