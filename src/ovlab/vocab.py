"""Ordered registry of category sets and their embeddings.

The ordering contract every probability vector relies on:

    [base block | novel block | underlying block | sub-background]

Novel categories exist only in inference vocabularies. The underlying block
holds the context-vector-backed background categories; its first
``n_discovered`` entries are aligned index-for-index with the frozen cluster
centers, the remainder are the safety-expansion categories. The final slot
is the learnable sub-background embedding (or, in baseline mode, the single
catch-all background embedding, with an empty underlying block).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import DimensionMismatchError, unit_rows
from .encoder import ContextForward, MockTextEncoder

__all__ = [
    "Kind",
    "CategoryId",
    "Vocabulary",
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


@dataclass(frozen=True)
class Vocabulary:
    """Immutable snapshot of every category the head scores against.

    ``embeddings`` stacks all category embeddings in block order. The
    snapshot also carries the context vectors, the encoder and (for a
    training vocabulary) the encoder's ``ContextForward`` of the underlying
    block, so gradient code can chain through that block without extra
    arguments or a second forward pass. A zero-norm embedding row has no
    direction and raises ``ZeroNormError`` on construction.
    """

    base_ids: tuple[int, ...]
    novel_ids: tuple[int, ...]
    n_discovered: int
    embeddings: np.ndarray
    context_vectors: np.ndarray
    encoder: MockTextEncoder | None
    inference: bool = False
    # Set by ``build_training_vocab`` only, so it is always the forward of
    # these context vectors.
    context_forward: ContextForward | None = field(init=False, repr=False, default=None)
    # ``core.unit_rows`` of the embeddings (unit rows and their (size, 1)
    # norms), which the cosine layer and its gradient share.
    unit_embeddings: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "unit_embeddings", unit_rows(self.embeddings))

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
    def base_slice(self) -> slice:
        return slice(0, self.n_base)

    @property
    def novel_slice(self) -> slice:
        return slice(self.n_base, self.n_base + self.n_novel)

    @property
    def underlying_slice(self) -> slice:
        start = self.n_base + self.n_novel
        return slice(start, start + self.n_underlying)

    @property
    def sub_background_index(self) -> int:
        return self.size - 1

    @property
    def foreground_slice(self) -> slice:
        """Base and novel blocks together."""
        return slice(0, self.n_base + self.n_novel)

    def background_indices(self) -> np.ndarray:
        """Positions of the underlying block plus the sub-background slot."""
        under = self.underlying_slice
        return np.concatenate(
            [np.arange(under.start, under.stop), [self.sub_background_index]]
        )

    def expansion_indices(self) -> np.ndarray:
        """Positions of the safety-expansion underlying categories (beyond the clustered ones)."""
        under = self.underlying_slice
        return np.arange(under.start + self.n_discovered, under.stop)

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def build_training_vocab(
    base_ids,
    base_embeddings,
    context_vectors,
    sub_background,
    encoder: MockTextEncoder | None,
    n_discovered: int | None = None,
    baseline_mode: bool = False,
) -> Vocabulary:
    """Assemble the training-time vocabulary [base..., underlying..., sub-background].

    Underlying embeddings are recomputed from the current context vectors on
    every call, so the returned snapshot always reflects the live parameters;
    the snapshot keeps that encoder forward for the gradient's pullback.
    In baseline mode the underlying block must be empty and the final slot is
    the single background embedding.
    """
    base_ids = tuple(int(i) for i in base_ids)
    base_emb = np.asarray(base_embeddings, dtype=np.float64)
    if base_emb.ndim != 2 or base_emb.shape[0] != len(base_ids):
        raise ValueError(
            f"need one embedding per base id: {len(base_ids)} ids, embeddings {base_emb.shape}"
        )
    ctx = np.asarray(context_vectors, dtype=np.float64)
    if ctx.size == 0:
        ctx = ctx.reshape(0, encoder.ctx_dim if encoder is not None else 0)
    if baseline_mode and ctx.shape[0] != 0:
        raise ValueError("baseline mode admits no underlying categories")
    if not baseline_mode and encoder is None and ctx.shape[0] > 0:
        raise ValueError("an encoder is required to embed context vectors")

    n_under = ctx.shape[0]
    if n_discovered is None:
        n_discovered = n_under
    if not (0 <= n_discovered <= n_under):
        raise ValueError(
            f"discovered-category count {n_discovered} outside [0, {n_under}]"
        )

    sub = np.asarray(sub_background, dtype=np.float64)
    d = base_emb.shape[1]
    if sub.shape != (d,):
        raise DimensionMismatchError(
            f"sub-background embedding must have shape ({d},), got {sub.shape}"
        )

    forward = None
    if n_under:
        forward = encoder.forward(ctx)
        if encoder.dim != d:
            raise DimensionMismatchError(f"encoder dimension {encoder.dim} != base dimension {d}")
        stacked = np.concatenate([base_emb, forward.embeddings, sub[None, :]])
    else:
        stacked = np.concatenate([base_emb, sub[None, :]])
    stacked.setflags(write=False)  # a new array, so freezing needs no copy

    vocab = Vocabulary(
        base_ids=base_ids,
        novel_ids=(),
        n_discovered=int(n_discovered),
        embeddings=stacked,
        context_vectors=_frozen(ctx),
        encoder=encoder,
        inference=False,
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
