"""Category registry: ordering, counts, and rebuild semantics."""

import dataclasses

import numpy as np
import pytest

from ovlab.core import ZeroNormError
from ovlab.encoder import MockTextEncoder, init_context_vectors
from ovlab.vocab import FixedRows, Kind, Vocabulary, build_inference_vocab, build_training_vocab

from util import training_vocab


@pytest.fixture(scope="module")
def enc():
    return MockTextEncoder(seed=2)


def _base(enc, n):
    ids = list(range(n))
    emb = np.stack([enc.encode_named_category(s) for s in ids])
    return ids, emb


def _sub(enc, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(enc.dim)
    return v / np.linalg.norm(v)


def test_training_vocab_counts(enc):
    ids, emb = _base(enc, 3)
    ctx = init_context_vectors(2, seed=0, ctx_dim=enc.ctx_dim)
    vocab = training_vocab(ids, emb, ctx, _sub(enc), enc)
    assert vocab.size == 6  # 3 base + 2 underlying + 1 sub-background
    assert vocab.n_base == 3 and vocab.n_underlying == 2
    assert vocab.embeddings.shape == (6, enc.dim)


def test_baseline_mode_counts(enc):
    ids, emb = _base(enc, 3)
    vocab = training_vocab(
        ids, emb, np.zeros((0, enc.ctx_dim)), _sub(enc), enc, baseline_mode=True
    )
    assert vocab.size == 4  # single background embedding only
    assert vocab.n_underlying == 0


def test_baseline_mode_rejects_context_vectors(enc):
    ids, emb = _base(enc, 2)
    ctx = init_context_vectors(1, seed=0, ctx_dim=enc.ctx_dim)
    with pytest.raises(ValueError):
        training_vocab(ids, emb, ctx, _sub(enc), enc, baseline_mode=True)


def test_benchmark_scale_counts(enc):
    # 48 annotated categories, estimated count plus the expansion of 10.
    ids, emb = _base(enc, 48)
    n_o = 7
    ctx = init_context_vectors(n_o + 10, seed=3, ctx_dim=enc.ctx_dim)
    vocab = training_vocab(ids, emb, ctx, _sub(enc), enc, n_discovered=n_o)
    assert vocab.size == 48 + (n_o + 10) + 1
    inference = build_inference_vocab(
        vocab, range(48, 65), np.stack([enc.encode_named_category(100 + i) for i in range(17)])
    )
    assert inference.n_base + inference.n_novel == 65
    assert inference.size == 65 + (n_o + 10) + 1


def test_inference_vocab_empty_novel(enc):
    ids, emb = _base(enc, 4)
    ctx = init_context_vectors(3, seed=1, ctx_dim=enc.ctx_dim)
    tv = training_vocab(ids, emb, ctx, _sub(enc), enc)
    iv = build_inference_vocab(tv, [], np.zeros((0, enc.dim)))
    assert iv.size == tv.size
    np.testing.assert_array_equal(iv.embeddings, tv.embeddings)
    assert iv.inference and not tv.inference


def test_inference_vocab_id_collision(enc):
    ids, emb = _base(enc, 4)
    ctx = init_context_vectors(2, seed=1, ctx_dim=enc.ctx_dim)
    tv = training_vocab(ids, emb, ctx, _sub(enc), enc)
    with pytest.raises(ValueError):
        build_inference_vocab(tv, [2], enc.encode_named_category(99)[None, :])


def test_inference_vocab_duplicate_novel_ids(enc):
    ids, emb = _base(enc, 2)
    tv = training_vocab(ids, emb, np.zeros((0, enc.ctx_dim)), _sub(enc), enc)
    novel = np.stack([enc.encode_named_category(50), enc.encode_named_category(51)])
    with pytest.raises(ValueError):
        build_inference_vocab(tv, [7, 7], novel)


def test_block_ordering_reconstructible_from_counts(enc):
    ids, emb = _base(enc, 3)
    ctx = init_context_vectors(4, seed=2, ctx_dim=enc.ctx_dim)
    tv = training_vocab(ids, emb, ctx, _sub(enc), enc, n_discovered=2)
    novel_emb = np.stack([enc.encode_named_category(60), enc.encode_named_category(61)])
    iv = build_inference_vocab(tv, [10, 11], novel_emb)
    kinds = [c.kind for c in iv.categories()]
    assert kinds == [Kind.BASE] * 3 + [Kind.NOVEL] * 2 + [Kind.UNDERLYING] * 4 + [Kind.SUB_BACKGROUND]
    assert iv.novel_slice == slice(3, 5)
    assert iv.underlying_slice == slice(5, 9)
    assert iv.sub_background_index == 9
    np.testing.assert_array_equal(iv.background_indices(), [5, 6, 7, 8, 9])


def test_rebuild_changes_only_underlying_block(enc):
    ids, emb = _base(enc, 3)
    ctx = init_context_vectors(2, seed=4, ctx_dim=enc.ctx_dim)
    sub = _sub(enc)
    v1 = training_vocab(ids, emb, ctx, sub, enc)
    v2 = training_vocab(ids, emb, ctx + 0.5, sub, enc)
    np.testing.assert_array_equal(v1.embeddings[:3], v2.embeddings[:3])
    np.testing.assert_array_equal(
        v1.embeddings[v1.sub_background_index], v2.embeddings[v2.sub_background_index]
    )
    assert not np.allclose(
        v1.embeddings[v1.underlying_slice], v2.embeddings[v2.underlying_slice]
    )


def test_count_mismatch_error(enc):
    ids, emb = _base(enc, 2)
    ctx = init_context_vectors(2, seed=5, ctx_dim=enc.ctx_dim)
    with pytest.raises(ValueError):
        training_vocab(ids, emb, ctx, _sub(enc), enc, n_discovered=3)


def test_records_serialization(enc):
    ids, emb = _base(enc, 2)
    ctx = init_context_vectors(1, seed=6, ctx_dim=enc.ctx_dim)
    vocab = training_vocab(ids, emb, ctx, _sub(enc), enc)
    recs = vocab.records()
    assert len(recs) == vocab.size
    assert recs[0]["kind"] == "base" and recs[0]["context_vector"] is None
    assert recs[2]["kind"] == "underlying" and len(recs[2]["context_vector"]) == enc.ctx_dim
    assert recs[-1]["kind"] == "sub_background"


def test_base_position_lookup(enc):
    ids = [5, 9, 2]
    emb = np.stack([enc.encode_named_category(i) for i in ids])
    vocab = training_vocab(ids, emb, np.zeros((0, enc.ctx_dim)), _sub(enc), enc)
    assert vocab.base_position(9) == 1
    with pytest.raises(KeyError):
        vocab.base_position(7)


def test_directly_constructed_vocabulary_derives_its_lookups(enc):
    # The base positions and the underlying count come from the base ids and
    # the context vectors, so a vocabulary built without a builder has them too.
    ids = (5, 9, 2)
    ctx = init_context_vectors(2, seed=0, ctx_dim=enc.ctx_dim)
    emb = np.concatenate([np.stack([enc.encode_named_category(i) for i in ids]),
                          enc.encode_context(ctx), _sub(enc)[None, :]])
    vocab = Vocabulary(base_ids=ids, novel_ids=(), n_discovered=1, embeddings=emb,
                       context_vectors=ctx, encoder=enc)
    assert [vocab.base_position(i) for i in ids] == [0, 1, 2]
    assert vocab.n_underlying == 2 and vocab.size == 6
    assert vocab.underlying_slice == slice(3, 5) and vocab.sub_background_index == 5
    with pytest.raises(KeyError):
        vocab.base_position(7)


def test_embeddings_are_frozen(enc):
    ids, emb = _base(enc, 2)
    vocab = training_vocab(ids, emb, np.zeros((0, enc.ctx_dim)), _sub(enc), enc)
    with pytest.raises(ValueError):
        vocab.embeddings[0, 0] = 5.0


@pytest.mark.parametrize("n_ctx", [0, 2])
def test_zero_norm_embedding_fails_when_the_vocabulary_is_built(enc, n_ctx):
    # Every vocabulary stores its unit embeddings, so a direction-less row
    # is refused on construction, not when the vocabulary is first scored.
    ids, emb = _base(enc, 3)
    ctx = init_context_vectors(n_ctx, seed=0, ctx_dim=enc.ctx_dim) if n_ctx else np.zeros((0, enc.ctx_dim))
    with pytest.raises(ZeroNormError, match="zero-norm rows have no direction"):
        training_vocab(ids, emb, ctx, np.zeros(enc.dim), enc)
    vocab = training_vocab(ids, emb, ctx, _sub(enc), enc)
    with pytest.raises(ZeroNormError):
        build_inference_vocab(vocab, [100], np.zeros((1, enc.dim)))


def test_context_forward_is_set_by_the_training_builder_only(enc):
    ids, emb = _base(enc, 2)
    ctx = init_context_vectors(3, seed=1, ctx_dim=enc.ctx_dim)
    vocab = training_vocab(ids, emb, ctx, _sub(enc), enc)
    fresh = enc.forward(vocab.context_vectors)
    for kept, new in zip(vocab.context_forward, fresh):
        assert kept.tobytes() == new.tobytes()
    fields = {f.name: f for f in dataclasses.fields(Vocabulary)}
    assert not fields["context_forward"].init
    with pytest.raises(TypeError):
        Vocabulary(**{name: getattr(vocab, name) for name, f in fields.items() if f.init},
                   context_forward=enc.forward(ctx[::-1]))
    assert dataclasses.replace(vocab).context_forward is None
    assert build_inference_vocab(vocab, [], np.zeros((0, enc.dim))).context_forward is None


@pytest.mark.parametrize("n_ctx, n_disc", [(0, 0), (3, 3), (5, 2)])
def test_step_vocabulary_equals_a_vocabulary_normalized_whole(enc, n_ctx, n_disc):
    # A step normalizes only the moving rows and reuses the run's base unit
    # rows; the result must match normalizing every stacked row, to the bit.
    ids, emb = _base(enc, 4)
    fixed = FixedRows(tuple(ids), emb, enc, n_ctx, n_disc)
    rng = np.random.default_rng(n_ctx)
    for _ in range(5):
        ctx = rng.normal(0.0, 0.5, (n_ctx, enc.ctx_dim))
        sub = rng.normal(size=enc.dim)
        step = build_training_vocab(fixed, ctx, sub)
        forward = enc.forward(ctx) if n_ctx else None
        rows = [emb, forward.embeddings] if n_ctx else [emb]
        whole = Vocabulary(base_ids=tuple(ids), novel_ids=(), n_discovered=n_disc,
                           embeddings=np.concatenate([*rows, sub[None, :]]), context_vectors=ctx, encoder=enc)
        assert step.embeddings.tobytes() == whole.embeddings.tobytes()
        for got, want in zip(step.unit_embeddings, whole.unit_embeddings, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert step.context_vectors.tobytes() == ctx.tobytes()
        if n_ctx:
            for kept, fresh in zip(step.context_forward, forward, strict=True):
                assert kept.tobytes() == fresh.tobytes()
        else:
            assert step.context_forward is None


@pytest.mark.parametrize("n_novel", [0, 2])
def test_block_indices_equal_the_positions_they_stand_for(enc, n_novel):
    # The run's index arrays are computed once; they must be the underlying
    # block plus the sub-background slot, and the expansion categories plus
    # that slot, for training and inference vocabularies alike, and their
    # column slices must select the same positions.
    ids, emb = _base(enc, 3)
    ctx = init_context_vectors(5, seed=2, ctx_dim=enc.ctx_dim)
    fixed = FixedRows(tuple(ids), emb, enc, 5, 2)
    vocab = build_training_vocab(fixed, ctx, _sub(enc))
    assert vocab.block_indices is fixed.block_indices
    if n_novel:
        vocab = build_inference_vocab(vocab, [100, 101], np.stack([_sub(enc, s) for s in (1, 2)]))
    start = vocab.n_base + vocab.n_novel
    under, sub = slice(start, start + vocab.n_underlying), vocab.size - 1
    assert (vocab.underlying_slice, vocab.sub_background_index) == (under, sub)
    background = np.concatenate([np.arange(under.start, under.stop), [sub]])
    members = np.concatenate([np.arange(under.start + vocab.n_discovered, under.stop), [sub]])
    indices, positions = vocab.block_indices, np.arange(vocab.size)
    for got, columns, want in ((vocab.background_indices(), indices.background_columns, background),
                               (indices.pseudo_negative, indices.pseudo_negative_columns, members)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist() == positions[columns].tolist()
        with pytest.raises(ValueError):
            got[0] = 0


def test_fixed_rows_check_the_run_once(enc):
    ids, emb = _base(enc, 3)
    with pytest.raises(ValueError, match="baseline mode"):
        FixedRows(tuple(ids), emb, enc, 2, baseline_mode=True)
    with pytest.raises(ValueError, match="one embedding per base id"):
        FixedRows(tuple(ids[:2]), emb, enc, 2)
    with pytest.raises(ZeroNormError):
        FixedRows(tuple(ids), np.zeros_like(emb), enc, 2)
    fixed = FixedRows(tuple(ids), emb, enc, 2)
    assert fixed.n_discovered == 2 and not fixed.base_embeddings.flags.writeable
    with pytest.raises(ValueError, match="3 context vectors for an underlying block of 2"):
        build_training_vocab(fixed, init_context_vectors(3, seed=0, ctx_dim=enc.ctx_dim), _sub(enc))
