"""Deterministic mock text encoder and learnable context vectors.

The encoder stands in for a frozen pretrained text tower. It maps a fixed
prompt prefix concatenated with a per-category context vector through a
frozen affine-tanh-affine stack and projects the result onto the unit
sphere. It is deliberately non-linear so that fitting context vectors is a
genuine optimization problem, and cheap enough that finite-difference
sweeps over every parameter stay fast.

Named (base/novel) categories are encoded by drawing a seed-determined
"name token" in context space and running it through the same stack, so
learned context vectors live on the same output manifold as named-category
embeddings.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import DimensionMismatchError, is_integer

__all__ = [
    "ContextForward",
    "MockTextEncoder",
    "init_context_vectors",
    "CONTEXT_INIT_STD",
]

# Initialization spread for learnable context vectors (common prompt-tuning value).
CONTEXT_INIT_STD = 0.02

# Frozen-weight scale constants. Chosen so that name tokens (std ~1) land in
# the active region of tanh while the shared prefix does not saturate it.
_PREFIX_SCALE = 0.5
_CONTEXT_COLUMN_STD = 0.25
_HIDDEN_BIAS_STD = 0.3
_OUTPUT_BIAS_STD = 0.1
_NAME_TOKEN_STD = 1.0

# Salts separating the independent random streams drawn from one encoder seed.
_WEIGHT_SALT = 0
_NAME_SALT = 1


class ContextForward(NamedTuple):
    """What encoding an (n, ctx_dim) stack computes that its derivatives reuse.

    ``hidden`` is tanh of the pre-activations, ``norms`` holds the (n, 1)
    norms of the raw outputs and ``embeddings`` those outputs over their norms.
    """

    hidden: np.ndarray
    norms: np.ndarray
    embeddings: np.ndarray


class MockTextEncoder:
    """Frozen, seeded, smooth map from context space to unit-norm embeddings.

    All weights are drawn once at construction and never change; encoding is
    deterministic and safe to call from any number of threads.
    """

    def __init__(
        self,
        seed: int,
        dim: int = 32,
        ctx_dim: int = 16,
        hidden_dim: int = 64,
        prefix_dim: int = 8,
    ) -> None:
        sizes = dict(seed=seed, dim=dim, ctx_dim=ctx_dim, hidden_dim=hidden_dim, prefix_dim=prefix_dim)
        if not all(map(is_integer, sizes.values())):
            raise ValueError(f"encoder settings must be integers, got {sizes}")
        for name, value in sizes.items():
            least = 0 if name == "seed" else 1
            if value < least:
                raise ValueError(f"MockTextEncoder.{name} must be at least {least}, got {value}")
        self.seed = int(seed)
        self.dim = int(dim)
        self.ctx_dim = int(ctx_dim)
        self.hidden_dim = int(hidden_dim)
        self.prefix_dim = int(prefix_dim)

        rng = np.random.default_rng([_WEIGHT_SALT, self.seed])
        self._prefix = rng.standard_normal(prefix_dim) * _PREFIX_SCALE  # the shared prompt wording
        w1 = rng.standard_normal((hidden_dim, prefix_dim + ctx_dim))
        w1[:, :prefix_dim] /= np.sqrt(prefix_dim)
        w1[:, prefix_dim:] *= _CONTEXT_COLUMN_STD
        self._w1 = w1
        self._b1 = rng.standard_normal(hidden_dim) * _HIDDEN_BIAS_STD
        self._w2 = rng.standard_normal((dim, hidden_dim)) / np.sqrt(hidden_dim)
        self._b2 = rng.standard_normal(dim) * _OUTPUT_BIAS_STD
        for arr in (self._w1, self._b1, self._w2, self._b2, self._prefix):
            arr.setflags(write=False)
        self._w1_context = w1[:, prefix_dim:]  # the columns a context vector enters through (a view)

    # -- forward ----------------------------------------------------------

    def _check_ctx(self, v) -> np.ndarray:
        arr = np.asarray(v, dtype=np.float64)
        if arr.shape[-1:] != (self.ctx_dim,) or arr.ndim > 2:
            raise DimensionMismatchError(
                f"context vector must have shape ({self.ctx_dim},) or (n, {self.ctx_dim}), got {arr.shape}"
            )
        return arr

    def forward(self, v) -> ContextForward:
        """The ``ContextForward`` of a context vector (as a one-row stack) or of an (n, ctx_dim) stack.

        On one row every product is the same BLAS call as on a vector, so a
        vector and its one-row stack encode bit for bit alike.
        """
        rows = self._check_ctx(v)
        if rows.ndim == 1:
            rows = rows[None, :]
        x = np.empty((rows.shape[0], self.prefix_dim + self.ctx_dim))
        x[:, : self.prefix_dim] = self._prefix
        x[:, self.prefix_dim :] = rows
        hidden = x @ self._w1.T
        hidden += self._b1
        np.tanh(hidden, out=hidden)
        y = hidden @ self._w2.T
        y += self._b2
        norms = np.sqrt(_row_dots(y, y))
        # A non-finite output makes its row's norm, and so the norms' sum, non-finite.
        if not math.isfinite(np.add.reduce(norms, axis=None)):
            raise ValueError("context vectors encode to non-finite embeddings")
        return ContextForward(hidden, norms, np.divide(y, norms, out=y))

    def encode_context(self, v) -> np.ndarray:
        """Unit-norm embedding of a context vector, or one per row of an (n, ctx_dim) stack."""
        out = self.forward(v).embeddings
        return out[0] if np.ndim(v) == 1 else out

    def encode_context_vjp(self, v, cotangent, forward: ContextForward | None = None) -> np.ndarray:
        """Transpose-Jacobian product: pulls an embedding-space gradient back to context space.

        Takes one vector and cotangent, or matching (n, ctx_dim) and (n, dim)
        row stacks. ``forward``, when given, is ``self.forward(v)``: the
        pullback then reuses it instead of running the stack again.
        """
        arr, g = self._check_ctx(v), np.asarray(cotangent, dtype=np.float64)
        if g.shape != arr.shape[:-1] + (self.dim,):
            raise DimensionMismatchError(
                f"cotangent must have shape {arr.shape[:-1] + (self.dim,)}, got {g.shape}"
            )
        hidden, ny, yhat = forward if forward is not None else self.forward(arr)
        if hidden.shape[0] != (arr.shape[0] if arr.ndim == 2 else 1):
            raise DimensionMismatchError(f"forward of {hidden.shape[0]} rows for context shape {arr.shape}")
        if g.ndim == 1:
            g = g[None, :]
        gy = _row_dots(yhat, g) * yhat
        np.subtract(g, gy, out=gy)
        gy /= ny
        gh = np.square(hidden)  # ``hidden**2``
        np.subtract(1.0, gh, out=gh)
        gh *= gy @ self._w2
        out = gh @ self._w1_context
        return out[0] if arr.ndim == 1 else out

    # -- named categories --------------------------------------------------

    def name_token(self, name_seed: int) -> np.ndarray:
        """Seed-determined context-space token standing in for a category name."""
        rng = np.random.default_rng([_NAME_SALT, self.seed, int(name_seed)])
        return rng.standard_normal(self.ctx_dim) * _NAME_TOKEN_STD

    def encode_named_category(self, name_seed: int) -> np.ndarray:
        """Deterministic unit-norm embedding for a named (base/novel) category."""
        return self.encode_context(self.name_token(name_seed))

    def config(self) -> dict:
        """Constructor arguments, for checkpoints and dataset headers."""
        return {
            "seed": self.seed,
            "dim": self.dim,
            "ctx_dim": self.ctx_dim,
            "hidden_dim": self.hidden_dim,
            "prefix_dim": self.prefix_dim,
        }


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products as an (n, 1) column, each the same BLAS dot as a 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0]


def init_context_vectors(count: int, seed: int, ctx_dim: int = 16) -> np.ndarray:
    """Seeded i.i.d. Gaussian (std 0.02) initialization, one row per category."""
    if count < 1:
        raise ValueError(f"need at least one context vector, got count={count}")
    rng = np.random.default_rng([2, int(seed)])
    return rng.normal(0.0, CONTEXT_INIT_STD, size=(count, int(ctx_dim)))
