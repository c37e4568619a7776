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

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, is_integer, normalize

__all__ = [
    "PromptTemplate",
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


@dataclass(frozen=True)
class PromptTemplate:
    """Fixed encoder-input rendering of the shared prompt wording."""

    prefix: np.ndarray

    @property
    def dim(self) -> int:
        return self.prefix.shape[0]


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
        self.seed = int(seed)
        self.dim = int(dim)
        self.ctx_dim = int(ctx_dim)
        self.hidden_dim = int(hidden_dim)
        self.prefix_dim = int(prefix_dim)

        rng = np.random.default_rng([_WEIGHT_SALT, self.seed])
        self.template = PromptTemplate(prefix=rng.standard_normal(prefix_dim) * _PREFIX_SCALE)
        w1 = rng.standard_normal((hidden_dim, prefix_dim + ctx_dim))
        w1[:, :prefix_dim] /= np.sqrt(prefix_dim)
        w1[:, prefix_dim:] *= _CONTEXT_COLUMN_STD
        self._w1 = w1
        self._b1 = rng.standard_normal(hidden_dim) * _HIDDEN_BIAS_STD
        self._w2 = rng.standard_normal((dim, hidden_dim)) / np.sqrt(hidden_dim)
        self._b2 = rng.standard_normal(dim) * _OUTPUT_BIAS_STD
        for arr in (self._w1, self._b1, self._w2, self._b2, self.template.prefix):
            arr.setflags(write=False)

    # -- forward ----------------------------------------------------------

    def _check_ctx(self, v) -> np.ndarray:
        arr = np.asarray(v, dtype=np.float64)
        if arr.shape != (self.ctx_dim,):
            raise DimensionMismatchError(
                f"context vector must have shape ({self.ctx_dim},), got {arr.shape}"
            )
        return arr

    def _pre_normalize(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (pre-activation a, raw output y) for the context vector v."""
        x = np.concatenate([self.template.prefix, v])
        a = self._w1 @ x + self._b1
        y = self._w2 @ np.tanh(a) + self._b2
        return a, y

    def encode_context(self, v) -> np.ndarray:
        """Unit-norm embedding of a context vector."""
        arr = self._check_ctx(v)
        _, y = self._pre_normalize(arr)
        return normalize(y)

    def encode_context_jvp(self, v, direction) -> np.ndarray:
        """Jacobian-vector product of encode_context at v, including normalization."""
        arr = self._check_ctx(v)
        d = self._check_ctx(direction)
        a, y = self._pre_normalize(arr)
        da = self._w1[:, self.prefix_dim :] @ d
        dy = self._w2 @ ((1.0 - np.tanh(a) ** 2) * da)
        ny = np.linalg.norm(y)
        yhat = y / ny
        return (dy - np.dot(yhat, dy) * yhat) / ny

    def encode_context_vjp(self, v, cotangent) -> np.ndarray:
        """Transpose-Jacobian product: pulls an embedding-space gradient back to context space."""
        arr = self._check_ctx(v)
        g = np.asarray(cotangent, dtype=np.float64)
        if g.shape != (self.dim,):
            raise DimensionMismatchError(
                f"cotangent must have shape ({self.dim},), got {g.shape}"
            )
        a, y = self._pre_normalize(arr)
        ny = np.linalg.norm(y)
        yhat = y / ny
        gy = (g - np.dot(yhat, g) * yhat) / ny
        gh = (1.0 - np.tanh(a) ** 2) * (self._w2.T @ gy)
        return self._w1[:, self.prefix_dim :].T @ gh

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


def init_context_vectors(count: int, seed: int, ctx_dim: int = 16) -> np.ndarray:
    """Seeded i.i.d. Gaussian (std 0.02) initialization, one row per category."""
    if count < 1:
        raise ValueError(f"need at least one context vector, got count={count}")
    rng = np.random.default_rng([2, int(seed)])
    return rng.normal(0.0, CONTEXT_INIT_STD, size=(count, int(ctx_dim)))
