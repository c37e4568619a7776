"""Numerically stable primitives shared by every other module.

Everything here is a pure function of its inputs. Probability work is done
in log space (max-shifted) because the default temperature of 0.02 turns
cosines into logits of magnitude 50, and downstream rectification code
multiplies and partially sums the raw exponential scores.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing

import numpy as np

__all__ = [
    "NORM_FLOOR",
    "DimensionMismatchError",
    "ZeroNormError",
    "check_temperature",
    "is_integer",
    "check_fields",
    "from_dict",
    "as_embedding",
    "cosine",
    "logsumexp",
    "softmax_probs",
    "unit_rows",
    "unit_cosines",
    "cosine_matrix",
    "log_softmax_rows",
]


class DimensionMismatchError(ValueError):
    """Raised when two vectors (or a vector and a registry) disagree on dimension."""


class ZeroNormError(ValueError):
    """Raised when a direction-less (zero or near-zero norm) vector is used as an embedding."""


NORM_FLOOR = 1e-300  # a vector whose norm is at most this has no direction


def check_temperature(tau: float) -> float:
    if not (tau > 0.0) or not math.isfinite(tau):
        raise ValueError(f"temperature must be a positive finite real, got {tau!r}")
    return float(tau)


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and everything else."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _matches(value, hint) -> bool:
    """Whether ``value`` fits an ``int``, ``float``, ``bool``, ``str``, ``tuple[T, ...]`` or ``T | None`` hint."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        return any(_matches(value, a) for a in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (tuple, list)) and all(_matches(v, args[0]) for v in value)
    if hint is int:
        return is_integer(value)
    if hint is float:  # JSON's NaN and Infinity literals parse, but fit no setting
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        return real and (is_integer(value) or math.isfinite(value))
    return isinstance(value, hint)


_type_hints = functools.cache(typing.get_type_hints)


def check_fields(instance) -> None:
    """Raise one ``ValueError`` naming ``Class.field`` for a value that does not match its annotation.

    Checks and never converts (a bool is not an int, an int is a float, a
    float is finite), except that a list given for a tuple field is stored as a tuple.
    """
    cls = type(instance)
    for name, hint in _type_hints(cls).items():
        value = getattr(instance, name)
        if not _matches(value, hint):
            items = value if isinstance(value, (tuple, list)) else (value,)
            finite = "finite " if any(isinstance(v, float) and not math.isfinite(v) for v in items) else ""
            raise ValueError(f"{cls.__name__}.{name} must be {finite}{cls.__annotations__[name]}, got {value!r}")
        if isinstance(value, list):
            object.__setattr__(instance, name, tuple(value))


def from_dict(cls, data, **defaults):
    """``cls(**defaults, **data)``; a non-object ``data`` or an unknown or missing key is a ``ValueError``."""
    try:
        return cls(**{**defaults, **data})
    except TypeError as exc:
        raise ValueError(f"invalid {cls.__name__} settings: {exc}") from None


def as_embedding(v, dim: int | None = None) -> np.ndarray:
    """Validate and return a 1-D float64 embedding vector.

    Checks finiteness and, when `dim` is given, the dimension. Does not
    require unit norm: rectification and finite-difference stencils evaluate
    cosines at slightly off-sphere points.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"embedding must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding has non-finite entries")
    return arr


def cosine(a, b) -> float:
    """Cosine similarity of two vectors, in [-1, 1].

    Uses the full norm division rather than assuming unit inputs, so values
    stay exact for vectors that drift off the sphere mid-optimizer-step.
    """
    av = as_embedding(a)
    bv = as_embedding(b, dim=av.shape[0])
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na <= NORM_FLOOR or nb <= NORM_FLOOR:
        raise ZeroNormError("cosine undefined for zero-norm input")
    c = float(np.dot(av, bv) / (na * nb))
    # Rounding can push |c| a hair past 1; clamp so exp(c/tau) stays in range.
    return min(1.0, max(-1.0, c))


def logsumexp(values) -> float:
    """Max-shifted log-sum-exp with compensated (fsum) accumulation.

    Accepts -inf entries (scores of categories whose shrinking factor is
    exactly zero); returns -inf only if all entries are -inf.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("logsumexp of an empty set")
    m = float(np.max(arr))
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in arr.ravel()))


def softmax_probs(query, categories, tau: float) -> np.ndarray:
    """Temperature-scaled softmax of a query embedding over an ordered category list.

    Probabilities are strictly positive, sum to 1 within 1e-9, and are
    aligned with the order of `categories`.
    """
    tau = check_temperature(tau)
    q = as_embedding(query)
    if len(categories) == 0:
        raise ValueError("softmax over an empty category list")
    z = np.array([cosine(q, c) / tau for c in categories])
    return np.exp(z - logsumexp(z))


def unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a 2-D array divided by its norm, and the (n, 1) norms.

    A zero-norm row has no direction and raises ``ZeroNormError``.
    """
    # ``np.linalg.norm(rows, axis=1)``'s arithmetic (squares, one row sum, sqrt), bit for bit.
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))
    if np.minimum.reduce(norms, axis=None, initial=math.inf) <= NORM_FLOOR:  # a NaN norm is not refused here
        raise ZeroNormError("zero-norm rows have no direction")
    return rows / norms, norms


def unit_cosines(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Pairwise cosines of rows that ``unit_rows`` already normalized: (n, d) x (m, d) -> (n, m)."""
    cosines = queries @ references.T
    np.maximum(cosines, -1.0, out=cosines)  # ``np.clip(cosines, -1, 1)``, in place
    return np.minimum(cosines, 1.0, out=cosines)


def cosine_matrix(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Pairwise cosines between row sets: (n, d) x (m, d) -> (n, m).

    Divides by both row norms, matching `cosine` exactly on every pair.
    """
    q = np.asarray(queries, dtype=np.float64)
    r = np.asarray(references, dtype=np.float64)
    if q.ndim != 2 or r.ndim != 2 or q.shape[1] != r.shape[1]:
        raise DimensionMismatchError(
            f"incompatible shapes for cosine matrix: {q.shape} vs {r.shape}"
        )
    return unit_cosines(unit_rows(q)[0], unit_rows(r)[0])


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise max-shifted log-softmax of a 2-D logit array."""
    z = np.asarray(logits, dtype=np.float64)
    # The row maximum is exact in any order: taken down the columns of a
    # transposed copy, it is faster than along rows as short as a vocabulary.
    shifted = z - np.maximum.reduce(z.T.copy(), axis=0)[:, None]
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    return shifted
