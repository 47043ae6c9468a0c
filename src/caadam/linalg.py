"""Dense matrix primitives and deterministic random number generation.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype float64.

Randomness comes from numpy's PCG64 generator, a 64-bit permuted
congruential generator whose output stream is fully determined by the seed
and identical across platforms.  The reference output vector for seed 42 is
pinned in the test suite and documented in the README.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

Matrix = np.ndarray


def as_matrix(values) -> Matrix:
    """Coerce ``values`` to a 2-D float64 array; a vector becomes one row."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {a.ndim}-D data")
    return a


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for ``seed``; same seed, same stream, always.
    A negative seed is a ConfigError."""
    if not seed >= 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> Matrix:
    """Weight matrix of shape (fan_in, fan_out) drawn uniformly from [-L, L].

    L = sqrt(6 / (fan_in + fan_out)), the usual variance-preserving bound
    for dense layers.
    """
    if fan_in < 1 or fan_out < 1:
        raise ShapeError(f"fan_in and fan_out must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
