"""Seeded random ensembles.

All randomness in the package flows through `numpy.random.default_rng`
generators created from explicit integer seeds; helpers here never touch
global state.
"""

import numpy as np

from .linalg import normalized, svd


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """I.i.d. standard complex normal entries."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalized(crandn(rng, dim))


def random_operator(
    rng: np.random.Generator, n: int, m: int, rank: int | None = None
) -> np.ndarray:
    """Complex Gaussian n x m operator, optionally truncated to a given rank.

    Truncation keeps the top `rank` singular values of the Gaussian draw, so
    the result is generic within its rank class.
    """
    a = crandn(rng, n, m)
    if rank is None or rank >= min(n, m):
        return a
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    u, s, vh = svd(a, full_matrices=False)
    return (u[:, :rank] * s[:rank]) @ vh[:rank]


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Wishart-style PSD matrix G G* with G of shape (dim, rank)."""
    r = dim if rank is None else rank
    g = crandn(rng, dim, r)
    return g @ g.conj().T
