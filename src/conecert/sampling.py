"""Seeded random ensembles and the deterministic probe vectors.

All randomness in the package flows through `numpy.random.default_rng`
generators created from explicit integer seeds; helpers here never touch
global state.
"""

import numpy as np

from .linalg import SQRT2, normalized, triu_pairs


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
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return (u[:, :rank] * s[:rank]) @ vh[:rank]


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Wishart-style PSD matrix G G* with G of shape (dim, rank)."""
    r = dim if rank is None else rank
    g = crandn(rng, dim, r)
    return g @ g.conj().T


def _curve_probes(m: int, zs: tuple[complex, ...]) -> list[np.ndarray]:
    """(e_j + z e_k)/sqrt2 for each pair j < k, every z in turn."""
    eye = np.eye(m, dtype=np.complex128)
    return [(eye[j] + z * eye[k]) / SQRT2 for j in range(m) for k in range(j + 1, m) for z in zs]


def unit_probe_vectors(m: int) -> list[np.ndarray]:
    """Deterministic probe set: e_j, (e_j + e_k)/sqrt2, (e_j + i e_k)/sqrt2.

    Their m^2 projectors are a basis of Herm(m).
    """
    eye = np.eye(m, dtype=np.complex128)
    return [eye[j] for j in range(m)] + _curve_probes(m, (1, 1j))


def reflected_probe_vectors(m: int) -> list[np.ndarray]:
    """The probes (e_j - e_k)/sqrt2 and (e_j - i e_k)/sqrt2.

    With `unit_probe_vectors` they put z = 1, i, -1, -i on every curve
    e_j + z e_k, so each pair j < k gives the two projector relations
    P_{1} + P_{-1} = P_{i} + P_{-i} = P_j + P_k.
    """
    return _curve_probes(m, (-1, -1j))


def combination_rows(vectors: np.ndarray) -> np.ndarray:
    """Normalized (a + b)/sqrt2 and (a + i b)/sqrt2 per pair of rows a before b of vectors."""
    iu, ju = triu_pairs(vectors.shape[0])
    rows = np.stack([vectors[iu] + vectors[ju], vectors[iu] + 1j * vectors[ju]], axis=1)
    rows = rows.reshape(-1, vectors.shape[1])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)
