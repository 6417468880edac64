"""Test oracle: the zero-pair constraint system over Hermitian Choi parameters.

Every zero-pair (xi, eta) gives the 2n real rows of psi(eta eta*) conj(xi) = 0
as functionals of the Choi matrix of psi.  The null space of the rows from
enough random probes is the face that `faces.double_prime_nullspace` solves
in probe coordinates; the tests compare the two.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from conecert.errors import ShapeError
from conecert.faces import PairStrategy, ZeroPair, zero_pairs
from conecert.linalg import SQRT2, as_complex_matrix, null_space, triu_pairs

_ASSEMBLE_ENTRIES = 1 << 16


@dataclass
class ConstraintSystem:
    n: int
    m: int
    rows: np.ndarray
    provenance: list[int] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return int(self.rows.shape[0])


def functional_row(m: np.ndarray) -> np.ndarray:
    """Row of coefficients of C -> sum_ab C[a,b] M[a,b] over Hermitian params.

    The returned complex row r satisfies r @ herm_to_params(C) == that sum
    for every Hermitian C; callers split it into real and imaginary parts to
    get two real constraints.
    """
    m = as_complex_matrix(m)
    n = m.shape[0]
    iu, ju = triu_pairs(n)
    re_part = (m[iu, ju] + m[ju, iu]) / SQRT2
    im_part = 1j * (m[iu, ju] - m[ju, iu]) / SQRT2
    return np.concatenate([np.diag(m), re_part, im_part])


@lru_cache(maxsize=None)
def _kron_factor_indices(n: int, m: int) -> tuple[np.ndarray, ...]:
    """Factor indices of the entries a Hermitian functional row reads.

    Entry (r, c) of X (x) Y, with X n x n and Y m x m, is
    X[r // m, c // m] * Y[r % m, c % m].  The row reads the diagonal and
    the strict upper triangle of the (nm) x (nm) matrix, in the order of
    `herm_to_params`; the lower triangle is the upper one with the factor
    indices swapped.  Returns (X index, Y index) of the diagonal entries,
    then (X row, X col, Y row, Y col) of the upper-triangle entries.
    """
    d = n * m
    diag = np.arange(d)
    iu, ju = triu_pairs(d)
    out = (diag // m, diag % m, iu // m, ju // m, iu % m, ju % m)
    for a in out:
        a.flags.writeable = False
    return out


def assemble_constraints(pairs: list[ZeroPair], n: int, m: int) -> ConstraintSystem:
    """Linearize psi(eta eta*) conj(xi) = 0 over Hermitian Choi parameters.

    Each pair contributes 2n real rows: real and imaginary parts of the n
    complex components.  Component i of the condition is the functional
    C -> sum_ab C[a,b] M_i[a,b] with M_i = (e_i conj(xi)^T) (x) eta eta*.
    Rows are built for whole blocks of pairs at once: each entry of M_i is
    the product of one factor entry of each side, as `np.kron` forms it, and
    the row is `functional_row(M_i)` read off those entries.
    """
    d = n * m
    for idx, pair in enumerate(pairs):
        if pair.xi.shape != (n,) or pair.eta.shape != (m,):
            raise ShapeError(f"pair {idx} has wrong dimensions for ({n}, {m})")
    xd, yd, xr, xc, yr, yc = _kron_factor_indices(n, m)
    eye = np.eye(n, dtype=np.complex128)[None, :, :, None]
    rows = np.empty((len(pairs), n, 2, d * d))
    # pairs per step: keeps the complex temporaries near 2**16 entries, so
    # peak memory stays at the size of the output
    step = max(1, _ASSEMBLE_ENTRIES // (n * d * d))
    for lo in range(0, len(pairs), step):
        block = pairs[lo : lo + step]
        xi = np.array([pair.xi for pair in block])
        eta = np.array([pair.eta for pair in block])
        # x[p, i] = outer(e_i, conj(xi_p)) and y[p] = outer(eta_p, conj(eta_p))
        x = eye * xi.conj()[:, None, None, :]
        y = eta[:, :, None] * eta.conj()[:, None, :]
        diag = x[:, :, xd, xd] * y[:, None, yd, yd]
        upper = x[:, :, xr, xc] * y[:, None, yr, yc]
        lower = x[:, :, xc, xr] * y[:, None, yc, yr]
        row = np.concatenate(
            [diag, (upper + lower) / SQRT2, 1j * (upper - lower) / SQRT2], axis=-1
        )
        rows[lo : lo + step, :, 0] = row.real
        rows[lo : lo + step, :, 1] = row.imag
    provenance = np.repeat(np.arange(len(pairs)), 2 * n).tolist()
    return ConstraintSystem(
        n=n, m=m, rows=rows.reshape(2 * n * len(pairs), d * d), provenance=provenance
    )


def oracle_nullspace(map_rep, random_count: int, seed: int = 0) -> np.ndarray:
    """Orthonormal Choi-parameter basis (columns) of the face, from random zero-pairs.

    The rows of every pair from `zero_pairs` with `random_count` random
    probes, and the null space of their stack under the default tolerance
    policy.  With no rows at all (1 x 1 A) that is the whole space.
    """
    d = map_rep.n * map_rep.m
    pairs = zero_pairs(map_rep, PairStrategy(random_count=random_count, seed=seed))
    rows = assemble_constraints(pairs, map_rep.n, map_rep.m).rows
    return null_space(rows)[0] if rows.shape[0] else np.eye(d * d)
