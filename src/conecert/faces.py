"""Face machinery: zero-pairs, the bicommutant constraint system, null spaces.

A zero-pair of phi is a unit pair (xi, eta) with phi(eta eta*) conj(xi) = 0;
each such pair says the product state xi xi* (x) eta eta* annihilates phi.
A map psi belongs to the double commutant face of phi exactly when it
satisfies psi(eta eta*) conj(xi) = 0 for all zero-pairs, which is linear in
psi.  This module assembles that system over the real parameterization of
Hermitian Choi matrices and computes its null space batch by batch.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .linalg import (
    DEFAULT_TOL,
    SQRT2,
    TolerancePolicy,
    herm_to_params,
    hermitize,
    normalized,
    null_space,
    params_to_herm,
    triu_pairs,
)
from .maps import MapRep, _require_hermitian, apply
from .sampling import combination_probes, random_unit_vector, rng_from, unit_probe_vectors

PAIR_TOL = 1e-10
_ASSEMBLE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ZeroPair:
    xi: np.ndarray
    eta: np.ndarray
    residual: float


@dataclass(frozen=True)
class PairStrategy:
    """Probe plan for zero-pair generation.

    The deterministic probes (standard basis, pairwise combinations, kernel
    directions of the map) always run; `random_count` seeded unit vectors are
    appended on top.
    """

    random_count: int = 8
    seed: int = 0


@dataclass
class ConstraintSystem:
    n: int
    m: int
    rows: np.ndarray
    provenance: list[int] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return int(self.rows.shape[0])


@dataclass
class NullSpaceResult:
    """Null space of the constraint system, in two equivalent forms.

    `basis` holds Hermitian Choi matrices, orthonormal as real vectors;
    `param_basis` holds the same elements as columns over the Hermitian
    parameterization.  `singular_values` is the spectrum of the full stacked
    constraint matrix.
    """

    basis: list[np.ndarray]
    dim: int
    singular_values: np.ndarray
    pairs_used: int
    param_basis: np.ndarray


def kernel_probes(map_rep: MapRep, tol: TolerancePolicy = DEFAULT_TOL) -> list[np.ndarray]:
    """Probe vectors eta with phi(eta eta*) = 0, from the input compression.

    The trace of phi(eta eta*) equals <conj(eta), T conj(eta)> where T is the
    partial H-trace of the Choi matrix, so conjugated kernel eigenvectors of
    T (and their pairwise combinations) are exactly the probes that vanish
    for positive phi.  Without them, rank-deficient maps would never show
    their kernel-side zero-pairs.
    """
    t = hermitize(np.einsum("ikil->kl", map_rep.choi4))
    w, v = np.linalg.eigh(t)
    cut = tol.cutoff(t.shape, float(max(w[-1], 0.0)))
    kernel = [v[:, j].conj() for j in range(map_rep.m) if w[j] <= cut]
    if len(kernel) == map_rep.m:
        # the zero map: basis probes already cover everything
        return []
    return kernel + combination_probes(kernel)


def _pairs_from_etas(
    map_rep: MapRep,
    etas: list[np.ndarray],
    tol: TolerancePolicy,
    pair_tol: float,
) -> list[ZeroPair]:
    pairs = []
    for eta in etas:
        x = hermitize(apply(map_rep, np.outer(eta, eta.conj())))
        basis, _ = null_space(x, tol)
        for j in range(basis.shape[1]):
            v = basis[:, j]
            residual = float(np.linalg.norm(x @ v))
            if residual <= pair_tol:
                pairs.append(ZeroPair(xi=normalized(v.conj()), eta=eta, residual=residual))
    return pairs


def zero_pairs(
    map_rep: MapRep,
    strategy: PairStrategy = PairStrategy(),
    tol: TolerancePolicy = DEFAULT_TOL,
    pair_tol: float = PAIR_TOL,
) -> list[ZeroPair]:
    """Generate zero-pairs of the map from deterministic and random probes.

    For each probe eta, the numerical kernel of phi(eta eta*) supplies the
    xi directions (conjugated); every emitted pair carries its achieved
    residual and is dropped unless it passes pair_tol.
    """
    _require_hermitian(map_rep)
    etas = unit_probe_vectors(map_rep.m) + kernel_probes(map_rep, tol)
    rng = rng_from(strategy.seed)
    etas += [random_unit_vector(rng, map_rep.m) for _ in range(strategy.random_count)]
    return _pairs_from_etas(map_rep, etas, tol, pair_tol)


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


def double_prime_nullspace(
    map_rep: MapRep,
    batch_size: int = 8,
    max_batches: int = 16,
    seed: int = 0,
    tol: TolerancePolicy = DEFAULT_TOL,
    pair_tol: float = PAIR_TOL,
    stable_batches: int = 3,
) -> NullSpaceResult:
    """Null space of the accumulated zero-pair constraints of the map.

    Starts from the deterministic probes (including kernel directions), then
    adds seeded random batches until the dimension is unchanged for
    `stable_batches` consecutive batches or the batch budget is exhausted.
    Intermediate narrowing works incrementally inside the current null space;
    the final basis and singular values come from one authoritative SVD of
    every row collected.
    """
    n, m = map_rep.n, map_rep.m
    d = n * m
    pairs = zero_pairs(map_rep, PairStrategy(random_count=0), tol, pair_tol)
    all_rows = [assemble_constraints(pairs, n, m).rows]
    # no rows at all (1 x 1 A): the whole parameter space
    basis = _narrow(None, all_rows[0], tol) if all_rows[0].shape[0] else np.eye(d * d)
    dim = basis.shape[1]

    rng = rng_from(seed)
    stable = 0
    for _ in range(max_batches):
        if dim == 0 or stable >= stable_batches:
            break
        etas = [random_unit_vector(rng, m) for _ in range(batch_size)]
        new_pairs = _pairs_from_etas(map_rep, etas, tol, pair_tol)
        new_rows = assemble_constraints(new_pairs, n, m).rows
        pairs.extend(new_pairs)
        if new_rows.shape[0]:
            all_rows.append(new_rows)
            basis = _narrow(basis, new_rows, tol)
        new_dim = basis.shape[1]
        stable = stable + 1 if new_dim == dim else 0
        dim = new_dim

    stacked = np.vstack(all_rows)
    if stacked.shape[0] == 0:
        param_basis = np.eye(d * d)
        svals = np.zeros(0)
    else:
        param_basis, svals = null_space(stacked, tol)
    herm_basis = list(params_to_herm(param_basis.T, d))
    return NullSpaceResult(
        basis=herm_basis,
        dim=param_basis.shape[1],
        singular_values=svals,
        pairs_used=len(pairs),
        param_basis=param_basis,
    )


def _narrow(basis: np.ndarray | None, rows: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """Intersect span(basis columns) with ker(rows); basis None is the whole space."""
    g = rows if basis is None else rows @ basis
    if not np.any(np.abs(g) > tol.abs_floor):
        return np.eye(g.shape[1]) if basis is None else basis
    z, _ = null_space(g, tol)
    # C order, as basis @ z gives: later steps then multiply the same way
    return np.ascontiguousarray(z) if basis is None else basis @ z


def membership_residual(result: NullSpaceResult, map_rep: MapRep) -> tuple[np.ndarray, float]:
    """Project the map's Choi matrix onto the null-space span.

    Returns (coefficients, residual norm); the Choi matrix is Frobenius
    normalized first, so the coefficient norm is the overlap in [0, 1].
    """
    c = map_rep.choi
    scale = float(np.linalg.norm(c))
    if scale == 0.0:
        raise ShapeError("zero Choi matrix has no direction")
    p = herm_to_params(c / scale)
    coeffs = result.param_basis.T @ p
    residual = float(np.linalg.norm(p - result.param_basis @ coeffs))
    return coeffs, residual
