"""Face machinery: zero-pairs and the null space of the double commutant face.

A zero-pair of phi is a unit pair (xi, eta) with phi(eta eta*) conj(xi) = 0;
each such pair says the product state xi xi* (x) eta eta* annihilates phi.
A map psi belongs to the double commutant face of phi exactly when it
satisfies psi(eta eta*) conj(xi) = 0 for all zero-pairs.  For one probe eta
and Hermitian psi(eta eta*) those conditions say psi(eta eta*) = R H R*,
with R an orthonormal basis of range phi(eta eta*) and H Hermitian.

The null space is therefore solved in probe coordinates: the unknowns are
the H_p of the probes p, r_p^2 real numbers each, and every linear relation
sum_p beta_p P_p = 0 among the probe projectors must hold for the outputs,
sum_p beta_p R_p H_p R_p* = 0, because psi is linear.  The probes e_j and
(e_j + z e_k)/sqrt2, z in {1, i, -1, -i}, are the paper's curves through
pairs of basis vectors; with the kernel probes of phi their relations pin
psi down.  One SVD of that system gives the face, and the dual frame of the
projectors turns it into Choi matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    herm_to_params,
    hermitize,
    normalized,
    params_to_herm,
)
from .maps import MapRep, _require_hermitian
from .sampling import (
    combination_probes,
    random_unit_vector,
    reflected_probe_vectors,
    rng_from,
    unit_probe_vectors,
)

PAIR_TOL = 1e-10
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2


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
class NullSpaceResult:
    """Null space of the face's linear system.

    `param_basis` holds its elements as orthonormal columns over the
    Hermitian parameterization; `basis` gives the same elements as Hermitian
    Choi matrices.  `singular_values` is the spectrum of the system in probe
    coordinates, which has `unknowns` columns; `condition` is the condition
    number of the map from those coordinates to Choi parameters on the null
    space.  `pairs_used` counts the probes.
    """

    singular_values: np.ndarray
    pairs_used: int
    param_basis: np.ndarray
    unknowns: int
    condition: float

    @property
    def dim(self) -> int:
        return self.param_basis.shape[1]

    @property
    def basis(self) -> list[np.ndarray]:
        side = math.isqrt(self.param_basis.shape[0])
        return list(params_to_herm(self.param_basis.T, side))


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


def _probe_outputs(
    map_rep: MapRep, etas: np.ndarray, tol: TolerancePolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-split of phi(eta eta*) for a stack of probes etas (N, m).

    Returns |eigenvalues| (N, n) and eigenvectors (N, n, n), both ordered by
    decreasing |eigenvalue|, and each output's rank under `tol`: the first
    rank eigenvectors span its range, the rest its kernel.
    """
    x = hermitize(np.einsum("ikjl,pk,pl->pij", map_rep.choi4, etas, etas.conj()))
    w, v = np.linalg.eigh(x)
    order = np.argsort(-np.abs(w), axis=-1, kind="stable")
    size = np.take_along_axis(np.abs(w), order, axis=-1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=-1)
    ranks = np.sum(size > tol.cutoff(x.shape[1:], size[:, :1]), axis=-1)
    return size, vecs, ranks


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
    size, vecs, ranks = _probe_outputs(map_rep, np.array(etas), tol)
    return [
        ZeroPair(xi=normalized(vecs[p, :, j].conj()), eta=eta, residual=float(size[p, j]))
        for p, eta in enumerate(etas)
        for j in range(ranks[p], map_rep.n)
        if size[p, j] <= pair_tol
    ]


def _levels(s: np.ndarray, unknowns: int) -> np.ndarray:
    """A descending spectrum as rank decisions read it.

    Values below the SVD's rounding level, unknowns * u * s_0, are read at
    that level, and one more value at it stands for the numerical zeros past
    the last one.
    """
    floor = unknowns * UNIT_ROUNDOFF * s[0]
    return np.append(np.maximum(s, floor), floor)


def _gap_rank(s: np.ndarray, unknowns: int) -> int:
    """Rank at the largest relative gap s_{k-1} / s_k of `_levels(s)`; full rank is a candidate."""
    if s.shape[0] == 0 or not s[0] > 0:
        return 0
    f = _levels(s, unknowns)
    return int(np.argmax(f[:-1] / f[1:])) + 1


def double_prime_nullspace(
    map_rep: MapRep, tol: TolerancePolicy = DEFAULT_TOL
) -> NullSpaceResult:
    """Null space of the zero-pair constraints of the map, solved in probe coordinates.

    Probes: `unit_probe_vectors`, `reflected_probe_vectors`, `kernel_probes`.
    Probe p with output rank r_p (cut by `tol`) contributes the unknowns of
    H_p in Herm(r_p), and each relation beta in the kernel of the m^2 x N
    matrix of projector parameters contributes the n^2 rows of
    sum_p beta_p R_p H_p R_p* = 0.  The rank of that system is cut at the
    largest relative gap of its spectrum (`_gap_rank`).  Null vectors become
    Choi matrices through the dual frame D_p of the projectors,
    Choi(psi) = sum_p psi(P_p) (x) conj(D_p), and are orthonormalised there.
    Deterministic: no random probes.
    """
    _require_hermitian(map_rep)
    n, m = map_rep.n, map_rep.m
    etas = np.array(
        unit_probe_vectors(m) + reflected_probe_vectors(m) + kernel_probes(map_rep, tol)
    )
    count = etas.shape[0]
    _, vecs, ranks = _probe_outputs(map_rep, etas, tol)

    # the first m^2 projectors are a basis of Herm(m): the frame has rank m^2
    frame = herm_to_params(etas[:, :, None] * etas.conj()[:, None, :])
    u_f, s_f, vh_f = np.linalg.svd(frame.T)
    relations = vh_f[m * m :]
    dual = params_to_herm((vh_f[: m * m].T / s_f) @ u_f.T, m)

    # columns: parameters of R_p E_a R_p* for the Hermitian basis E_a of Herm(r_p)
    owner, columns = [], []
    for r in np.unique(ranks[ranks > 0]):
        idx = np.flatnonzero(ranks == r)
        ranges = vecs[idx, :, :r]
        e = params_to_herm(np.eye(r * r), r)
        y = np.einsum("pia,sab,pjb->psij", ranges, e, ranges.conj())
        columns.append(herm_to_params(y).reshape(-1, n * n))
        owner.append(np.repeat(idx, r * r))
    owner = np.concatenate(owner) if owner else np.zeros(0, dtype=int)
    outputs = np.concatenate(columns) if columns else np.zeros((0, n * n))
    unknowns = owner.shape[0]

    rows = relations.shape[0] * n * n
    system = (relations[:, None, owner] * outputs.T[None]).reshape(rows, unknowns)
    if rows > unknowns > 0:
        # same singular values and right vectors, without the tall left factor
        system = np.linalg.qr(system, mode="r")
    if system.size:
        _, svals, vh = np.linalg.svd(system, full_matrices=rows < unknowns)
    else:
        svals, vh = np.zeros(0), np.eye(unknowns)
    null = vh[_gap_rank(svals, unknowns) :].T

    # psi(P_p) per null vector, then Choi(psi) = sum_p psi(P_p) (x) conj(D_p)
    selector = (owner[None, :] == np.arange(count)[:, None]).astype(float)
    y = params_to_herm(selector @ (null.T[:, :, None] * outputs), n)
    choi = np.einsum("dpij,pkl->dikjl", y, dual.conj()).reshape(-1, n * m, n * m)
    if choi.shape[0]:
        param_basis, sv, _ = np.linalg.svd(herm_to_params(choi).T, full_matrices=False)
        condition = float(sv[0] / sv[-1])
    else:
        param_basis, condition = np.zeros(((n * m) ** 2, 0)), 1.0
    return NullSpaceResult(
        singular_values=svals, pairs_used=count, param_basis=param_basis,
        unknowns=unknowns, condition=condition,
    )


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
