"""Face machinery: the null space of the double commutant face of a map.

A zero-pair of phi is a unit pair (xi, eta) with phi(eta eta*) conj(xi) = 0.
A map psi belongs to the double commutant face of phi exactly when it
satisfies psi(eta eta*) conj(xi) = 0 for all zero-pairs.  For one probe eta
and Hermitian psi(eta eta*) those conditions say psi(eta eta*) lies in
{R H R*}, with R an orthonormal basis of range phi(eta eta*) and H
Hermitian.  The conjugation maps X -> A X A* and X -> A X^T A* send every
probe to an output of rank at most 1, phi(eta eta*) = c w w*, so that set is
the real line through w w*: psi(P_p) = x_p w_p w_p*.

The null space is therefore solved in probe coordinates, one real unknown
x_p per probe with a nonzero output; a map with an output of rank above 1
is rejected.  The projectors P_b of the m^2 unit probes e_j,
(e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2 are a basis of Herm(m), and every
other probe p has closed-form coordinates in it (`projector_coordinates`).
Because psi is linear, each relation P_p = sum_b coords[p, b] P_b must hold
for the outputs too.  The reflected probes (e_j - e_k)/sqrt2 and
(e_j - i e_k)/sqrt2 put z = 1, i, -1, -i on the paper's curves e_j + z e_k,
and their relations P_{-1} = P_j + P_k - P_{+1} and
P_{-i} = P_j + P_k - P_{+i} touch 4 probes each; a kernel probe of phi
gives one dense relation.  A probe past the basis enters its own relation
only, so its x_p is eliminated exactly: the relation holds for some x_p if
and only if the basis side lies on the line through w_p w_p*, so that line
is projected out of it and only the m^2 basis probes keep unknowns.  Each
relation's block of the system is replaced by its R factor, one SVD of the
stack gives the face, and the dual basis of the P_b turns it into Choi
matrices.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputRejected, ShapeError
from .linalg import (
    UNIT_ROUNDOFF,
    gap_rank,
    herm_to_params,
    hermitize,
    params_to_herm,
    triu_pairs,
)
from .maps import MapRep, _require_hermitian
from .sampling import combination_probes, reflected_probe_vectors, unit_probe_vectors


@dataclass
class NullSpaceResult:
    """Null space of the face's linear system.

    `param_basis` holds its elements as orthonormal columns over the
    Hermitian parameterization; `basis` gives the same elements as Hermitian
    Choi matrices.  `singular_values` is the spectrum of the system in the
    coordinates of the m^2 basis probes, one real unknown per basis probe
    with a nonzero output, psi(P_b) = x_b w_b w_b*: `unknowns` columns (the
    other probes' coordinates are eliminated); `condition` is the condition
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


def projector_coordinates(x: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian matrices x (..., m, m) in the unit-probe projector basis.

    The basis is ordered as `unit_probe_vectors`: P_j = e_j e_j*, then per
    pair j < k the projectors P_{+1}, P_{+i} of (e_j + e_k)/sqrt2 and
    (e_j + i e_k)/sqrt2.  With c = x_jk the coefficient on P_{+1} is 2 Re c,
    on P_{+i} it is -2 Im c, and on P_j it is x_jj minus the sum of
    Re c - Im c over the pairs that hold j.  For x = eta eta*, c is
    eta_j conj(eta_k), so a coefficient outside the pairs where eta has two
    nonzero entries is exactly 0.
    """
    m = x.shape[-1]
    iu, ju = triu_pairs(m)
    c = x[..., iu, ju]
    out = np.empty(x.shape[:-2] + (m * m,))
    out[..., m::2] = 2 * c.real
    out[..., m + 1 :: 2] = -2 * c.imag
    shift = np.zeros(x.shape)
    shift[..., iu, ju] = c.real - c.imag
    out[..., :m] = np.diagonal(x, axis1=-2, axis2=-1).real - shift.sum(-1) - shift.sum(-2)
    return out


def _outer(etas: np.ndarray) -> np.ndarray:
    return etas[:, :, None] * etas.conj()[:, None, :]


@lru_cache(maxsize=None)
def curve_frame(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached, read-only probe data that depends only on m.

    Returns the 2m^2 - m curve probes as rows (`unit_probe_vectors`, then
    `reflected_probe_vectors`), their `projector_coordinates`, and the dual
    basis D_b (m^2, m, m) of the unit-probe projectors: Re tr(D_b X) is the
    coordinate of X on P_b.
    """
    etas = np.array(unit_probe_vectors(m) + reflected_probe_vectors(m))
    coords = projector_coordinates(_outer(etas))
    # a coordinate is real-linear in X, so its dual is read off an orthonormal basis
    dual = params_to_herm(projector_coordinates(params_to_herm(np.eye(m * m), m)).T, m)
    for a in (etas, coords, dual):
        a.flags.writeable = False
    return etas, coords, dual


def map_floor(map_rep: MapRep) -> float:
    """Rounding level of spectra read off the map: n * m * u * |Choi(phi)|_F.

    It is relative to the map, not to one output, so an output that is zero
    up to rounding reads rank 0.
    """
    return map_rep.n * map_rep.m * UNIT_ROUNDOFF * float(np.linalg.norm(map_rep.choi))


def kernel_probes(map_rep: MapRep) -> list[np.ndarray]:
    """Probe vectors eta with phi(eta eta*) = 0, from the input compression.

    The trace of phi(eta eta*) equals <conj(eta), T conj(eta)> where T is the
    partial H-trace of the Choi matrix, so conjugated kernel eigenvectors of
    T (and their pairwise combinations) are exactly the probes that vanish
    for positive phi.  Without them, rank-deficient maps would never show
    their kernel-side zero-pairs.  The kernel is the part of T's descending
    spectrum past its `gap_rank` over `map_floor`.
    """
    return _kernel_probes(map_rep, map_floor(map_rep))


def _kernel_probes(map_rep: MapRep, floor: float) -> list[np.ndarray]:
    t = hermitize(np.einsum("ikil->kl", map_rep.choi4))
    w, v = np.linalg.eigh(t)
    rank = gap_rank(w[::-1], floor)
    kernel = [v[:, j].conj() for j in range(map_rep.m - rank)]
    if len(kernel) == map_rep.m:
        # the zero map: basis probes already cover everything
        return []
    return kernel + combination_probes(kernel)


def _probe_outputs(
    map_rep: MapRep, etas: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-split of phi(eta eta*) for a stack of probes etas (N, m).

    Returns |eigenvalues| (N, n) and eigenvectors (N, n, n), both ordered by
    decreasing |eigenvalue|, and each output's `gap_rank` over `floor`
    (`map_floor` of the map): the first rank eigenvectors span its range,
    the rest its kernel.
    """
    # x_p[i, j] = sum_kl choi4[i, k, j, l] eta_k conj(eta_l): one GEMM, then a batched matvec
    x = np.tensordot(etas, map_rep.choi4, axes=([1], [1])) @ etas.conj()[:, None, :, None]
    x = hermitize(x[..., 0])
    w, v = np.linalg.eigh(x)
    order = np.argsort(-np.abs(w), axis=-1, kind="stable")
    size = np.take_along_axis(np.abs(w), order, axis=-1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=-1)
    ranks = gap_rank(size, floor)
    return size, vecs, ranks


def _reduced_relations(weights: np.ndarray, outputs: np.ndarray, own: np.ndarray) -> np.ndarray:
    """The relations' rows in the basis unknowns, each block cut to its R factor.

    One real unknown per basis probe, psi(P_b) = x_b w_b w_b*.  Relation q
    reads B x + o x_q = 0: B sums weights[q, u] times the basis output
    columns outputs[u] = params(w_u w_u*), and o = own[q] (n^2,) is the unit
    column of the relation's own probe, zero when that probe's output is
    zero.  No other relation involves x_q, so the relation holds for some
    x_q exactly when (I - o o^T) B x = 0; the projection removes x_q.  Only
    the c nonzero weights of q enter, so B is an n^2 x c block.  One batched
    QR per distinct c replaces every projected block by its R factor: an
    orthogonal change of rows within the block, which keeps the null space
    and leaves min(n^2, c) rows.
    """
    unknowns = outputs.shape[0]
    involved = weights != 0
    sizes = involved.sum(axis=1)
    stacks = [np.zeros((0, unknowns))]
    for c in np.unique(sizes[sizes > 0]):
        rel = np.flatnonzero(sizes == c)
        cols = np.nonzero(involved[rel])[1].reshape(-1, c)
        block = outputs[cols] * weights[rel[:, None], cols][..., None]
        o = own[rel]
        block -= (block @ o[..., None]) * o[:, None, :]
        r = np.linalg.qr(block.swapaxes(1, 2), mode="r")
        rows = np.zeros(r.shape[:2] + (unknowns,))
        np.put_along_axis(rows, np.broadcast_to(cols[:, None, :], r.shape), r, axis=2)
        stacks.append(rows.reshape(-1, unknowns))
    return np.concatenate(stacks)


def system_floor(s: np.ndarray, unknowns: int) -> float:
    """Rounding level of the face system's SVD, unknowns * u * max(s_0, 1) (0 for no spectrum).

    The rows are built from unit output columns with weights of order 1, so
    their rounding is of order u even where the projection in
    `_reduced_relations` cancels them down to a spectrum below 1.
    """
    return unknowns * UNIT_ROUNDOFF * max(float(s[0]), 1.0) if s.shape[0] else 0.0


def double_prime_nullspace(map_rep: MapRep) -> NullSpaceResult:
    """Null space of the zero-pair constraints of the map, solved in basis-probe coordinates.

    Probes: the cached `curve_frame` and `kernel_probes`.  Every output has
    `gap_rank` (over `map_floor`) at most 1, phi(P_p) = c_p w_p w_p*, else
    InputRejected; a probe with a nonzero output has one real unknown,
    psi(P_p) = x_p w_p w_p*.  Every probe p past the m^2 unit probes gives
    the relation x_p w_p w_p* - sum_b coords[p, b] x_b w_b w_b* = 0, whose
    n^2 rows involve only x_p and the x_b of the P_b it has coordinates on.
    x_p is in no other relation, so `_reduced_relations` projects it out and
    cuts each block to its R factor: the system has one unknown per basis
    probe with a nonzero output.  Its rank is `gap_rank` of its spectrum
    over `system_floor`.  Null vectors become Choi matrices through the dual
    basis D_b of the unit-probe projectors, Choi(psi) = sum_b psi(P_b) (x)
    conj(D_b), and are orthonormalised there.  Deterministic: no random
    probes.
    """
    _require_hermitian(map_rep)
    n, m = map_rep.n, map_rep.m
    floor = map_floor(map_rep)
    curve, curve_coords, dual = curve_frame(m)
    kernel = np.array(_kernel_probes(map_rep, floor)).reshape(-1, m)
    etas = np.concatenate([curve, kernel])
    coords = np.concatenate([curve_coords, projector_coordinates(_outer(kernel))])
    count, size = etas.shape[0], m * m
    _, vecs, ranks = _probe_outputs(map_rep, etas, floor)
    if ranks.max(initial=0) > 1:
        raise InputRejected(
            f"probe output of rank {ranks.max()}: the face is solved for outputs of rank <= 1"
        )
    # unit column params(w_p w_p*) of each output, zero where the output is zero
    outputs = herm_to_params(_outer(vecs[:, :, 0])) * ranks[:, None]
    basis = np.flatnonzero(ranks[:size])
    unknowns = basis.shape[0]

    # relation q: P_{m^2 + q} = sum_b coords[m^2 + q, b] P_b, weighted per basis unknown
    system = _reduced_relations(coords[size:, basis], outputs[basis], outputs[size:])
    rows = system.shape[0]
    if rows > unknowns > 0:
        # same singular values and right vectors, without the tall left factor
        system = np.linalg.qr(system, mode="r")
    if system.size:
        # the rows are graded (projected blocks leave rows near rounding); as left
        # singular vectors of the transpose the null vectors hold to a few u * s_0,
        # as right ones of the system to 48 u * s_0 on 2 x 2 unitary inputs
        left, svals, _ = np.linalg.svd(system.T, full_matrices=rows < unknowns)
    else:
        svals, left = np.zeros(0), np.eye(unknowns)
    null = left[:, gap_rank(svals, system_floor(svals, unknowns)) :]

    # psi(P_b) = x_b w_b w_b* per null vector, zero on the basis probes with no unknown
    y = np.zeros((null.shape[1], size, n * n))
    y[:, basis] = null.T[:, :, None] * outputs[basis]
    y = params_to_herm(y, n)
    choi = y.reshape(-1, size, n * n).swapaxes(1, 2) @ dual.conj().reshape(size, size)
    choi = choi.reshape(-1, n, n, m, m).swapaxes(2, 3).reshape(-1, n * m, n * m)
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
