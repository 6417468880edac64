"""Test oracles for the face: zero-pairs, their constraint rows and the dense solve.

Every zero-pair (xi, eta) gives the 2n real rows of psi(eta eta*) conj(xi) = 0
as functionals of the Choi matrix of psi.  The null space of the rows from
enough random probes is the face that `faces.double_prime_nullspace` solves
in probe coordinates; the tests compare the two.  `dense_nullspace` is the
same probe-coordinate solve done densely, with every relation among the
probe projectors read off a frame SVD and the Moore-Penrose dual frame, as a
reference for the library's explicit relations.  It keeps the general-rank
unknowns (a Hermitian H_p in Herm(r_p) per probe, `_output_columns`), where
the library keeps one real unknown per probe output of rank 1.  The oracle
reads the kernel probes and the probe outputs off Choi(phi), with `eigh`,
where the library reads them off A, so it works for any
Hermiticity-preserving map.  `built_class_solve` is the class solve built
from probe vectors and solved numerically at every (m, f): the curve and
star probes (`curve_frame`, `star_frame`), their `projector_coordinates`,
the class outputs and one batched QR per relation family
(`_reduced_relations`), with the rank-1 hull read through the dual basis of
the unit-probe projectors (`curve_dual`, `built_rank_one_hull`) and the pair
probes eliminated at f = m (`class_system`).  It is the reference for
`faces.class_solve`, which writes f = 1 and f = m in closed form and the
classes between as literal rows.  `kernel_probes` reads the kernel of A off
its SVD, the reference for the Choi oracle's `choi_kernel_probes` and the
count in the structured digest.  `rebuilt_face` is that solve carried to A numerically,
through the dual basis and A's outputs, the reference for the face that
`faces._plain_face` writes in closed form.
The oracles build their rows in the real coordinates of Herm(N),
`hermitian_params` and its inverse `params_to_herm`, where the library
holds every element of a face as a Choi matrix; `param_basis` reads a
face's basis in those coordinates.  `partial_transpose_slots` is the
input-side partial transpose read as a signed permutation of those
coordinates.  `dense_obstruction_space` is the obstruction system stacked
on all nm columns and solved by one `null_space`, the reference for
`exposedness.conjugate_obstruction_space`, which counts the unit rows and
solves only the cached r x r core.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from conecert import faces
from conecert.errors import HermiticityError, ShapeError
from conecert.exposedness import _OBSTRUCTION_Z, ObstructionResult
from conecert.linalg import (
    SQRT2,
    UNIT_ROUNDOFF,
    _read_only,
    as_complex_matrix,
    gap_rank,
    hermitize,
    normalized,
    null_space,
)
from conecert.maps import MapRep, _nonzero_operator, is_hermitian_preserving, partial_transpose_in
from conecert.sampling import random_unit_vector, rng_from

PAIR_TOL = 1e-10
_ASSEMBLE_ENTRIES = 1 << 16


def hermitian_params(c: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in an orthonormal basis.

    Layout: the N diagonal entries, then sqrt(2)*Re of the strict upper
    triangle in row-major order, then sqrt(2)*Im of the same entries.  The
    map is an isometry: <C1, C2>_F (real part) equals the dot product of the
    coordinate vectors.  Leading axes of c are batch axes: shape (..., N, N)
    gives (..., N*N).  The entries are read at their offsets in the float64
    view of c.
    """
    c = np.ascontiguousarray(c, dtype=np.complex128)
    n = c.shape[-1]
    iu, ju = np.triu_indices(n, 1)
    upper = 2 * (iu * n + ju)
    slots = np.concatenate([2 * (n + 1) * np.arange(n), upper, upper + 1])
    out = c.reshape(c.shape[:-2] + (n * n,)).view(np.float64).take(slots, axis=-1)
    out[..., n:] *= SQRT2
    return out


def params_to_herm(p: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `hermitian_params` for an n x n Hermitian matrix.

    Leading axes of p are batch axes: shape (..., n*n) gives (..., n, n).
    """
    p = np.asarray(p, dtype=np.float64)
    k = n * (n - 1) // 2
    if p.shape[-1:] != (n * n,):
        raise ShapeError(f"expected {n * n} coordinates, got {p.shape}")
    c = np.zeros(p.shape[:-1] + (n, n), dtype=np.complex128)
    iu, ju = np.triu_indices(n, 1)
    c[..., np.arange(n), np.arange(n)] = p[..., :n]
    upper = (p[..., n : n + k] + 1j * p[..., n + k :]) / SQRT2
    c[..., iu, ju] = upper
    c[..., ju, iu] = upper.conj()
    return c


def param_basis(ns: faces.NullSpaceResult) -> np.ndarray:
    """The face's basis as orthonormal columns ((nm)^2, dim) of `hermitian_params`."""
    return hermitian_params(ns.basis).T


def partial_transpose_slots(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with params(PT(X)) = sign * params(X)[index] for Hermitian nm x nm X.

    PT is the input-side partial transpose (`partial_transpose_in`): it
    keeps the diagonal, and an upper entry whose image is a lower one reads
    the conjugate there, so its Im coordinate changes sign.  The table is
    read off PT applied to the labels 1 .. (nm)^2.
    """
    d = n * m
    labels = params_to_herm(np.arange(1.0, d * d + 1), d)
    moved = hermitian_params(partial_transpose_in(labels, n, m))
    # an off-diagonal label comes back through / sqrt2 and * sqrt2, so within an ulp of itself
    return np.rint(np.abs(moved)).astype(np.intp) - 1, np.sign(moved)


def map_floor(map_rep: MapRep) -> float:
    """Rounding level of spectra read off the map: n * m * u * |Choi(phi)|_F.

    It is relative to the map, not to one output, so an output that is zero
    up to rounding reads as zero at any scale of the map.
    """
    return map_rep.n * map_rep.m * UNIT_ROUNDOFF * float(np.linalg.norm(map_rep.choi))


def _require_hermitian(map_rep: MapRep) -> None:
    if not is_hermitian_preserving(map_rep):
        raise HermiticityError("map is not Hermiticity-preserving within tolerance")


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


def combination_rows(vectors: np.ndarray) -> np.ndarray:
    """Normalized (a + b)/sqrt2 and (a + i b)/sqrt2 per pair of rows a before b of vectors."""
    iu, ju = np.triu_indices(vectors.shape[0], 1)
    rows = np.stack([vectors[iu] + vectors[ju], vectors[iu] + 1j * vectors[ju]], axis=1)
    rows = rows.reshape(-1, vectors.shape[1])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def kernel_probes(A, transposed: bool = False) -> list[np.ndarray]:
    """Probe vectors eta with phi(eta eta*) = 0, read off one SVD of A.

    For X -> A X A*, phi(eta eta*) = w w* with w = A eta, so the kernel
    probes are the m - f kernel vectors V e_j, j >= f, of A's full svd, f
    the class rank of `faces._class_svd` (the conjugated rows of Vh), and
    their pairwise combinations:
    k + k (k - 1) probes for k = m - f.  X -> A X^T A* sends eta eta* to the
    output of the plain map at conj(eta), so its kernel probes are the plain
    ones conjugated.  The face does not read them: it probes in the
    singular basis of A, where ker A is spanned by the dead basis probes.
    A = 0 raises InputRejected.
    """
    a = _nonzero_operator(A)
    # the economy svd of `_class_svd` keeps no kernel row of a wide A
    f, vh = faces._class_svd(a)[3], np.linalg.svd(a)[2]
    kernel = vh[f:].conj()
    if kernel.shape[0] > 1:
        kernel = np.concatenate([kernel, combination_rows(kernel)])
    return list(kernel.conj() if transposed else kernel)


def choi_kernel_probes(map_rep: MapRep) -> list[np.ndarray]:
    """Probe vectors eta with phi(eta eta*) = 0, read off Choi(phi).

    The trace of phi(eta eta*) equals <conj(eta), T conj(eta)> where T is the
    partial H-trace of the Choi matrix, so conjugated kernel eigenvectors of
    T (and their pairwise combinations) are exactly the probes that vanish
    for positive phi.  The kernel is the part of T's descending spectrum
    past its `gap_rank` over `map_floor`.  `kernel_probes` counts
    A's singular values instead, and the two agree where T's spectrum has
    a clean gap (the 0/1 matrices); `eigh` of T cannot resolve a squared
    singular value near its own rounding.
    """
    t = hermitize(np.einsum("ikil->kl", map_rep.choi4))
    w, v = np.linalg.eigh(t)
    rank = gap_rank(w[::-1], map_floor(map_rep))
    kernel = v[:, : map_rep.m - rank].conj().T
    if len(kernel) == map_rep.m:
        # the zero map: basis probes already cover everything
        return []
    return list(kernel) + list(combination_rows(kernel))


def probe_outputs(map_rep: MapRep, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-split of phi(eta eta*) for a stack of probes etas (N, m), read off Choi(phi).

    Returns |eigenvalues| (N, n) and eigenvectors (N, n, n), both ordered by
    decreasing |eigenvalue|, and each output's `gap_rank` over `map_floor`:
    the first rank eigenvectors span its range, the rest its kernel.
    """
    # x_p[i, j] = sum_kl choi4[i, k, j, l] eta_k conj(eta_l): one GEMM, then a batched matvec
    x = np.tensordot(etas, map_rep.choi4, axes=([1], [1])) @ etas.conj()[:, None, :, None]
    x = hermitize(x[..., 0])
    w, v = np.linalg.eigh(x)
    order = np.argsort(-np.abs(w), axis=-1, kind="stable")
    size = np.take_along_axis(np.abs(w), order, axis=-1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=-1)
    floor = map_floor(map_rep)
    return size, vecs, np.array([gap_rank(row, floor) for row in size], dtype=np.intp)


def unit_probe_vectors(m: int) -> list[np.ndarray]:
    """The m^2 unit probes e_j, then (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2 per pair j < k.

    Their projectors are a basis of Herm(m); the reference list for the
    first m^2 rows of `curve_frame`.
    """
    eye = np.eye(m, dtype=np.complex128)
    pairs = [(eye[j] + z * eye[k]) / SQRT2 for j in range(m) for k in range(j + 1, m) for z in (1, 1j)]
    return list(eye) + pairs


def zero_pairs(
    map_rep: MapRep,
    strategy: PairStrategy = PairStrategy(),
    pair_tol: float = PAIR_TOL,
) -> list[ZeroPair]:
    """Generate zero-pairs of the map from deterministic and random probes.

    For each probe eta, the numerical kernel of phi(eta eta*) supplies the
    xi directions (conjugated); every emitted pair carries its achieved
    residual and is dropped unless it passes pair_tol.
    """
    _require_hermitian(map_rep)
    etas = unit_probe_vectors(map_rep.m) + choi_kernel_probes(map_rep)
    rng = rng_from(strategy.seed)
    etas += [random_unit_vector(rng, map_rep.m) for _ in range(strategy.random_count)]
    size, vecs, ranks = probe_outputs(map_rep, np.array(etas))
    return [
        ZeroPair(xi=normalized(vecs[p, :, j].conj()), eta=eta, residual=float(size[p, j]))
        for p, eta in enumerate(etas)
        for j in range(ranks[p], map_rep.n)
        if size[p, j] <= pair_tol
    ]


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

    The returned complex row r satisfies r @ hermitian_params(C) == that sum
    for every Hermitian C; callers split it into real and imaginary parts to
    get two real constraints.
    """
    m = as_complex_matrix(m)
    n = m.shape[0]
    iu, ju = np.triu_indices(n, 1)
    re_part = (m[iu, ju] + m[ju, iu]) / SQRT2
    im_part = 1j * (m[iu, ju] - m[ju, iu]) / SQRT2
    return np.concatenate([np.diag(m), re_part, im_part])


@lru_cache(maxsize=None)
def _kron_factor_indices(n: int, m: int) -> tuple[np.ndarray, ...]:
    """Factor indices of the entries a Hermitian functional row reads.

    Entry (r, c) of X (x) Y, with X n x n and Y m x m, is
    X[r // m, c // m] * Y[r % m, c % m].  The row reads the diagonal and
    the strict upper triangle of the (nm) x (nm) matrix, in the order of
    `hermitian_params`; the lower triangle is the upper one with the factor
    indices swapped.  Returns (X index, Y index) of the diagonal entries,
    then (X row, X col, Y row, Y col) of the upper-triangle entries.
    """
    d = n * m
    diag = np.arange(d)
    iu, ju = np.triu_indices(d, 1)
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
    probes, and the null space of their stack under the library's gap rule.
    With no rows at all (1 x 1 A) that is the whole space.
    """
    d = map_rep.n * map_rep.m
    pairs = zero_pairs(map_rep, PairStrategy(random_count=random_count, seed=seed))
    rows = assemble_constraints(pairs, map_rep.n, map_rep.m).rows
    return null_space(rows)[0] if rows.shape[0] else np.eye(d * d)


def _output_columns(vecs: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameters of R_p E_a R_p* for the Hermitian basis E_a of Herm(r_p), probe by probe.

    Returns the columns (unknowns, n^2) and the probe that owns each one,
    ordered by probe.  The columns of one probe are orthonormal: H -> R_p H R_p*
    and the parameterization are isometries.
    """
    n = vecs.shape[1]
    owner, columns = [np.zeros(0, dtype=int)], [np.zeros((0, n * n))]
    for r in np.unique(ranks[ranks > 0]):
        idx = np.flatnonzero(ranks == r)
        ranges = vecs[idx, :, :r]
        e = params_to_herm(np.eye(r * r), r)
        y = np.einsum("pia,sab,pjb->psij", ranges, e, ranges.conj())
        columns.append(hermitian_params(y).reshape(-1, n * n))
        owner.append(np.repeat(idx, r * r))
    owner = np.concatenate(owner)
    order = np.argsort(owner, kind="stable")
    return np.concatenate(columns)[order], owner[order]


def dense_nullspace(map_rep: MapRep, etas: np.ndarray) -> SimpleNamespace:
    """The face solved densely in the coordinates of the probes etas (N, m), basis probes first.

    The caller hands in the library's probes (the curve and star probes in
    the right singular basis of A), but the output ranges are read off
    Choi(phi) (`probe_outputs`), not off A, every probe keeps its r_p^2
    unknowns, for outputs of any rank (the library keeps one per basis
    probe), and every relation beta in the kernel of the m^2 x N matrix of
    projector parameters (from one frame SVD) contributes the n^2 rows of
    sum_p beta_p R_p H_p R_p* = 0.  The unknowns of the probes past the
    first m^2 are eliminated from the stack by projecting it off the span of
    their columns (one QR of them, no layout), so its rank is decided on the
    basis probes' unknowns, at the largest gap over the SVD floor
    max(rows, cols) * u * s_0 of the whole stack (`linalg.null_space`).  The
    eliminated unknowns are solved back by least squares, and null vectors
    become Choi matrices through the Moore-Penrose dual frame of all N
    projectors.  Kept in the rank decision, the other unknowns' singular
    values of order 1 would sit above every relation that a small singular
    value of A leaves, and the largest gap would read those as zeros.
    """
    _require_hermitian(map_rep)
    n, m = map_rep.n, map_rep.m
    count = etas.shape[0]
    _, vecs, ranks = probe_outputs(map_rep, etas)
    frame = hermitian_params(etas[:, :, None] * etas.conj()[:, None, :])
    u_f, s_f, vh_f = np.linalg.svd(frame.T)
    relations = vh_f[m * m :]
    dual = params_to_herm((vh_f[: m * m].T / s_f) @ u_f.T, m)
    outputs, owner = _output_columns(vecs, ranks)
    basis = owner < m * m
    unknowns = int(basis.sum())

    rows = relations.shape[0] * n * n
    system = (relations[:, None, owner] * outputs.T[None]).reshape(rows, owner.shape[0])
    kept, other = system[:, basis], system[:, ~basis]
    svals, null = np.zeros(0), np.eye(unknowns)
    if rows:
        q = np.linalg.qr(other)[0]
        _, svals, vh = np.linalg.svd(kept - q @ (q.T @ kept), full_matrices=rows < unknowns)
        floor = max(system.shape) * UNIT_ROUNDOFF * np.linalg.norm(system, 2)
        null = vh[gap_rank(svals, floor) :].T
    # the eliminated unknowns, solved back: other y = -kept x
    solved = np.zeros((owner.shape[0], null.shape[1]))
    solved[basis] = null
    if other.shape[1]:
        solved[~basis] = -np.linalg.lstsq(other, kept @ null, rcond=None)[0]

    selector = (owner[None, :] == np.arange(count)[:, None]).astype(float)
    y = params_to_herm(selector @ (solved.T[:, :, None] * outputs), n)
    choi = np.einsum("dpij,pkl->dikjl", y, dual.conj()).reshape(-1, n * m, n * m)
    if choi.shape[0]:
        param_basis, sv, _ = np.linalg.svd(hermitian_params(choi).T, full_matrices=False)
        condition = float(sv[0] / sv[-1])
    else:
        param_basis, condition = np.zeros(((n * m) ** 2, 0)), 1.0
    return SimpleNamespace(
        singular_values=svals, pairs_used=count, param_basis=param_basis,
        unknowns=unknowns, condition=condition, dim=param_basis.shape[1],
    )


def projector_coordinates(x: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian matrices x (..., m, m) in the unit-probe projector basis.

    The basis is ordered as the first m^2 probes of `curve_frame`:
    P_j = e_j e_j*, then per pair j < k the projectors P_{+1}, P_{+i} of
    (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2.  With c = x_jk the coefficient on P_{+1} is 2 Re c,
    on P_{+i} it is -2 Im c, and on P_j it is x_jj minus the sum of
    Re c - Im c over the pairs that hold j.  For x = eta eta*, c is
    eta_j conj(eta_k), so a coefficient outside the pairs where eta has two
    nonzero entries is exactly 0.
    """
    m = x.shape[-1]
    iu, ju = np.triu_indices(m, 1)
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


def _layout(etas: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cols (k, w) and the weights there of the probes etas, their `projector_coordinates`.

    Relation q of probe etas[q] reads the basis columns cols[q] with
    weights[q]; its R rows are laid on the m^2 basis columns by cols
    (`_reduced_relations`).
    """
    return cols, np.take_along_axis(projector_coordinates(_outer(etas)), cols, axis=1)


@lru_cache(maxsize=None)
def curve_frame(m: int) -> tuple[np.ndarray, ...]:
    """Cached, read-only probe data that depends only on m.

    Returns the 2m^2 - m curve probes as rows: the m^2 unit probes e_j, then
    per pair j < k of `np.triu_indices(m, 1)` (e_j + e_k)/sqrt2 and
    (e_j + i e_k)/sqrt2, then per pair the reflected (e_j - e_k)/sqrt2 and (e_j - i e_k)/sqrt2;
    then the layout of the reflected relations.
    Reflected probe m^2 + q of pair j < k has `projector_coordinates` only
    on the pair probe m + q, P_{+z}(j, k), and on P_j and P_k: row q of
    `cols` (m^2 - m, 3) is (m + q, j, k), and `weights` holds the
    coordinates there (`_layout`).
    """
    size = m * m
    iu, ju = np.triu_indices(m, 1)
    eye = np.eye(m, dtype=np.complex128)
    # (e_j + z e_k)/sqrt2 per pair for z = 1, i (unit probes), then z = -1, -i (reflected)
    curves = (eye[iu, None] + np.array([1, 1j, -1, -1j])[:, None] * eye[ju, None]) / SQRT2
    etas = np.concatenate([eye, curves[:, :2].reshape(-1, m), curves[:, 2:].reshape(-1, m)])
    cols = np.stack([np.arange(m, size), np.repeat(iu, 2), np.repeat(ju, 2)], axis=1)
    return _read_only((etas, *_layout(etas[size:], cols)))


@lru_cache(maxsize=None)
def _star_rows() -> tuple[np.ndarray, np.ndarray]:
    """Cached, read-only star probes of (b, c) = (1, 2) at m = 3 and their projector coordinates.

    Every star probe has these entries at (0, b, c) and these weights on its
    9 columns, bitwise: each weight sums at most two terms, whatever m is.
    """
    z = np.array([[1, 1], [1, 1j], [1j, 1], [1j, 1j]])
    eye = np.eye(3, dtype=np.complex128)
    etas = (eye[0] + z[:, :1] * eye[1] + z[:, 1:] * eye[2]) / math.sqrt(3)
    return _read_only((etas, projector_coordinates(_outer(etas))))


def star_frame(m: int, f: int) -> tuple[np.ndarray, ...]:
    """Star probes of the class (m, f) and the layout of their relations.

    The probes are (e_0 + z1 e_b + z2 e_c)/sqrt3 for 1 <= b < f <= c < m,
    b outermost, then c, then (z1, z2) = (1, 1), (1, i), (i, 1), (i, i):
    4 (f - 1)(m - f) rows, none unless 2 <= f < m.  Probe q has coordinates
    only on the 9 basis probes of row q of `cols`: P_0, P_b, P_c, then
    P_{+1} and P_{+i} of the pairs (0, b), (0, c) and (b, c).  Returns the
    probes, `cols` and `weights` (their `projector_coordinates` there, some
    of them 0), as `curve_frame` does, written directly (`_star_rows`).
    Not cached: `class_system` builds it once per call.
    """
    count = (f - 1) * (m - f)
    if not count:
        # no pair b < f <= c, so no probe: skip the cost of building empty tables
        return np.zeros((0, m), dtype=np.complex128), np.zeros((0, 9), dtype=np.intp), np.zeros((0, 9))
    rows, weights = _star_rows()
    b, c = np.divmod(np.arange(count), m - f)
    b, c = b + 1, c + f
    etas = np.zeros((count, 4, m), dtype=np.complex128)
    for k, at in enumerate((0, b, c)):
        etas[np.arange(count), :, at] = rows[:, k]
    # P_{+1}(j, k) of the pairs (0, b), (0, c), (b, c) is m + 2 (j (2m - j - 3) / 2 + k - 1)
    ends = m - 2 + 2 * np.stack([b, c, b * (2 * m - b - 3) // 2 + c], axis=1)
    cols = np.column_stack([0 * b, b, c, (ends[:, :, None] + [0, 1]).reshape(count, 6)])
    return etas.reshape(-1, m), np.repeat(cols, 4, axis=0), np.tile(weights, (count, 1))


def _reduced_relations(outputs: np.ndarray, live: np.ndarray, families: list) -> np.ndarray:
    """The face system in the live basis probes' unknowns.

    One real unknown per live basis probe, the coordinate of psi(V P_b V*)
    on its unit class output column outputs[b] = params(u_b u_b*) / |u_b|^2,
    u_b = eta_b[:f] (f^2 class-frame coordinates, zero where `live` is
    false).  `families` holds the (cols, weights) layouts of `curve_frame`
    and `star_frame` (empty unless 2 <= f < m); each relation has one probe
    past the m^2 basis probes, in the order of the relations.
    Relation q, of probe p, reads B x = x_p outputs[p]: B sums the basis
    columns cols[q] times weights[q], and x_p enters no other relation, so
    the relation holds for some x_p exactly when B x projected off
    outputs[p] is 0.  Where f^2 exceeds the w columns of a family, one
    batched QR cuts each f^2 x w block to its R factor, which keeps its null
    space, and one indexed assignment lays its rows on the m^2 basis columns
    by `cols` (a block of f^2 < w rows has f^2 rows).  Dead columns are
    dropped last.  Nothing here reads A.  This is the system that
    `faces._class_rows` writes as two literal rows per relation where
    2 <= f < m, and that `faces.class_solve` writes in closed form at f = 1
    and f = m (`class_system` eliminates the pair probes there).
    """
    size = outputs.shape[0] - sum(cols.shape[0] for cols, _ in families)
    curve, rows = size + families[0][0].shape[0], []
    for (cols, weights), own in zip(families, (outputs[size:curve], outputs[curve:])):
        (k, w), f2 = cols.shape, outputs.shape[1]
        # row i of relation q's R on the m^2 basis columns, transposed: laid[q, cols[q], i]
        laid = np.zeros((k, size, min(f2, w)))
        if k:
            # the transposed blocks (k, w, f^2), projected off their own output columns
            block = outputs[cols] * weights[..., None]
            block -= (block @ own[..., None]) * own[:, None, :]
            if f2 > w:
                block = np.linalg.qr(block.swapaxes(1, 2), mode="r").swapaxes(1, 2)
            laid[np.arange(k)[:, None], cols] = block
        rows.append(laid.swapaxes(1, 2))
    return np.concatenate([block.reshape(-1, size) for block in rows])[:, live[:size]]


def curve_dual(m: int) -> np.ndarray:
    """The dual basis D_b (m^2, m, m) of the unit-probe projectors: Re tr(D_b X) is the coordinate
    of X on P_b (`projector_coordinates`)."""
    # a coordinate is real-linear in X, so its dual is read off an orthonormal basis
    return params_to_herm(projector_coordinates(params_to_herm(np.eye(m * m), m)).T, m)


def class_system(m: int, f: int) -> tuple[np.ndarray, ...]:
    """The face system of the class (m, f) built as `_reduced_relations` lays it: the
    probes, the class norms c_p = |eta_p[:f]|^2, the system over the kept unknowns and its lift
    L (m^2, unknowns) to the basis coordinates.

    Every live basis probe keeps an unknown, and L is the identity on them,
    except where f = m: every output is live and there is no star, so the
    pair probe m + q is in curve relation q only, and the curve R
    eliminates it.  Row 0 of relation q's R, with r00 at the pair column,
    gives x_pair = -(r01 x_j + r02 x_k) / r00, the row of L, and rows 1-2
    are the (x_j, x_k) system, so only the m diagonal probes keep unknowns.
    This is the elimination that `faces.class_solve` writes in closed form.
    """
    curve, *curve_layout = curve_frame(m)
    star, *star_layout = star_frame(m, f)
    etas = np.concatenate([curve, star])
    u = etas[:, :f]
    raw = hermitian_params(u[:, :, None] * u[:, None, :].conj())
    c = raw[:, :f].sum(axis=1)
    live = c > 0
    outputs = np.divide(raw, c[:, None], out=np.zeros_like(raw), where=live[:, None])
    system = _reduced_relations(outputs, live, [curve_layout, star_layout])
    size = m * m
    lift = np.eye(size)[:, live[:size]]
    if f == m:
        # three R rows per curve relation (f^2 > 3 columns), on every m^2 basis column
        curve_r = system.reshape(size - m, 3, size)
        lift[m:] = -curve_r[:, 0] / np.diagonal(curve_r[:, 0, m:])[:, None]
        system, lift = curve_r[:, 1:].reshape(-1, size)[:, :m], lift[:, :m]
    return etas, c, system, lift


def _built_solve(m: int, f: int) -> tuple[np.ndarray, ...]:
    """The probes, spectrum, null vectors (unknowns, dim) and lift of the built class system, with
    the same QR and SVD at every f."""
    etas, _, system, lift = class_system(m, f)
    rows, unknowns = system.shape
    if rows > unknowns > 0:
        system = np.linalg.qr(system, mode="r")
    if system.size:
        left, svals, _ = np.linalg.svd(system.T, full_matrices=rows < unknowns)
    else:
        svals, left = np.zeros(0), np.eye(unknowns)
    null = left[:, gap_rank(svals, faces.system_floor(svals, unknowns)) :]
    return etas, svals, null, lift


def _read_hull(m: int, null: np.ndarray, lift: np.ndarray) -> tuple[np.ndarray, float]:
    """The hull R_k of the class (m, 1) and its condition, read off its null vectors.

    The null vectors z = L null become R = sum_b z_b D_b through the dual
    basis, orthonormalised by one SVD of the parameters of the R;
    `condition` is the largest stretch of the map from the kept unknowns to
    Choi parameters over its least stretch on the null space.
    """
    dual = curve_dual(m)
    r = (lift @ null).T @ dual.reshape(m * m, -1)
    # params(R) = U S W^T, so the rows of S^-1 U^T R are orthonormal
    u, least, _ = np.linalg.svd(hermitian_params(r.reshape(-1, m, m)), full_matrices=False)
    stretch = float(np.linalg.norm(hermitian_params(dual).T @ lift, 2))
    return ((u.T / least[:, None]) @ r).reshape(-1, m, m), stretch / float(least[-1])


def built_rank_one_hull(m: int) -> tuple[np.ndarray, float]:
    """The hull R_k (2m - 1, m, m) of the class (m, 1) and its condition, from the built solve."""
    return _read_hull(m, *_built_solve(m, 1)[2:])


def built_class_solve(m: int, f: int) -> tuple:
    """`faces.class_solve(m, f)` built and solved: the same QR and SVD at every f, f = 1 and f = m
    included, one system built per call.  Returns the class's evidence as `faces.class_solve`
    does, with the condition of the built hull at f = 1 (`built_rank_one_hull`)."""
    etas, svals, null, lift = _built_solve(m, f)
    condition = _read_hull(m, null, lift)[1] if f == 1 else None
    return svals, null.shape[0], etas.shape[0], null.shape[1], condition


def rebuilt_face(a: np.ndarray, transposed: bool = False) -> np.ndarray:
    """The face of X -> A X A* (X -> A X^T A* when transposed), for unit A, rebuilt from the
    class system through the dual basis: orthonormal columns over the Choi parameters.

    The class system of (m, f) is `_reduced_relations` on the class
    outputs u_p u_p*, u_p = eta_p[:f], with its lift L (`class_system`).
    Each null vector z = L null gives the coordinates x_b = z_b / c_b on
    A's outputs w_b = A V eta_b, c_b = |u_b|^2, and
    Choi(psi) = sum_b x_b w_b w_b* (x) conj(V D_b V*), over the dual basis D_b
    of `curve_dual`; the transposed face is its partial transpose.
    The columns are orthonormalised by one SVD.  This is the rebuild that
    `faces._plain_face` ran on every input before it wrote the face in
    closed form: it reads A's outputs, tail below the class cut included.
    """
    n, m = a.shape
    size = m * m
    f, vh = faces._class_svd(a)[3], np.linalg.svd(a)[2]
    etas, c, system, lift = class_system(m, f)
    live, unknowns = c > 0, system.shape[1]
    if system.shape[0]:
        _, svals, right = np.linalg.svd(system)
        null = right[gap_rank(svals, faces.system_floor(svals, unknowns)) :].T
    else:
        null = np.eye(unknowns)
    x = np.zeros((size, null.shape[1]))
    np.divide(lift @ null, c[:size, None], out=x, where=live[:size, None])
    # w_b = A V eta_b as rows, and psi(V P_b V*) = x_b w_b w_b* per null vector
    w = etas[:size] @ vh.conj() @ a.T
    y = x.T[:, :, None, None] * (w[:, :, None] * w[:, None, :].conj())
    # conj(V D_b V*) = conj(V) conj(D_b) V^T, V = vh*
    carried = vh.T @ curve_dual(m).conj() @ vh.conj()
    choi = np.einsum("dbij,bkl->dikjl", y, carried).reshape(-1, n * m, n * m)
    if transposed:
        choi = np.array([partial_transpose_in(k, n, m) for k in choi])
    params = hermitian_params(choi).T
    return np.linalg.svd(params, full_matrices=False)[0]


def dense_obstruction_space(A) -> ObstructionResult:
    """`exposedness.conjugate_obstruction_space` solved densely: every row on all nm columns of
    the class frame, one `null_space` of the stack, and the solutions mapped back and
    orthonormalised by a QR.

    One full svd A = U S V* gives the class rank r (the cut of
    `faces._class_svd`).  The rows are those of the partial isometry
    P = U Pi V*, Pi = [I_r 0; 0 0], in the frame of U and V: B solves for A
    exactly when U* B conj(V) diag(S_r, 1, ..., 1)^-1 solves for Pi.  Pi's
    rows are its kernel vectors e_j, j >= r (one row e_i (x) e_j per i), its
    left-null directions e_i, i >= r (on the columns j < r only, so each row
    e_i (x) e_j is stacked once), and per pair j < k < r the curves
    rho_z = e_j + z e_k, zeta_z = -conj(z) e_j + e_k, one row
    conj(zeta_z) (x) conj(rho_z) per z in `_OBSTRUCTION_Z`.  The solutions
    are mapped back as B = U B'' diag(S_r, 1, ..., 1) V^T and orthonormalised.
    """
    a = as_complex_matrix(A, "A")
    n, m = a.shape
    u, s, vh = np.linalg.svd(a)
    rank = int(np.count_nonzero(s > max(n, m) * UNIT_ROUNDOFF * s[0]))
    eye_n = np.eye(n, dtype=np.complex128)
    eye_m = np.eye(m, dtype=np.complex128)
    # kernel vectors e_j of Pi: one row e_i (x) e_j per i
    kernel_rows = eye_n[None, :, :, None] * eye_m[rank:, None, None, :]
    # left-null directions e_i of Pi: one row e_i (x) e_j per j < r, the kernel rows hold the rest
    left_rows = eye_n[rank:, None, :, None] * eye_m[None, :rank, None, :]

    # pairs j < k of the class, one row conj(zeta_z) (x) conj(rho_z) per z
    jj, kk = np.triu_indices(rank, 1)
    z = np.asarray(_OBSTRUCTION_Z)[None, :, None]
    rho = eye_m[jj, None] + z * eye_m[kk, None]
    zeta = -np.conj(z) * eye_n[jj, None] + eye_n[kk, None]
    curve_rows = zeta.conj()[..., :, None] * rho.conj()[..., None, :]

    rows = np.concatenate([r.reshape(-1, n * m) for r in (kernel_rows, left_rows, curve_rows)])
    if rows.shape[0] == 0:
        basis = np.eye(n * m, dtype=np.complex128)
        svals = np.zeros(0)
    else:
        basis, svals = null_space(rows)
    # B = U B'' diag(S_r, 1, ..., 1) V^T
    stretch = np.ones(m)
    stretch[:rank] = s[:rank]
    mapped = u @ (basis.T.reshape(-1, n, m) * stretch) @ vh.conj()
    if mapped.shape[0]:
        basis = np.linalg.qr(mapped.reshape(-1, n * m).T)[0]
    mats = [basis[:, j].reshape(n, m) for j in range(basis.shape[1])]
    return ObstructionResult(dim=basis.shape[1], basis=mats, singular_values=svals)
