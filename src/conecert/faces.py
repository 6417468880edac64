"""Face machinery: the null space of the double commutant face of a map.

A zero-pair of phi is a unit pair (xi, eta) with phi(eta eta*) conj(xi) = 0.
A map psi belongs to the double commutant face of phi exactly when it
satisfies psi(eta eta*) conj(xi) = 0 for all zero-pairs.  For one probe eta
and Hermitian psi(eta eta*) those conditions say psi(eta eta*) lies in
{R H R*}, with R an orthonormal basis of range phi(eta eta*) and H
Hermitian.  The conjugation map X -> A X A* sends every probe to the output
phi(eta eta*) = w w*, with w = A eta, so that set is the real line through
w w*: psi(P_p) = x_p w_p w_p*.  The transposed map X -> A X^T A* is phi o T,
and psi -> psi o T is a linear automorphism of the cone of positive maps, so
its face is the image of phi's: only phi's face is solved, and the
transposed basis is its input-side partial transpose, a signed permutation
of the Choi parameters (`_transposed_face`).  Nothing here is cached per A:
`exposedness.certify_exposed` keeps the last plain certificate, so the two
flags on one A solve once.

The null space is therefore solved from A, in probe coordinates, one real
unknown x_p per probe with a nonzero output.  Outputs lie on range A, so
they are read in its range frame: r^2 coordinates at rank r, not n^2.  The
projectors P_b of the m^2 unit probes e_j, (e_j + e_k)/sqrt2 and
(e_j + i e_k)/sqrt2 are a basis of Herm(m), and every other probe p has
closed-form coordinates in it
(`projector_coordinates`).  Because psi is linear, each relation
P_p = sum_b coords[p, b] P_b must hold for the outputs too.  The reflected
probes (e_j - e_k)/sqrt2 and (e_j - i e_k)/sqrt2 put z = 1, i, -1, -i on the
paper's curves e_j + z e_k, and their relations P_{-1} = P_j + P_k - P_{+1}
and P_{-i} = P_j + P_k - P_{+i} touch 4 probes each, so their columns are
fixed by m (`curve_frame`); a kernel probe, from ker A, gives one dense
relation.  A probe past the basis enters its own relation only, so its x_p
is eliminated exactly: the relation holds for some x_p if and only if the
basis side lies on the line through w_p w_p*, so that line is projected
out of it and only the m^2 basis probes keep unknowns.  Each curve relation
is then cut to the R factor of its three columns (pair, j, k) by one
batched QR.  When A has full column rank there is no kernel relation, and
the pair probe P_{+z}(j, k) enters only the relation of its reflection
P_{-z}(j, k), so the same R eliminates it too: its first row
back-substitutes the pair coordinate, the other two tie x_j to x_k along
the curve e_j + z e_k, and the system is in the m diagonal unknowns x_j.
One SVD of the stack gives the face, and the dual basis of the P_b turns
it into Choi matrices.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .linalg import (
    UNIT_ROUNDOFF,
    _partial_transpose_slots,
    _read_only,
    gap_rank,
    hermitian_params,
    params_to_herm,
    triu_pairs,
)
from .maps import MapRep, _nonzero_operator
from .sampling import combination_rows, reflected_probe_vectors, unit_probe_vectors


@dataclass
class NullSpaceResult:
    """Null space of the face's linear system.

    `param_basis` holds its elements as orthonormal columns over the
    Hermitian parameterization; `basis` gives the same elements as Hermitian
    Choi matrices.  `singular_values` is the spectrum of the system in the
    coordinates of the basis probes, one real unknown per basis probe with a
    nonzero output, psi(P_b) = x_b w_b w_b*: `unknowns` columns, the m
    diagonal probes' at full column rank (the pair coordinates are
    back-substituted) and every basis probe's otherwise (the other probes'
    coordinates are eliminated).  `condition` is the largest stretch of the
    whole map from those coordinates to Choi parameters, back-substitution
    included, over its least stretch on the null space.  `pairs_used` counts
    the probes.
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
def curve_frame(m: int) -> tuple[np.ndarray, ...]:
    """Cached, read-only probe data that depends only on m.

    Returns the 2m^2 - m curve probes as rows (`unit_probe_vectors`, then
    `reflected_probe_vectors`), their `projector_coordinates`, the dual
    basis D_b (m^2, m, m) of the unit-probe projectors: Re tr(D_b X) is the
    coordinate of X on P_b, the Gram matrix Re tr(D_a D_b) of the dual, and
    the layout of the reflected relations.  Reflected probe m^2 + q of pair
    j < k has coordinates only on the pair probe m + q, P_{+z}(j, k), and on
    P_j and P_k: row q of `cols` (m^2 - m, 3) is (m + q, j, k), `weights`
    holds coords[m^2 + q, cols[q]], and the one-hot `scatter`
    (m^2 - m, 3, m^2) places a row over those three columns on the m^2.
    """
    etas = np.array(unit_probe_vectors(m) + reflected_probe_vectors(m))
    coords = projector_coordinates(_outer(etas))
    # a coordinate is real-linear in X, so its dual is read off an orthonormal basis
    dual_params = projector_coordinates(params_to_herm(np.eye(m * m), m)).T
    dual, dual_gram = params_to_herm(dual_params, m), dual_params @ dual_params.T
    size = m * m
    iu, ju = triu_pairs(m)
    cols = np.stack([np.arange(m, size), np.repeat(iu, 2), np.repeat(ju, 2)], axis=1)
    rel = np.arange(size - m)[:, None]
    scatter = np.zeros((size - m, 3, size))
    scatter[rel, np.arange(3), cols] = 1.0
    return _read_only((etas, coords, dual, dual_gram, cols, coords[size + rel, cols], scatter))


def _output_floor(a: np.ndarray) -> float:
    """Rounding level of spectra read off the map of a: n * m * u * |A|_F^2.

    |A|_F^2 is |Choi(phi)|_F, so this is `maps.map_floor` of the map.  It is
    relative to the map, not to one output, so an output that is zero up to
    rounding reads as zero.
    """
    return a.shape[0] * a.shape[1] * UNIT_ROUNDOFF * float(np.vdot(a, a).real)


def _probe_space(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Kernel probes (k, m) of X -> A X A*, range frame F = S_f Vh_f (f, m) of A = U S Vh, output floor.

    The probes are conj(ker A) and their pairwise combinations, with the
    kernel read at `_output_floor(a)`; that floor is returned too, so the
    outputs are read at the same level.  F keeps each
    s_j > max(n, m) * u * s_0, the rounding floor of `null_space`: no rank
    decision.  F eta = U_f* A eta.
    """
    n, m = a.shape
    _, s, vh = np.linalg.svd(a)
    spectrum = np.zeros(m)
    spectrum[: s.shape[0]] = s * s
    floor = _output_floor(a)
    kernel = vh[gap_rank(spectrum, floor) :].conj()
    frame = s[:, None] * vh[: s.shape[0]]
    frame = frame[: int(np.count_nonzero(s > max(n, m) * UNIT_ROUNDOFF * s[0]))]
    if kernel.shape[0] > 1:
        kernel = np.concatenate([kernel, combination_rows(kernel)])
    return kernel, frame, floor


def kernel_probes(A, transposed: bool = False) -> list[np.ndarray]:
    """Probe vectors eta with phi(eta eta*) = 0, read off one SVD of A.

    For X -> A X A*, phi(eta eta*) = w w* with w = A eta, so the kernel
    probes are ker A, conjugated (the rows of Vh), and their pairwise
    combinations.  X -> A X^T A* sends eta eta* to the output of the plain
    map at conj(eta), so its kernel probes are the plain ones conjugated.
    Without them, rank-deficient maps would never show their kernel-side
    zero-pairs.  The kernel is the part past the `gap_rank` of the squared
    singular values, zero-padded to length m (the spectrum of the input
    compression of Choi(phi)), over n * m * u * |A|_F^2.  A = 0 raises
    InputRejected.
    """
    kernel = _probe_space(_nonzero_operator(A))[0]
    return list(kernel.conj() if transposed else kernel)


def _reduced_relations(
    outputs: np.ndarray, weights: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The face system in the kept unknowns, and the lift L (m^2, unknowns) to the basis coordinates.

    One real unknown per kept basis probe, psi(P_b) = x_b w_b w_b*, read
    through its unit output column outputs[b] = params(v_b v_b*) / |v_b|^2
    (f^2 range-frame coordinates, zero where `live` is false).  Relation q,
    of probe p = m^2 + q, reads B x = x_p outputs[p]: B sums each basis
    column times the relation's coordinate on it, and x_p enters no other
    relation, so the relation holds for some x_p exactly when B x projected
    off outputs[p] is 0.  A reflected relation has coordinates on the three
    columns `cols[q]` of `curve_frame` only, (pair, j, k): with f^2 > 3 one
    batched QR cuts its f^2 x 3 block to the R factor, which keeps its null
    space, and `scatter` lays the rows on the m^2 basis columns.  A kernel
    relation, `weights` (k, m^2) dense, keeps its f^2 rows.  With no kernel
    relation and every output live (A has full column rank) the pair probe
    m + q is in relation q only, so the same R eliminates it: row 0 gives
    x_pair = -(r01 x_j + r02 x_k) / r00, the row of L, and rows 1-2 are the
    (x_j, x_k) system, so only the m diagonal probes keep unknowns.
    Otherwise every live basis probe keeps one.  Dead columns are dropped
    last; z = L x are the m^2 basis coordinates of a solution x.
    """
    size = weights.shape[1]
    m = math.isqrt(size)
    *_, cols, curve_weights, scatter = curve_frame(m)
    own = outputs[size:]
    curve = outputs[cols] * curve_weights[..., None]
    kernel = weights[..., None] * outputs[:size]
    for block, column in ((curve, own[: cols.shape[0]]), (kernel, own[cols.shape[0] :])):
        block -= (block @ column[..., None]) * column[:, None, :]
    curve = curve.swapaxes(1, 2)
    if curve.shape[1] > 3:
        curve = np.linalg.qr(curve, mode="r")
    rows = curve @ scatter
    basis, lift = np.flatnonzero(live[:size]), np.eye(size)
    if not weights.shape[0] and live.all():
        lift[m:] = -rows[:, 0] / curve[:, :1, 0]
        rows, basis = rows[:, 1:], basis[:m]
    system = np.concatenate([rows.reshape(-1, size), kernel.swapaxes(1, 2).reshape(-1, size)])
    return system[:, basis], lift[:, basis]


def system_floor(s: np.ndarray, unknowns: int) -> float:
    """Rounding level of the face system's SVD, unknowns * u * max(s_0, 1) (0 for no spectrum).

    The rows are built from unit output columns with weights of order 1, so
    their rounding is of order u even where the projection in
    `_reduced_relations` cancels them down to a spectrum below 1.
    """
    return unknowns * UNIT_ROUNDOFF * max(float(s[0]), 1.0) if s.shape[0] else 0.0


def double_prime_nullspace(A, transposed: bool = False) -> NullSpaceResult:
    """Null space of the zero-pair constraints of X -> A X A*, or of X -> A X^T A* when transposed.

    Solves the plain face on every call (`_plain_face`); the transposed face
    is its `_transposed_face`, bitwise.  The arrays are read-only, as
    `exposedness.certify_exposed` shares them between reports.  A = 0
    raises InputRejected.
    """
    # one memory layout for every input, so equal matrices give equal bits
    a = np.ascontiguousarray(_nonzero_operator(A))
    plain = _plain_face(a)
    return _transposed_face(plain, *a.shape) if transposed else plain


def _transposed_face(plain: NullSpaceResult, n: int, m: int) -> NullSpaceResult:
    """The face of X -> A X^T A* read off that of X -> A X A*, for n x m A.

    It is the plain face's input-side partial transpose, a signed
    permutation of the Choi parameters (`linalg._partial_transpose_slots`):
    the plain basis with rows permuted and signed, bitwise, and every other
    field shared.  The permutation is an isometry, so the spectrum, counts
    and condition are the plain face's.
    """
    index, sign = _partial_transpose_slots(n, m)
    return replace(plain, param_basis=_read_only((plain.param_basis[index] * sign[:, None],))[0])


def _plain_face(a: np.ndarray) -> NullSpaceResult:
    """The face of X -> A X A*, with read-only arrays.

    Probes: the cached `curve_frame` and the kernel probes of
    `_probe_space`.  Every output is phi(P_p) = w_p w_p* with w_p = A eta_p,
    read in the range frame F of `_probe_space` as v_p = F eta_p, f^2 real
    coordinates.  It is nonzero when c_p = |v_p|^2 is above
    n * m * u * |A|_F^2, and then its probe has one real unknown,
    psi(P_p) = x_p w_p w_p*.  Every probe p past the m^2 unit probes gives
    the relation x_p v_p v_p* - sum_b coords[p, b] x_b v_b v_b* = 0, whose
    f^2 rows involve only x_p and the x_b of the P_b it has coordinates on.
    x_p is in no other relation, so `_reduced_relations` projects it out and
    cuts each curve block to its R factor: the system has one unknown per
    basis probe with a nonzero output.  With no kernel probe (A has full
    column rank) every output is nonzero and the pair probe P_{+z}(j, k) is
    in the relation of P_{-z}(j, k) only, so the same R eliminates it: m
    unknowns, and the pair coordinates are L x, read off the first row of
    that R.  The rank is `gap_rank` of the spectrum over
    `system_floor`.  Null vectors, pair coordinates included, become Choi
    matrices through the dual basis D_b of the unit-probe projectors,
    Choi(psi) = sum_b psi(P_b) (x) conj(D_b), from the full w_b w_b*, and
    are orthonormalised there.  `condition` is the largest stretch of the
    whole map x -> Choi, pair coordinates included, over its least stretch
    on the null space; the largest is read off the Gram matrix
    (O O^T) o (D D^T) of the unit output columns O and the dual basis, one
    eigvalsh of `unknowns` columns.  Deterministic: no random probes.
    """
    n, m = a.shape
    curve, _, dual, dual_gram, *_ = curve_frame(m)
    kernel, range_map, floor = _probe_space(a)
    size = m * m
    etas, weights = curve, np.zeros((0, size))
    if kernel.shape[0]:
        etas = np.concatenate([curve, kernel])
        weights = projector_coordinates(_outer(kernel))
    raw = hermitian_params(_outer(etas @ range_map.T))
    c = raw[:, : range_map.shape[0]].sum(axis=1)
    live = c > floor
    # unit column params(v_p v_p*) / |v_p|^2 of each output, zero where the output is zero
    outputs = np.divide(raw, c[:, None], out=np.zeros_like(raw), where=live[:, None])
    # z = lift x: the m^2 basis coordinates, solved, back-substituted (the pairs) or zero
    system, lift = _reduced_relations(outputs, weights, live)
    unknowns = lift.shape[1]
    rows = system.shape[0]
    if rows > unknowns > 0:
        # same singular values and right vectors, without the tall left factor.  It pays
        # for itself: an SVD of the tall system was 1.3, 1.8 and 2.4 times slower at 8 x 8
        # rank 4, 12 x 12 rank 6 and 16 x 16 rank 8 (BENCH_relation_plan.json)
        system = np.linalg.qr(system, mode="r")
    if system.size:
        # the rows are graded (projected blocks leave rows near rounding); as left
        # singular vectors of the transpose the null vectors hold to a few u * s_0,
        # as right ones of the system to 48 u * s_0 on 2 x 2 unitary inputs
        left, svals, _ = np.linalg.svd(system.T, full_matrices=rows < unknowns)
    else:
        svals, left = np.zeros(0), np.eye(unknowns)
    null = left[:, gap_rank(svals, system_floor(svals, unknowns)) :]

    # psi(P_b) = z_b w_b w_b* / c_b per null vector; Choi(psi) = sum_b psi(P_b) (x) conj(D_b)
    z = lift @ null
    np.divide(z, c[:size, None], out=z, where=live[:size, None])
    outer = _outer(etas[:size] @ a.T).reshape(size, n * n)
    y = z.T[:, None, :] * outer.T
    choi = y @ dual.conj().reshape(size, size)
    # (i, j, k, l) -> (i, k, j, l) is Choi(psi)
    choi = choi.reshape(-1, n, n, m, m).transpose(0, 1, 3, 2, 4).reshape(-1, n * m, n * m)
    param_basis, condition = hermitian_params(choi).T, 1.0
    if param_basis.shape[1]:
        if param_basis.shape[1] == 1:
            least = float(np.linalg.norm(param_basis))
            param_basis = param_basis / least
        else:
            param_basis, sv, _ = np.linalg.svd(param_basis, full_matrices=False)
            least = float(sv[-1])
        # |Choi|_F^2 = z^T ((O O^T) o (D D^T)) z over the unit output columns O and the dual D
        gram = (outputs[:size] @ outputs[:size].T) * dual_gram
        stretch = math.sqrt(float(np.linalg.eigvalsh(lift.T @ gram @ lift)[-1]))
        condition = stretch / least
    svals, param_basis = _read_only((svals, param_basis))
    return NullSpaceResult(
        singular_values=svals, pairs_used=etas.shape[0], param_basis=param_basis,
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
    p = hermitian_params(c / scale)
    coeffs = result.param_basis.T @ p
    residual = float(np.linalg.norm(p - result.param_basis @ coeffs))
    return coeffs, residual
