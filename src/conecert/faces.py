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
transposed face is the same factors read through the input-side partial
transpose (`NullSpaceResult.transposed`).  Nothing here is cached per A,
only per class: the face system is solved once per (m, f) (`class_solve`),
and `exposedness.certify_exposed` keeps the last plain certificate, so the
two flags on one A build its face once.

The face is solved in the class of A, with one cut of its spectrum.  One
svd A = U S V* gives f, the count of s_j > max(n, m) * u * s_0 (the
rounding floor of `null_space`), and A reads as U_f S_f V_f* with S_f
invertible (`_class_svd`, which `kernel_probes` and
`exposedness.conjugate_obstruction_space` read too).  So
phi = Ad_{U_f S_f} o phi_f o Ad_V*, where phi_f is the map X -> Pi X Pi*
of the class, Pi = [I_f 0] (f x m), and the congruences
psi -> Ad_E o psi o Ad_F with E injective and F invertible carry faces
onto faces.  The probes are V eta for fixed eta, and A's output on V eta
is w w* with w = U_f S_f u, u = eta[:f]: a relation among A's outputs
holds exactly when it holds for the class outputs u u*, carried back by
S_f^-1.  So the face system reads only the probes and depends on A only
through (m, f).  A probe is live exactly when u != 0: ker A is spanned by
the dead basis probes V e_j, j >= f, so no probe is read off it.  The projectors P_b of
the m^2 unit probes e_j, (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2 are a
basis of Herm(m), and every other probe p has closed-form coordinates in
it (`projector_coordinates`), which X -> V X V* keeps.  Because psi is
linear, each relation P_p = sum_b coords[p, b] P_b must hold for the
outputs too.  Every relation sits on columns fixed by m and f:
- curve: the reflected probes (e_j - e_k)/sqrt2 and (e_j - i e_k)/sqrt2 put
  z = 1, i, -1, -i on the paper's curves e_j + z e_k, and their relations
  P_{-1} = P_j + P_k - P_{+1} and P_{-i} = P_j + P_k - P_{+i} touch the
  pair probe, P_j and P_k (`curve_frame`);
- star: where 2 <= f < m, the probes (e_0 + z1 e_b + z2 e_c)/sqrt3 for
  1 <= b < f <= c < m and z1, z2 in {1, i} touch P_0, P_b, P_c and the six
  pair probes of (0, b), (0, c) and (b, c) (`star_frame`).  A curve with a
  dead end c >= f has all its outputs on one line and ties nothing; the
  star ties the live ends of such curves together.
This module owns every probe table: both frames are built here, vectorised
over `triu_pairs`; the curve frame is cached read-only per m, and the star
frame is built once per (m, f), by the cached `class_solve`, and has no
probe unless 2 <= f < m.  A frame keeps the probes and each relation's
columns and weights; the R rows of a relation are laid on the m^2 basis
columns by its columns, so no cached table grows as m^4.
A probe past the basis enters its own relation only, so its x_p is
eliminated exactly: the relation holds for some x_p if and only if the
basis side lies on the line through u_p u_p*, so that line is projected out
of it and only the m^2 basis probes keep unknowns.  Each relation is then
cut to the R factor of its columns by one batched QR per family.  One SVD
of the stack gives the face of the class, cached read-only per (m, f) as
evidence only (`class_solve`): the spectrum, the null dimension at its gap
and the counts, with no null vector.  At f >= 2 the class face is one ray,
x_b = 1 on every live basis probe: the class map X -> Pi X Pi* itself.  The
congruence carries it to the ray of A_f = U_f S_f V_f*, so `_plain_face`
writes A's face as the factor A_f, and nothing is rebuilt per A.  Both ends
of the spectrum are written with no system built.  At f = 1 every live
class output is [1.0], so every relation is exactly 0 and the hull is the
paper's face {X -> Tr(R X) u u* : R compressed to v-perp = 0}, which
`_plain_face` writes as the factors (u_0, V) of A's svd.  At f = m the pair
probe P_{+z}(j, k) is in the relation of P_{-z}(j, k) only; eliminated, it
leaves that relation the single row +-(e_j - e_k)/sqrt2 on the m diagonal
unknowns, x_j = x_k.  The system's Gram matrix is then m I - J, the
Laplacian of the complete graph K_m: spectrum sqrt(m), m - 1 times, and 0
on the ray x_j = 1.  No (nm)^2-sized array is built until a basis is read.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ShapeError
from .linalg import (
    SQRT2,
    UNIT_ROUNDOFF,
    _partial_transpose,
    _read_only,
    frobenius_norm,
    gap_rank,
    hermitian_params,
    triu_pairs,
)
from .maps import MapRep, _nonzero_operator


@dataclass
class NullSpaceResult:
    """Null space of the face's linear system, held as read-only factors.

    `factors` is the face: (A_f,) for the ray of Choi(X -> A_f X A_f*), or
    (u, V) for the rank-1 hull of u u* (x) conj(V R_k V*), u (n,) and V
    (m, m) unitary, over the 2m - 1 R_k of the class (m, 1) (`rank_one_hull`);
    V (m, 0) (or ()) for none.  `transposed` reads every element
    through the input-side partial transpose, the face of X -> A X^T A*.
    `param_basis` (orthonormal columns over the Hermitian parameterization)
    and `basis` (the same elements as Choi matrices) are built when read,
    (nm)^2 entries per element.  `singular_values` is the spectrum of the
    class system (`faces` module docstring), in `unknowns` real unknowns:
    the m diagonal probes' where f = m (the pairs are eliminated), else
    every live basis probe's.  It, `unknowns` and
    `pairs_used` (the probe count) depend on A only through (m, f).  At
    f >= 2 nothing is lifted, and `condition` is 1.0.  At f = 1 it is the
    condition number of the map from the class coordinates to Choi
    parameters, a class constant (`class_solve`).
    """

    singular_values: np.ndarray
    pairs_used: int
    unknowns: int
    condition: float
    factors: tuple = ()
    transposed: bool = False

    @property
    def dim(self) -> int:
        return max(2 * self.factors[1].shape[1] - 1, 0) if len(self.factors) == 2 else len(self.factors)

    def _elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Choi matrices (dim, nm, nm) of the elements and their parameters, partially transposed
        under the flag, and the norms (dim, 1) of the plain parameters."""
        if len(self.factors) == 1:
            # Choi(X -> A_f X A_f*) = vec(A_f) vec(A_f)*
            (n, m), choi = self.factors[0].shape, _outer(self.factors[0].reshape(1, -1))
        else:
            u, v = self.factors or (np.zeros(0), np.zeros((0, 0)))
            (n,), m, t = u.shape, v.shape[0], rank_one_hull(v)
            choi = np.outer(u, u.conj())[None, :, None, :, None] * t[:, None, :, None, :]
            choi = choi.reshape(t.shape[0], n * m, n * m)
        params = hermitian_params(choi)
        # a BLAS dot per element: einsum lost 30-60 u at (nm)^2 >= 16,384
        norms = np.array([np.linalg.norm(p) for p in params]).reshape(-1, 1)
        if self.transposed:
            # the lower triangle made the conjugate of the upper one, which the parameters read:
            # the partial transpose then permutes them, signed, and keeps their norms
            choi = np.triu(choi) + np.triu(choi, 1).conj().swapaxes(1, 2)
            choi = _partial_transpose(choi, n, m)
            params = hermitian_params(choi)
        return choi, params, norms

    @cached_property
    def param_basis(self) -> np.ndarray:
        _, params, norms = self._elements()
        return _read_only(((params / norms).T,))[0]

    @property
    def basis(self) -> list[np.ndarray]:
        choi, _, norms = self._elements()
        return list(choi / norms[:, :, None])


def rank_one_hull(v: np.ndarray) -> np.ndarray:
    """conj(V R_k V*) (2k - 1, m, m) from the k columns v_j of V, over the hull R_k of the class
    (m, 1) (`class_solve`): conj(v_0) v_0^T, then (c_j + c_j*)/sqrt2 and -i(c_j - c_j*)/sqrt2,
    c_j = conj(v_0) v_j^T, per j >= 1.  At V = I they are conj(R_k)."""
    m, k = v.shape
    t = np.zeros((max(2 * k - 1, 0), m, m), dtype=np.complex128)
    if k:
        t[0] = np.outer(v[:, 0].conj(), v[:, 0])
        c = v[:, 0].conj()[None, :, None] * v[:, 1:].T[:, None, :]
        h = c.conj().swapaxes(1, 2)
        t[1::2], t[2::2] = (c + h) / SQRT2, -1j * (c - h) / SQRT2
    return t


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
    per pair j < k of `triu_pairs` (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2,
    then per pair the reflected (e_j - e_k)/sqrt2 and (e_j - i e_k)/sqrt2;
    then the layout of the reflected relations.
    Reflected probe m^2 + q of pair j < k has `projector_coordinates` only
    on the pair probe m + q, P_{+z}(j, k), and on P_j and P_k: row q of
    `cols` (m^2 - m, 3) is (m + q, j, k), and `weights` holds the
    coordinates there (`_layout`).
    """
    size = m * m
    iu, ju = triu_pairs(m)
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
    Not cached: its only reader is the cached `class_solve`, which builds it
    once per (m, f).
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


def _class_svd(a: np.ndarray, full: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One svd A = U S V* and the class rank f, the count of s_j > max(n, m) * u * s_0.

    V is full; U is n x min(n, m) unless `full` (the obstruction space's).
    The cut is the rounding floor of `null_space`, and it is the only cut
    of A's spectrum: the face, `kernel_probes` and
    `exposedness.conjugate_obstruction_space` read A as U_f S_f V_f* with
    S_f invertible.  f = 0 exactly when A = 0.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=full or a.shape[0] < a.shape[1])
    return u, s, vh, int(np.count_nonzero(s > max(a.shape) * UNIT_ROUNDOFF * s[0]))


def combination_rows(vectors: np.ndarray) -> np.ndarray:
    """Normalized (a + b)/sqrt2 and (a + i b)/sqrt2 per pair of rows a before b of vectors."""
    iu, ju = triu_pairs(vectors.shape[0])
    rows = np.stack([vectors[iu] + vectors[ju], vectors[iu] + 1j * vectors[ju]], axis=1)
    rows = rows.reshape(-1, vectors.shape[1])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def kernel_probes(A, transposed: bool = False) -> list[np.ndarray]:
    """Probe vectors eta with phi(eta eta*) = 0, read off one SVD of A.

    For X -> A X A*, phi(eta eta*) = w w* with w = A eta, so the kernel
    probes are the m - f kernel vectors V e_j, j >= f, of `_class_svd`
    (the conjugated rows of Vh), and their pairwise combinations:
    k + k (k - 1) probes for k = m - f.  X -> A X^T A* sends eta eta* to the
    output of the plain map at conj(eta), so its kernel probes are the plain
    ones conjugated.  The face does not read them: it probes in the
    singular basis of A, where ker A is spanned by the dead basis probes.
    A = 0 raises InputRejected.
    """
    _, _, vh, f = _class_svd(_nonzero_operator(A))
    kernel = vh[f:].conj()
    if kernel.shape[0] > 1:
        kernel = np.concatenate([kernel, combination_rows(kernel)])
    return list(kernel.conj() if transposed else kernel)


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
    dropped last.  `class_solve` calls it only where 2 <= f < m; f = m, whose
    pair probes are eliminated too, is written in closed form.  Nothing here
    reads A.
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


def system_floor(s: np.ndarray, unknowns: int) -> float:
    """Rounding level of the face system's SVD, unknowns * u * max(s_0, 1) (0 for no spectrum).

    The rows are built from the unit class output columns, which are exact
    up to the rounding of the probes, with weights of order 1, so their
    rounding is of order u even where the projection in `_reduced_relations`
    cancels them down to a spectrum below 1.  Like the spectrum, it depends
    on A only through (m, f).
    """
    return unknowns * UNIT_ROUNDOFF * max(float(s[0]), 1.0) if s.shape[0] else 0.0


def double_prime_nullspace(A, transposed: bool = False) -> NullSpaceResult:
    """Null space of the zero-pair constraints of X -> A X A*, or of X -> A X^T A* when transposed.

    A is Frobenius normalised (`linalg.frobenius_norm`) as
    `exposedness.certify_exposed` normalises it, so the two return bitwise
    equal null spaces at any scale of A.  Builds the plain face from A on
    every call (`_plain_face`), over the solve of A's class, cached per
    (m, f) (`class_solve`); the transposed face holds the same factors.
    The arrays are read-only, as `certify_exposed` shares them between
    reports and the class cache shares `singular_values` between every A of
    one class.  A = 0 raises InputRejected.
    """
    a = _nonzero_operator(A)
    # one memory layout for every input, so equal matrices give equal bits
    plain = _plain_face(np.ascontiguousarray(a / frobenius_norm(a)))[0]
    return replace(plain, transposed=transposed)


@lru_cache(maxsize=None)
def class_solve(m: int, f: int) -> tuple:
    """Cached, read-only solve of the face system of the class (m, f): input side m, rank f.

    Probes: the cached `curve_frame` and `star_frame(m, f)`, empty unless 2 <= f < m.
    The relations are solved for the class outputs u_p u_p*, u_p = eta_p[:f]
    (f^2 real coordinates), which S_f^-1 carries A's outputs to exactly
    (`faces` module docstring).  A probe is live exactly when u_p != 0, and
    then it has one real unknown, psi(V P_p V*) = x_p w_p w_p*.  Every probe
    p past the m^2 unit probes gives the relation
    x_p u_p u_p* - sum_b coords[p, b] x_b u_b u_b* = 0, whose f^2 rows
    involve only x_p and the x_b of the P_b it has coordinates on.  x_p is
    in no other relation, so `_reduced_relations` projects it out and cuts
    each block to its R factor: the system has one unknown per live basis
    probe.  The rank is `gap_rank` of the spectrum over `system_floor`.

    Returns the class's evidence: the spectrum, `unknowns`, the probe
    count, the null dimension at the gap and, at f = 1 only (else None), the
    hull's condition.  None of it reads A, and both ends of the spectrum
    build no system.  At f = 1 every live class output is [1.0], so every
    relation, projected off its own output, is 0, and the 2m - 1 live basis
    probes (e_0, and the pairs (0, j)) are free: the hull is E_00,
    (E_0j + E_j0)/sqrt2 and i(E_0j - E_j0)/sqrt2, j >= 1 (`rank_one_hull`),
    and `condition` that of the live dual elements, whose Gram matrix is the
    arrowhead [[m, -1], [-1, 2 I]], with extreme eigenvalues
    x^2 - (m + 2) x + 2 = 0.  At f = m >= 2 the pair probes are eliminated
    too, and the Gram matrix of the system in the m diagonal unknowns is
    m I - J (`faces` module docstring): spectrum sqrt(m), m - 1 times, then 0.
    """
    if f == 1:
        condition = (m + 2 + math.sqrt((m + 2) ** 2 - 8)) / math.sqrt(8) if m > 1 else 1.0
        svals = _read_only((np.zeros(min(m * m - m, 2 * m - 1)),))[0]
        return svals, 2 * m - 1, 2 * m * m - m, 2 * m - 1, condition
    if f == m:
        svals = np.full(m, math.sqrt(m))
        svals[-1] = 0.0
        return _read_only((svals,))[0], m, 2 * m * m - m, 1, None
    curve, *curve_layout = curve_frame(m)
    star, *star_layout = star_frame(m, f)
    etas = np.concatenate([curve, star])
    # the class outputs u_p u_p*, u_p = eta_p[:f], and their class norms c_p = |u_p|^2
    raw = hermitian_params(_outer(etas[:, :f]))
    c = raw[:, :f].sum(axis=1)
    live = c > 0
    # unit column params(u_p u_p*) / c_p of each output, zero where the output is zero
    outputs = np.divide(raw, c[:, None], out=np.zeros_like(raw), where=live[:, None])
    system = _reduced_relations(outputs, live, [curve_layout, star_layout])
    rows, unknowns = system.shape
    if rows > unknowns:
        # same singular values and right vectors, without the tall left factor.  It pays
        # for itself: an SVD of the tall system was 1.3, 1.8 and 2.4 times slower at 8 x 8
        # rank 4, 12 x 12 rank 6 and 16 x 16 rank 8 (BENCH_relation_plan.json)
        system = np.linalg.qr(system, mode="r")
    svals = np.linalg.svd(system.T, full_matrices=rows < unknowns)[1]
    dim = unknowns - gap_rank(svals, system_floor(svals, unknowns))
    return _read_only((svals,))[0], unknowns, etas.shape[0], dim, None


def _plain_face(a: np.ndarray) -> tuple[NullSpaceResult, tuple]:
    """The face of X -> A X A* in factors, and the `_class_svd` (u, s, vh, f) it was read off.

    The probes are V eta, and the face system depends on A only through
    (m, f), so its solve is cached per class (`class_solve`).  At f >= 2 the
    class face is the ray of X -> Pi X Pi*, which the congruence carries to
    the ray of A_f = U_f S_f V_f*, read as A - U_t S_t V_t*, A itself where
    f = min(n, m), and `condition` is 1.0, as nothing is lifted.  A class
    whose gap reads another null dimension gets the empty face, which
    certifies nothing.  At f = 1 the hull is u_0 u_0* (x) conj(V R_k V*)
    over the class's R_k, held as the factors (u_0, V) (`rank_one_hull`).
    Deterministic: no random probes.
    """
    u, s, vh, f = svd = _class_svd(a)
    svals, unknowns, pairs_used, dim, condition = class_solve(a.shape[1], f)
    if condition is None:
        # subtracting the tail keeps the svd's backward error (27 u on a rotated 3 x 3 band)
        # out of A_f, so the ray misses Choi(phi) by the tail's distance alone
        a_f = a if f == s.shape[0] else a - (u[:, f : s.shape[0]] * s[f:]) @ vh[f : s.shape[0]]
        # an empty face keeps its (n, m): a u of length n and a V of no column
        factors = (a_f,) if dim == 1 else (np.zeros(a.shape[0]), np.zeros((a.shape[1], 0)))
        condition = 1.0
    else:
        # u_0 = A v_0 / s_0: the svd's U put n x 1 inputs past the membership bound
        w = a @ vh[0].conj()
        factors = (w / np.linalg.norm(w), vh.conj().T)
    face = NullSpaceResult(svals, pairs_used, unknowns, condition, _read_only(factors))
    return face, svd


def membership_residual(result: NullSpaceResult, map_rep: MapRep) -> tuple[np.ndarray, float]:
    """Project the map's Choi matrix onto the null-space span.

    Returns (coefficients, residual norm); the Choi matrix is Frobenius
    normalized first, so the coefficient norm is the overlap in [0, 1].
    The reference for `_membership`, which reads the factors.
    """
    c = map_rep.choi
    scale = frobenius_norm(c)
    if scale == 0.0:
        raise ShapeError("zero Choi matrix has no direction")
    p = hermitian_params(c / scale)
    # a face built with no factors has a (0, 0) basis
    basis = result.param_basis.reshape(p.shape[0], -1)
    coeffs = basis.T @ p
    residual = float(np.linalg.norm(p - basis @ coeffs))
    return coeffs, residual


def _membership(ns: NullSpaceResult, a: np.ndarray, svd: tuple) -> tuple[np.ndarray, float, float]:
    """`membership_residual` of X -> A X A*, unit A, read off the factors and `_class_svd`, and
    the tail level that `exposedness._face_bound` adds.

    Choi(phi) = c c*, c = vec(A) = p + d, p the projection of c on the
    factor space: the line of vec(A_f) for the ray, u (x) C^m for the hull.
    p d* + d p* + d d* is off the face, of squared norm
    |d|^2 (|d|^2 + 2 |p|^2).  The ray holds p p*, and its level is the
    largest tail the class cut allows, sqrt(2 (min(n, m) - f)) max(n, m) u.
    For the hull p = u (x) b / |u|^2, b = (u* A)^T, and p p* leaves
    b b* / |u|^2 = conj(V) beta beta* V^T / |u|^2, beta = V^T b: its
    coefficients on the conj(V R_k V*) are |beta_0|^2 and sqrt2 (Re, Im) of
    conj(beta_0) beta_j, over |u|^2, and its residual off their span is
    sum_{j >= 1} |beta_j|^2 / |u|^2; the level is 0.
    """
    if len(ns.factors) == 1:
        a_f = ns.factors[0]
        p = a_f * (np.vdot(a_f, a) / np.vdot(a_f, a_f).real)
        coeffs, on = np.array([float(np.vdot(p, p).real)]), 0.0
        level = math.sqrt(2 * (min(a.shape) - svd[3])) * max(a.shape) * UNIT_ROUNDOFF
    else:
        u, v = ns.factors
        # projected by u u* / |u|^2: |u| read as 1 took 0.52 of the bound 16 u at m = 1
        b, norm2 = u.conj() @ a, float(np.vdot(u, u).real)
        p, beta = np.outer(u, b / norm2), v.T @ b
        cross = SQRT2 * beta[0].conj() * beta[1:]
        coeffs = np.concatenate([[abs(beta[0]) ** 2], cross.view(np.float64)]) / norm2
        on, level = float(np.vdot(beta[1:], beta[1:]).real) / norm2, 0.0
    kept, off = (float(np.vdot(x, x).real) for x in (p, a - p))
    scale = kept + off
    return coeffs / scale, math.sqrt(off * (off + 2 * kept) + on * on) / scale, level
