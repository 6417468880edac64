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
economy svd A = U S V* gives f, the count of s_j > max(n, m) * u * s_0 (the
rounding floor of `null_space`), and A reads as U_f S_f V_f* with S_f
invertible (`_class_svd`, which `exposedness.conjugate_obstruction_space`
reads too).  So
phi = Ad_{U_f S_f} o phi_f o Ad_V*, where phi_f is the map X -> Pi X Pi*
of the class, Pi = [I_f 0] (f x m), and the congruences
psi -> Ad_E o psi o Ad_F with E injective and F invertible carry faces
onto faces.  The probes are V eta for fixed eta, and A's output on V eta
is w w* with w = U_f S_f u, u = eta[:f]: a relation among A's outputs
holds exactly when it holds for the class outputs u u*, carried back by
S_f^-1.  So the face system reads only the probes and depends on A only
through (m, f).  A probe is live exactly when u != 0: ker A is spanned by
the dead basis probes V e_j, j >= f, so no probe is read off it.  The
projectors P_b of the m^2 unit probes e_j, (e_j + e_k)/sqrt2 and
(e_j + i e_k)/sqrt2 are a basis of Herm(m), which X -> V X V* keeps.
Because psi is linear, every other probe p gives the relation
x_p u_p u_p* = sum_b coords[p, b] x_b u_b u_b* among the class outputs,
over the coordinates of P_p on the P_b:
- curve: the reflected probes (e_j - e_k)/sqrt2 and (e_j - i e_k)/sqrt2 put
  z = 1, i, -1, -i on the paper's curves e_j + z e_k, and their relations
  P_{-1} = P_j + P_k - P_{+1} and P_{-i} = P_j + P_k - P_{+i} touch the
  pair probe, P_j and P_k;
- star: where 2 <= f < m, the probes (e_0 + z1 e_b + z2 e_c)/sqrt3 for
  1 <= b < f <= c < m and z1, z2 in {1, i} touch P_0, P_b, P_c and the six
  pair probes of (0, b), (0, c) and (b, c).  A curve with a dead end
  c >= f has all its outputs on one line and ties nothing; the star ties
  the live ends of such curves together.
A probe past the basis enters its own relation only, so its x_p is
eliminated exactly: the relation holds for some x_p if and only if the
basis side lies on the line through u_p u_p*, so that line is projected out
of it and only the basis probes keep unknowns, one per live basis probe on
its unit output u_b u_b* / |u_b|^2.  Projected, each
relation is a block of rank at most 2 whose entries are constants of the
class frame, so the system is written down, two literal rows per relation
(`_class_rows`), with no probe, coordinate or m^2-column table built.  One
SVD gives the face of the class, cached read-only per (m, f) as evidence
only (`class_solve`): the spectrum, the null dimension at its gap and the
counts, with no null vector.  At f >= 2 the class face is one ray, the
class map X -> Pi X Pi* itself: its coordinate on the unit output column
of probe b is x_b = |u_b|^2, 1 on e_j and on the pair probes inside f, and
1/2 on the pair probes (j, c), c >= f.  The congruence carries it to the ray
of A_f = U_f S_f V_f*, so `_plain_face` writes A's face as the factor A_f,
and nothing is rebuilt per A.  Both ends of the spectrum are written with
no system built.  At f = 1 every live class output is [1.0], so every
relation is exactly 0 and the hull is the paper's face
{X -> Tr(R X) u u* : R compressed to v-perp = 0}, which `_plain_face`
writes as the factors (u_0, v_0) of A's svd.  At f = m the pair probe
P_{+z}(j, k) is in the relation of P_{-z}(j, k) only; eliminated, it leaves
that relation the single row +-(e_j - e_k)/sqrt2 on the m diagonal
unknowns, x_j = x_k.  The system's Gram matrix is then m I - J, the
Laplacian of the complete graph K_m: spectrum sqrt(m), m - 1 times, and 0
on the ray x_j = 1.  No (nm)^2-sized array is built until a basis is read.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .linalg import (
    SQRT2,
    UNIT_ROUNDOFF,
    _partial_transpose,
    _read_only,
    gap_rank,
    in_norm_range,
    svd,
    svdvals,
)
from .maps import MapRep, _nonzero_operator


@dataclass
class NullSpaceResult:
    """Null space of the face's linear system, held as read-only factors.

    `factors` is the face: (A_f,) for the ray of Choi(X -> A_f X A_f*), or
    (u, v) for the rank-1 hull of u u* (x) conj(V R_k V*), u (n,), v (m, 1)
    the unit v_0 and V any unitary with first column v_0, over the 2m - 1 R_k
    of the class (m, 1) (`rank_one_hull`); v (m, 0) (or ()) for none.
    `transposed` reads every element through the input-side partial
    transpose, the face of X -> A X^T A*.
    `basis`, the elements as a stack (dim, nm, nm) of Choi matrices
    orthonormal in Re<B, C>_F, is built anew each time it is read.
    `singular_values` is the spectrum of the class system (`faces` module
    docstring), in `unknowns` real unknowns: the m diagonal probes' where
    f = m (the pairs are eliminated), else every live basis probe's.  It, `unknowns` and
    `pairs_used` (the probe count) depend on A only through (m, f).  At
    f >= 2 nothing is lifted, and `condition` is 1.0.  At f = 1 it is the
    condition number of the map from the class coordinates to Choi
    matrices, a class constant (`class_solve`).
    """

    singular_values: np.ndarray
    pairs_used: int
    unknowns: int
    condition: float
    factors: tuple = ()
    transposed: bool = False

    @property
    def dim(self) -> int:
        if len(self.factors) != 2:
            return len(self.factors)
        return (2 * self.factors[1].shape[0] - 1) * self.factors[1].shape[1]

    @property
    def basis(self) -> np.ndarray:
        """The unit Choi matrices (dim, nm, nm) of the elements, partially transposed under the
        flag: an exact permutation of the plain ones, which keeps their norms."""
        if len(self.factors) == 1:
            # Choi(X -> A_f X A_f*) = vec(A_f) vec(A_f)*
            a_f = self.factors[0]
            (n, m), choi = a_f.shape, np.outer(a_f, a_f.conj())[None]
        else:
            u, v = self.factors or (np.zeros(0), np.zeros((0, 0)))
            (n,), m, t = u.shape, v.shape[0], rank_one_hull(v)
            choi = np.outer(u, u.conj())[None, :, None, :, None] * t[:, None, :, None, :]
            choi = choi.reshape(t.shape[0], n * m, n * m)
        # a BLAS dot per element: einsum lost 30-60 u at (nm)^2 >= 16,384
        norms = [np.linalg.norm(c.reshape(-1).view(np.float64)) for c in choi]
        choi /= np.array(norms).reshape(-1, 1, 1)
        return _partial_transpose(choi, n, m) if self.transposed else choi


def rank_one_hull(v: np.ndarray) -> np.ndarray:
    """conj(V R_k V*) (2m - 1, m, m) from the unit column v (m, 1), over the hull R_k of the class
    (m, 1) (`class_solve`), or none from v (m, 0).

    V is one QR of [v, I], a unitary whose first column v_0 is v up to a
    phase: conj(v_0) v_0^T, then (c_j + c_j*)/sqrt2 and -i(c_j - c_j*)/sqrt2,
    c_j = conj(v_0) v_j^T, per j >= 1.  Another completion of v spans the
    same hull.  At v = e_0 the QR returns I, and they are conj(R_k).
    """
    m, k = v.shape
    if not k:
        return np.zeros((0, m, m), dtype=np.complex128)
    v = np.linalg.qr(np.concatenate([v, np.eye(m)], axis=1))[0]
    t = np.zeros((2 * m - 1, m, m), dtype=np.complex128)
    t[0] = np.outer(v[:, 0].conj(), v[:, 0])
    c = v[:, 0].conj()[None, :, None] * v[:, 1:].T[:, None, :]
    h = c.conj().swapaxes(1, 2)
    t[1::2], t[2::2] = (c + h) / SQRT2, -1j * (c - h) / SQRT2
    return t


def _class_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One economy svd A = U S V* and the class rank f, the count of s_j > max(n, m) * u * s_0.

    U is n x min(n, m) and V* is min(n, m) x m.  The cut is the rounding
    floor of `null_space`, and it is the only cut of A's spectrum: the face
    reads A as U_f S_f V_f* with S_f invertible, and
    `exposedness.conjugate_obstruction_space` reads f and, at f = 1,
    U[:, 0] and V[:, 0].  f = 0 exactly when A = 0.
    """
    u, s, vh = svd(a, full_matrices=False)
    return u, s, vh, int(np.count_nonzero(s > max(a.shape) * UNIT_ROUNDOFF * s[0]))


def system_floor(s: np.ndarray, unknowns: int) -> float:
    """Rounding level of the face system's SVD, unknowns * u * max(s_0, 1) (0 for no spectrum).

    The rows are literal constants of order 1 (`_class_rows`), exact but for
    the rounding of sqrt2, so the SVD rounds them at the order of u, even
    where the spectrum falls below 1.  Like the spectrum, it depends
    on A only through (m, f).
    """
    return unknowns * UNIT_ROUNDOFF * max(float(s[0]), 1.0) if s.shape[0] else 0.0


def double_prime_nullspace(A, transposed: bool = False) -> NullSpaceResult:
    """Null space of the zero-pair constraints of X -> A X A*, or of X -> A X^T A* when transposed.

    A is Frobenius normalised (`linalg.in_norm_range`) as
    `exposedness.certify_exposed` normalises it, so the two return bitwise
    equal null spaces at any scale of A.  Builds the plain face from A on
    every call (`_plain_face`), over the solve of A's class, cached per
    (m, f) (`class_solve`); the transposed face holds the same factors.
    The arrays are read-only, as `certify_exposed` shares them between
    reports and the class cache shares `singular_values` between every A of
    one class.  A = 0 raises InputRejected.
    """
    a, norm, _ = in_norm_range(_nonzero_operator(A))
    # one memory layout for every input, so equal matrices give equal bits
    plain = _plain_face(np.ascontiguousarray(a / norm))[0]
    return replace(plain, transposed=transposed)


# the two rows of a curve relation on (P_{+z}(j, k), P_j, P_k), and of a star relation on
# (P_0, P_b, P_{+z2}(0, c), P(b, c)) before its signs (`_class_rows`)
CURVE_ROWS = np.array([[1.0, -0.5, -0.5], [0.0, 1 / SQRT2, -1 / SQRT2]])
STAR_ROWS = np.array([SQRT2 / 6 * np.array([1, -1, -2, 2]), np.array([1, 1, -2, -2]) / 6])


def _class_rows(m: int, f: int) -> np.ndarray:
    """The face system of the class (m, f), 2 <= f < m: two literal rows per relation on the
    f^2 + 2f(m - f) unknowns of the live basis probes.

    Column j < f is P_j, and column f + 2q + z is P_{+1} (z = 0) or P_{+i}
    (z = 1) of pair q = j (2m - j - 3)/2 + k - 1 of `np.triu_indices(m, 1)`: the
    pairs with j < f, which come first.  Each relation, its own probe
    eliminated (`faces` module docstring), gives two rows by index:
    - curve (j, k, z), j < k < f: (1, -1/2, -1/2) and (0, 1/sqrt2, -1/sqrt2)
      on (P_{+z}(j, k), P_j, P_k).  A curve with an end >= f gives none;
    - star (b, c, z1, z2): (sqrt2/6)(1, -s, -2, 2s) and (1/6)(1, s, -2, -2s)
      on (P_0, P_b, P_{+z2}(0, c), P(b, c)), with P(b, c) the P_{+1} pair
      probe where z1 = z2 and the P_{+i} one otherwise, and s = -1 at
      (z1, z2) = (i, 1), else 1.

    These rows have the spectrum and the null space of the relations' blocks
    projected off their own outputs: S^T S is the sum of the relations' Gram
    matrices, and each pair of rows has its block's Gram matrix.  Curve: the
    outputs are E_jj, E_kk and o_{+-} = (E_jj + E_kk)/2 +- D, D the
    off-diagonal part of z, |D|^2 = 1/2, so o_+ is orthogonal to the own
    output o_-, and E_jj, E_kk meet it at 1/2.  By P_{-z} = P_j + P_k - P_{+z}
    the projected block is (-o_+, E_jj - o_-/2, E_kk - o_-/2), with Gram
    [[1, -1/2, -1/2], [-1/2, 3/4, -1/4], [-1/2, -1/4, 3/4]], the rows' Gram.
    With an end >= f every output of the relation is on the own output's
    line, so its block is 0.  Star: u_p = (e_0 + z1 e_b)/sqrt3, so the own
    output is that of P_{+z1}(0, b), whose column projects to 0, the other
    pair probe of (0, b) has coordinate 0, and P_c is dead.  The probe's
    coordinates are -1/3 on P_0 and 2/3 on P_{+z2}(0, c), both with output
    E_00, and -s/3 on P_b and 2s/3 on P(b, c), both with output E_bb.
    Projected off (E_00 + E_bb)/2 + D, E_00 and E_bb have Gram
    M = [[3/4, -1/4], [-1/4, 3/4]] = (1/4)(1, 1)^T (1, 1) + (1/2)(1, -1)^T (1, -1),
    so the block's Gram is W^T M W, W = [[-1, 0, 2, 0], [0, -s, 0, 2s]]/3:
    that of the rows (1/2)(1, 1) W and (1/sqrt2)(1, -1) W, the star rows
    negated.
    """

    def pair(j, k):
        # the column of P_{+1}(j, k); P_{+i}(j, k) is the next one
        return f + j * (2 * m - j - 3) + 2 * (k - 1)

    j, k = (np.repeat(x, 2) for x in np.triu_indices(f, 1))
    curve = np.stack([pair(j, k) + np.arange(j.shape[0]) % 2, j, k], axis=1)
    # star probe q: (b, c) by b then c, then (z1, z2) = (1, 1), (1, i), (i, 1), (i, i), read
    # as 0 for 1 and 1 for i
    q = np.arange(4 * (f - 1) * (m - f))
    b, c = np.divmod(q // 4, m - f)
    b, c, z1, z2 = b + 1, c + f, q // 2 % 2, q % 2
    star = np.stack([0 * b, b, pair(0, c) + z2, pair(b, c) + (z1 ^ z2)], axis=1)
    signs = np.ones((q.shape[0], 1, 4))
    signs[z1 > z2, :, 1::2] = -1.0
    unknowns, laid = f * f + 2 * f * (m - f), []
    for cols, rows in ((curve, CURVE_ROWS), (star, STAR_ROWS * signs)):
        system = np.zeros((cols.shape[0], 2, unknowns))
        np.put_along_axis(system, cols[:, None, :], rows, axis=2)
        laid.append(system.reshape(-1, unknowns))
    return np.concatenate(laid)


@lru_cache(maxsize=None)
def class_solve(m: int, f: int) -> tuple:
    """Cached, read-only solve of the face system of the class (m, f): input side m, rank f.

    The relations are solved for the class outputs u_p u_p*, u_p = eta_p[:f]
    (f^2 real coordinates), which S_f^-1 carries A's outputs to exactly
    (`faces` module docstring).  A probe is live exactly when u_p != 0, and
    then it has one real unknown, psi(V P_p V*) = x_p w_p w_p*.  Every probe
    p past the m^2 unit probes gives one relation, in which x_p is
    eliminated: the system has one unknown per live basis probe, and at
    2 <= f < m it is written as literal rows (`_class_rows`), 2f(f - 1) for
    the curves and 8(f - 1)(m - f) for the stars, and solved by one SVD.  The
    rank is `gap_rank` of the spectrum over `system_floor`.  The probes are
    the 2m^2 - m curve probes and 4(f - 1)(m - f) star probes.

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
    pairs_used = 2 * m * m - m + 4 * (f - 1) * (m - f)
    if f == 1:
        condition = (m + 2 + math.sqrt((m + 2) ** 2 - 8)) / math.sqrt(8) if m > 1 else 1.0
        svals = _read_only((np.zeros(min(m * m - m, 2 * m - 1)),))[0]
        return svals, 2 * m - 1, pairs_used, 2 * m - 1, condition
    if f == m:
        svals = np.full(m, math.sqrt(m))
        svals[-1] = 0.0
        return _read_only((svals,))[0], m, pairs_used, 1, None
    # no QR first: LAPACK's gesdd cuts a matrix of over 11/6 rows per column, as the system
    # is but at the smallest m, to its R itself when no singular vector is asked for, so a
    # QR here only costs time (BENCH_class_system_closed_form.json)
    system = _class_rows(m, f)
    svals, unknowns = svdvals(system), system.shape[1]
    dim = unknowns - gap_rank(svals, system_floor(svals, unknowns))
    return _read_only((svals,))[0], unknowns, pairs_used, dim, None


def _plain_face(a: np.ndarray) -> tuple[NullSpaceResult, tuple]:
    """The face of X -> A X A* in factors, and the `_class_svd` (u, s, vh, f) it was read off.

    The probes are V eta, and the face system depends on A only through
    (m, f), so its solve is cached per class (`class_solve`).  At f >= 2 the
    class face is the ray of X -> Pi X Pi*, which the congruence carries to
    the ray of A_f = U_f S_f V_f*, read as A - U_t S_t V_t*, A itself where
    f = min(n, m), and `condition` is 1.0, as nothing is lifted.  A class
    whose gap reads another null dimension gets the empty face, which
    certifies nothing.  At f = 1 the hull is u_0 u_0* (x) conj(V R_k V*)
    over the class's R_k, held as the factors (u_0, v_0) (`rank_one_hull`).
    Deterministic: no random probes.
    """
    u, s, vh, f = svd = _class_svd(a)
    svals, unknowns, pairs_used, dim, condition = class_solve(a.shape[1], f)
    if condition is None:
        # subtracting the tail keeps the svd's backward error (27 u on a rotated 3 x 3 band)
        # out of A_f, so the ray misses Choi(phi) by the tail's distance alone
        a_f = a if f == s.shape[0] else a - (u[:, f:] * s[f:]) @ vh[f:]
        # an empty face keeps its (n, m): a u of length n and a v of no column
        factors = (a_f,) if dim == 1 else (np.zeros(a.shape[0]), np.zeros((a.shape[1], 0)))
        condition = 1.0
    else:
        # u_0 = A v_0 / s_0: the svd's U put n x 1 inputs past the membership bound
        w = a @ vh[0].conj()
        factors = (w / np.linalg.norm(w), vh[:1].conj().T)
    face = NullSpaceResult(svals, pairs_used, unknowns, condition, _read_only(factors))
    return face, svd


def membership_residual(result: NullSpaceResult, map_rep: MapRep) -> tuple[np.ndarray, float]:
    """Project the map's Choi matrix onto the null-space span.

    Returns (coefficients, residual norm); the Choi matrix is Frobenius
    normalized first, so the coefficient norm is the overlap in [0, 1].
    The reference for `_membership`, which reads the factors.
    """
    c, scale, _ = in_norm_range(map_rep.choi)
    if scale == 0.0:
        raise ShapeError("zero Choi matrix has no direction")
    # in the float64 views, Re<B, C>_F is a dot product and |C|_F a vector norm
    c = (c / scale).reshape(-1).view(np.float64)
    basis = result.basis.reshape(-1, c.size // 2).view(np.float64)
    coeffs = basis @ c
    residual = float(np.linalg.norm(c - coeffs @ basis))
    return coeffs, residual


def _membership(ns: NullSpaceResult, a: np.ndarray, svd: tuple) -> tuple[float, float, float]:
    """(overlap, residual) of `membership_residual` of X -> A X A*, unit A, read off the factors
    and `_class_svd`, and the tail level that `exposedness._face_bound` adds.

    Choi(phi) = c c*, c = vec(A) = p + d, p the projection of c on the
    factor space: the line of vec(A_f) for the ray, u (x) C^m for the hull.
    p d* + d p* + d d* is off the face, of squared norm
    |d|^2 (|d|^2 + 2 |p|^2).  The ray holds p p*, and its level is the
    largest tail the class cut allows, sqrt(2 (min(n, m) - f)) max(n, m) u.
    For the hull p = u (x) b / |u|^2, b = (u* A)^T, and p p* leaves
    b b* / |u|^2, whose part off the span of the conj(V R_k V*) is
    rest rest* / |u|^2, rest = b - conj(v_0) (v_0^T b): of squared norm
    on^2, on = |rest|^2 / |u|^2, with no other column of V read; the
    level is 0.  The ray's on is 0.  The overlap, the norm of the
    coefficients on the face, is then sqrt(|p|^4 - on^2), over |c|^2.
    """
    if len(ns.factors) == 1:
        a_f = ns.factors[0]
        p, on = a_f * (np.vdot(a_f, a) / np.vdot(a_f, a_f).real), 0.0
        level = math.sqrt(2 * (min(a.shape) - svd[3])) * max(a.shape) * UNIT_ROUNDOFF
    else:
        u, v = ns.factors[0], ns.factors[1][:, 0]
        # projected by u u* / |u|^2: |u| read as 1 took 0.52 of the bound 16 u at m = 1
        b, norm2 = u.conj() @ a, float(np.vdot(u, u).real)
        p, rest = np.outer(u, b / norm2), b - v.conj() * (v @ b)
        on, level = float(np.vdot(rest, rest).real) / norm2, 0.0
    kept, off = (float(np.vdot(x, x).real) for x in (p, a - p))
    scale = kept + off
    overlap = math.sqrt(max(kept * kept - on * on, 0.0)) / scale
    return overlap, math.sqrt(off * (off + 2 * kept) + on * on) / scale, level
