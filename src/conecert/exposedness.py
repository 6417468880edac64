"""Certification engine: exposedness certificates, obstruction space, classification.

`certify_exposed` realizes the headline claim: for maps X -> A X A* and
X -> A X^T A*, the double-commutant constraint system pins the map down.
When the Hermitian null space is one-dimensional that is a direct linear
certificate (EXPOSED_LINEAR).  When the hull is larger (rank-1 A = u v*)
it is {X -> Tr(R X) uu* : R compressed to v-perp is 0}; the only positive
elements of that set form the ray through the map, and the face check
verifies that every computed basis element lies in that face, read off the
map itself (EXPOSED_FACE), on the hull's factors (u_0, v_0)
(`_factor_face_certificate`; `face_certificate` is its reference).  Both
verdicts are exact checks on the computed hull: no positivity search and no
random number is involved.  Only the plain map is certified: the transposed
report relabels the plain certificate of the same A.
"""

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ClassificationError, HermiticityError
from .faces import NullSpaceResult, _class_svd, _membership, _plain_face, system_floor
from .linalg import (
    UNIT_ROUNDOFF,
    _partial_transpose,
    _read_only,
    as_complex_matrix,
    eigh,
    eigvalsh,
    fix_phase,
    frobenius_norm,
    gap_rank,
    hermitian_within,
    hermitize,
    in_norm_range,
    normalized,
    svd,
    svdvals,
)
from .maps import MapRep, choi_from_ad

# safety factor on the Davis-Kahan bound of membership and the face check
FACE_SAFETY = 16.0


class Verdict(str, Enum):
    EXPOSED_LINEAR = "EXPOSED_LINEAR"
    EXPOSED_FACE = "EXPOSED_FACE"
    NOT_CERTIFIED = "NOT_CERTIFIED"
    INPUT_REJECTED = "INPUT_REJECTED"


class MapCase(str, Enum):
    OMEGA_Q = "OMEGA_Q"
    AD = "AD"
    AD_TRANSPOSE = "AD_TRANSPOSE"


@dataclass(frozen=True)
class FaceCertificate:
    """Rank-1 face check of a hull: its defect and the bound it must meet.

    The defect is the sine of the largest principal angle from the hull to
    the face read off phi (or, on the factors, an upper bound on it), or a
    rank-1 defect of phi if that is larger; a hull with no element reads 1.
    Both are relative: a bound of 1 or more would pass anything and
    certifies nothing.
    """

    defect: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.defect <= self.bound < 1.0


@dataclass
class ExposednessReport:
    verdict: Verdict
    nullspace: NullSpaceResult
    face: FaceCertificate | None
    overlap_with_phi: float
    wall_time_ms: int


def _rank1_defect(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest other |eigenvalue| over the top eigenvalue of Hermitian h, and its eigenvectors.

    The defect is 0 exactly when h is a positive multiple of a rank-1
    projection.  The eigenvectors are the columns of a unitary, top first.
    """
    w, v = eigh(hermitize(h))
    rest = float(np.abs(w[:-1]).max(initial=0.0))
    return (rest / w[-1] if w[-1] > 0 else 1.0), v[:, ::-1]


def _face_bound(nullspace: NullSpaceResult, tail: float = 0.0) -> float:
    """Relative bound on how far the computed hull may sit from an exact one.

    The system in basis-probe coordinates keeps `unknowns - dim` singular
    values.  Its computed form is an exact system M plus an error E, and the
    exact face (which holds Choi(phi)) is the null space of M.  By Wedin's
    sin-theta theorem the angle between the two null spaces is at most
    |E| / s_kept, over the smallest kept singular value; |E| is read as the
    largest discarded value, or the system's rounding level
    unknowns * u * max(s_0, 1) when that is larger (`system_floor`).  With
    nothing kept, as at f = 1, whose class system is exactly 0, the ratio is
    read at that level, unknowns * u.  At f = 1 a null vector turns into a
    Choi matrix through a linear map that is not an isometry, so an error
    component outside the null space is stretched by the whole map: an angle
    in probe coordinates grows in Choi coordinates by at most the map's
    condition number, `condition`.  At f >= 2 nothing is lifted (`condition`
    is 1): the face is the ray of A_f, the class cut of A, which misses
    Choi(phi) by A's tail below the cut, at most `tail`
    (`faces._membership`).  The bound is
    FACE_SAFETY * (condition * ratio + tail).
    """
    s = nullspace.singular_values
    unknowns = nullspace.unknowns
    rank = unknowns - nullspace.dim
    if rank == 0:
        ratio = unknowns * UNIT_ROUNDOFF
    elif not rank <= s.shape[0] or not s[rank - 1] > 0:
        return FACE_SAFETY  # no gap in the spectrum, so no bound below 1
    else:
        discarded = s[rank] if rank < s.shape[0] else 0.0
        ratio = float(max(discarded, system_floor(s, unknowns)) / s[rank - 1])
    return FACE_SAFETY * (nullspace.condition * ratio + tail)


def _face_frame(phi: MapRep) -> tuple[float, np.ndarray, np.ndarray]:
    """The larger `_rank1_defect` of phi(I) and of phi's compression by its top eigenvector u, and
    the eigenvectors W and V of the two, top first."""
    n, m = phi.n, phi.m
    u_defect, w = _rank1_defect(np.einsum("ikjk->ij", phi.choi4))
    top = w[:, 0]
    s_defect, v = _rank1_defect(top @ (top.conj() @ phi.choi.reshape(n, -1)).reshape(m, n, m))
    return max(u_defect, s_defect), w, v


def face_certificate(nullspace: NullSpaceResult, phi: MapRep) -> FaceCertificate:
    """Check that every hull element lies in the rank-1 face {uu* (x) S : S vanishes on s-perp}.

    The general check of any orthonormal hull, and the reference for
    `_factor_face_certificate`.  For A = u v* every hull element is
    uu* (x) S with S = R^T (or R for the transposed map), and R compressed
    to v-perp is 0.  A PSD matrix whose compression to a subspace is 0 has
    that subspace in its kernel, so the positive part of such a hull is the
    ray through phi.  The face is read off phi: u is the top eigenvector of
    the output marginal phi(I), and s the top eigenvector of phi's
    compression (u* (x) I) Choi(phi) (u (x) I).

    Each basis element B_j is rotated into the frame W (x) V of those two
    eigenbases, top vectors first.  There the face is every entry with
    output index 0 on both sides and input index 0 on at least one, so the
    projection P_F onto it zeroes the other entries.  The basis is
    orthonormal, so the largest singular value of the stacked residuals
    B_j - P_F B_j is the sine of the largest principal angle from the hull
    to the face, whatever basis of the hull is handed in: the quantity the
    Wedin argument of `_face_bound` bounds.

    The defect is the largest of that sine and of the rank-1 defects of
    phi(I) and of phi's compression; the bound is `_face_bound`.  A hull
    with no element certifies nothing: its defect reads 1.
    """
    n, m, d = phi.n, phi.m, nullspace.dim
    if d == 0:
        return FaceCertificate(defect=1.0, bound=_face_bound(nullspace))
    defect, w, v = _face_frame(phi)

    def frame(x):  # x (d, nm, nm) -> x (W (x) V), one GEMM per factor
        y = (x.reshape(-1, m) @ v).reshape(-1, n, m)
        # the column index comes out as (input, output)
        return (y.swapaxes(1, 2).reshape(-1, n) @ w).reshape(d, n * m, n * m)

    # B is Hermitian, so frame(frame(B)*) is the transpose of (W (x) V)* B (W (x) V)
    # with axes (input, output, input, output): the face is output 0 and an input 0
    rotated = frame(frame(nullspace.basis).conj().swapaxes(1, 2)).reshape(d, m, n, m, n)
    rotated[:, 0, 0, :, 0] = 0
    rotated[:, :, 0, 0, 0] = 0
    # the residuals are Hermitian, so their Gram matrix is real
    r = rotated.reshape(d, -1)
    sine = math.sqrt(max(float(eigvalsh((r @ r.conj().T).real)[-1]), 0.0))
    return FaceCertificate(defect=max(sine, defect), bound=_face_bound(nullspace))


def _factor_face_certificate(ns: NullSpaceResult, a: np.ndarray, svd: tuple) -> FaceCertificate:
    """`face_certificate` of the rank-1 hull of `ns.factors` (u, v) for X -> A X A*, read off A's
    `_class_svd` and the factors: no Choi matrix and no eigh.

    phi(I) = A A* has top eigenvector w = U[:, 0] and rank-1 defect
    (s_1 / s_0)^2; phi's compression by w is g g*, g = (w* A)^T, of rank 1.
    The hull is u u* (x) Y, Y = x c* + c x* unit, x = conj(v_0).  In
    those eigenbases its entries off the face have an output index past 0
    (squares summing to rho (rho + 2 |q|^2), q = w* u, rho = |u - q w|^2) or
    both input indices past 0 (|q|^4 |P Y P|^2, P = I - g g* / |g|^2).  With
    delta = P x, |P Y P| <= |delta|^2 |x* Y x| + 2 |delta| |Y x - (x* Y x) x|
    and Cauchy-Schwarz give |P Y P|^2 <= |delta|^2 (|delta|^2 + 2): the sine
    is an upper bound on face_certificate's, exact where delta = 0.
    """
    u, v = ns.factors
    w, s = svd[0][:, 0], svd[1]
    q, g, x = np.vdot(w, u), w.conj() @ a, v[:, 0].conj()
    off = (u - q * w, x - g * (np.vdot(g, x) / np.vdot(g, g).real))
    # delta2 = |delta|^2
    (rho, delta2), top = (float(np.vdot(y, y).real) for y in off), abs(q) ** 2
    sine = math.sqrt(rho * (rho + 2 * top) + top**2 * delta2 * (delta2 + 2))
    defect = float(s[1] / s[0]) ** 2 if s.shape[0] > 1 else 0.0
    return FaceCertificate(defect=max(sine, defect), bound=_face_bound(ns))


def certify_exposed(A, transposed: bool = False) -> ExposednessReport:
    """Certify that the conjugation map built from A spans an exposed ray.

    A is Frobenius normalized and the plain map X -> A X A* is certified
    (`_plain_certificate`): Choi(phi) must lie in the zero-pair null space,
    with a membership residual that meets the bound of `_face_bound`, and
    that bound must be below 1 (the reported overlap adds nothing:
    overlap^2 + residual^2 = 1).  Dimension 1 then gives EXPOSED_LINEAR; a
    larger hull (f = 1) gives EXPOSED_FACE when `_factor_face_certificate`
    holds.  Every
    other outcome is NOT_CERTIFIED, and the zero operator is INPUT_REJECTED.

    The transposed report is the plain certificate relabelled: the same
    verdict, face check and overlap, with the null space's factors read
    through the input-side partial transpose (`NullSpaceResult.transposed`),
    an isometry that maps the cone onto itself, sends Choi(phi) to
    Choi(phi o T) and keeps phi(I), so the membership residual, the overlap,
    the principal angles and both rank-1 defects of the transposed map are
    the plain ones.  The last plain certificate is kept, keyed on the
    normalized A, so the two flags on one A certify once; its arrays are
    read-only and every report gets a fresh `NullSpaceResult`.  Draws no
    random number.
    """
    t0 = time.perf_counter()
    a, norm, _ = in_norm_range(as_complex_matrix(A, "A"))
    if norm == 0.0:
        ns, verdict, face = NullSpaceResult(np.zeros(0), 0, 0, 1.0), Verdict.INPUT_REJECTED, None
        overlap = 0.0
    else:
        a = a / norm
        plain, verdict, face, overlap = _plain_certificate(a.tobytes(), a.shape)
        # built directly: dataclasses.replace cost 2.5-3 us more per report between oracle
        # calls on certbench grid, where half the reports reuse the kept certificate
        evidence = plain.singular_values, plain.pairs_used, plain.unknowns, plain.condition
        ns = NullSpaceResult(*evidence, plain.factors, transposed)
    wall_time_ms = int(round((time.perf_counter() - t0) * 1000))
    return ExposednessReport(verdict, ns, face, overlap, wall_time_ms)


@lru_cache(maxsize=1)
def _plain_certificate(
    key: bytes, shape: tuple[int, int]
) -> tuple[NullSpaceResult, Verdict, FaceCertificate | None, float]:
    """(null space, verdict, face check, overlap) of X -> A X A*, for unit A read from its bytes.

    Cached: `certify_exposed` relabels it for the transposed flag.  It has
    checked and normalised A, so the face is solved by `faces._plain_face`
    directly, not through the checks of `double_prime_nullspace`.  Every
    number is read off the svd of A and the face's factors
    (`faces._membership`, `_factor_face_certificate`): no (nm)^2 array.
    """
    a = np.frombuffer(key, dtype=np.complex128).reshape(shape)
    ns, svd = _plain_face(a)
    if ns.dim == 0:
        return ns, Verdict.NOT_CERTIFIED, None, 0.0

    overlap, resid, tail = _membership(ns, a, svd)
    if not resid <= _face_bound(ns, tail) < 1.0:
        return ns, Verdict.NOT_CERTIFIED, None, overlap

    if ns.dim == 1:
        return ns, Verdict.EXPOSED_LINEAR, None, overlap

    face = _factor_face_certificate(ns, a, svd)
    return ns, Verdict.EXPOSED_FACE if face.holds else Verdict.NOT_CERTIFIED, face, overlap


@dataclass
class ObstructionResult:
    """Solutions B of the kernel implication of A (`conjugate_obstruction_space`).

    `basis` holds `dim` unit n x m matrices: u_0 v_0^T at rank 1, none at
    any other rank.  `singular_values` is the spectrum of the system solved
    in the class frame, nm - r^2 ones and the cached r x r core's values
    (`_obstruction_core`), which depend on (n, m, r) only: A and U A V*
    report it bitwise equal.
    """

    dim: int
    basis: list[np.ndarray]
    singular_values: np.ndarray


# z of the obstruction curves: each curve's identity has a constant, a z, a conj(z)
# and a |z|^2 coefficient, and these four values separate them (|z| = 1 alone cannot)
_OBSTRUCTION_Z = (1, -1, 1j, 2)


@lru_cache(maxsize=None)
def _obstruction_core(r: int) -> np.ndarray:
    """Cached, read-only singular values of the curve rows on the r x r core: r^2 of them at
    r >= 2, none below.

    Four rows per pair j < k of `np.triu_indices(r, 1)`, one per z in
    `_OBSTRUCTION_Z`: (-z, -|z|^2, 1, conj(z)) on (B_jj, B_jk, B_kj, B_kk),
    laid by index on the r^2 columns of B's core, row-major.
    """
    z = np.array(_OBSTRUCTION_Z)
    block = np.stack([-z, -np.abs(z) ** 2, np.ones(4), z.conj()], axis=1)
    j, k = np.triu_indices(r, 1)
    cols = np.stack([j * (r + 1), j * r + k, k * r + j, k * (r + 1)], axis=1)
    system = np.zeros((j.shape[0], 4, r * r), dtype=np.complex128)
    np.put_along_axis(system, cols[:, None, :], block, axis=2)
    svals = svdvals(system.reshape(4 * j.shape[0], r * r))
    return _read_only((svals,))[0]


def conjugate_obstruction_space(A) -> ObstructionResult:
    """Solve for all B with: <conj(xi), A eta> = 0 implies <conj(xi), B conj(eta)> = 0.

    One SVD A = U S V* gives the class rank r of `faces._class_svd`, and the
    system is read in A's frame, on B' = U* B conj(V) D^-1 with
    D = diag(S_r, 1, ..., 1), where its rows are constants of (n, m, r).  It
    has two kinds of rows:
    - unit rows on the nm - r^2 entries B'_ij with i >= r or j >= r, one
      each: the kernel vectors V e_j, j >= r, force column j of B' to 0
      and the left-null directions U e_i, i >= r, row i;
    - curve rows on the r x r core: for each pair j < k < r,
      (conj(xi), eta) = (U zeta_z, V D^-1 rho_z) with rho_z = e_j + z e_k and
      zeta_z = -conj(z) e_j + e_k meets the premise for every z, and gives
      one row per z in `_OBSTRUCTION_Z`, (-z, -|z|^2, 1, conj(z)) on
      (B'_jj, B'_jk, B'_kj, B'_kk).
    The two kinds touch disjoint entries, so the spectrum is nm - r^2 ones
    merged with the core's, cached per r (`_obstruction_core`), descending;
    it has the length of the stacked system's, nm at r != 1 and nm - 1 at
    r = 1, where the core has no row.

    The dimension is proved, not read at a gap.  Each pair's 4 x 4 block
    has determinant exactly -12i over the Gaussian integers, so a pair's
    rows alone force its four entries to 0, and at r >= 2 every core entry
    lies in some pair: B' = 0.  At r = 1 the core B'_00 is free, and
    B = U B' D V^T is a multiple of u_0 v_0^T, v_0 = V[:, 0]; at r = 0
    (A = 0) every row is a unit row.  So the dimension is 1 exactly at
    r = 1, with basis u_0 v_0^T, and else 0.
    """
    a = in_norm_range(as_complex_matrix(A, "A"))[0]
    n, m = a.shape
    u, _, vh, rank = _class_svd(a)
    svals = np.concatenate([np.ones(n * m - rank * rank), _obstruction_core(rank)])
    basis = [np.outer(u[:, 0], vh[0].conj())] if rank == 1 else []
    return ObstructionResult(dim=len(basis), basis=basis, singular_values=-np.sort(-svals))


@dataclass
class Classification:
    case: MapCase
    b: np.ndarray | None = None
    r_matrix: np.ndarray | None = None
    zeta: np.ndarray | None = None

    def reconstruct(self) -> MapRep:
        from .maps import choi_from_omega_q

        if self.case is MapCase.OMEGA_Q:
            return choi_from_omega_q(self.r_matrix, self.zeta)
        return choi_from_ad(self.b, transposed=self.case is MapCase.AD_TRANSPOSE)


def _psd_rank(w: np.ndarray, floor: float) -> int:
    """Rank of an ascending Hermitian spectrum w at its gap over floor, or 0 if w is not PSD there.

    The rank is `gap_rank` of the |eigenvalues|, and w reads as PSD when
    every eigenvalue above the gap is positive: the top `rank` magnitudes
    are then the `rank` largest eigenvalues.
    """
    rank = gap_rank(np.sort(np.abs(w))[::-1], floor)
    return rank if rank and w[-rank] > max(-w[0], 0.0) else 0


def _rank1_psd_vector(c: np.ndarray, floor: float) -> np.ndarray | None:
    """Top eigenvector scaled by sqrt(eigenvalue) if c is rank-1 PSD at its gap over floor, else None."""
    w, v = eigh(hermitize(c))
    if _psd_rank(w, floor) != 1:
        return None
    return np.sqrt(float(w[-1])) * v[:, -1]


def classify(map_rep: MapRep) -> Classification:
    """Sort a rank-1 non-increasing map into one of three normal forms.

    Decision order: a rank-1 PSD Choi matrix is a conjugation map (AD); a
    rank-1 PSD partial transpose is the transposed family (AD_TRANSPOSE);
    a product-form Choi Q (x) S with Q a rank-1 projection direction and S
    PSD is the functional-times-projection form (OMEGA_Q, with R = S^T).
    The Choi matrix must pass `linalg.hermitian_within`, else
    HermiticityError.  Every rank is `gap_rank` of a spectrum over its
    rounding floor: the map's level n * m * u * |Choi|_F for the Choi
    matrix and its partial transpose, max(n^2, m^2) * u * s_0 for the SVD
    across the H:K cut, and dim * u * |X|_F for Q and S.  |Choi|_F is read once, for the
    Hermiticity rule and the floor.  PSD means that every eigenvalue above
    the gap is positive.  Anything else raises ClassificationError.
    """
    n, m, choi = map_rep.n, map_rep.m, map_rep.choi
    scale = frobenius_norm(choi)
    if not hermitian_within(choi, scale):
        raise HermiticityError("map is not Hermiticity-preserving within tolerance")
    # the map's rounding level n * m * u * |Choi|_F, from the norm already read
    floor = n * m * UNIT_ROUNDOFF * scale

    vec = _rank1_psd_vector(choi, floor)
    if vec is not None:
        return Classification(case=MapCase.AD, b=fix_phase(vec.reshape(n, m)))

    vec = _rank1_psd_vector(_partial_transpose(choi, n, m), floor)
    if vec is not None:
        return Classification(case=MapCase.AD_TRANSPOSE, b=fix_phase(vec.reshape(n, m)))

    omega_q = _omega_q_form(map_rep)
    if omega_q is None:
        raise ClassificationError(
            "map matches none of the AD / AD_TRANSPOSE / OMEGA_Q normal forms"
        )
    return omega_q


def _across_cut(c4: np.ndarray) -> np.ndarray:
    """Rearrange Choi tensors (..., n, m, n, m) across the H:K cut to (..., n*n, m*m).

    A product Q (x) S becomes the rank-1 matrix vec(Q) vec(S)^T.
    """
    n, m = c4.shape[-4:-2]
    return np.swapaxes(c4, -3, -2).reshape(c4.shape[:-4] + (n * n, m * m))


def _omega_q_form(map_rep: MapRep) -> Classification | None:
    """OMEGA_Q classification if choi = Q (x) S, Q a rank-1 PSD direction, S PSD."""
    n, m = map_rep.n, map_rep.m
    u, s, vh = svd(_across_cut(map_rep.choi4))
    t = complex(np.trace(u[:, 0].reshape(n, n)))
    if t == 0 or gap_rank(s, max(n * n, m * m) * UNIT_ROUNDOFF * s[0]) != 1:
        return None
    # the map is Hermitian, so Q and S are Hermitian up to rounding
    q = u[:, 0].reshape(n, n) / t
    smat = hermitize((float(s[0]) * t) * vh[0].reshape(m, m))
    vec = _rank1_psd_vector(q, n * UNIT_ROUNDOFF * frobenius_norm(q))
    s_floor = m * UNIT_ROUNDOFF * frobenius_norm(smat)
    if vec is None or not _psd_rank(eigvalsh(smat), s_floor):
        return None
    zeta = fix_phase(normalized(vec))
    return Classification(case=MapCase.OMEGA_Q, r_matrix=smat.T.copy(), zeta=zeta)
