"""Certification engine: exposedness certificates, obstruction space, classification.

`certify_exposed` realizes the headline claim: for maps X -> A X A* and
X -> A X^T A*, the double-commutant constraint system pins the map down.
When the Hermitian null space is one-dimensional that is a direct linear
certificate (EXPOSED_LINEAR).  When the hull is larger (rank-1 A = u v*)
it is {X -> Tr(R X) uu* : R compressed to v-perp is 0}; the only positive
elements of that set form the ray through the map, and `face_certificate`
checks that every computed basis element lies in that face, read off the
map itself (EXPOSED_FACE).  Both verdicts
are exact checks on the computed hull: no positivity search and no random
number is involved.
"""

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ClassificationError
from .faces import (
    NullSpaceResult,
    double_prime_nullspace,
    membership_residual,
    system_floor,
)
from .linalg import (
    UNIT_ROUNDOFF,
    as_complex_matrix,
    fix_phase,
    gap_rank,
    hermitize,
    normalized,
    null_space,
    params_to_herm,
)
from .maps import (
    MapRep,
    _ad_map,
    _require_hermitian,
    choi_from_ad,
    map_floor,
    partial_transpose_in,
)

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
    the face read off phi, or a rank-1 defect of phi if that is larger.  Both
    are relative: the defect is at most 1 on any hull, so a bound of 1 or
    more would pass anything and certifies nothing.
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


def _empty_nullspace() -> NullSpaceResult:
    return NullSpaceResult(
        singular_values=np.zeros(0), pairs_used=0, param_basis=np.zeros((0, 0)),
        unknowns=0, condition=1.0,
    )


def _rank1_defect(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest other |eigenvalue| over the top eigenvalue of Hermitian h, and its eigenvectors.

    The defect is 0 exactly when h is a positive multiple of a rank-1
    projection.  The eigenvectors are the columns of a unitary, top first.
    """
    w, v = np.linalg.eigh(hermitize(h))
    rest = float(np.abs(w[:-1]).max(initial=0.0))
    return (rest / w[-1] if w[-1] > 0 else 1.0), v[:, ::-1]


def _face_bound(nullspace: NullSpaceResult) -> float:
    """Relative bound on how far the computed hull may sit from an exact one.

    The system in basis-probe coordinates keeps `unknowns - dim` singular
    values.  Its computed form is an exact system M plus an error E, and the
    exact face (which holds Choi(phi)) is the null space of M.  By Wedin's
    sin-theta theorem the angle between the two null spaces is at most
    |E| / s_kept, over the smallest kept singular value; |E| is read as the
    largest discarded value, or the system's rounding level
    unknowns * u * max(s_0, 1) when that is larger (`system_floor`).  With
    nothing kept the ratio is read at that level, unknowns * u.  A null
    vector turns into a Choi matrix through a linear map that is not an
    isometry (at full column rank it includes the back-substituted pair
    coordinates).  An error component outside the null space is stretched
    by the whole map, so an angle in probe coordinates grows in Choi
    coordinates by at most the map's largest stretch over its least stretch
    on the null space, which is `condition`.  The bound is
    FACE_SAFETY * condition * that ratio.
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
    return FACE_SAFETY * nullspace.condition * ratio


def face_certificate(nullspace: NullSpaceResult, phi: MapRep) -> FaceCertificate:
    """Check that every hull element lies in the rank-1 face {uu* (x) S : S vanishes on s-perp}.

    For A = u v* every hull element is uu* (x) S with S = R^T (or R for the
    transposed map), and R compressed to v-perp is 0.  A PSD matrix whose
    compression to a subspace is 0 has that subspace in its kernel, so the
    positive part of such a hull is the ray through phi.  The face is read
    off phi: u is the top eigenvector of the output marginal phi(I), and s
    the top eigenvector of phi's compression (u* (x) I) Choi(phi) (u (x) I).

    Each basis element B_j is rotated into the frame W (x) V of those two
    eigenbases, top vectors first.  There the face is every entry with
    output index 0 on both sides and input index 0 on at least one, so the
    projection P_F onto it zeroes the other entries.  The basis is
    orthonormal, so the largest singular value of the stacked residuals
    B_j - P_F B_j is the sine of the largest principal angle from the hull
    to the face, whatever basis of the hull is handed in: the quantity the
    Wedin argument of `_face_bound` bounds.

    The defect is the largest of that sine and of the rank-1 defects of
    phi(I) and of phi's compression; the bound is `_face_bound`.
    """
    n, m, d = phi.n, phi.m, nullspace.dim
    u_defect, w = _rank1_defect(np.einsum("ikjk->ij", phi.choi4))
    top = w[:, 0]
    s_defect, v = _rank1_defect(top @ (top.conj() @ phi.choi.reshape(n, -1)).reshape(m, n, m))

    def frame(x):  # x (d, nm, nm) -> x (W (x) V), one GEMM per factor
        y = (x.reshape(-1, m) @ v).reshape(-1, n, m)
        # the column index comes out as (input, output)
        return (y.swapaxes(1, 2).reshape(-1, n) @ w).reshape(d, n * m, n * m)

    # B is Hermitian, so frame(frame(B)*) is the transpose of (W (x) V)* B (W (x) V)
    # with axes (input, output, input, output): the face is output 0 and an input 0
    b = params_to_herm(nullspace.param_basis.T, n * m)
    rotated = frame(frame(b).conj().swapaxes(1, 2)).reshape(d, m, n, m, n)
    rotated[:, 0, 0, :, 0] = 0
    rotated[:, :, 0, 0, 0] = 0
    # the residuals are Hermitian, so their Gram matrix is real
    r = rotated.reshape(d, -1)
    sine = math.sqrt(max(float(np.linalg.eigvalsh((r @ r.conj().T).real)[-1]), 0.0))
    return FaceCertificate(defect=max(sine, u_defect, s_defect), bound=_face_bound(nullspace))


def certify_exposed(A, transposed: bool = False) -> ExposednessReport:
    """Certify that the conjugation map built from A spans an exposed ray.

    A is Frobenius normalized and the zero-pair null space is computed.
    Choi(phi) must lie in it: its membership residual must meet the bound
    of `_face_bound`, and that bound must be below 1 (the reported overlap
    adds nothing: overlap^2 + residual^2 = 1).  Dimension 1 then gives
    EXPOSED_LINEAR; a larger hull gives EXPOSED_FACE when `face_certificate`
    holds.  Every other outcome is NOT_CERTIFIED, and the zero operator is
    INPUT_REJECTED.  Draws no random number.
    """
    t0 = time.perf_counter()
    a = as_complex_matrix(A, "A")

    def finish(verdict, ns, face, overlap):
        return ExposednessReport(
            verdict=verdict,
            nullspace=ns,
            face=face,
            overlap_with_phi=float(overlap),
            wall_time_ms=int(round((time.perf_counter() - t0) * 1000)),
        )

    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return finish(Verdict.INPUT_REJECTED, _empty_nullspace(), None, 0.0)

    a = a / norm
    phi = _ad_map(a, transposed)
    ns = double_prime_nullspace(a, transposed)
    if ns.dim == 0:
        return finish(Verdict.NOT_CERTIFIED, ns, None, 0.0)

    coeffs, resid = membership_residual(ns, phi)
    overlap = float(np.linalg.norm(coeffs))
    if not resid <= _face_bound(ns) < 1.0:
        return finish(Verdict.NOT_CERTIFIED, ns, None, overlap)

    if ns.dim == 1:
        return finish(Verdict.EXPOSED_LINEAR, ns, None, overlap)

    face = face_certificate(ns, phi)
    verdict = Verdict.EXPOSED_FACE if face.holds else Verdict.NOT_CERTIFIED
    return finish(verdict, ns, face, overlap)


@dataclass
class ObstructionResult:
    dim: int
    basis: list[np.ndarray]
    singular_values: np.ndarray


# z of the obstruction curves: each curve's identity has a constant, a z, a conj(z)
# and a |z|^2 coefficient, and these four values separate them (|z| = 1 alone cannot)
_OBSTRUCTION_Z = (1, -1, 1j, 2)


def conjugate_obstruction_space(A) -> ObstructionResult:
    """Solve for all B with: <conj(xi), A eta> = 0 implies <conj(xi), B conj(eta)> = 0.

    One SVD A = U S V* gives the split and the rank r (`gap_rank` of S over
    max(n, m) * u * s_0).  The system is solved for the partial isometry
    P = U_r V_r* instead of A: with G = V_r S_r V_r* + V_perp V_perp*,
    which is invertible, A = P G, so (zeta, rho) is a zero-pair of A exactly
    when (zeta, G rho) is one of P, and B solves for A exactly when
    B conj(G)^-1 solves for P.  The solutions B' for P are mapped back as
    B = B' conj(G) and orthonormalised.

    P's system uses three probe families: kernel vectors v of A (forcing
    B' conj(v) = 0), left-null directions u of A (forcing u* B' = 0), and
    for each pair j < k of singular vector pairs the curves
    rho_z = v_j + z v_k, zeta_z = -conj(z) u_j + u_k, which satisfy the
    premise for every z and whose scale does not depend on S.  The curves
    are read at z in `_OBSTRUCTION_Z`, which separates every coefficient of
    the induced polynomial identity in z and conj(z), so no spurious
    solution survives.  `singular_values` is the spectrum of P's system.

    Returns the complex solution space: dimension 0 when rank(A) >= 2 or
    A = 0, dimension 1 (spanned by a rank-1 operator) when rank(A) = 1.
    """
    a = as_complex_matrix(A, "A")
    n, m = a.shape
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = gap_rank(s, max(n, m) * UNIT_ROUNDOFF * s[0])
    eye_n = np.eye(n, dtype=np.complex128)
    eye_m = np.eye(m, dtype=np.complex128)
    # kernel vectors v = conj(vh[j]): one row e_i (x) conj(v) per i
    kernel_rows = eye_n[None, :, :, None] * vh[rank:, None, None, :]
    # left-null directions u: one row conj(u) (x) e_j per j
    left_rows = u[:, rank:].conj().T[:, None, :, None] * eye_m[None, :, None, :]

    # singular vector pairs j < k, one row per z
    vr, ur = vh[:rank].conj(), u[:, :rank].T
    jj, kk = np.triu_indices(rank, 1)
    z = np.asarray(_OBSTRUCTION_Z)[None, :, None]
    rho = vr[jj, None] + z * vr[kk, None]
    zeta = -np.conj(z) * ur[jj, None] + ur[kk, None]
    curve_rows = zeta.conj()[..., :, None] * rho.conj()[..., None, :]

    rows = np.concatenate([r.reshape(-1, n * m) for r in (kernel_rows, left_rows, curve_rows)])
    if rows.shape[0] == 0:
        basis = np.eye(n * m, dtype=np.complex128)
        svals = np.zeros(0)
    else:
        basis, svals = null_space(rows)
    # B = B' conj(G), conj(G) = conj(V) diag(S_r, 1, ..., 1) V^T
    stretch = np.ones(m)
    stretch[:rank] = s[:rank]
    g_conj = (vh.T * stretch) @ vh.conj()
    mapped = basis.T.reshape(-1, n, m) @ g_conj
    if mapped.shape[0]:
        basis = np.linalg.qr(mapped.reshape(-1, n * m).T)[0]
    mats = [basis[:, j].reshape(n, m) for j in range(basis.shape[1])]
    return ObstructionResult(dim=basis.shape[1], basis=mats, singular_values=svals)


@dataclass
class Classification:
    case: MapCase
    b: np.ndarray | None = None
    r_matrix: np.ndarray | None = None
    zeta: np.ndarray | None = None

    def reconstruct(self) -> MapRep:
        from .maps import choi_from_omega_q

        if self.case is MapCase.AD:
            return choi_from_ad(self.b, transposed=False)
        if self.case is MapCase.AD_TRANSPOSE:
            return choi_from_ad(self.b, transposed=True)
        return choi_from_omega_q(self.r_matrix, self.zeta)


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
    w, v = np.linalg.eigh(hermitize(c))
    if _psd_rank(w, floor) != 1:
        return None
    return np.sqrt(float(w[-1])) * v[:, -1]


def classify(map_rep: MapRep) -> Classification:
    """Sort a rank-1 non-increasing map into one of three normal forms.

    Decision order: a rank-1 PSD Choi matrix is a conjugation map (AD); a
    rank-1 PSD partial transpose is the transposed family (AD_TRANSPOSE);
    a product-form Choi Q (x) S with Q a rank-1 projection direction and S
    PSD is the functional-times-projection form (OMEGA_Q, with R = S^T).
    Every rank is `gap_rank` of a spectrum over its rounding floor:
    `map_floor` for the Choi matrix and its partial transpose,
    max(n^2, m^2) * u * s_0 for the SVD across the H:K cut, and
    dim * u * |X|_F for Q and S.  PSD means that every eigenvalue above
    the gap is positive.  Anything else raises ClassificationError.
    """
    _require_hermitian(map_rep)
    n, m = map_rep.n, map_rep.m
    choi, floor = map_rep.choi, map_floor(map_rep)

    vec = _rank1_psd_vector(choi, floor)
    if vec is not None:
        return Classification(case=MapCase.AD, b=fix_phase(vec.reshape(n, m)))

    vec = _rank1_psd_vector(partial_transpose_in(choi, n, m), floor)
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
    u, s, vh = np.linalg.svd(_across_cut(map_rep.choi4))
    t = complex(np.trace(u[:, 0].reshape(n, n)))
    if t == 0 or gap_rank(s, max(n * n, m * m) * UNIT_ROUNDOFF * s[0]) != 1:
        return None
    # the map is Hermitian, so Q and S are Hermitian up to rounding
    q = u[:, 0].reshape(n, n) / t
    smat = hermitize((float(s[0]) * t) * vh[0].reshape(m, m))
    vec = _rank1_psd_vector(q, n * UNIT_ROUNDOFF * float(np.linalg.norm(q)))
    s_floor = m * UNIT_ROUNDOFF * float(np.linalg.norm(smat))
    if vec is None or not _psd_rank(np.linalg.eigvalsh(smat), s_floor):
        return None
    zeta = fix_phase(normalized(vec))
    return Classification(case=MapCase.OMEGA_Q, r_matrix=smat.T.copy(), zeta=zeta)
