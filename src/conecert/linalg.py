"""Dense linear-algebra helpers and the one rank rule.

Every rank decision in the package reads a spectrum against the rounding
level of the computation that produced it, not against a setting.  Most go
through `gap_rank`: one descending spectrum is cut at its largest relative
gap, with every value below that floor read at the floor.  The floors:
- `max(rows, cols) * u * s_0` for `null_space`;
- `unknowns * u * max(s_0, 1)` for the face system (`faces.system_floor`);
- `n * m * u * |Choi(phi)|_F` for spectra read off a map.
The singular values of A are not cut at a gap but counted once above the
first floor: f, the rank of A's class (`faces._class_svd`), which the face
reads, and `exposedness.conjugate_obstruction_space`, whose dimension
follows from f by proof with no spectrum cut.  `exposedness.classify`
lists its own floors.

"Hermitian" and "PSD" are decided by one rule each, both here and both
relative to |X|_F, so s * X gets the verdict of X at every scale s > 0:
`hermitian_within` reads |X - X*|_F <= HERMITIAN_RTOL * |X|_F, and
`psd_threshold` reads an eigenvalue of a d x d X as negative below
-(POSITIVITY_RTOL + d * u) * |X|_F.  `is_psd`, the factor checks of
`maps.SeparableElement` and `maps.choi_from_omega_q` (`is_psd` of the
factor), `maps.is_completely_positive` (`is_psd` of the Choi matrix) and
`maps.is_positive` read both; `maps.is_hermitian_preserving` and
`exposedness.classify` read the first.  So no verdict depends on an absolute
cutoff.

Every norm read as a scale is `frobenius_norm`, and every A is normalised as
Y / |Y|_F, both read off `in_norm_range`: Y = X where `np.linalg.norm` lies
in [2^-500, 2^500], else X rescaled exactly by 2^-e, e the exponent of
max |x|.  So an in-range X keeps the bits of `np.linalg.norm`, X and
2^k * X give |X|_F and 2^k * |X|_F exactly, as long as neither rescaled
copy under- or overflows, and A is never divided by an overflowed or
subnormal norm.

Every eigh, eigvalsh and svd in the package is `eigh`, `eigvalsh`, `svd` or
`svdvals` here: the `numpy.linalg._umath_linalg` gufunc that `np.linalg`
calls, on its signature (of float64 or complex128 arrays) and under its
error state (`_lapack_errors`), without the wrapper's checks and casts, so
bitwise `np.linalg`, and a nonconvergence raises LinAlgError.  `_eigh` is
`eigh` in the caller's error state, which `_kernels` enters per descent.

The input-side partial transpose is written once, `_partial_transpose`:
`maps` and `exposedness` apply it to Choi matrices, and `faces` to the
elements of a transposed face.  Hermitian matrices are held as matrices,
with no real coordinates of Herm(N): where a real inner product
Re<B, C>_F is needed it is the dot product of the float64 views.
"""

import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import HermiticityError, ShapeError

SQRT2 = np.sqrt(2.0)
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2
# relative Frobenius defect up to which a matrix reads as Hermitian
HERMITIAN_RTOL = 1e-10
# relative part of the PSD rule, over |X|_F; the d * u part is the rounding level
POSITIVITY_RTOL = 1e-9
# an exact zero floor still reads as a positive level, so no ratio divides by 0
_TINY = float(np.finfo(np.float64).tiny)
# where np.linalg.norm is read as it is; its squares neither underflow nor overflow there
_NORM_RANGE = (2.0**-500, 2.0**500)


def gap_rank(s, floor) -> int:
    """Rank of a descending spectrum s (k,) at its largest relative gap.

    Values below `floor` read at the floor, and one more value at the floor
    stands for the numerical zeros past the last one, so full rank is a
    candidate.  The rank is the k that maximises level_{k-1} / level_k, the
    first on ties; a spectrum whose top value is not above the floor has
    rank 0.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape[0] == 0 or not s[0] > floor:
        return 0
    levels = np.maximum(np.append(s, 0.0), max(floor, _TINY))
    return int((levels[:-1] / levels[1:]).argmax()) + 1


def check_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.isfinite(a).all():
        raise ShapeError(f"{name} contains non-finite entries")
    return a


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ShapeError(f"{name} must be a nonempty 2-D array, got shape {m.shape}")
    return check_finite(m, name)

def as_complex_vector(a, name: str = "vector") -> np.ndarray:
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ShapeError(f"{name} must be a nonempty 1-D array, got shape {v.shape}")
    return check_finite(v, name)


def conj_vector(v: np.ndarray) -> np.ndarray:
    """Entrywise conjugate in the standard basis (an involution)."""
    return np.conj(as_complex_vector(v))


def transpose(x: np.ndarray) -> np.ndarray:
    """Plain matrix transpose, the one induced by entrywise conjugation."""
    return as_complex_matrix(x).T.copy()


def _nonconvergence(err, flag):
    raise LinAlgError("LAPACK did not converge")


# np.linalg's error state: LAPACK's failure flag raises, and no warning escapes
_lapack_errors = np.errstate(
    call=_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
)


def _signature(a, sig: str) -> str:
    return sig if a.dtype.kind == "c" else sig.replace("D", "d")


def _eigh(a):
    return _umath_linalg.eigh_lo(a, signature=_signature(a, "D->dD"))


eigh = _lapack_errors(_eigh)


@_lapack_errors
def eigvalsh(a):
    return _umath_linalg.eigvalsh_lo(a, signature=_signature(a, "D->d"))


@_lapack_errors
def svd(a, full_matrices=True):
    gufunc = _umath_linalg.svd_f if full_matrices else _umath_linalg.svd_s
    return gufunc(a, signature=_signature(a, "D->DdD"))


@_lapack_errors
def svdvals(a):
    return _umath_linalg.svd(a, signature=_signature(a, "D->d"))


@np.errstate(over="ignore")
def in_norm_range(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(Y, |Y|_F, |X|_F) of a finite array X (see the module docstring)."""
    flat = x.ravel(order="K")
    if x.dtype.kind == "c":
        norm = math.sqrt(float(flat.real.dot(flat.real)) + float(flat.imag.dot(flat.imag)))
    else:
        norm = math.sqrt(float(flat.dot(flat)))
    top = 0.0 if _NORM_RANGE[0] <= norm <= _NORM_RANGE[1] else float(np.abs(x).max(initial=0.0))
    if top == 0.0:
        return x, norm, norm
    e = math.frexp(top)[1]
    y = np.ldexp(x.real, -e)
    if x.dtype.kind == "c":
        y = y + 1j * np.ldexp(x.imag, -e)
    norm = in_norm_range(y)[1]
    return y, norm, float(np.ldexp(norm, e))


def frobenius_norm(x: np.ndarray) -> float:
    """|X|_F of a finite array (`in_norm_range`)."""
    return in_norm_range(x)[2]


def hermitize(m: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (M + M*)/2, over the last two axes."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermitian_within(x: np.ndarray, scale: float) -> bool:
    """The Hermiticity rule: |X - X*|_F <= HERMITIAN_RTOL * scale, where scale is |X|_F."""
    return frobenius_norm(x - x.conj().T) <= HERMITIAN_RTOL * scale


def psd_threshold(dim: int, scale: float) -> float:
    """The PSD rule: below this an eigenvalue of a dim x dim X reads as negative.

    It is -(POSITIVITY_RTOL + dim * u) * scale, where scale is |X|_F.  The
    dim * u part is the rounding level of X's spectrum; POSITIVITY_RTOL
    covers `eigh` putting the bottom eigenvalue of an exactly PSD matrix a
    little below it (to about -1.17 times it on 2 x 2 omega_q Choi matrices).
    """
    return -(POSITIVITY_RTOL + dim * UNIT_ROUNDOFF) * scale


def null_space(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of ker(M) via SVD.

    Returns (basis, singular_values) where basis holds the kernel vectors as
    columns (shape (cols, dim)) and singular_values is the full spectrum in
    descending order.  The rank is `gap_rank` of that spectrum over the
    SVD's rounding level max(rows, cols) * u * s_0.
    """
    m = np.atleast_2d(np.asarray(m))
    rows, cols = m.shape
    if m.size == 0:
        raise ShapeError("null_space needs a nonempty matrix")
    try:
        # full_matrices only when rows < cols, otherwise Vh already spans C^cols
        _, s, vh = svd(m, full_matrices=rows < cols)
    except LinAlgError as exc:
        raise ShapeError(f"SVD failed on a {rows}x{cols} matrix: {exc}") from exc
    rank = gap_rank(s, max(rows, cols) * UNIT_ROUNDOFF * s[0])
    # a copy: for real input .conj() is a view, which would keep all of vh alive
    return vh[rank:].conj().T.copy(order="K"), s


def is_psd(m: np.ndarray) -> tuple[bool, float]:
    """PSD test for a Hermitian matrix: (verdict, min eigenvalue).

    Raises on non-square input or on a matrix that `hermitian_within` refuses;
    the verdict is min eigenvalue >= `psd_threshold`, both relative to |m|_F.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"psd check needs a square matrix, got {m.shape}")
    scale = frobenius_norm(m)
    if not hermitian_within(m, scale):
        raise HermiticityError("matrix is not Hermitian within tolerance")
    low = float(eigvalsh(hermitize(m))[0])
    return low >= psd_threshold(m.shape[0], scale), low


def normalized(v: np.ndarray) -> np.ndarray:
    n = frobenius_norm(v)
    if n == 0:
        raise ShapeError("cannot normalize the zero vector")
    return v / n


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real positive.

    Ties broken by the first index attaining the maximum modulus.
    """
    v = np.asarray(v, dtype=np.complex128)
    flat = v.reshape(-1)
    k = int(np.argmax(np.abs(flat)))
    a = flat[k]
    if a == 0:
        return v
    return v * (np.abs(a) / a)


def _read_only(arrays: tuple) -> tuple:
    """The arrays, made read-only: cached arrays are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _partial_transpose(c: np.ndarray, n: int, m: int) -> np.ndarray:
    """The input-side partial transpose (i, k, j, l) -> (i, l, j, k) of nm x nm c, unchecked.

    Leading axes of c are batch axes.
    """
    c = c.reshape(c.shape[:-2] + (n, m, n, m))
    return np.ascontiguousarray(c.swapaxes(-3, -1)).reshape(c.shape[:-4] + (n * m, n * m))
