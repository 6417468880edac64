"""Dense linear-algebra helpers and the one rank rule.

Every rank decision in the package goes through `gap_rank`: a descending
spectrum is cut at its largest relative gap, with every value below a
rounding floor read at that floor.  The floor is the rounding level of the
computation that produced the spectrum, not a setting:
`max(rows, cols) * u * s_0` for `null_space`, `unknowns * u * max(s_0, 1)`
for the face system, and `n * m * u * |Choi(phi)|` for spectra read off a map
(`maps.map_floor`; the face reads the same level off A as
`n * m * u * |A|_F^2`; the face's range frame only drops singular values of
A at the `null_space` floor).  `exposedness.classify` reads the Choi matrix
and its partial transpose at `map_floor`, its SVD across the H:K cut at
`max(n^2, m^2) * u * s_0`, and its factors Q and S at `dim * u * |X|_F`.
So no verdict depends on an absolute cutoff.
"""

from functools import lru_cache

import numpy as np

from .errors import HermiticityError, ShapeError

SQRT2 = np.sqrt(2.0)
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2
# an exact zero floor still reads as a positive level, so no ratio divides by 0
_TINY = float(np.finfo(np.float64).tiny)


def gap_rank(s, floor):
    """Rank of a descending spectrum s (..., k) at its largest relative gap.

    Values below `floor` (a scalar, or one per leading index) read at the
    floor, and one more value at the floor stands for the numerical zeros
    past the last one, so full rank is a candidate.  The rank is the k that
    maximises level_{k-1} / level_k, the first on ties; a spectrum whose top
    value is not above the floor has rank 0.  Returns an int for a 1-D
    spectrum and an int array over the leading axes otherwise.
    """
    s = np.asarray(s, dtype=np.float64)
    k = s.shape[-1]
    if k == 0:
        return 0 if s.ndim == 1 else np.zeros(s.shape[:-1], dtype=np.intp)
    top_above = s[..., 0] > floor
    if s.ndim == 1 and not top_above:
        return 0
    levels = np.empty(s.shape[:-1] + (k + 1,))
    levels[..., k] = np.maximum(floor, _TINY)
    np.maximum(s, levels[..., k:], out=levels[..., :k])
    rank = (levels[..., :k] / levels[..., 1:]).argmax(axis=-1) + 1
    if s.ndim == 1:
        return int(rank)
    rank[~top_above] = 0
    return rank


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


def hermitize(m: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (M + M*)/2, over the last two axes."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def herm_defect(m: np.ndarray) -> float:
    """Max-norm distance between M and its conjugate transpose."""
    return float(np.abs(m - m.conj().T).max())


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
        _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    except np.linalg.LinAlgError as exc:
        raise ShapeError(f"SVD failed on a {rows}x{cols} matrix: {exc}") from exc
    rank = gap_rank(s, max(rows, cols) * UNIT_ROUNDOFF * s[0])
    # a copy: for real input .conj() is a view, which would keep all of vh alive
    return vh[rank:].conj().T.copy(order="K"), s


def is_psd(m: np.ndarray, tol: float = 1e-10) -> tuple[bool, float]:
    """PSD test for a Hermitian matrix: (verdict, min eigenvalue).

    Raises on non-square input or on Hermiticity defect beyond tol times the
    matrix scale; the verdict itself is min eigenvalue >= -tol.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"psd check needs a square matrix, got {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if herm_defect(m) > tol * scale:
        raise HermiticityError("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(hermitize(m))
    low = float(w[0])
    return low >= -tol, low


def normalized(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
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


@lru_cache(maxsize=None)
def triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached, read-only `np.triu_indices(n, 1)`: the strict upper triangle."""
    return _read_only(np.triu_indices(n, 1))


def herm_to_params(c: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in an orthonormal basis.

    Layout: the N diagonal entries, then sqrt(2)*Re of the strict upper
    triangle in row-major order, then sqrt(2)*Im of the same entries.  The
    map is an isometry: <C1, C2>_F (real part) equals the dot product of the
    coordinate vectors.  Leading axes of c are batch axes: shape (..., N, N)
    gives (..., N*N).
    """
    c = check_finite(np.asarray(c, dtype=np.complex128), "matrix")
    if c.ndim < 2 or c.shape[-1] != c.shape[-2] or c.shape[-1] < 1:
        raise ShapeError(f"expected square matrices, got shape {c.shape}")
    return hermitian_params(c)


@lru_cache(maxsize=None)
def _param_slots(n: int) -> np.ndarray:
    """Cached, read-only offsets of the `herm_to_params` entries in the float64 view of n x n."""
    iu, ju = triu_pairs(n)
    upper = 2 * (iu * n + ju)
    return _read_only((np.concatenate([2 * (n + 1) * np.arange(n), upper, upper + 1]),))[0]


@lru_cache(maxsize=None)
def _partial_transpose_slots(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached, read-only (index, sign): params(PT(X)) = sign * params(X)[index] for Hermitian X.

    PT is the input-side partial transpose (i, k, j, l) -> (i, l, j, k) of
    nm x nm X.  It keeps the diagonal; an upper entry whose image is a lower
    one reads the conjugate there, so its Im coordinate changes sign.
    """
    d = n * m
    iu, ju = triu_pairs(d)
    # entry (p, q) of PT(X) is X at (p, q) with the input indices swapped
    p, q = iu - iu % m + ju % m, ju - ju % m + iu % m
    slot = np.zeros((d, d), dtype=np.intp)
    slot[iu, ju] = d + np.arange(iu.shape[0])
    upper = slot[np.minimum(p, q), np.maximum(p, q)]
    index = np.concatenate([np.arange(d), upper, upper + iu.shape[0]])
    sign = np.concatenate([np.ones(d + iu.shape[0]), np.where(p > q, -1.0, 1.0)])
    return _read_only((index, sign))


def hermitian_params(c: np.ndarray) -> np.ndarray:
    """`herm_to_params` of a complex (..., N, N) array already known to be finite."""
    c = np.ascontiguousarray(c, dtype=np.complex128)
    n = c.shape[-1]
    out = c.reshape(c.shape[:-2] + (n * n,)).view(np.float64).take(_param_slots(n), axis=-1)
    out[..., n:] *= SQRT2
    return out


def params_to_herm(p: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `herm_to_params` for an n x n Hermitian matrix.

    Leading axes of p are batch axes: shape (..., n*n) gives (..., n, n).
    """
    p = np.asarray(p, dtype=np.float64)
    k = n * (n - 1) // 2
    if p.shape[-1:] != (n * n,):
        raise ShapeError(f"expected {n * n} coordinates, got {p.shape}")
    c = np.zeros(p.shape[:-1] + (n, n), dtype=np.complex128)
    iu, ju = triu_pairs(n)
    c[..., np.arange(n), np.arange(n)] = p[..., :n]
    upper = (p[..., n : n + k] + 1j * p[..., n + k :]) / SQRT2
    c[..., iu, ju] = upper
    c[..., ju, iu] = upper.conj()
    return c

