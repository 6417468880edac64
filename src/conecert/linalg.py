"""Dense linear-algebra helpers with an explicit tolerance policy.

Rank decisions on single matrices (kernels, probe outputs) go through one
`TolerancePolicy`, a relative cutoff and an absolute floor; the face system
in `faces` cuts its own rank at the largest gap of its spectrum instead.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HermiticityError, ShapeError

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class TolerancePolicy:
    """Cutoffs for treating singular values as zero.

    A singular value s of a matrix M is discarded when
    s <= max(max(M.shape) * s_max * rel_eps, abs_floor).  Both knobs must be
    finite and nonnegative.
    """

    rel_eps: float = 1e-12
    abs_floor: float = 1e-14

    def __post_init__(self):
        for name in ("rel_eps", "abs_floor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ShapeError(f"{name} must be finite and >= 0, got {value!r}")

    def cutoff(self, shape: tuple[int, int], sigma_max):
        """The cutoff for a matrix of this shape; sigma_max may be an array of them."""
        return np.maximum(max(shape) * sigma_max * self.rel_eps, self.abs_floor)


DEFAULT_TOL = TolerancePolicy()


def check_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(a)):
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


def null_space(
    m: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of ker(M) via SVD.

    Returns (basis, singular_values) where basis holds the kernel vectors as
    columns (shape (cols, dim)) and singular_values is the full spectrum in
    descending order.  The cutoff follows `tol`.
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
    cut = tol.cutoff((rows, cols), float(s[0]))
    rank = int(np.sum(s > cut))
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


@lru_cache(maxsize=None)
def triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached, read-only `np.triu_indices(n, 1)`: the strict upper triangle."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


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
    iu, ju = triu_pairs(c.shape[-1])
    upper = c[..., iu, ju]
    diag = np.diagonal(c, axis1=-2, axis2=-1).real
    return np.concatenate([diag, SQRT2 * upper.real, SQRT2 * upper.imag], axis=-1)


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

