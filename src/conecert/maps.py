"""Linear maps B(K) -> B(H) represented by Choi matrices.

Conventions, fixed once and used everywhere:

* H has dimension n (output side), K has dimension m (input side).
* The composite basis of H (x) K is H-major: (i, k) -> i*m + k, which is
  exactly what `numpy.kron(X, Y)` produces for X on H and Y on K.
* The Choi matrix of phi is sum_{k,l} phi(E_kl) (x) E_kl.  For the
  conjugation map X -> A X A* this is w w* with w = A.reshape(-1); for the
  transposed family X -> A X^T A* it is the partial transpose of w w* on the
  K factor.
* The duality pairing against W on H (x) K is Tr(choi W^T); on product
  elements X (x) Y it equals Tr(phi(Y) X^T).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from ._kernels import block_minimize
from .errors import HermiticityError, InputRejected, SearchError, ShapeError
from .linalg import as_complex_matrix, as_complex_vector, hermitize
from .sampling import crandn, rng_from


@dataclass(frozen=True)
class MapRep:
    """A linear map in Choi coordinates; n = dim H, m = dim K."""

    n: int
    m: int
    choi: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ShapeError(f"dimensions must be positive, got ({self.n}, {self.m})")
        d = self.n * self.m
        c = as_complex_matrix(self.choi, "choi")
        if c.shape != (d, d):
            raise ShapeError(f"choi must be {d}x{d}, got {c.shape}")
        object.__setattr__(self, "choi", c)

    @property
    def choi4(self) -> np.ndarray:
        """The Choi matrix as a (n, m, n, m) tensor, indices (i, k, j, l)."""
        return self.choi.reshape(self.n, self.m, self.n, self.m)


def _require_psd(name: str, f: np.ndarray) -> None:
    """Check a factor relative to its own largest entry, so at any scale; a zero factor is PSD.

    Raises HermiticityError if it is not Hermitian and InputRejected if it
    is not PSD.
    """
    scale = float(np.abs(f).max()) or 1.0
    ok, low = linalg.is_psd(f / scale, tol=1e-8)
    if not ok:
        raise InputRejected(f"{name} is not PSD (min eigenvalue {low * scale:.3e})")


@dataclass(frozen=True)
class SeparableElement:
    """A product element X (x) Y with both factors PSD."""

    x_factor: np.ndarray
    y_factor: np.ndarray

    def __post_init__(self):
        x = as_complex_matrix(self.x_factor, "x_factor")
        y = as_complex_matrix(self.y_factor, "y_factor")
        _require_psd("x_factor", x)
        _require_psd("y_factor", y)
        object.__setattr__(self, "x_factor", x)
        object.__setattr__(self, "y_factor", y)

    def tensor(self) -> np.ndarray:
        return np.kron(self.x_factor, self.y_factor)


@dataclass(frozen=True)
class SearchParams:
    """Budget and tolerances for the block-positivity search.

    `tol` is the absolute part of the positivity threshold: `is_positive`
    adds the map's rounding level `map_floor` to it, and uses the sum both
    for the Choi-spectrum proof (one `eigh` of the Choi matrix, which also
    gives the first informed start) and for the descent values.  `max_iters`
    bounds every descent except that of a map proved CP by its Choi
    spectrum, which takes a single iteration.  `conv_tol` is the relative
    change in value at which one descent stops.  `seed`, an
    integer >= 0, seeds the random starts; it is checked here because only
    a map that the first descent leaves undecided draws them.
    """

    restarts: int = 64
    max_iters: int = 200
    tol: float = 1e-9
    conv_tol: float = 1e-13
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise SearchError(f"restarts must be >= 0, got {self.restarts}")
        if self.max_iters < 1:
            raise SearchError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("tol", "conv_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise SearchError(f"{name} must be finite and >= 0, got {value!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise SearchError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class PositivityResult:
    """Verdict of `is_positive` and its witness pair.

    `min_value` is the block value <xi (x) eta, C (xi (x) eta)> at the
    returned unit pair (xi, eta), the lowest the search reached.  For a map
    proved positive by a Choi spectrum it is an upper bound on the product
    minimum, not that minimum: the search stops after the first descent,
    and a CP map after one iteration.
    """

    positive: bool
    min_value: float
    xi: np.ndarray
    eta: np.ndarray
    restarts_used: int

    @property
    def verdict(self) -> str:
        return "POSITIVE_EVIDENCE" if self.positive else "NOT_POSITIVE"


def partial_transpose_in(choi: np.ndarray, n: int, m: int) -> np.ndarray:
    """Partial transpose on the K (input) factor of an (nm)x(nm) matrix."""
    return _partial_transpose(as_complex_matrix(choi, "choi"), n, m)


def _partial_transpose(c: np.ndarray, n: int, m: int) -> np.ndarray:
    """`partial_transpose_in` of a complex matrix already known to be finite."""
    return np.ascontiguousarray(c.reshape(n, m, n, m).transpose(0, 3, 2, 1)).reshape(n * m, n * m)


def _nonzero_operator(A) -> np.ndarray:
    """A as a finite complex matrix; the zero operator gives the cone apex, not a ray."""
    a = as_complex_matrix(A, "A")
    if not a.any():
        raise InputRejected("A = 0 gives the apex map, not a candidate ray")
    return a


def _ad_map(a: np.ndarray, transposed: bool) -> MapRep:
    """`choi_from_ad` of a complex matrix already known to be finite and nonzero."""
    n, m = a.shape
    w = a.reshape(-1)
    choi = np.outer(w, w.conj())
    return MapRep(n=n, m=m, choi=_partial_transpose(choi, n, m) if transposed else choi)


def choi_from_ad(A, transposed: bool = False) -> MapRep:
    """Choi matrix of X -> A X A*, or of X -> A X^T A* when transposed.

    The zero operator is rejected: it gives the cone apex, not a ray.
    """
    return _ad_map(_nonzero_operator(A), transposed)


def choi_from_omega_q(R, zeta) -> MapRep:
    """Choi matrix of X -> Tr(R X) * Q with Q the projection onto zeta.

    R must be PSD and nonzero; the Choi matrix is Q (x) R^T.
    """
    r = as_complex_matrix(R, "R")
    z = as_complex_vector(zeta, "zeta")
    if r.shape[0] != r.shape[1]:
        raise ShapeError(f"R must be square, got {r.shape}")
    if not np.any(r):
        raise InputRejected("R = 0 gives the apex map, not a candidate ray")
    if not np.any(z):
        raise InputRejected("zeta must be nonzero")
    _require_psd("R", r)
    q = np.outer(z, z.conj()) / float(np.vdot(z, z).real)
    return MapRep(n=z.shape[0], m=r.shape[0], choi=np.kron(q, r.T))


def apply(map_rep: MapRep, Y) -> np.ndarray:
    """Evaluate the map on Y, i.e. the partial K-trace of choi (I (x) Y^T)."""
    y = as_complex_matrix(Y, "Y")
    if y.shape != (map_rep.m, map_rep.m):
        raise ShapeError(f"Y must be {map_rep.m}x{map_rep.m}, got {y.shape}")
    return np.einsum("ikjl,kl->ij", map_rep.choi4, y)


def pairing(map_rep: MapRep, w) -> complex:
    """Duality pairing <phi, W>.

    Accepts a SeparableElement (evaluated as Tr(phi(Y) X^T)) or a full
    matrix on H (x) K (evaluated as Tr(choi W^T)); the two paths agree on
    product inputs.
    """
    if isinstance(w, SeparableElement):
        if w.x_factor.shape[0] != map_rep.n or w.y_factor.shape[0] != map_rep.m:
            raise ShapeError("separable element dimensions do not match the map")
        return complex(np.trace(apply(map_rep, w.y_factor) @ w.x_factor.T))
    wm = as_complex_matrix(w, "W")
    d = map_rep.n * map_rep.m
    if wm.shape != (d, d):
        raise ShapeError(f"W must be {d}x{d}, got {wm.shape}")
    return complex(np.sum(map_rep.choi * wm))


def is_hermitian_preserving(map_rep: MapRep, tol: float = 1e-10) -> bool:
    """True iff the Choi matrix is Hermitian within relative Frobenius tol."""
    c = map_rep.choi
    scale = float(np.linalg.norm(c))
    if scale == 0.0:
        return True
    return float(np.linalg.norm(c - c.conj().T)) <= tol * scale


def map_floor(map_rep: MapRep) -> float:
    """Rounding level of spectra read off the map: n * m * u * |Choi(phi)|_F.

    It is relative to the map, not to one output, so an output that is zero
    up to rounding reads as zero at any scale of the map.
    """
    return map_rep.n * map_rep.m * linalg.UNIT_ROUNDOFF * float(np.linalg.norm(map_rep.choi))


def _require_hermitian(map_rep: MapRep, tol: float = 1e-10) -> None:
    if not is_hermitian_preserving(map_rep, tol):
        raise HermiticityError("map is not Hermiticity-preserving within tolerance")


def is_completely_positive(map_rep: MapRep, tol: float = 1e-9) -> tuple[bool, float]:
    """Choi PSD test: (verdict, min Choi eigenvalue).

    The verdict is lambda_min >= -(tol + map_floor(map_rep)), the threshold
    `is_positive` uses, so the rounding of the spectrum of a scaled-up CP map
    does not refuse it.
    """
    _require_hermitian(map_rep)
    w = np.linalg.eigvalsh(hermitize(map_rep.choi))
    low = float(w[0])
    return low >= -(tol + map_floor(map_rep)), low


def product_start(bottom: np.ndarray) -> np.ndarray:
    """Eta factor of the best product approximation to the bottom Choi eigenvector.

    The first of `informed_starts`: bottom is that eigenvector reshaped to
    (n, m), the start has shape (1, m).
    """
    _, _, vh = np.linalg.svd(bottom)
    return vh[:1]


def _compression_starts(c4: np.ndarray) -> np.ndarray:
    """The informed starts after `product_start`, shape (n + 1, m).

    The bottom eigenvectors of the diagonal blocks of c4 (n, m, n, m) and of
    its input compression.
    """
    _, vb = np.linalg.eigh(hermitize(np.einsum("ikil->ikl", c4)))
    _, vt = np.linalg.eigh(hermitize(np.einsum("ikil->kl", c4)))
    return np.concatenate([vb[:, :, 0], vt[None, :, 0]])


def informed_starts(c4: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Deterministic eta seeds that target structured negativity.

    Plain random restarts can miss shallow violations whose basin is tiny
    (the alternating steps stall on a zero plateau once xi falls into the
    output kernel).  The `product_start` and the bottom eigenvectors of the
    diagonal blocks and of the input compression (`_compression_starts`)
    land inside those basins directly.

    c4 has shape (n, m, n, m) and bottom, the bottom eigenvector of the
    Hermitized Choi matrix, shape (n, m); the seeds have shape (n + 2, m).
    """
    return np.concatenate([product_start(bottom), _compression_starts(c4)])


def is_positive(map_rep: MapRep, search: SearchParams = SearchParams()) -> PositivityResult:
    """Positivity verdict by a Choi-spectrum proof, a first descent or a seeded search.

    Minimizes the block form <xi (x) eta, C (xi (x) eta)> over unit vectors,
    C the Choi matrix; a value below -(search.tol + map_floor(map_rep))
    yields NOT_POSITIVE with the witness pair.  `map_floor` is the rounding
    level of both the Choi spectrum and the descent's values, so rounding
    that grows with the scale of C does not make a positive map
    NOT_POSITIVE.  CP and co-CP maps are proved positive:

        <xi (x) eta, C (xi (x) eta)> >= lambda_min(C), and the same value is
        <xi (x) conj(eta), C^G (xi (x) conj(eta))> >= lambda_min(C^G),

    C^G being the partial transpose on K (`partial_transpose_in`).  The work
    is done in order, and stops at the first step that settles the map:

    1. one `eigh` of C gives lambda_min(C) and the bottom eigenvector that
       `product_start` factors;
    2. a CP map is proved positive; its witness pair is one iteration (an
       exact xi-step, then an exact eta-step) from that start, whatever
       `search.max_iters`;
    3. any other map descends once from that start, for up to
       `search.max_iters` iterations, and a value below the threshold
       proves NOT_POSITIVE;
    4. one `eigvalsh` of C^G proves a co-CP map positive, again with the
       first descent;
    5. only a map still undecided builds the other informed starts
       (`_compression_starts`) and draws `search.restarts` random ones,
       which are scanned in a fixed order after the first descent, so the
       result is deterministic for a given seed.  `search.restarts` may
       be 0, which leaves the informed starts alone.

    A map settled at steps 2-4 draws no random number and has
    `restarts_used` 1.  A co-CP map cannot fail at step 3, since every
    product value is at least lambda_min(C^G), up to the rounding of the
    descent.
    """
    n, m, c4 = map_rep.n, map_rep.m, map_rep.choi4
    _require_hermitian(map_rep)
    threshold = -(search.tol + map_floor(map_rep))
    w, v = np.linalg.eigh(hermitize(map_rep.choi))
    bottom = v[:, 0].reshape(n, m)
    cp = bool(w[0] >= threshold)
    # a CP map's verdict is already proved: one iteration gives its witness
    val, xi, eta, used = block_minimize(
        c4, product_start(bottom), 1 if cp else search.max_iters, search.conv_tol, threshold
    )
    undecided = (
        not cp
        and val >= threshold
        and np.linalg.eigvalsh(hermitize(partial_transpose_in(map_rep.choi, n, m)))[0] < threshold
    )
    if undecided:
        starts = np.vstack([
            _compression_starts(c4),
            crandn(rng_from(search.seed), search.restarts, m),
        ])
        rest = block_minimize(c4, starts, search.max_iters, search.conv_tol, threshold)
        # a sequential scan keeps the first strict minimum
        if rest[0] < val:
            val, xi, eta = rest[:3]
        used += rest[3]
    return PositivityResult(
        positive=cp or bool(val >= threshold),
        min_value=val,
        xi=xi,
        eta=eta,
        restarts_used=used,
    )

