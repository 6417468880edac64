"""The correspondence A <-> f_A between operators and functionals on H (x) K.

f_A is the linear functional with f_A(xi (x) eta) = <conj(xi), A eta>; in the
fixed standard bases its coefficient matrix is A itself, and its functional
norm equals the Hilbert-Schmidt norm of A.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputRejected
from .linalg import as_complex_matrix, frobenius_norm, normalized, null_space


@dataclass(frozen=True)
class FunctionalRep:
    """Linear functional on H (x) K with f(xi (x) eta) = sum c_ij xi_i eta_j."""

    n: int
    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = as_complex_matrix(self.coeffs, "coeffs")
        if c.shape != (self.n, self.m):
            raise ValueError(f"coeffs must be {self.n}x{self.m}, got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    def evaluate_product(self, xi: np.ndarray, eta: np.ndarray) -> complex:
        return complex(xi @ self.coeffs @ eta)

    def evaluate(self, u: np.ndarray) -> complex:
        """Evaluate on a general tensor u in H (x) K (H-major coordinates)."""
        return complex(self.coeffs.reshape(-1) @ u)


def functional_from_operator(A) -> FunctionalRep:
    a = as_complex_matrix(A, "A")
    return FunctionalRep(n=a.shape[0], m=a.shape[1], coeffs=a)


def operator_from_functional(f: FunctionalRep) -> np.ndarray:
    return f.coeffs.copy()


def functional_norm(f: FunctionalRep) -> float:
    """The Hilbert-space norm of f, equal to the Frobenius norm of coeffs."""
    return frobenius_norm(f.coeffs)


def norm_maximizer(f: FunctionalRep) -> np.ndarray:
    """Unit tensor attaining |f| = functional_norm(f).

    This is sum_k conj(A e_k) (x) e_k normalized, which in H-major
    coordinates is just conj(A) flattened.
    """
    c = f.coeffs
    if not np.any(c):
        raise InputRejected("the zero functional has no norm maximizer")
    return normalized(c.conj().reshape(-1))


def kernel_basis(f: FunctionalRep) -> np.ndarray:
    """Orthonormal basis (columns) of ker f inside H (x) K."""
    basis, _ = null_space(f.coeffs.reshape(1, -1))
    return basis
