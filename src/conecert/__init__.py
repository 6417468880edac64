"""conecert: numerical exposedness certificates for conjugation-type positive maps.

The package certifies that the maps X -> A X A* and X -> A X^T A* generate
exposed rays of the cone of positive maps B(K) -> B(H): zero-pairs of the
map cut out a linear constraint system on Hermitian Choi matrices, and the
null space of that system either collapses to the ray directly or is shown
to contain no other positive direction.
"""

from .errors import (
    ClassificationError,
    ConecertError,
    EncodingError,
    HermiticityError,
    InputRejected,
    SearchError,
    ShapeError,
)
from .exposedness import (
    Classification,
    ExposednessReport,
    FaceCertificate,
    MapCase,
    ObstructionResult,
    Verdict,
    certify_exposed,
    classify,
    conjugate_obstruction_space,
    face_certificate,
)
from .faces import (
    NullSpaceResult,
    double_prime_nullspace,
    membership_residual,
)
from .functionals import (
    FunctionalRep,
    functional_from_operator,
    functional_norm,
    kernel_basis,
    norm_maximizer,
    operator_from_functional,
)
from .linalg import conj_vector, is_psd, null_space, transpose
from .maps import (
    MapRep,
    PositivityResult,
    SearchParams,
    SeparableElement,
    apply,
    choi_from_ad,
    choi_from_omega_q,
    is_completely_positive,
    is_hermitian_preserving,
    is_positive,
    pairing,
    partial_transpose_in,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ClassificationError",
    "ConecertError",
    "EncodingError",
    "ExposednessReport",
    "FaceCertificate",
    "FunctionalRep",
    "HermiticityError",
    "InputRejected",
    "MapCase",
    "MapRep",
    "NullSpaceResult",
    "ObstructionResult",
    "PositivityResult",
    "SearchError",
    "SearchParams",
    "SeparableElement",
    "ShapeError",
    "Verdict",
    "apply",
    "certify_exposed",
    "choi_from_ad",
    "choi_from_omega_q",
    "classify",
    "conj_vector",
    "conjugate_obstruction_space",
    "double_prime_nullspace",
    "face_certificate",
    "functional_from_operator",
    "functional_norm",
    "is_completely_positive",
    "is_hermitian_preserving",
    "is_positive",
    "is_psd",
    "kernel_basis",
    "membership_residual",
    "norm_maximizer",
    "null_space",
    "operator_from_functional",
    "pairing",
    "partial_transpose_in",
    "transpose",
    "__version__",
]
