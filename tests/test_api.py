import inspect

import pytest

import conecert

PUBLIC_NAMES = [
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
    "__version__",
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
    "kernel_probes",
    "membership_residual",
    "norm_maximizer",
    "null_space",
    "operator_from_functional",
    "pairing",
    "partial_transpose_in",
    "rank1_nonincreasing",
    "transpose",
]


def test_public_names_pinned():
    """conecert.__all__ is exactly this list: adding or dropping a name is a deliberate edit here"""
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(conecert.__all__) == PUBLIC_NAMES
    assert len(set(conecert.__all__)) == len(conecert.__all__)
    for name in PUBLIC_NAMES:
        assert hasattr(conecert, name), name


@pytest.mark.parametrize("name, params", [
    ("certify_exposed", ["A", "transposed"]),
    ("double_prime_nullspace", ["A", "transposed"]),
    ("kernel_probes", ["A", "transposed"]),
    ("conjugate_obstruction_space", ["A", "z_samples"]),
    ("null_space", ["m"]),
    ("kernel_basis", ["f"]),
])
def test_rank_decisions_take_no_tolerance(name, params):
    """every rank is read at the spectrum's largest gap, so no public function takes a cutoff"""
    assert list(inspect.signature(getattr(conecert, name)).parameters) == params
