import dataclasses
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
    ("conjugate_obstruction_space", ["A"]),
    ("null_space", ["m"]),
    ("kernel_basis", ["f"]),
    ("classify", ["map_rep"]),
])
def test_rank_decisions_take_no_tolerance(name, params):
    """every rank is read at the spectrum's largest gap, so no public function takes a cutoff"""
    assert list(inspect.signature(getattr(conecert, name)).parameters) == params


@pytest.mark.parametrize("name, params", [
    ("is_positive", ["map_rep", "search"]),
    ("is_completely_positive", ["map_rep"]),
    ("is_hermitian_preserving", ["map_rep"]),
])
def test_map_checks_take_no_tolerance(name, params):
    """positivity and Hermiticity are read relative to the map, so no map check takes a cutoff"""
    assert list(inspect.signature(getattr(conecert, name)).parameters) == params


def test_search_params_hold_only_the_budget():
    """the positivity threshold and the descent's stopping rule are not settings"""
    fields = tuple(f.name for f in dataclasses.fields(conecert.SearchParams))
    assert fields == ("restarts", "max_iters", "seed")
