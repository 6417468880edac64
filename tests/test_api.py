import argparse
import dataclasses
import inspect

import pytest

import conecert
from conecert.cli import build_parser

CUTOFF_NAMES = {"tol", "rtol", "atol", "eps", "cutoff", "threshold"}

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
    ("face_certificate", ["nullspace", "phi"]),
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
    ("is_psd", ["m"]),
])
def test_map_checks_take_no_tolerance(name, params):
    """positivity and Hermiticity are read relative to the map, so no map check takes a cutoff"""
    assert list(inspect.signature(getattr(conecert, name)).parameters) == params


def test_search_params_hold_only_the_budget():
    """the positivity threshold and the descent's stopping rule are not settings"""
    fields = tuple(f.name for f in dataclasses.fields(conecert.SearchParams))
    assert fields == ("restarts", "max_iters", "seed")


def _parser_options(parser):
    """(command, dest, option strings) of every argument, subcommands included"""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                for _, dest, flags in _parser_options(sub):
                    yield command, dest, flags
        else:
            yield parser.prog, action.dest, action.option_strings


def test_no_public_cutoff():
    """no public function or constructor, and no CLI option, takes a tolerance:
    every verdict is read relative to its input"""
    checked = 0
    for name in conecert.__all__:
        obj = getattr(conecert, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            params = set(inspect.signature(obj).parameters)
            assert not params & CUTOFF_NAMES, (name, params & CUTOFF_NAMES)
            checked += 1
    assert checked >= 30
    for command, dest, flags in _parser_options(build_parser()):
        names = {dest} | {flag.lstrip("-").replace("-", "_") for flag in flags}
        assert not names & CUTOFF_NAMES, (command, names & CUTOFF_NAMES)
