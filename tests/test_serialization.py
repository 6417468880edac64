import json
import os

import jsonschema
import numpy as np
import pytest

from conecert import certify_exposed
from conecert.errors import EncodingError, InputRejected
from conecert.serialization import (
    REPORT_SCHEMA,
    dumps_canonical,
    format_complex,
    load_json,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_dict,
    vector_from_json,
    vector_to_json,
    write_json_atomic,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = matrix_from_json(matrix_to_json(m))
    assert np.abs(back - m).max() < 1e-16


def test_vector_round_trip():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.abs(vector_from_json(vector_to_json(v)) - v).max() < 1e-16


@pytest.mark.parametrize("obj", [
    [],
    {"rows": 2, "cols": 2},
    {"rows": 2, "cols": 2, "data": [[[1, 0], [0, 0]]]},
    {"rows": 1, "cols": 2, "data": [[[1, 0]]]},
    {"rows": 1, "cols": 1, "data": [[[1, 0, 0]]]},
    {"rows": 1, "cols": 1, "data": [[["x", 0]]]},
    {"rows": 1, "cols": 1, "data": [[[True, 0]]]},
    {"rows": 0, "cols": 1, "data": []},
    {"rows": 1.5, "cols": 1, "data": [[[1, 0]]]},
    {"rows": True, "cols": 1, "data": [[[1, 0]]]},
    {"rows": True, "cols": 2, "data": [[[1, 0], [0, 0]]]},
    {"rows": 1, "cols": True, "data": [[[1, 0]]]},
    {"rows": 1, "cols": 1},
])
def test_matrix_strict_rejects(obj):
    with pytest.raises(EncodingError):
        matrix_from_json(obj)


def test_matrix_rejects_nonfinite():
    with pytest.raises(EncodingError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[[float("inf"), 0]]]})
    with pytest.raises(EncodingError):
        vector_from_json({"dim": 1, "data": [[1, float("nan")]]})
    with pytest.raises(EncodingError):
        matrix_to_json(np.array([[np.nan + 0j]]))


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (1, 1024)])
def test_encoding_matches_a_per_entry_encoding(shape):
    """the whole-array encoding writes each entry as [float(re), float(im)], as a per-entry loop
    would, byte for byte in canonical JSON: -0.0, subnormals and integer values included; a
    non-finite real or imaginary part anywhere is refused"""
    rng = np.random.default_rng(shape)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m.flat[:4] = [-0.0 + 0j, 5e-324 - 0.0j, 3 + 2j, -1e-310 + 1e300j][:m.size]
    pairs = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    want = {"rows": shape[0], "cols": shape[1], "data": pairs}
    assert dumps_canonical(matrix_to_json(m)) == dumps_canonical(want)
    assert dumps_canonical(vector_to_json(m[0])) == dumps_canonical({"dim": shape[1],
                                                                      "data": pairs[0]})
    for bad in (complex(np.inf, 0), complex(0, np.nan)):
        m.flat[-1] = bad
        for encode in (matrix_to_json, vector_to_json):
            with pytest.raises(EncodingError, match="cannot encode non-finite entry"):
                encode(m)


@pytest.mark.parametrize("obj", [
    {"dim": 2, "data": [[1, 0]]},
    {"dim": 0, "data": []},
    {"data": [[1, 0]]},
    42,
    {"dim": True, "data": [[1, 0]]},
    {"dim": 1.0, "data": [[1, 0]]},
    {"dim": 1, "data": [1, 0]},
])
def test_vector_strict_rejects(obj):
    with pytest.raises(EncodingError):
        vector_from_json(obj)


def test_map_round_trip_ad():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    rep = map_from_json(map_to_json("ad", A=a, transposed=True))
    assert rep.n == 2 and rep.m == 3
    from conecert import choi_from_ad
    assert np.abs(rep.choi - choi_from_ad(a, transposed=True).choi).max() < 1e-15


def test_map_round_trip_omega_q():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    r = g @ g.conj().T
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rep = map_from_json(map_to_json("omega_q", R=r, zeta=z))
    from conecert import choi_from_omega_q
    assert np.abs(rep.choi - choi_from_omega_q(r, z).choi).max() < 1e-15


def test_map_round_trip_choi():
    c = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    rep = map_from_json(map_to_json("choi", n=2, m=2, choi=c))
    assert rep.n == 2 and rep.m == 2
    assert np.abs(rep.choi - c).max() == 0.0


@pytest.mark.parametrize("obj", [
    {"kind": "nope"},
    {"kind": "ad"},
    {"kind": "ad", "A": {"rows": 1, "cols": 1, "data": [[[1, 0]]]}, "transposed": 1},
    {"kind": "omega_q", "R": {"rows": 1, "cols": 1, "data": [[[1, 0]]]}},
    {"kind": "choi", "n": 2, "m": 2},
    "ad",
    {"kind": "choi", "n": True, "m": 1, "choi": {"rows": 1, "cols": 1, "data": [[[1, 0]]]}},
    {"kind": "choi", "n": 1, "m": 1.0, "choi": {"rows": 1, "cols": 1, "data": [[[1, 0]]]}},
    {"kind": "choi", "n": 0, "m": 1, "choi": {"rows": 1, "cols": 1, "data": [[[1, 0]]]}},
])
def test_map_strict_rejects(obj):
    with pytest.raises(EncodingError):
        map_from_json(obj)


def test_map_to_json_rejects_unknown_kind():
    with pytest.raises(EncodingError):
        map_to_json("nope", A=np.eye(2))


def test_map_from_json_rejects_apex():
    zero = {"rows": 2, "cols": 2, "data": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
    with pytest.raises(InputRejected):
        map_from_json({"kind": "ad", "A": zero, "transposed": False})


def test_format_complex():
    assert format_complex(1) == "1.0 + 0.0i"
    assert format_complex(0) == "0.0 + 0.0i"
    assert format_complex(0.5 - 2j) == "0.5 + -2.0i"
    assert format_complex(1 / 3) == "0.333333333333333 + 0.0i"


def test_report_schema_validates():
    report = certify_exposed(np.eye(2))
    payload = report_to_dict(report)
    jsonschema.validate(payload, REPORT_SCHEMA)
    # timing may be omitted and the payload still validates
    payload = report_to_dict(report, include_timing=False)
    assert "wall_time_ms" not in payload
    jsonschema.validate(payload, REPORT_SCHEMA)


def test_canonical_dumps_stable():
    obj = {"b": 1, "a": [1.0, 2.5], "c": {"y": None, "x": True}}
    assert dumps_canonical(obj) == dumps_canonical(json.loads(dumps_canonical(obj)))
    assert dumps_canonical(obj).endswith("\n")


def test_write_json_atomic(tmp_path):
    path = tmp_path / "out.json"
    write_json_atomic(str(path), {"k": 1})
    assert load_json(str(path)) == {"k": 1}
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_write_json_atomic_leaves_no_temp_file_on_failure(tmp_path, monkeypatch):
    """a failed rename removes the temp file, re-raises and leaves the target untouched"""
    path = tmp_path / "out.json"
    path.write_text("old")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write_json_atomic(str(path), {"k": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert path.read_text() == "old"


def test_load_json_missing_file(tmp_path):
    with pytest.raises(EncodingError):
        load_json(str(tmp_path / "absent.json"))


def test_entry_past_the_largest_double_rejected():
    """a JSON integer that no double holds is an input error, not an OverflowError; one that a
    double holds reads as that double"""
    for entry in ([10**400, 0], [0, -(10**400)]):
        with pytest.raises(EncodingError, match="out of the range of a double"):
            vector_from_json({"dim": 1, "data": [entry]})
    back = vector_from_json({"dim": 1, "data": [[10**300, -(2**53 + 1)]]})
    assert back[0] == complex(1e300, -(2.0**53))


@pytest.mark.parametrize(
    "content", [b"\xff\xfe[1, 2]", b"[" * 100_000 + b"]" * 100_000], ids=["not_utf8", "deep"]
)
def test_load_json_rejects_undecodable_files(tmp_path, content):
    """a file that is not UTF-8, or JSON nested past the recursion limit, is an EncodingError"""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(EncodingError, match="cannot read JSON"):
        load_json(str(path))
