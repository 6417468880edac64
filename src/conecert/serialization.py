"""JSON encodings shared by the CLI and the report files.

Matrices: {"rows": r, "cols": c, "data": [[[re, im], ...], ...]} (row-major).
Vectors:  {"dim": d, "data": [[re, im], ...]}.
Maps:     {"kind": "ad", "A": <matrix>, "transposed": bool}
        | {"kind": "omega_q", "R": <matrix>, "zeta": <vector>}
        | {"kind": "choi", "n": n, "m": m, "choi": <matrix>}.

Parsing is strict: wrong shapes, missing keys and non-finite entries raise
EncodingError.  One parser reads every array (`_array_from_json`), and every
size (rows, cols, dim and a choi map's n and m) is a JSON integer >= 1;
`true` is not a size.  Serialized reports are canonical (sorted keys, fixed
float repr) so identical runs produce byte-identical files.
"""

import json
import math
import os
import tempfile

import numpy as np

from .errors import EncodingError
from .exposedness import ExposednessReport, Verdict

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "verdict": {"enum": [verdict.value for verdict in Verdict]},
        "nullspace_dim": {"type": "integer", "minimum": 0},
        "singular_values": {"type": "array", "items": {"type": "number"}},
        "pairs_used": {"type": "integer", "minimum": 0},
        "overlap_with_phi": {"type": "number"},
        "face": {
            "type": ["object", "null"],
            "properties": {
                "defect": {"type": "number", "minimum": 0},
                "bound": {"type": "number", "minimum": 0},
            },
            "required": ["defect", "bound"],
        },
        "wall_time_ms": {"type": "integer"},
    },
}
# all but the timing, which --no-timing drops
REPORT_SCHEMA["required"] = [key for key in REPORT_SCHEMA["properties"] if key != "wall_time_ms"]


def _entries_to_json(x: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs, checked finite once."""
    if not np.isfinite(x).all():
        raise EncodingError("cannot encode non-finite entry")
    return np.stack([x.real, x.imag], axis=-1).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "data": _entries_to_json(m)}


def vector_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return {"dim": v.shape[0], "data": _entries_to_json(v)}


def _parse_entry(e) -> complex:
    if (
        not isinstance(e, (list, tuple))
        or len(e) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in e)
    ):
        raise EncodingError(f"entry must be a [re, im] number pair, got {e!r}")
    try:
        real, imag = float(e[0]), float(e[1])
    except OverflowError:
        # a JSON integer past the largest double
        raise EncodingError("entry out of the range of a double rejected") from None
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise EncodingError("non-finite entry rejected")
    return complex(real, imag)


def _size(obj: dict, key: str) -> int:
    """obj[key] as a size: a JSON integer >= 1, and not a boolean."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise EncodingError(f"{key} must be a positive integer, got {value!r}")
    return value


def _entries(data, shape: tuple[int, ...]) -> list:
    """Nested lists of [re, im] pairs of the given shape, as nested lists of complex."""
    if not shape:
        return _parse_entry(data)
    if not isinstance(data, list) or len(data) != shape[0]:
        raise EncodingError(f"expected a list of {shape[0]} entries in data")
    return [_entries(x, shape[1:]) for x in data]


def _array_from_json(obj, what: str, keys: tuple[str, ...]) -> np.ndarray:
    """The array of an encoded matrix or vector, whose sizes are obj[key] for each key."""
    if not isinstance(obj, dict):
        raise EncodingError(f"{what} must be an object, got {type(obj).__name__}")
    try:
        shape = tuple(_size(obj, key) for key in keys)
        data = obj["data"]
    except KeyError as exc:
        raise EncodingError(f"{what} is missing key {exc}") from exc
    return np.array(_entries(data, shape), dtype=np.complex128)


def matrix_from_json(obj) -> np.ndarray:
    return _array_from_json(obj, "matrix", ("rows", "cols"))


def vector_from_json(obj) -> np.ndarray:
    return _array_from_json(obj, "vector", ("dim",))


def map_to_json(kind: str, **parts) -> dict:
    if kind == "ad":
        return {
            "kind": "ad",
            "A": matrix_to_json(parts["A"]),
            "transposed": bool(parts.get("transposed", False)),
        }
    if kind == "omega_q":
        return {
            "kind": "omega_q",
            "R": matrix_to_json(parts["R"]),
            "zeta": vector_to_json(parts["zeta"]),
        }
    if kind == "choi":
        return {
            "kind": "choi",
            "n": int(parts["n"]),
            "m": int(parts["m"]),
            "choi": matrix_to_json(parts["choi"]),
        }
    raise EncodingError(f"unknown map kind {kind!r}")


def map_from_json(obj):
    """Build a MapRep from its JSON encoding."""
    from .maps import MapRep, choi_from_ad, choi_from_omega_q

    if not isinstance(obj, dict) or "kind" not in obj:
        raise EncodingError("map object must carry a 'kind' key")
    kind = obj["kind"]
    if kind == "ad":
        if "A" not in obj:
            raise EncodingError("ad map needs an 'A' matrix")
        transposed = obj.get("transposed", False)
        if not isinstance(transposed, bool):
            raise EncodingError("'transposed' must be a boolean")
        return choi_from_ad(matrix_from_json(obj["A"]), transposed=transposed)
    if kind == "omega_q":
        if "R" not in obj or "zeta" not in obj:
            raise EncodingError("omega_q map needs 'R' and 'zeta'")
        return choi_from_omega_q(matrix_from_json(obj["R"]), vector_from_json(obj["zeta"]))
    if kind == "choi":
        for key in ("n", "m", "choi"):
            if key not in obj:
                raise EncodingError(f"choi map needs key '{key}'")
        return MapRep(n=_size(obj, "n"), m=_size(obj, "m"), choi=matrix_from_json(obj["choi"]))
    raise EncodingError(f"unknown map kind {kind!r}")


def format_complex(z: complex) -> str:
    """Human form with 15 significant digits, e.g. '1.0 + 0.0i'."""

    def num(x: float) -> str:
        s = f"{x:.15g}"
        if "." not in s and "e" not in s and "n" not in s and "i" not in s:
            s += ".0"
        return s

    z = complex(z)
    return f"{num(z.real)} + {num(z.imag)}i"


def report_to_dict(report: ExposednessReport, include_timing: bool = True) -> dict:
    face = None
    if report.face is not None:
        face = {"defect": float(report.face.defect), "bound": float(report.face.bound)}
    out = {
        "verdict": report.verdict.value,
        "nullspace_dim": int(report.nullspace.dim),
        "singular_values": [float(s) for s in report.nullspace.singular_values],
        "pairs_used": int(report.nullspace.pairs_used),
        "overlap_with_phi": float(report.overlap_with_phi),
        "face": face,
    }
    if include_timing:
        out["wall_time_ms"] = int(report.wall_time_ms)
    return out


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json_atomic(path: str, obj) -> None:
    """Write canonical JSON via a temp file and rename."""
    text = dumps_canonical(obj)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    """The JSON value in the file at path.

    A file that cannot be read, is not UTF-8, is not JSON or nests deeper
    than the interpreter's recursion limit raises EncodingError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise EncodingError(f"cannot read JSON from {path}: {exc}") from exc
