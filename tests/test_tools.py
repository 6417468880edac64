import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_code_size_counts_add_up():
    """tools/code_size.py runs on src/conecert: its per-file counts sum to `code_lines`, and its
    per-function counts to at most that"""
    tool, package = ROOT / "tools" / "code_size.py", ROOT / "src" / "conecert"
    run = subprocess.run([sys.executable, str(tool), str(package)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    size = json.loads(run.stdout)
    assert size["code_lines"] == sum(size["files"].values()) > 0
    assert 0 < size["functions"]["faces.py:NullSpaceResult.basis"]
    assert sum(size["functions"].values()) <= size["code_lines"]


def test_lapack_is_called_only_through_linalg():
    """`numpy.linalg._umath_linalg` is named only in linalg.py, and no module of src/conecert
    calls or imports np.linalg's eigh, eigvalsh, svd or svdvals, whose wrapper the entry points
    of `linalg` skip"""
    wrapped = {"eigh", "eigvalsh", "svd", "svdvals"}
    found = []
    for path in sorted((ROOT / "src" / "conecert").glob("*.py")):
        source = path.read_text()
        if "_umath_linalg" in source and path.name != "linalg.py":
            found.append((path.name, "_umath_linalg"))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found += [(path.name, alias.name) for alias in node.names if alias.name in wrapped]
            elif isinstance(node, ast.Attribute) and node.attr in wrapped:
                if ast.unparse(node.value) in ("np.linalg", "numpy.linalg"):
                    found.append((path.name, ast.unparse(node)))
    assert found == []
    assert "_umath_linalg" in (ROOT / "src" / "conecert" / "linalg.py").read_text()
