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


def test_only_cli_main_writes_and_prints():
    """no `cmd_*` of cli.py prints, writes a file or reads `args.report`: each returns (exit code,
    payload or None, stdout lines), and `main` alone writes the payload and prints"""
    tree = ast.parse((ROOT / "src" / "conecert" / "cli.py").read_text())
    effects = {"print", "write_json_atomic", "os.makedirs", "open", "sys.stdout.write"}
    done = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            done[node.name] = {ast.unparse(call.func) for call in ast.walk(node)
                               if isinstance(call, ast.Call)} & effects
            done[node.name] |= {"args.report" for attr in ast.walk(node)
                                if isinstance(attr, ast.Attribute) and attr.attr == "report"
                                and ast.unparse(attr.value) == "args"}
    assert sum(name.startswith("cmd_") for name in done) == 7
    assert {name: found for name, found in done.items() if found} == {
        "main": {"print", "write_json_atomic", "os.makedirs", "args.report"}
    }


ORACLES = ("constraint_oracle", "cone_oracle")


def _test_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))}


def _oracle_imports(tree: ast.Module) -> list[ast.alias]:
    """The names a module imports from an oracle module, at any depth"""
    return [
        alias
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ORACLES
        for alias in node.names
    ]


def test_every_oracle_import_is_used():
    """every name a module of tests/ imports from an oracle module is read in it"""
    unused = []
    for name, tree in _test_modules().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, alias.asname or alias.name) for alias in _oracle_imports(tree)
                   if (alias.asname or alias.name) not in read]
    assert unused == []


def test_every_oracle_function_is_reached_from_a_test_module():
    """every top-level function and class of the oracle modules is named by a module of tests/
    outside them, or by an oracle function so reached, so no oracle outlives its last test"""
    modules = _test_modules()
    defs = {
        node.name: node
        for name in ORACLES
        for node in modules[name].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert len(defs) == sum(isinstance(node, (ast.FunctionDef, ast.ClassDef))
                            for name in ORACLES for node in modules[name].body)
    todo = []
    for name, tree in modules.items():
        if name not in ORACLES:
            todo += [alias.name for alias in _oracle_imports(tree)]
            todo += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in ORACLES]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)]
    assert sorted(set(defs) - reached) == []
