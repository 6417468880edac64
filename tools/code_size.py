"""Count the code lines and bytes of the conecert package.

A code line is a line of src/conecert/*.py that holds a token other than a
comment, a docstring or whitespace.  Docstrings are found with `ast` (the
first statement of a module, class or function body, when it is a string
constant) and every other token with `tokenize`.  Run from the repository
root, or pass the package directory:

    python tools/code_size.py [src/conecert]

It prints one JSON object: `code_lines`, `bytes`, the code lines per file
(`files`) and per top-level function and method (`functions`, keyed
`file:name` or `file:Class.name`, decorators and nested functions
included).
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.AST) -> set[int]:
    """Line numbers holding a token that is not a comment, a docstring or whitespace."""
    skip = docstring_lines(tree)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        if token.type == tokenize.STRING and token.start[0] in skip:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return lines


def functions(tree: ast.Module) -> dict[str, range]:
    """The line span of each top-level function and of each method of a top-level class."""
    spans = {}
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for member in members:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([member.lineno] + [d.lineno for d in member.decorator_list])
                spans[prefix + member.name] = range(first, member.end_lineno + 1)
    return spans


def main(argv: list[str]) -> None:
    default = Path(__file__).resolve().parents[1] / "src" / "conecert"
    root = Path(argv[1]) if len(argv) > 1 else default
    files = sorted(root.glob("*.py"))
    per_file, per_function = {}, {}
    for path in files:
        source = path.read_text()
        tree = ast.parse(source)
        lines = code_lines(source, tree)
        per_file[path.name] = len(lines)
        for name, span in functions(tree).items():
            per_function[f"{path.name}:{name}"] = len(lines.intersection(span))
    print(json.dumps({
        "code_lines": sum(per_file.values()),
        "bytes": sum(path.stat().st_size for path in files),
        "files": per_file,
        "functions": per_function,
    }, indent=2))


if __name__ == "__main__":
    main(sys.argv)
