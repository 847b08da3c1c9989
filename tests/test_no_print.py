"""Static guard that the library never prints.

Library functions return their results or log them to the ``cellens``
logger; only the command line entry ``experiment.main`` writes to stdout
and stderr. This test scans the package source for any use of ``print``
outside that function.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cellens"

# (module, top-level function) that may print
ALLOWED = {("experiment.py", "main")}


def print_uses(source: str) -> list[tuple[str, int]]:
    """(dotted name of the enclosing function or class, line) of every read
    of the name ``print``; the name is "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "print":
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("snippet, want", [
    ("print('x')", [("", 1)]),
    ("def f():\n    print(1)", [("f", 2)]),
    ("class A:\n    def m(self):\n        print(1)", [("A.m", 3)]),
    ("def main():\n    def g():\n        print(1)", [("main.g", 3)]),
    ("def f(xs):\n    return list(map(print, xs))", [("f", 2)]),
    # attributes and strings named print are not the builtin
    ("def f(log, doc):\n    log.info('print')\n    doc.print()", []),
])
def test_scanner_finds_print(snippet, want):
    assert print_uses(snippet) == want


def test_library_prints_only_in_main():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found, allowed = [], []
    for path in files:
        module = str(path.relative_to(SRC))
        for scope, line in print_uses(path.read_text()):
            ok = (module, scope.split(".")[0]) in ALLOWED
            (allowed if ok else found).append(f"{module}:{line} in {scope or 'module'}")
    assert not found, f"print outside experiment.main: {found}"
    assert allowed  # the scan reaches the command line's own prints
