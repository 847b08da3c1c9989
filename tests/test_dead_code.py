"""Static guard that no private module-level name is left unused.

A refactor that stops calling a private helper, class or constant leaves
it behind, and no other test notices. This test parses every module of
the package and requires each module-level private name (one leading
underscore, not a dunder) to be read somewhere in the package: as a
name or as an attribute, outside its own definition. A mention in a
docstring or a comment does not count. Public names are out of scope:
users and tests may be their only callers.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cellens"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, statement) of every private name a module-level statement
    defines: a function, a class or an assigned constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names if _is_private(name)]
    return found


def reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or as the
    attribute of an expression."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            counts[child.attr] += 1
    return counts


def unused(sources: dict[str, str]) -> list[str]:
    """``module:line name`` of every private module-level name that no
    module reads outside the name's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if total[name] <= reads(node)[name]:
                found.append(f"{module}:{node.lineno} {name}")
    return found


@pytest.mark.parametrize("sources, want", [
    ({"a.py": "def _f():\n    pass\n"}, ["a.py:1 _f"]),
    ({"a.py": "def _f():\n    pass\nx = _f()\n"}, []),
    # read from another module, as an attribute
    ({"a.py": "_C = 1\n", "b.py": "from . import a\ny = a._C\n"}, []),
    # a recursive call or a docstring mention is not a use
    ({"a.py": "def _f(n):\n    '''_f'''\n    return _f(n - 1)\n"},
     ["a.py:1 _f"]),
    ({"a.py": "class _K:\n    pass\n_T: int = 2\nx = '_K _T'\n"},
     ["a.py:1 _K", "a.py:3 _T"]),
    # an assignment is not a read; dunders and public names are skipped
    ({"a.py": "_x = 1\n_x = 2\n__all__ = []\ndef g():\n    pass\n"},
     ["a.py:1 _x", "a.py:2 _x"]),
])
def test_scanner_finds_unused_private_names(sources, want):
    assert unused(sources) == want


def test_every_private_module_name_is_used():
    files = sorted(SRC.glob("*.py"))
    assert files
    sources = {path.name: path.read_text() for path in files}
    assert any(definitions(ast.parse(text)) for text in sources.values())
    assert not unused(sources), f"private names nothing reads: {unused(sources)}"
