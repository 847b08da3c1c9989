"""Static guard that every cross-reference in the package's text resolves.

Docstrings and comments under ``src/cellens`` name functions, classes,
methods and constants as ``:func:`name```, ``:class:``, ``:meth:`` and
``:data:``. A rename or a deletion that misses one leaves a reference to
nothing, and no other test reads them. This test finds each reference in
the source text and resolves it: in its own module, in the ``cellens``
package, as a dotted ``cellens.x.y`` path, or (for a bare ``:meth:``) as
an attribute of a class defined in the same module. Every backticked
``cellens.…`` name in ``README.md`` must resolve too: its longest
importable module prefix, then the rest as attributes.
"""

import importlib
import inspect
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cellens"
ROLES = ("func", "class", "meth", "data")
REF = re.compile(r":(%s):`([^`]+)`" % "|".join(ROLES))
README_NAME = re.compile(r"`(cellens(?:\.\w+)+)`")


def references(source: str) -> list[tuple[str, str, int]]:
    """(role, target, line) of every reference in ``source``; a leading
    ``~`` and an explicit title (``title <target>``) are dropped."""
    found = []
    for m in REF.finditer(source):
        target = m[2]
        if target.endswith(">") and "<" in target:
            target = target[target.rindex("<") + 1:-1]
        line = source.count("\n", 0, m.start()) + 1
        found.append((m[1], target.lstrip("~"), line))
    return found


def _lookup(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not part.isidentifier() or not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def resolves(module, role: str, target: str) -> bool:
    """Whether ``target`` names something from ``module``'s point of view."""
    package = importlib.import_module("cellens")
    if (_lookup(module, target) or _lookup(package, target)
            or _lookup(SimpleNamespace(cellens=package), target)):
        return True
    if role != "meth" or "." in target:
        return False
    return any(_lookup(cls, target)
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__)


def resolves_path(name: str) -> bool:
    """Whether the dotted ``name`` resolves: its longest importable module
    prefix, then the rest of it as attributes."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        return i == len(parts) or _lookup(module, ".".join(parts[i:]))
    return False


@pytest.mark.parametrize("snippet, want", [
    ('"""See :func:`f`."""', [("func", "f", 1)]),
    ("# a\n# :class:`~cellens.data.Dataset` and :meth:`A.m`",
     [("class", "cellens.data.Dataset", 2), ("meth", "A.m", 2)]),
    (":data:`the cut <PARTNER_PARALLEL_PRODUCTS>`",
     [("data", "PARTNER_PARALLEL_PRODUCTS", 1)]),
    # other roles and plain literals are not references
    (":mod:`cellens` and ``f`` and `g`", []),
])
def test_scanner_finds_references(snippet, want):
    assert references(snippet) == want


def test_resolution_rules():
    cellwise = importlib.import_module("cellens.cellwise")
    assert resolves(cellwise, "func", "_partner_pass")  # its module
    assert resolves(cellwise, "func", "fit_ensemble")  # the package
    assert resolves(cellwise, "func", "cellens.selection.cv_error")
    assert resolves(cellwise, "meth", "DdcConfig.validate")
    assert resolves(cellwise, "meth", "columns")  # CorrelationStructure's
    assert not resolves(cellwise, "func", "_no_such_function")
    assert not resolves(cellwise, "meth", "no_such_method")
    assert not resolves(cellwise, "func", "cellens.no_such_module.f")
    # a bare name resolves on a class only for :meth:
    assert not resolves(cellwise, "func", "columns")
    assert resolves_path("cellens.reference")  # a module
    assert resolves_path("cellens.cellwise.partner_table")
    assert resolves_path("cellens.pivot_ratios")  # the package's
    assert not resolves_path("cellens.cellwise.no_such_function")
    assert not resolves_path("cellens.no_such_name")


def test_package_references_resolve():
    files = sorted(SRC.glob("*.py"))
    assert files
    seen, stale = 0, []
    for path in files:
        module = importlib.import_module(f"cellens.{path.stem}"
                                         if path.stem != "__init__"
                                         else "cellens")
        for role, target, line in references(path.read_text()):
            seen += 1
            if not resolves(module, role, target):
                stale.append(f"{path.name}:{line} :{role}:`{target}`")
    assert seen  # the scan reaches the package's references
    assert not stale, f"references to nothing: {stale}"


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text()
    names = [(m[1], text.count("\n", 0, m.start()) + 1)
             for m in README_NAME.finditer(text)]
    assert names  # the scan reaches the README's names
    stale = [f"README.md:{line} `{name}`" for name, line in names
             if not resolves_path(name)]
    assert not stale, f"names of nothing: {stale}"
