"""Static guards that no private module-level name is left unused and
no defaulted parameter serves one value.

A refactor that stops calling a private helper, class or constant leaves
it behind, and no other test notices. The first guard parses every
module of the package and requires each module-level private name (one
leading underscore, not a dunder) to be read somewhere in the package:
as a name or as an attribute, outside its own definition. A mention in a
docstring or a comment does not count. Public names are out of scope:
users and tests may be their only callers.

A defaulted parameter that no caller sets to another value is a setting
in name only: a constant belongs in the function's body. The second
guard requires each defaulted parameter of each module-level function of
the package, public or private, to get another value from at least one
call in the package, ``tests``, ``demos`` or ``perfbench``, outside the
function's own definition. A literal equal to the default, or the
default's own expression, is not another value. Calls match by name or
by attribute, and a ``*`` or ``**`` splat counts as setting every
parameter it can reach. Methods and nested functions are out of scope.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cellens"
CALLERS = ("tests", "demos", "perfbench")


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


def _same(value: ast.AST, default: ast.AST) -> bool:
    """Whether a passed expression is the parameter's default: an equal
    literal, or the default's own expression."""
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except (ValueError, TypeError):
        return ast.dump(value) == ast.dump(default)


def settings(tree: ast.Module) -> list[tuple[ast.FunctionDef, list, dict]]:
    """(function, positional parameter names, {name: default}) of every
    module-level function with a defaulted parameter."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = [arg.arg for arg in a.posonlyargs + a.args]
        defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                            a.defaults))
        defaults.update((arg.arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None)
        if defaults:
            found.append((node, positional, defaults))
    return found


def _set_by(call: ast.Call, positional: list, defaults: dict) -> set:
    """The defaulted parameters ``call`` passes a value other than the
    default; a ``*`` or ``**`` splat may set every one it can reach."""
    done = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            done.update(p for p in positional[i:] if p in defaults)
            break
        name = positional[i] if i < len(positional) else None
        if name in defaults and not _same(arg, defaults[name]):
            done.add(name)
    for kw in call.keywords:
        if kw.arg is None:
            done.update(defaults)
        elif kw.arg in defaults and not _same(kw.value, defaults[kw.arg]):
            done.add(kw.arg)
    return done


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def one_value(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``module:line function.parameter`` of every defaulted parameter of
    a module-level function in ``package`` that no call, in ``package``
    or ``callers`` and outside the function's own definition, sets to a
    value other than its default. A call matches by name or attribute."""
    trees = {module: ast.parse(text) for module, text in package.items()}
    calls = [node for tree in [*trees.values(), *map(ast.parse, callers.values())]
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found = []
    for module, tree in trees.items():
        for func, positional, defaults in settings(tree):
            own = {id(node) for node in ast.walk(func)}
            done = set()
            for call in calls:
                if _callee(call) == func.name and id(call) not in own:
                    done |= _set_by(call, positional, defaults)
            found += [f"{module}:{func.lineno} {func.name}.{name}"
                      for name in defaults if name not in done]
    return found


@pytest.mark.parametrize("package, callers, want", [
    ({"a.py": "def f(x, n=5):\n    pass\nf(1)\n"}, {}, ["a.py:1 f.n"]),
    ({"a.py": "def f(x, n=5):\n    pass\nf(1, 6)\n"}, {}, []),
    # a literal equal to the default, or the default's own expression
    ({"a.py": "def f(x, n=5, c=C):\n    pass\nf(1, n=5.0, c=C)\n"}, {},
     ["a.py:1 f.n", "a.py:1 f.c"]),
    # set from a caller, as an attribute, or by a splat
    ({"a.py": "def f(*, tol=1e-8):\n    pass\n"},
     {"t.py": "from x import a\na.f(tol=1e-6)\n"}, []),
    ({"a.py": "def f(n=5, m=2):\n    pass\n"},
     {"t.py": "f(**case)\n"}, []),
    # a call inside the function itself does not count; methods are skipped
    ({"a.py": "def f(n=5):\n    return f(n - 1)\n"}, {}, ["a.py:1 f.n"]),
    ({"a.py": "class K:\n    def m(self, n=1):\n        pass\n"}, {}, []),
])
def test_scanner_finds_one_value_settings(package, callers, want):
    assert one_value(package, callers) == want


def test_every_default_is_set_otherwise_somewhere():
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = {str(path.relative_to(ROOT)): path.read_text()
               for folder in CALLERS
               for path in sorted((ROOT / folder).rglob("*.py"))}
    assert any(settings(ast.parse(text)) for text in package.values())
    assert callers
    found = one_value(package, callers)
    assert not found, f"defaulted parameters no caller sets otherwise: {found}"
