"""Static guard for the numpy floor declared in pyproject.toml (>= 1.24).

The suite runs on one numpy version only, so a call that first appeared
in numpy 2.0 or later would pass it and still break every install on
numpy 1.x. This test scans the package source for such names; it is a
static guard, not a run of the suite on an old numpy.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cellens"

# module attributes that numpy 1.x lacks (new in 2.0, matvec/vecmat in 2.2)
NEW_IN_NUMPY_2 = {
    "numpy": {
        "vecdot", "matrix_transpose", "unstack", "concat", "permute_dims",
        "pow", "astype", "isdtype", "bitwise_count", "cumulative_sum",
        "cumulative_prod", "trapezoid", "acos", "acosh", "asin", "asinh",
        "atan", "atanh", "atan2", "bitwise_left_shift", "bitwise_invert",
        "bitwise_right_shift", "matvec", "vecmat",
    },
    "numpy.linalg": {
        "vecdot", "matrix_transpose", "vector_norm", "matrix_norm",
        "svdvals", "diagonal", "trace", "outer", "cross",
    },
}


def numpy_2_names(source: str) -> list[str]:
    """Dotted numpy-2-only names that ``source`` reads, as ``numpy.x``."""
    tree = ast.parse(source)
    # local name -> numpy module it is bound to
    modules = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name in NEW_IN_NUMPY_2:
                    modules[alias.asname] = alias.name
                elif not alias.asname and alias.name.startswith("numpy"):
                    # ``import numpy.linalg`` binds the name ``numpy``
                    modules["numpy"] = "numpy"
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full in NEW_IN_NUMPY_2:
                    modules[alias.asname or alias.name] = full
                elif alias.name in NEW_IN_NUMPY_2.get(node.module, ()):
                    found.append(full)

    def dotted(node):
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            if base and node.attr in NEW_IN_NUMPY_2.get(base, ()):
                found.append(f"{base}.{node.attr}")
    return found


@pytest.mark.parametrize("snippet, want", [
    ("import numpy as np\nnp.vecdot(a, b)", ["numpy.vecdot"]),
    ("import numpy as np\nnp.linalg.vector_norm(a)",
     ["numpy.linalg.vector_norm"]),
    ("import numpy.linalg\nnumpy.linalg.matrix_transpose(a)",
     ["numpy.linalg.matrix_transpose"]),
    ("from numpy import linalg as la\nla.svdvals(a)",
     ["numpy.linalg.svdvals"]),
    ("from numpy import concat", ["numpy.concat"]),
    ("from numpy.linalg import outer", ["numpy.linalg.outer"]),
    # methods and numpy-1 functions of the same names are fine
    ("import numpy as np\na.astype(float).diagonal()\nnp.trace(a)\n"
     "np.cross(a, b)\nnp.linalg.norm(a)", []),
])
def test_scanner_flags_numpy_2_names(snippet, want):
    assert numpy_2_names(snippet) == want


def test_package_uses_no_numpy_2_only_names():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {str(path.relative_to(SRC)): names for path in files
             if (names := numpy_2_names(path.read_text()))}
    assert not found, f"numpy>=2.0-only names under src/cellens: {found}"
