"""The benchmark imports package names, its traced pass patches package
attributes by name and reads tournament records, and its marginal-column
counter applies the partner threshold itself; these tests fail when a
refactor removes or changes what it uses. They read the benchmark's files
and edit none."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cellens import DdcConfig, SelectionConfig, fit_ensemble, make_rng
from cellens.cellwise import (partner_table, robust_partner_correlations,
                              robust_standardize)
from cellens.reference import dense_partner_rule

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name, attr, span",
                         tracing.LAYER_CALLS + tracing.RUNNER_CALLS)
def test_patched_attribute_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr)), f"{module_name}.{attr} ({span})"


def test_selection_counts_read_a_real_trace():
    rng = make_rng(81)
    X = rng.standard_normal((60, 15))
    y = X[:, :4] @ np.array([2.0, -1.5, 1.0, 2.5]) + 0.5 * rng.standard_normal(60)
    sel = fit_ensemble(y, X, SelectionConfig(K=3, seed=82)).selection
    counts = tracing.selection_counts(sel)
    assert counts["selection.rounds"] == len(sel.trace)
    assert counts["selection.proposals"] == sum(len(r.proposals) for r in sel.trace)
    assert counts["selection.winners"] == len(sel.winner_sequence())
    assert 0 < counts["selection.reused"] < counts["selection.proposals"]


def imported_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every import in the script at ``path``; a plain
    ``import m`` gives ``(m, "")``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.module, alias.name) for alias in node.names]
    return found


BENCH_IMPORTS = [(script, module, name)
                 for script in ("run.py", "fit_child.py")
                 for module, name in imported_names(PERFBENCH / script)]


@pytest.mark.parametrize(
    "script, module_name, name", BENCH_IMPORTS,
    ids=["-".join(filter(None, case)) for case in BENCH_IMPORTS])
def test_benchmark_import_resolves(script, module_name, name):
    # the scripts put perfbench/ on the path for their sibling tracing.py
    module = (tracing if module_name == "tracing"
              else importlib.import_module(module_name))
    assert not name or hasattr(module, name), (
        f"{script}: from {module_name} import {name}")


def test_benchmark_imports_cover_the_package():
    # a parse that found nothing would pass every case above
    names = {(m, n) for _, m, n in BENCH_IMPORTS}
    assert {("cellens", "DdcConfig"), ("cellens", "fit_ensemble"),
            ("cellens.experiment", "run_experiment"),
            ("cellens.rng", "split_seed")} <= names


def test_tracer_threshold_is_the_partner_tables():
    # the runner counts marginal-fallback columns with
    # Tracer(DdcConfig().min_abs_corr): those with no off-diagonal |corr| at
    # or above it, which must be the rows partner_table leaves empty. Half
    # the columns are independent noise, the rest share one factor at a
    # correlation near the threshold, on both sides of it.
    rng = make_rng(83)
    n, m = 200, 8
    factor = rng.standard_normal((n, 1))
    Z = np.column_stack([factor + 0.8 * rng.standard_normal((n, m)),
                         rng.standard_normal((n, m))])
    Zs, _ = robust_standardize(Z)
    corr = robust_partner_correlations(Zs)
    threshold = DdcConfig().min_abs_corr
    mag = np.abs(corr[~np.eye(2 * m, dtype=bool)])
    assert (mag >= threshold).any() and (mag[mag < threshold] > 0.4).any()
    index, value = partner_table(Zs)
    want_index, want_value = dense_partner_rule(corr, DdcConfig())
    assert np.array_equal(index, want_index)
    assert value.tobytes() == want_value.tobytes()
    tracer = tracing.Tracer(threshold)
    with tracer.span("rep"):
        tracer.observe("cellwise.partner_correlations", corr)
    empty = int((index[:, 0] < 0).sum())
    assert 0 < empty < 2 * m
    assert tracer.counts[-1]["cellwise.marginal_columns"] == empty
