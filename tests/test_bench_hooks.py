"""The traced benchmark pass patches package attributes by name and reads
tournament records; these tests fail when a refactor removes what it uses."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cellens import SelectionConfig, fit_ensemble, make_rng

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
