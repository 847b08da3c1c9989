"""Structural property suites at reduced budgets (full budgets run in
test_acceptance.py)."""

import contextlib
import io
import logging
import re

import numpy as np
import pytest

from cellens import cellwise, pipeline, robustfit, selection, selfcheck
from cellens.errors import DegenerateColumn
from cellens.pipeline import passthrough_imputation


def test_path_equivalence_property():
    assert selfcheck.check_path_equivalence(n_runs=8) == []


def test_affine_invariance_property():
    assert selfcheck.check_affine_invariance(n_runs=4) == []


def test_scale_shift_equivariance_property():
    assert selfcheck.check_scale_shift_equivariance(n_runs=12) == []


def test_power_of_two_equivariance_property():
    assert selfcheck.check_scale_shift_equivariance(n_runs=4, exact=True) == []


@pytest.mark.parametrize("exact, off", [(False, lambda pred: pred * (1 + 1e-9)),
                                       (True, lambda pred: pred + 1e-9)])
def test_scale_shift_check_catches_off_predictions(monkeypatch, exact, off):
    predict = pipeline.predict
    monkeypatch.setattr(pipeline, "predict",
                        lambda model, X: off(predict(model, X)))
    failures = selfcheck.check_scale_shift_equivariance(n_runs=2, exact=exact)
    label = "power-of-two" if exact else "scale-shift"
    # the 2 seeded runs and the 2 fixed extreme-y runs each catch it
    assert [f.split(":")[0] for f in failures] == [
        f"{label} run {run}" for run in range(4)]


def test_permutation_equivariance_property():
    assert selfcheck.check_permutation_equivariance(n_runs=4) == []


def test_intercept_invariance_property():
    assert selfcheck.check_intercept_invariance(n_runs=6) == []


def test_local_stability_property():
    assert selfcheck.check_local_stability(n_runs=4) == []


def test_s_scale_property():
    assert selfcheck.check_s_scale() == []


def test_s_scale_check_catches_off_solver(monkeypatch):
    s_scale = robustfit.s_scale
    monkeypatch.setattr(robustfit, "s_scale",
                        lambda r, c0: s_scale(r, c0) * (1 + 1e-5))
    failures = selfcheck.check_s_scale(n_runs=3)
    assert [f.split(":")[0] for f in failures] == [
        f"s-scale run {run}" for run in range(3)]


def test_s_stage_oracle_pins_its_miss_count():
    # the check passes at its bound, and its count is exactly that bound
    failures = selfcheck.check_s_stage_oracle(
        max_misses=selfcheck.S_ORACLE_MISSES - 1)
    assert len(failures) == 1
    assert failures[0].startswith(
        f"s-stage oracle: {selfcheck.S_ORACLE_MISSES} of 30 inputs missed")


def test_s_stage_oracle_catches_a_narrower_search(monkeypatch):
    monkeypatch.setattr(robustfit, "N_ELEMENTAL_STARTS", 5)
    failures = selfcheck.check_s_stage_oracle()
    assert len(failures) == 1 and "5 elemental starts" in failures[0]


def test_cv_oracle_property():
    assert selfcheck.check_cv_oracle() == []


def test_cv_oracle_check_catches_off_arbiter(monkeypatch):
    cv_error = selfcheck.cv_error
    monkeypatch.setattr(selfcheck, "cv_error",
                        lambda *args: cv_error(*args) * (1 + 1e-6))
    failures = selfcheck.check_cv_oracle(n_runs=3)
    assert [f.split(":")[0] for f in failures] == [
        f"cv-oracle run {run}" for run in range(3)]


def test_cv_oracle_check_catches_a_wrong_grown_prefix(monkeypatch):
    # a fit that scores every two-column subset wrong is caught on the
    # prefixes of the runs that grow their subsets as the tournament does
    border = selection._cv_fit

    def off_at_two(cv, subset, parent):
        fit = border(cv, subset, parent)
        if len(subset) == 2:
            fit.err *= 1 + 1e-6
        return fit

    monkeypatch.setattr(selection, "_cv_fit", off_at_two)
    failures = selfcheck.check_cv_oracle()
    grown = [f for f in failures if "grown prefix of 2" in f]
    assert grown and all(int(f.split(":")[0].split()[-1]) % 4 >= 2
                         for f in grown)


def test_edge_inputs_property():
    assert selfcheck.check_edge_inputs(n_runs=2) == []


def _untyped_zero_mad(column, name=None):
    return ValueError(f"zero MAD in column {column}")


@pytest.mark.parametrize("target, attr, value, kinds, error", [
    # a zero-MAD column raising an untyped error
    (cellwise, "DegenerateColumn", _untyped_zero_mad, {"rounded"},
     "ValueError"),
    # a typed error naming a column the input does not have
    (cellwise, "DegenerateColumn",
     lambda column, name=None: DegenerateColumn(10 ** 6), {"rounded"},
     "names no column"),
    # singular weighted systems sent to the normal equations
    (robustfit, "WLS_NORMAL_RATIO", -1.0, {"binary", "rounded"},
     "LinAlgError"),
])
def test_edge_input_check_catches_untyped_failures(monkeypatch, target, attr,
                                                   value, kinds, error):
    monkeypatch.setattr(target, attr, value)
    failures = selfcheck.check_edge_inputs()
    assert failures
    assert {f.split()[1] for f in failures} == kinds
    assert all(error in f for f in failures)


def test_passthrough_imputation_identity():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((20, 4))
    imp = passthrough_imputation(Z)
    assert np.array_equal(imp.Z_imp, Z)
    assert not imp.flags.any()


@pytest.fixture(scope="module")
def run_all_once():
    """One ``selfcheck.run_all`` call for the module: its return value, what
    it printed, and the records it logged to ``cellens`` at INFO."""
    log = logging.getLogger("cellens")
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            ok = selfcheck.run_all()
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    return ok, out.getvalue(), records


def test_run_all_passes(run_all_once):
    assert run_all_once[0]


def test_run_all_logs_its_report_and_prints_nothing(run_all_once):
    ok, out, records = run_all_once
    assert ok
    assert out == ""
    lines = [r.getMessage() for r in records
             if r.name == "cellens.selfcheck"]
    assert len(lines) == 11
    assert all(re.fullmatch(r"selfcheck [a-z-]+: PASS", line) for line in lines)
