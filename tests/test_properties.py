"""Structural property suites at reduced budgets (full budgets run in
test_acceptance.py)."""

import logging
import re

import numpy as np
import pytest

from cellens import pipeline, robustfit, selfcheck
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


def test_cv_oracle_property():
    assert selfcheck.check_cv_oracle() == []


def test_cv_oracle_check_catches_off_arbiter(monkeypatch):
    cv_error = selfcheck.cv_error
    monkeypatch.setattr(selfcheck, "cv_error",
                        lambda *args: cv_error(*args) * (1 + 1e-6))
    failures = selfcheck.check_cv_oracle(n_runs=3)
    assert [f.split(":")[0] for f in failures] == [
        f"cv-oracle run {run}" for run in range(3)]


def test_passthrough_imputation_identity():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((20, 4))
    imp = passthrough_imputation(Z)
    assert np.array_equal(imp.Z_imp, Z)
    assert not imp.flags.any()


def test_run_all_passes():
    assert selfcheck.run_all()


def test_run_all_logs_its_report_and_prints_nothing(capsys, caplog):
    with caplog.at_level(logging.INFO, logger="cellens"):
        assert selfcheck.run_all()
    assert capsys.readouterr().out == ""
    lines = [r.getMessage() for r in caplog.records
             if r.name == "cellens.selfcheck"]
    assert len(lines) == 9
    assert all(re.fullmatch(r"selfcheck [a-z-]+: PASS", line) for line in lines)
