"""Structural property suites at reduced budgets (full budgets run in
test_acceptance.py)."""

import numpy as np

from cellens import robustfit, selfcheck
from cellens.pipeline import passthrough_imputation


def test_path_equivalence_property():
    assert selfcheck.check_path_equivalence(n_runs=8) == []


def test_affine_invariance_property():
    assert selfcheck.check_affine_invariance(n_runs=4) == []


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
    assert selfcheck.run_all(verbose=False)
