"""Span recording for the traced benchmark pass.

Spans are recorded from outside the package: for the duration of a traced
section, :class:`Tracer` replaces the module attributes through which one
layer calls the next (``cellens.pipeline.ddc_impute`` and so on) with
timing wrappers, and restores the originals afterwards. Nothing under
``src/`` changes.

Every span belongs to one replication (a ``rep`` span opened by the
benchmark, or the runner's ``run_single``). Per-replication sums of span
time, self time (span time minus the time of its direct children) and
call counts are turned into the per-layer metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). Each attribute is the global that the
# calling layer looks up at call time, so replacing it intercepts the call.
LAYER_CALLS = (
    ("cellens.pipeline", "ddc_impute", "cellwise.ddc_impute"),
    ("cellens.pipeline", "correlation_structure", "cellwise.correlation_structure"),
    ("cellens.pipeline", "run_selection", "selection.run_selection"),
    ("cellens.pipeline", "fit_ensemble_models", "robustfit.fit_ensemble_models"),
    # FitResult.predict calls robustfit.predict through this name
    ("cellens.pipeline", "predict", "robustfit.predict"),
    ("cellens.cellwise", "robust_standardize", "cellwise.robust_standardize"),
    ("cellens.cellwise", "robust_partner_correlations", "cellwise.partner_correlations"),
    ("cellens.corrlars", "propose", "corrlars.propose"),
    ("cellens.corrlars", "apply_step", "corrlars.apply_step"),
    ("cellens.selection", "cv_error", "selection.cv_error"),
    ("cellens.selection", "ols_fit", "linalg.ols_fit"),
    ("cellens.robustfit", "mm_fit", "robustfit.mm_fit"),
    ("cellens.robustfit", "ols_fit", "linalg.ols_fit"),
)

# Extra boundaries inside the experiment runner, used when the runner
# replicates in-process (threads=1).
RUNNER_CALLS = (
    ("cellens.experiment", "run_single", "rep"),
    ("cellens.experiment", "fit_ensemble", "pipeline.fit_ensemble"),
    ("cellens.experiment", "block_covariance", "simulate"),
    ("cellens.experiment", "generate_clean", "simulate"),
    ("cellens.experiment", "contaminate", "simulate"),
    ("cellens.experiment", "make_test_set", "simulate"),
)


class Tracer:
    """In-memory span and counter store for one traced section."""

    def __init__(self, min_abs_corr: float):
        self.min_abs_corr = min_abs_corr
        # name, parent index, wall start, wall end, cpu start, cpu end, rep
        self.spans: list[list] = []
        self.counts: list[dict[str, float]] = []
        self._stack: list[int] = []
        # return values read for counters once the replication has ended,
        # so that counting adds nothing to the spans being timed
        self._pending: list[tuple[str, object]] = []

    def _open(self, name: str) -> int:
        if name == "rep":
            self.counts.append({})
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None,
                           time.process_time(), None, len(self.counts) - 1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5] = time.process_time()
        self._stack.pop()
        if span[0] == "rep":
            for name, out in self._pending:
                self._count_result(name, out)
            self._pending.clear()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.observe(name, out)
            return out
        return traced

    def observe(self, name: str, out) -> None:
        """Keep a layer's return value for the current replication's counters."""
        if name in ("cellwise.partner_correlations", "pipeline.fit_ensemble"):
            self._pending.append((name, out))

    def _count(self, key: str, value: float) -> None:
        rep = self.counts[-1]
        rep[key] = rep.get(key, 0) + value

    def _count_result(self, name: str, out) -> None:
        """Counters read from public return values at a layer boundary."""
        if name == "cellwise.partner_correlations":
            # ddc_impute falls back to marginal detection for a column with
            # no partner at or above min_abs_corr
            corr = np.abs(out)
            np.fill_diagonal(corr, 0.0)
            self._count("cellwise.marginal_columns",
                        int((corr.max(axis=1) < self.min_abs_corr).sum()))
            return
        result = out
        self._count("cellwise.flagged_cells", int(result.imputation.flags.sum()))
        for key, value in selection_counts(result.selection).items():
            self._count(key, value)
        fits = result.model.fits
        self._count("robustfit.m_iterations", sum(f.iterations for f in fits))
        self._count("robustfit.unconverged", sum(not f.converged for f in fits))

    @contextmanager
    def installed(self, calls=LAYER_CALLS):
        """Replace each layer-call attribute by a wrapper while active."""
        saved = []
        try:
            for module_name, attr, name in calls:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def per_rep(self) -> list[dict[str, float]]:
        """Per-replication totals: ``<name>`` seconds, ``<name>#self``
        seconds, ``<name>#calls`` and ``<name>#cpu`` seconds, plus counters."""
        reps = [dict(c) for c in self.counts]
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, parent, t0, t1, c0, c1, rep) in enumerate(self.spans):
            if rep < 0:
                continue
            out = reps[rep]
            for key, value in ((name, t1 - t0), (name + "#self", t1 - t0 - child_time[i]),
                               (name + "#calls", 1), (name + "#cpu", c1 - c0)):
                out[key] = out.get(key, 0) + value
        return reps


def selection_counts(sel) -> dict[str, float]:
    """Tournament counters from a SelectionResult and its trace.

    A proposal is reused when the same model proposed the same candidate
    with the same step and CV score in the previous round.
    """
    proposals = reused = rank_deficient = 0
    previous: dict[int, tuple] = {}
    for record in sel.trace:
        current = {}
        for pr in record.proposals:
            key = (pr.candidate, pr.gamma, pr.cv_new)
            current[pr.model] = key
            proposals += 1
            reused += previous.get(pr.model) == key
            rank_deficient += pr.benefit == float("-inf")
        previous = current
    winners = len(sel.winner_sequence())
    return {
        "selection.rounds": len(sel.trace),
        "selection.proposals": proposals,
        "selection.reused": reused,
        "selection.winners": winners,
        "selection.rank_deficient": rank_deficient,
    }


# per-layer metric -> (unit, key of one replication's totals); a ratio
# metric names its numerator and denominator keys
LAYER_METRICS = {
    "cellwise.standardize_s": ("s", "cellwise.robust_standardize"),
    "cellwise.partner_corr_s": ("s", "cellwise.partner_correlations"),
    "cellwise.impute_s": ("s", "cellwise.ddc_impute#self"),
    "cellwise.structure_s": ("s", "cellwise.correlation_structure"),
    "cellwise.flagged_cells": ("count", "cellwise.flagged_cells"),
    "cellwise.marginal_columns": ("count", "cellwise.marginal_columns"),
    "corrlars.propose_calls": ("count", "corrlars.propose#calls"),
    "corrlars.propose_s": ("s", "corrlars.propose"),
    "corrlars.apply_step_s": ("s", "corrlars.apply_step"),
    "selection.rounds": ("count", "selection.rounds"),
    "selection.cv_calls": ("count", "selection.cv_error#calls"),
    "selection.cv_s": ("s", "selection.cv_error"),
    "selection.self_s": ("s", "selection.run_selection#self"),
    "selection.proposal_reuse_ratio": ("ratio", ("selection.reused", "selection.proposals")),
    "selection.accept_ratio": ("ratio", ("selection.winners", "selection.proposals")),
    "selection.rank_deficient": ("count", "selection.rank_deficient"),
    "linalg.ols_fit_calls": ("count", "linalg.ols_fit#calls"),
    "linalg.ols_fit_s": ("s", "linalg.ols_fit"),
    "robustfit.mm_fit_calls": ("count", "robustfit.mm_fit#calls"),
    "robustfit.mm_fit_s": ("s", "robustfit.mm_fit"),
    "robustfit.m_iterations": ("count", "robustfit.m_iterations"),
    "robustfit.unconverged": ("count", "robustfit.unconverged"),
    "robustfit.predict_s": ("s", "robustfit.predict"),
    "pipeline.fit_s": ("s", "pipeline.fit_ensemble"),
    "pipeline.self_s": ("s", "pipeline.fit_ensemble#self"),
    "pipeline.fit_cpu_s": ("s", "pipeline.fit_ensemble#cpu"),
}


def _value(totals: dict[str, float], key) -> float:
    if isinstance(key, tuple):
        num, den = key
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    return totals.get(key, 0)


def layer_metrics(reps: list[dict[str, float]]) -> dict[str, dict]:
    """Median over replications of every metric in LAYER_METRICS."""
    return {name: {"value": float(statistics.median(_value(r, key) for r in reps)),
                   "unit": unit}
            for name, (unit, key) in LAYER_METRICS.items()}
