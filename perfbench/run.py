"""cellens benchmark: end-to-end and per-layer metrics on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {wide,deep,study} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass together with the tracing overhead. Human-readable
report lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is driven only through public calls: ``fit_ensemble``,
``FitResult.predict`` and ``experiment.run_experiment`` (plus the
simulators that make the inputs). All inputs are generated from ``--seed``
before timing starts. See ``perfbench/README.md`` for the workloads and
the meaning of every metric.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import cellens
except ImportError as exc:
    raise SystemExit(f"cannot import cellens from {SRC}: {exc}")
if SRC not in Path(cellens.__file__).resolve().parents:
    raise SystemExit(f"cellens imported from {cellens.__file__}, not {SRC}")

from cellens import (CellensError, ContaminationSpec, DdcConfig,  # noqa: E402
                     SelectionConfig, SimConfig, block_covariance, contaminate,
                     fit_ensemble, generate_clean, make_test_set, mspe,
                     selection_scores)
from cellens.experiment import ExperimentConfig, run_experiment  # noqa: E402
from cellens.rng import split_seed  # noqa: E402

from tracing import LAYER_CALLS, RUNNER_CALLS, Tracer, layer_metrics  # noqa: E402

CV_FOLDS = 5
TEST_SIZE = 2000
# Inputs are generated several times per run (a panel); each of the first
# SETUPS panel members is a timed set-up: its generation plus a warm-up fit.
SETUPS = 3


@dataclass(frozen=True)
class Shape:
    """Data and selection settings of one workload."""

    n: int
    p: int
    sparsity: int
    block_size: int
    K: int
    tau: float
    max_vars: int | None
    panel: int  # inputs generated per untraced run (study: in-process set-ups)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    # criterion-10 point p=2000: partner correlations dominate the fit. With
    # tau=0.01 the tournament stopped after 15 to 92 rounds, and peak memory
    # grew with it (the trace keeps a p-entry dict per proposal); a
    # negligible tau and max_vars=30 give nearly every input 30 rounds.
    "wide": Shape(n=100, p=2000, sparsity=50, block_size=25, K=10, tau=1e-5,
                  max_vars=30, panel=3),
    # selection (LARS proposals + CV arbitration) dominates, robust fits
    # second. With tau=5e-4 the stopping round varied from 52 to 134 between
    # inputs; a negligible tau and max_vars=80 make nearly every input run 80
    # accepted rounds, so each fit does the same selection work.
    "deep": Shape(n=300, p=300, sparsity=150, block_size=25, K=20, tau=1e-5,
                  max_vars=80, panel=10),
    # criterion-8 setting, replicated by the runner's process pool
    "study": Shape(n=50, p=200, sparsity=20, block_size=10, K=10, tau=0.01,
                   max_vars=None, panel=SETUPS),
}
TRACED_PANEL = 3        # inputs of a traced wide/deep run
STUDY_BATCH = 16        # replications per run_experiment call
STUDY_MIN_BATCHES = 4   # reps_per_s is the median over at least this many
STUDY_QUALITY_BATCHES = 2   # quality is read from exactly this many batches
STUDY_TRACED_REPS = 6   # in-process replications per traced/untraced pass


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Replication:
    """One generated input: training data, selection settings, test set."""

    y: np.ndarray
    X: np.ndarray
    sel: SelectionConfig
    test_X: np.ndarray
    test_y: np.ndarray
    noise_var: float
    active: set


def rep_seed(seed: int, batch: int, rep: int) -> int:
    """Seed of replication ``rep`` of a runner study with master seed
    ``split_seed(seed, batch)``; wide and deep use batch 0."""
    return split_seed(split_seed(split_seed(seed, batch), 0), rep)


def sim_config(shape: Shape) -> SimConfig:
    return SimConfig(n=shape.n, p=shape.p, sparsity=shape.sparsity, snr=1.0,
                     block_size=shape.block_size)


def selection_config(shape: Shape) -> SelectionConfig:
    return SelectionConfig(K=shape.K, tau=shape.tau, cv_folds=CV_FOLDS,
                           max_vars=shape.max_vars)


def contamination() -> ContaminationSpec:
    return ContaminationSpec(scenario="MixtureCorrelation", alpha=0.1, alpha2=0.05)


def replication(shape: Shape, seed: int) -> Replication:
    """Generate one replication exactly as the runner's ``fit`` mode does
    for replication seed ``seed``."""
    sim = replace(sim_config(shape), seed=split_seed(seed, 1))
    clean = generate_clean(sim)
    obs = contaminate(clean, contamination(), block_covariance(sim),
                      seed=split_seed(seed, 2))
    sel = replace(selection_config(shape), seed=split_seed(seed, 3))
    test = make_test_set(sim, TEST_SIZE, clean.truth.beta, clean.truth.noise_sd,
                         seed=split_seed(seed, 4))
    return Replication(y=obs.y, X=obs.X, sel=sel, test_X=test.X, test_y=test.y,
                       noise_var=clean.truth.noise_sd ** 2,
                       active=set(clean.truth.active_set))


# ---------------------------------------------------------------------------
# outcome bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Attempted and failed fits, with the reason for every failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list[str], count: int = 1,
               failed: int | None = None) -> bool:
        """Count ``count`` attempted fits; when there are problems, ``failed``
        of them (all by default) failed."""
        self.attempted += count
        if problems:
            self.failed += count if failed is None else failed
            self.problems.extend(problems)
        return not problems


def check_fit(result, yhat: np.ndarray, rep: Replication, reference) -> list[str]:
    """Correctness of one fit: disjoint in-range sets within ``max_vars``,
    finite predictions of the right shape, identical sets on a refit."""
    n, p = rep.X.shape
    sets = result.model.sets
    flat = [j for s in sets for j in s]
    problems = []
    if len(sets) != rep.sel.K or sets != result.selection.sets:
        problems.append("model sets do not match the K selected sets")
    if len(set(flat)) != len(flat):
        problems.append("selected sets are not disjoint")
    if any(not 0 <= j < p for j in flat):
        problems.append("selected index out of range")
    if len(flat) > rep.sel.resolved_max_vars(n, p):
        problems.append(f"{len(flat)} selected exceeds max_vars")
    if yhat.shape != rep.test_y.shape or not np.all(np.isfinite(yhat)):
        problems.append("predictions are not finite with the test-set shape")
    if reference is not None and sets != reference:
        problems.append("refit of the same input changed the selected sets")
    return problems


@dataclass
class FitOutcome:
    ok: bool
    sets: list | None = None
    fit_s: float = 0.0
    rep_s: float = 0.0
    mspe: float = 0.0
    recall: float = 0.0
    precision: float | None = None
    stop_reason: str | None = None


def fit_once(rep: Replication, reference, tally: Tally, tracer=None) -> FitOutcome:
    """Fit, predict and check one input. A CellensError or a failed check
    counts as a failed fit and does not abort the run."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = fit_ensemble(rep.y, rep.X, rep.sel)
            fit_s = time.perf_counter() - t0
            yhat = result.predict(rep.test_X)
        else:
            with tracer.span("rep"):
                with tracer.span("pipeline.fit_ensemble"):
                    result = fit_ensemble(rep.y, rep.X, rep.sel)
                fit_s = time.perf_counter() - t0
                tracer.observe("pipeline.fit_ensemble", result)
                yhat = result.predict(rep.test_X)
    except CellensError as exc:
        tally.record([f"{type(exc).__name__}: {exc}"])
        return FitOutcome(ok=False)
    problems = check_fit(result, yhat, rep, reference)
    if not tally.record(problems):
        return FitOutcome(ok=False)
    recall, precision = selection_scores(rep.active, result.selected_union())
    return FitOutcome(ok=True, sets=result.model.sets, fit_s=fit_s,
                      rep_s=time.perf_counter() - t0,
                      mspe=mspe(rep.test_y, yhat, noise_var=rep.noise_var),
                      recall=recall, precision=precision,
                      stop_reason=result.selection.stop_reason)


# ---------------------------------------------------------------------------
# peak memory of one fit, in a child process
# ---------------------------------------------------------------------------

def child_fit(rep: Replication, reference, tally: Tally, workdir: str) -> dict:
    """Fit ``rep`` once in a fresh interpreter; returns its memory report."""
    path = os.path.join(workdir, "child_inputs.npz")
    np.savez(path, y=rep.y, X=rep.X, K=rep.sel.K, tau=rep.sel.tau,
             cv_folds=rep.sel.cv_folds, seed=np.uint64(rep.sel.seed),
             max_vars=-1 if rep.sel.max_vars is None else rep.sel.max_vars)
    proc = subprocess.run([sys.executable, str(HERE / "fit_child.py"), path],
                          capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        tally.record([f"child fit exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        return {}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if reference is not None and report["sets"] != reference:
        problems.append("child-process fit selected different sets")
    tally.record(problems)
    return report


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def blas_info() -> dict:
    """OpenBLAS version and thread count of the library numpy loaded."""
    info = {"numpy": np.__version__, "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = blas.get("version")
    except (KeyError, TypeError):
        info["openblas"] = None
    info["blas_threads"] = None
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def quality(mspes, recalls, precisions) -> dict:
    """Median test MSPE, recall and precision (reported, not gated).

    Each is a deterministic function of the seed, but it varies so much
    between inputs that no bound the benchmark may set would hold across
    seeds; ``sets_sha256`` in the provenance shows whether two runs of one
    seed selected the same sets.
    """
    def med(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else float("nan")
    return {"mspe": med(mspes), "recall": med(recalls), "precision": med(precisions)}


def run_fits(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """``wide`` and ``deep``: repeated fits of a panel of generated inputs."""
    shape = WORKLOADS[name]
    panel = TRACED_PANEL if trace else shape.panel
    tally = Tally()
    reps, references, setup_s, generate_s = [], {}, [], []
    for i in range(panel):
        t0 = time.perf_counter()
        rep = replication(shape, rep_seed(seed, 0, i))
        generate_s.append(time.perf_counter() - t0)
        if i < SETUPS:
            warm = fit_once(rep, None, tally)
            references[i] = warm.sets
            setup_s.append(time.perf_counter() - t0)
        reps.append(rep)

    tracer = Tracer(DdcConfig().min_abs_corr) if trace else None
    plain, traced, first_pass = [], [], []
    t_start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t_start < seconds:
        for i, rep in enumerate(reps):
            out = fit_once(rep, references.get(i), tally)
            plain.append(out)
            if passes == 0:
                first_pass.append(out)
                if references.get(i) is None:
                    references[i] = out.sets
            if trace:
                with tracer.installed():
                    traced.append(fit_once(rep, references.get(i), tally, tracer))
        passes += 1
    loop_s = time.perf_counter() - t_start

    good = [o for o in plain if o.ok]
    fit_s = statistics.median(o.fit_s for o in good) if good else float("nan")
    inputs_fp = fingerprint(*[a for r in reps for a in (r.y, r.X)])
    info = {"panel": panel, "fits": len(plain), "traced_fits": len(traced),
            "stop_reasons": Counter(o.stop_reason for o in first_pass if o.ok),
            "inputs_sha256": inputs_fp,
            "sets_sha256": fingerprint([references.get(i) for i in range(panel)])}
    if trace:
        reps_totals = tracer.per_rep()
        metrics = layer_metrics(reps_totals)
        traced_fit = statistics.median(r.get("pipeline.fit_ensemble", 0.0)
                                       for r in reps_totals)
        metrics["trace.overhead_s"] = metric(traced_fit - fit_s, "s")
        metrics["simulate.generate_s"] = metric(statistics.median(generate_s), "s")
        metrics["experiment.rep_wall_s"] = metric(
            statistics.fmean(o.rep_s for o in good), "s")
        metrics["experiment.fit_share"] = metric(
            sum(o.fit_s for o in good) / sum(o.rep_s for o in good), "ratio")
        return {"tally": tally, "metrics": metrics, "info": info}

    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        child = child_fit(reps[0], references.get(0), tally, workdir)
    done = [o for o in first_pass if o.sets is not None]
    q = quality([o.mspe for o in done], [o.recall for o in done],
                [o.precision for o in done])
    info["child_rss_before_mb"] = child.get("rss_before_mb")
    info["fit_s_each"] = [round(o.fit_s, 4) for o in plain]
    metrics = {
        "fit_s": metric(fit_s, "s"),
        "reps_per_s": metric(len(good) / loop_s, "1/s"),
        "peak_rss_mb": metric(child.get("peak_rss_mb", float("nan")), "MiB"),
        "setup_s": metric(statistics.median(setup_s), "s"),
    }
    return {"tally": tally, "metrics": metrics, "info": info, "quality": q}


def study_config(seed: int, batch: int, reps: int, threads: int,
                 out: str) -> ExperimentConfig:
    shape = WORKLOADS["study"]
    return ExperimentConfig(mode="fit", sim=sim_config(shape),
                            contamination=contamination(),
                            selection=selection_config(shape),
                            replications=reps, test_size=TEST_SIZE,
                            output_path=out, seed=split_seed(seed, batch),
                            threads=threads)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_rows(rows: list[dict], max_vars: int, expected: dict) -> list[str]:
    """Checks on the runner's CSV rows, at most one problem per replication.

    ``expected`` maps a replication index to the (mspe, recall, precision,
    selected_count) of the same replication fitted in-process.
    """
    problems = []
    for i, r in enumerate(rows):
        got = (float(r["mspe"]), float(r["recall"]),
               float(r["precision"]) if r["precision"] else None,
               int(r["selected_count"]))
        mspe, recall, precision, selected = got
        if not np.isfinite(mspe) or mspe <= 0:
            problems.append(f"rep {i}: mspe {mspe} is not finite and positive")
        elif not 0 <= recall <= 1 or not 0 <= (precision or 0) <= 1:
            problems.append(f"rep {i}: recall/precision outside [0, 1]")
        elif selected > max_vars:
            problems.append(f"rep {i}: selected_count exceeds max_vars")
        elif i in expected and got != expected[i]:
            problems.append(f"rep {i}: pool result {got} differs from "
                            f"in-process {expected[i]}")
    return problems


def run_study(seed: int, seconds: float, trace: bool) -> dict:
    """``study``: replicated ``fit`` studies through ``run_experiment``."""
    shape = WORKLOADS["study"]
    workers = os.cpu_count() or 1
    max_vars = selection_config(shape).resolved_max_vars(shape.n, shape.p)
    tally = Tally()
    setups, setup_s = [], []
    for i in range(shape.panel):
        t0 = time.perf_counter()
        rep = replication(shape, rep_seed(seed, 0, i))
        setups.append((rep, fit_once(rep, None, tally)))
        setup_s.append(time.perf_counter() - t0)

    # the pool's first replications must equal the in-process set-up fits
    pool_expected = {i: (w.mspe, w.recall, w.precision,
                         len({j for s in w.sets for j in s}))
                     for i, (_, w) in enumerate(setups) if w.ok}

    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        walls, rates, rows_by_batch = [], [], []
        t_start = time.perf_counter()
        batch = 0
        min_batches = 1 if trace else STUDY_MIN_BATCHES
        while batch < min_batches or time.perf_counter() - t_start < seconds:
            out = os.path.join(workdir, f"batch{batch}.csv")
            t0 = time.perf_counter()
            try:
                run_experiment(study_config(seed, batch, STUDY_BATCH, workers, out))
            except CellensError as exc:
                tally.record([f"batch {batch}: {type(exc).__name__}: {exc}"],
                             STUDY_BATCH)
                rows_by_batch.append([])
            else:
                walls.append(time.perf_counter() - t0)
                rows = read_rows(out)
                rates.append(len(rows) / walls[-1])
                if [int(r["rep"]) for r in rows] != list(range(STUDY_BATCH)):
                    tally.record([f"batch {batch}: not one CSV row per replication"],
                                 STUDY_BATCH)
                    rows = []
                else:
                    problems = check_rows(rows, max_vars,
                                          pool_expected if batch == 0 else {})
                    if not tally.record(problems, STUDY_BATCH, failed=len(problems)):
                        rows = []
                rows_by_batch.append(rows)
            batch += 1
        rows = [r for b in rows_by_batch for r in b]

        fit_times = [float(r["cpu_seconds"]) for r in rows] or [float("nan")]
        wall = sum(walls)
        info = {"batches": batch, "replications": len(rows), "workers": workers,
                "stop_reasons": Counter(w.stop_reason for _, w in setups if w.ok),
                "inputs_sha256": fingerprint(*[a for rep, _ in setups
                                               for a in (rep.y, rep.X)]),
                "sets_sha256": fingerprint([w.sets for _, w in setups]),
                "results_sha256": fingerprint(
                    [[v for k, v in r.items() if k != "cpu_seconds"]
                     for r in rows_by_batch[0]])}

        if trace:
            tracer = Tracer(DdcConfig().min_abs_corr)
            inproc = []
            for traced in (False, True):
                out = os.path.join(workdir, f"inproc{int(traced)}.csv")
                cfg = study_config(seed, 0, STUDY_TRACED_REPS, 1, out)
                if traced:
                    with tracer.installed(LAYER_CALLS + RUNNER_CALLS):
                        run_experiment(cfg)
                else:
                    run_experiment(cfg)
                inproc.append([float(r["cpu_seconds"]) for r in read_rows(out)])
            reps_totals = tracer.per_rep()
            metrics = layer_metrics(reps_totals)
            # the same replications untraced and traced: median paired difference
            metrics["trace.overhead_s"] = metric(
                statistics.median(t - u for u, t in zip(*inproc)), "s")
            metrics["simulate.generate_s"] = metric(
                statistics.median(r.get("simulate", 0.0) for r in reps_totals), "s")
            metrics["experiment.rep_wall_s"] = metric(workers * wall / len(rows), "s")
            metrics["experiment.fit_share"] = metric(
                sum(fit_times) / (workers * wall), "ratio")
            return {"tally": tally, "metrics": metrics, "info": info}

        child = child_fit(setups[0][0], setups[0][1].sets, tally, workdir)

    quality_rows = [r for b in rows_by_batch[:STUDY_QUALITY_BATCHES] for r in b]
    q = quality([float(r["mspe"]) for r in quality_rows],
                [float(r["recall"]) for r in quality_rows],
                [float(r["precision"]) for r in quality_rows if r["precision"]])
    info["child_rss_before_mb"] = child.get("rss_before_mb")
    metrics = {
        # the runner's cpu_seconds column holds perf_counter wall time
        "fit_s": metric(statistics.median(fit_times), "s"),
        "reps_per_s": metric(statistics.median(rates) if rates else float("nan"), "1/s"),
        "peak_rss_mb": metric(child.get("peak_rss_mb", float("nan")), "MiB"),
        "setup_s": metric(statistics.median(setup_s), "s"),
    }
    return {"tally": tally, "metrics": metrics, "info": info, "quality": q}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "study" and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        # wide and deep time one fit at a time. With a single BLAS thread their
        # run-to-run spread on a 2-core machine halved and the median fit time
        # did not move; study keeps the environment users have. Restart so
        # that numpy loads OpenBLAS with the setting.
        os.execve(sys.executable, [sys.executable, str(Path(__file__)), *sys.argv[1:]],
                  {**os.environ, "OPENBLAS_NUM_THREADS": "1"})

    t0 = time.perf_counter()
    if args.workload == "study":
        run = run_study(args.seed, args.seconds, bool(args.trace))
    else:
        run = run_fits(args.workload, args.seed, args.seconds, bool(args.trace))
    tally, metrics = run["tally"], run["metrics"]

    provenance = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, **blas_info(), **run["info"],
                  "run_s": round(time.perf_counter() - t0, 3)}
    print("provenance " + json.dumps(provenance))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in run.get("quality", {}).items():
        print(f"  {name:32s} {value:.6g} ratio (reported, not gated)")
    print(f"  {'error_rate':32s} {tally.failed}/{tally.attempted} "
          f"= {tally.failed / max(tally.attempted, 1):.6g}")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    correct = tally.failed == 0 and all(np.isfinite(m["value"])
                                        for m in metrics.values())
    print(f"  verdict: {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
