"""Config-driven experiment runner and command line entry point.

A single JSON config describes the simulation, contamination, selection
settings, and run mode; results land in a stable CSV whose first column
carries a schema version. Identical config and seed reproduce the CSV
byte for byte except for the timing column.

Modes
-----
fit
    Replicated simulate / contaminate / fit / evaluate runs. When the
    config carries ``data_csv`` the mode instead fits a user CSV, writes
    a model JSON and logs its summary (see :func:`fit_csv`); with a
    ``predict`` section it scores a saved model on new rows (see
    :func:`predict_csv`).
sweep-k
    The fit loop repeated over a grid of ensemble sizes.
sweep-contamination
    The fit loop repeated over scenario/rate combinations.
selftest
    Runs the built-in property suites, which log their report to the
    ``cellens`` logger; the command line prints it and exits nonzero on
    failure.

Exit codes: 0 success, 1 config error (a results, model or prediction
path that cannot be written is one), 2 runtime error, 3 selftest
failure. The results CSV replaces its path only once every replication
has run, and the model JSON and the predictions only once they are
complete.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from . import selfcheck
from .data import csv_rows, dataset_from_csv, open_csv
from .errors import (CellensError, DegenerateColumn, InvalidConfig,
                     NonFiniteValue, SelftestFailed, ShapeMismatch,
                     WorkerLost, require_booleans, require_integers)
from .metrics import EvalReport, mspe, selection_scores, timed
from .pipeline import fit_ensemble
from .robustfit import model_from_json, model_to_json, predict
from .selection import SelectionConfig
from .simulate import (SCENARIOS, ContaminationSpec, SimConfig,
                       block_covariance, contaminate, generate_clean,
                       make_test_set)
from .rng import split_seed

# named, not __name__, so that ``python -m cellens.experiment`` logs here too
logger = logging.getLogger("cellens.experiment")

CSV_SCHEMA_VERSION = 1
RESULT_COLUMNS = [
    "schema_version", "mode", "scenario", "n", "p", "sparsity", "snr",
    "alpha", "K", "tau", "rep", "seed", "mspe", "recall", "precision",
    "selected_count", "cpu_seconds",
]

MODES = ("fit", "sweep-k", "sweep-contamination", "selftest")


@dataclass
class ExperimentConfig:
    """Resolved run settings (defaults mirror the headline simulation)."""

    mode: str = "fit"
    sim: SimConfig = SimConfig()
    contamination: ContaminationSpec = ContaminationSpec()
    selection: SelectionConfig = SelectionConfig()
    replications: int = 50
    test_size: int = 5000
    output_path: str = "results.csv"
    seed: int = 0
    threads: int = 1
    impute: bool = True
    k_grid: tuple[int, ...] = tuple(range(1, 21))
    scenario_grid: tuple[str, ...] = SCENARIOS
    alpha_grid: tuple[float, ...] = (0.05, 0.1)
    data_csv: Optional[str] = None
    model_out: Optional[str] = None
    predict_spec: Optional[dict] = None

    def validate(self) -> None:
        """Check settings, including every grid cell's ``sim``,
        ``contamination`` and ``selection`` settings, and that a ``predict``
        section is an object whose ``model``, ``X`` and ``out`` are strings,
        as are ``output``, ``data_csv`` and ``model_out``; the grids are
        lists, and ``scenario_grid`` holds strings.
        ``data_csv``, ``model_out`` and ``predict`` belong to the ``fit``
        mode alone, ``data_csv`` and ``predict`` exclude each other, and
        ``model_out`` needs ``data_csv``: a run never ignores a field.

        Where the run simulates its data, a cell's selection settings are
        checked against that cell's ``n`` and ``p`` (``cv_folds`` at most
        ``n``, ``max_vars`` at most ``p``); a ``data_csv`` or ``predict``
        run checks those bounds when it has read its data.
        """
        if self.mode not in MODES:
            raise InvalidConfig(f"mode {self.mode!r} not one of {MODES}")
        for key, value in (("output", self.output_path),
                           ("data_csv", self.data_csv),
                           ("model_out", self.model_out)):
            if not (isinstance(value, str)
                    or value is None and key != "output"):
                raise InvalidConfig(f"{key}={value!r} must be a string")
        for key in ("k_grid", "scenario_grid", "alpha_grid"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise InvalidConfig(f"{key}={value!r} must be a list")
        for i, scen in enumerate(self.scenario_grid):
            if not isinstance(scen, str):
                raise InvalidConfig(
                    f"scenario_grid[{i}]={scen!r} must be a string")
        for key, value in (("data_csv", self.data_csv),
                           ("model_out", self.model_out),
                           ("predict", self.predict_spec)):
            if value is not None and self.mode != "fit":
                raise InvalidConfig(f"{key} is set, but the {self.mode} mode "
                                    f"does not read it")
        if self.data_csv is not None and self.predict_spec is not None:
            raise InvalidConfig("data_csv and predict are both set: a fit run "
                                "either fits a CSV or scores a saved model")
        if self.model_out is not None and self.data_csv is None:
            raise InvalidConfig("model_out is set without data_csv: only a "
                                "CSV fit writes a model")
        require_integers(self, ("replications", "test_size", "threads", "seed"))
        require_booleans(self, ("impute",))
        if self.replications < 1:
            raise InvalidConfig("replications must be >= 1")
        if self.test_size < 1:
            raise InvalidConfig("test_size must be >= 1")
        if self.threads < 1:
            raise InvalidConfig("threads must be >= 1")
        cells = _grid_cells(self)
        if not cells:
            raise InvalidConfig(f"the {self.mode} grid has no cells")
        simulated = _simulates(self)
        for sim, cont, sel in cells:
            sim.validate()
            cont.validate()
            n, p = (sim.n, sim.p) if simulated else (None, None)
            sel.validate(n, p)
        spec = self.predict_spec
        if spec is None:
            return
        if not isinstance(spec, dict):
            raise InvalidConfig(f"predict section is {spec!r}, not an object")
        for key in ("model", "X", "out"):
            if key not in spec:
                raise InvalidConfig(f"predict section missing {key!r}")
            if not isinstance(spec[key], str):
                raise InvalidConfig(f"predict section field {key!r} is "
                                    f"{spec[key]!r}, not a string")


Cell = tuple[SimConfig, ContaminationSpec, SelectionConfig]


def _simulates(cfg: ExperimentConfig) -> bool:
    """Whether ``run_experiment`` runs the simulation grid: every mode but
    ``selftest`` and the ``fit`` runs with a ``data_csv`` or ``predict``."""
    return (cfg.mode != "selftest" and cfg.data_csv is None
            and cfg.predict_spec is None)


def _grid_cells(cfg: ExperimentConfig) -> list[Cell]:
    """The settings of each grid cell: one cell outside the sweep modes."""
    if cfg.mode == "sweep-k":
        return [(cfg.sim, cfg.contamination, replace(cfg.selection, K=k))
                for k in cfg.k_grid]
    if cfg.mode != "sweep-contamination":
        return [(cfg.sim, cfg.contamination, cfg.selection)]
    cells = []
    for scen in cfg.scenario_grid:
        if scen == "Clean":
            cells.append((cfg.sim, ContaminationSpec(scenario="Clean"),
                          cfg.selection))
            continue
        for alpha in cfg.alpha_grid:
            spec = replace(cfg.contamination, scenario=scen, alpha=alpha)
            if scen.startswith("Mixture") and spec.alpha2 <= 0:
                spec = replace(spec, alpha2=0.05)
            cells.append((cfg.sim, spec, cfg.selection))
    return cells


# config sections that map one-to-one onto a nested settings dataclass
SECTIONS = {"sim": SimConfig, "contamination": ContaminationSpec,
            "selection": SelectionConfig}


def _build_config(doc: dict) -> ExperimentConfig:
    """Translate a JSON document into an ExperimentConfig with defaults."""
    known = {f.name for f in fields(ExperimentConfig)}
    alias = {"predict": "predict_spec", "output": "output_path"}
    updates = {}
    for key, value in doc.items():
        key = alias.get(key, key)
        if key in SECTIONS:
            section = SECTIONS[key]
            bad = set(value) - {f.name for f in fields(section)}
            if bad:
                raise InvalidConfig(f"unknown {key} fields: {sorted(bad)}")
            if isinstance(value.get("coef_range"), list):
                value = {**value, "coef_range": tuple(value["coef_range"])}
            updates[key] = replace(section(), **value)
        elif key in known:
            updates[key] = tuple(value) if isinstance(value, list) else value
        else:
            raise InvalidConfig(f"unknown config field {key!r}")
    return replace(ExperimentConfig(), **updates)


def load_config(path: str) -> ExperimentConfig:
    """Parse a JSON config file with line-precise error messages."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{path}: top-level JSON value must be an object")
    return _build_config(doc)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(value)


def run_single(sim: SimConfig, cont: ContaminationSpec, sel: SelectionConfig,
               rep_seed: int, test_size: int, impute: bool) -> EvalReport:
    """One replication: generate, contaminate, fit, evaluate.

    Timing covers imputation, selection, and the final robust fits; data
    generation and evaluation are excluded.
    """
    sim = replace(sim, seed=split_seed(rep_seed, 1))
    clean = generate_clean(sim)
    sigma = block_covariance(sim)
    observed = contaminate(clean, cont, sigma, seed=split_seed(rep_seed, 2))
    sel = replace(sel, seed=split_seed(rep_seed, 3))
    result, seconds = timed(lambda: fit_ensemble(observed.y, observed.X, sel,
                                                 impute=impute))
    test = make_test_set(sim, test_size, clean.truth.beta,
                         clean.truth.noise_sd, seed=split_seed(rep_seed, 4))
    yhat = result.predict(test.X)
    noise_var = clean.truth.noise_sd ** 2
    err = mspe(test.y, yhat, noise_var=noise_var)
    selected = result.selected_union()
    recall, precision = selection_scores(clean.truth.active_set, selected)
    return EvalReport(mspe=err, recall=recall, precision=precision,
                      cpu_seconds=seconds, selected_count=len(selected))


def _row(cfg: ExperimentConfig, sim: SimConfig, cont: ContaminationSpec,
         sel: SelectionConfig, rep: int, seed: int, report: EvalReport) -> list:
    return [
        CSV_SCHEMA_VERSION, cfg.mode, cont.scenario, sim.n, sim.p,
        sim.sparsity, _fmt(float(sim.snr)), _fmt(float(cont.alpha)), sel.K,
        _fmt(float(sel.tau)), rep, seed, _fmt(report.mspe),
        _fmt(report.recall), _fmt(report.precision), report.selected_count,
        _fmt(report.cpu_seconds),
    ]


# the BLAS thread-count variables of the common BLAS builds
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


# the kept pool, as (pid of the process that made it, workers, executor)
_kept: Optional[tuple[int, int, ProcessPoolExecutor]] = None
_kept_lock = threading.Lock()


def _kept_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` spawned workers, made on first use
    and again after a change of size, a broken pool or a fork."""
    global _kept
    with _kept_lock:
        if _kept is not None:
            pid, size, pool = _kept
            # a forked child leaves its copy of the parent's pool alone
            if pid == os.getpid():
                # a pool is marked broken as soon as one of its workers dies
                if size == workers and not pool._broken:
                    return pool
                pool.shutdown()
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
        _kept = (os.getpid(), workers, pool)
        return pool


@contextmanager
def replication_pool(workers: int):
    """Yield a process pool of ``workers`` whose workers run single-thread BLAS.

    The pool already runs one replication per CPU, so each worker runs its
    own work serially (as the cleaning stage does in a ``multiprocessing``
    child). Workers are started by ``spawn``, so they import numpy afresh
    with every variable of ``BLAS_THREAD_VARIABLES`` set to ``"1"``. The
    parent's environment holds these settings for the body of each
    ``with`` (workers start on demand) and is restored exactly afterwards:
    a variable that was unset is unset again. Other threads of the parent
    that read the environment meanwhile see the settings too.

    The pool is kept for the life of the process: a later call with the
    same ``workers`` gets the same pool and its running workers, a call
    with another count shuts it down and makes a new one, and a forked
    child makes its own. Idle workers use no CPU but keep their memory
    until the interpreter exits, which joins them. A worker that dies
    during the body raises :class:`WorkerLost` and shuts the pool down;
    one that dies between calls makes the next call start a fresh pool.
    """
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    try:
        pool = _kept_pool(workers)
        logger.debug("replication pool: %d spawned workers, %s set to 1",
                     workers, ", ".join(BLAS_THREAD_VARIABLES))
        try:
            yield pool
        except BrokenProcessPool as exc:
            pool.shutdown()
            raise WorkerLost(f"replication pool worker ended abruptly: {exc}"
                             ) from exc
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run_grid(cfg: ExperimentConfig, cells: list[Cell]) -> list[list]:
    """Run replications for every grid cell; return their rows in stable order.

    Replications run in job order. With ``threads > 1`` they run in the
    kept :func:`replication_pool` of ``threads`` workers, so grids of any
    size share one pool; it starts workers on demand, so a run starts no
    more workers than it has replications. The first failing replication
    raises, and no row is returned.
    """
    jobs = [(sim, cont, sel, rep, split_seed(split_seed(cfg.seed, cell_idx), rep))
            for cell_idx, (sim, cont, sel) in enumerate(cells)
            for rep in range(cfg.replications)]
    sims, conts, sels, _, seeds = zip(*jobs)
    args = (sims, conts, sels, seeds, repeat(cfg.test_size), repeat(cfg.impute))
    if cfg.threads > 1:
        with replication_pool(cfg.threads) as pool:
            reports = list(pool.map(run_single, *args))
    else:
        reports = list(map(run_single, *args))
    return [_row(cfg, sim, cont, sel, rep, rep_seed, report)
            for (sim, cont, sel, rep, rep_seed), report in zip(jobs, reports)]


def run_experiment(cfg: ExperimentConfig) -> str:
    """Execute the configured mode; returns the results path."""
    cfg.validate()

    if cfg.mode == "selftest":
        if not selfcheck.run_all():
            raise SelftestFailed("selftest failed")
        return cfg.output_path

    if cfg.mode == "fit" and cfg.data_csv is not None:
        path = cfg.model_out or "model.json"
        logger.info("%s", fit_csv(cfg.data_csv, cfg.selection, path))
        return path
    if cfg.mode == "fit" and cfg.predict_spec is not None:
        spec = cfg.predict_spec
        predict_csv(spec["model"], spec["X"], spec["out"])
        return spec["out"]

    out = Path(cfg.output_path)
    with _replacing(out) as fh:
        rows = _run_grid(cfg, _grid_cells(cfg))
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(rows)
    return str(out)


@contextmanager
def _replacing(path: Path):
    """Yield a new text file next to ``path`` that replaces it on success.

    The file is created before the block runs, so a path that cannot be
    written fails before the block's work (the replications, or the fit);
    if the block raises, the file is removed and an earlier file at
    ``path`` is left as it was.

    Raises
    ------
    InvalidConfig
        Naming ``path``, when the file cannot be created or moved there.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "w", newline="")
    except OSError as exc:
        raise InvalidConfig(f"cannot write results to {path} ({exc})") from None
    try:
        with fh:
            yield fh
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise
    try:
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            tmp.unlink()
        raise InvalidConfig(f"cannot write results to {path} ({exc})") from None


def fit_csv(data_path: str, sel: SelectionConfig, model_out: str) -> str:
    """Fit the full pipeline on a ``y,x1..xp`` CSV and save the model JSON.

    Returns a human-readable selection summary; ``run_experiment`` logs it
    at INFO, which the command line prints. The model file is opened
    before the fit and replaces ``model_out`` only once the fit succeeds
    (see :func:`_replacing`).

    Raises
    ------
    InvalidConfig
        Naming ``model_out``, when it cannot be written.
    ShapeMismatch
        On malformed CSV input or fewer than 10 rows.
    DegenerateColumn
        Naming the offending constant column.
    NonFiniteValue
        Naming the first column with a NaN or infinite cell.
    """
    data = dataset_from_csv(data_path)
    if data.n < 10:
        raise ShapeMismatch(f"{data_path}: need at least 10 rows, found {data.n}")
    with _replacing(Path(model_out)) as fh:
        try:
            result = fit_ensemble(data.y, data.X, sel)
        except (DegenerateColumn, NonFiniteValue) as exc:
            name = "y" if exc.column == 0 else f"x{exc.column}"
            raise type(exc)(exc.column, name) from None
        fh.write(model_to_json(result.model))
    lines = [f"fitted {sel.K} sub-models on {data.n}x{data.p} data"]
    for k, subset in enumerate(result.model.sets):
        cols = ", ".join(f"x{j + 1}" for j in subset) if subset else "(empty)"
        lines.append(f"  model {k}: {cols}")
    lines.append(f"trace length: {len(result.selection.trace)} rounds "
                 f"(stop: {result.selection.stop_reason})")
    return "\n".join(lines)


def predict_csv(model_path: str, X_path: str, out_path: str) -> None:
    """Score a saved model on predictor rows, one prediction per row.

    The predictor CSV uses a ``x1..xp`` header (a leading ``y`` column is
    also accepted and ignored). The predictions replace ``out_path`` as
    the results CSV does (see :func:`_replacing`).

    Raises
    ------
    InvalidConfig
        Naming ``out_path``, when it cannot be written.
    ShapeMismatch
        Naming the path of a model or predictor file that cannot be
        opened, or of a predictor file that is empty or has no data rows;
        with explicit expected-vs-found column counts, naming the
        ``path:line`` of a non-numeric field, or naming the model path and
        the field of a malformed model document.
    NonFiniteValue
        Naming the ``path:line`` and the column ``xj`` of the first NaN or
        infinite cell.
    """
    try:
        model = model_from_json(Path(model_path).read_text())
    except OSError as exc:
        raise ShapeMismatch(f"{model_path}: cannot open ({exc.strerror})") from None
    except ShapeMismatch as exc:
        raise ShapeMismatch(f"{model_path}: {exc}") from None
    with open_csv(X_path) as (header, reader):
        skip = 1 if header and header[0] == "y" else 0
        width = len(header) - skip
        if width != model.p:
            raise ShapeMismatch(
                f"{X_path}: expected {model.p} predictor columns, found {width}"
            )
        rows = []
        for lineno, values in csv_rows(X_path, reader, len(header), skip):
            nonfinite = ~np.isfinite(values)
            if nonfinite.any():
                j = int(np.argmax(nonfinite)) + 1
                raise NonFiniteValue(j, f"{X_path}:{lineno}: x{j}")
            rows.append(values)
    X = np.asarray(rows, dtype=float)
    preds = predict(model, X)
    with _replacing(Path(out_path)) as fh:
        writer = csv.writer(fh)
        writer.writerow(["prediction"])
        for v in preds:
            writer.writerow([repr(float(v))])


@contextmanager
def _printed_log():
    """Print the ``cellens`` logger's INFO and higher records to stdout, one
    message per line, while open."""
    log = logging.getLogger("cellens")
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main(argv: Optional[list[str]] = None) -> int:
    """Command line entry: see module docstring for modes and exit codes."""
    parser = argparse.ArgumentParser(
        prog="cellens",
        description="Cellwise-robust ensemble regression experiment runner",
    )
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--mode", choices=MODES, help="run mode")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="results path")
    parser.add_argument("--threads", type=int, help="parallel replications")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.mode:
            cfg = replace(cfg, mode=args.mode)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out:
            cfg = replace(cfg, output_path=args.out)
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)
        cfg.validate()
    except (InvalidConfig, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        with _printed_log():
            path = run_experiment(cfg)
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CellensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SelftestFailed) else 2
    if cfg.mode != "selftest":
        print(f"results written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
