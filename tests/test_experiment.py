import csv
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cellens.experiment
import cellens.selfcheck

from cellens import (CellensError, ContaminationSpec, DegenerateColumn,
                     InvalidConfig, NonFiniteValue, ShapeMismatch, SimConfig,
                     dataset_from_csv)
from cellens.data import example_csv_path
from cellens.experiment import (BLAS_THREAD_VARIABLES, RESULT_COLUMNS,
                                ExperimentConfig, fit_csv, load_config, main,
                                predict_csv, replication_pool, run_experiment)
from cellens.selection import SelectionConfig


def small_fit_config(tmp_path, reps=3, seed=42):
    doc = {
        "mode": "fit",
        "seed": seed,
        "replications": reps,
        "test_size": 200,
        "output": str(tmp_path / "results.csv"),
        "sim": {"n": 40, "p": 60, "sparsity": 10, "snr": 1.0, "block_size": 5,
                "seed": 0},
        "contamination": {"scenario": "Clean"},
        "selection": {"K": 3, "tau": 0.01, "cv_folds": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fit_mode_smoke(tmp_path):
    cfg = load_config(str(small_fit_config(tmp_path)))
    out = run_experiment(cfg)
    rows = read_rows(out)
    assert rows[0] == RESULT_COLUMNS
    assert len(rows) == 4  # header + 3 replications
    mspe_idx = RESULT_COLUMNS.index("mspe")
    for row in rows[1:]:
        assert float(row[mspe_idx]) > 0


def test_determinism_excluding_timing(tmp_path):
    cfg_path = small_fit_config(tmp_path)
    cfg = load_config(str(cfg_path))
    out1 = run_experiment(cfg)
    body1 = read_rows(out1)
    out2 = run_experiment(cfg)
    body2 = read_rows(out2)
    t_idx = RESULT_COLUMNS.index("cpu_seconds")
    stripped1 = [row[:t_idx] + row[t_idx + 1:] for row in body1]
    stripped2 = [row[:t_idx] + row[t_idx + 1:] for row in body2]
    assert stripped1 == stripped2


def test_sweep_k_rows(tmp_path):
    doc = {
        "mode": "sweep-k",
        "seed": 7,
        "replications": 2,
        "test_size": 100,
        "k_grid": [1, 3],
        "output": str(tmp_path / "sweep.csv"),
        "sim": {"n": 30, "p": 20, "sparsity": 5, "block_size": 5, "seed": 0},
        "contamination": {"scenario": "Clean"},
        "selection": {"K": 10, "cv_folds": 5},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    out = run_experiment(load_config(str(p)))
    rows = read_rows(out)
    k_idx = RESULT_COLUMNS.index("K")
    ks = [row[k_idx] for row in rows[1:]]
    assert ks == ["1", "1", "3", "3"]


@pytest.mark.parametrize("doc, message", [
    ({"mode": "benchmark"}, "mode 'benchmark' not one of"),
    ({"n_grid": [30]}, "unknown config field 'n_grid'"),
    ({"p_grid": [20, 40]}, "unknown config field 'p_grid'"),
    ({"benchmark_reps": 2}, "unknown config field 'benchmark_reps'"),
])
def test_benchmark_mode_and_fields_rejected(tmp_path, capsys, doc, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["--config", str(p)]) == 1
    assert message in capsys.readouterr().err


def test_validate_checks_sim_and_contamination():
    with pytest.raises(InvalidConfig, match="n=0"):
        ExperimentConfig(sim=replace(SimConfig(), n=0)).validate()
    with pytest.raises(InvalidConfig, match="unknown scenario"):
        ExperimentConfig(
            contamination=ContaminationSpec(scenario="Bogus")).validate()


def test_validate_checks_data_bounds_only_on_simulated_data():
    sim = SimConfig(n=30, p=20, sparsity=5, block_size=5)
    cfg = ExperimentConfig(sim=sim, selection=SelectionConfig(cv_folds=31))
    with pytest.raises(InvalidConfig, match="cv_folds=31 exceeds n=30"):
        cfg.validate()
    # a CSV run's n and p come from its data, not from ``sim``
    replace(cfg, data_csv="data.csv").validate()
    replace(cfg, predict_spec={"model": "m.json", "X": "x.csv",
                               "out": "p.csv"}).validate()
    replace(cfg, mode="selftest").validate()


def test_config_unknown_field(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"mode": "fit", "bogus": 1}))
    from cellens import InvalidConfig

    with pytest.raises(InvalidConfig):
        load_config(str(p))


def test_config_syntax_error_is_line_precise(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n "mode": "fit",\n}')
    from cellens import InvalidConfig

    with pytest.raises(InvalidConfig, match=r":3:"):
        load_config(str(p))


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["--config", str(bad)]) == 1
    cfg = small_fit_config(tmp_path, reps=1)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


def test_fit_csv_bundled_fixture(tmp_path, capsys):
    model_out = tmp_path / "model.json"
    summary = fit_csv(example_csv_path(),
                      SelectionConfig(K=3, tau=0.01, cv_folds=5, seed=1),
                      str(model_out))
    doc = json.loads(model_out.read_text())
    assert doc["schema_version"] == 1
    sets = [set(s) for s in doc["sets"]]
    seen = set()
    for s in sets:
        assert not (s & seen)
        seen.update(s)
    assert seen  # something was selected
    assert "model 0" in summary and "trace length" in summary
    # the library prints nothing; the command line prints the summary
    assert capsys.readouterr().out == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "fit", "data_csv": example_csv_path(),
                               "model_out": str(model_out),
                               "selection": {"K": 3, "tau": 0.01,
                                             "cv_folds": 5, "seed": 1}}))
    assert main(["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        f"{summary}\nresults written to {model_out}\n")


def test_replication_pool_workers_run_single_thread_blas(monkeypatch, caplog):
    # one variable preset to another value, the other two absent
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    caplog.set_level(logging.DEBUG, logger="cellens")
    with replication_pool(2) as pool:
        seen = list(pool.map(os.getenv, BLAS_THREAD_VARIABLES))
    assert seen == ["1"] * 3
    assert dict(os.environ) == before
    assert "2 spawned workers" in caplog.text
    with pytest.raises(RuntimeError, match="body failed"):
        with replication_pool(1):
            raise RuntimeError("body failed")
    assert dict(os.environ) == before


def _live_workers() -> set[int]:
    """Pids of this process's running ``multiprocessing`` children."""
    return {p.pid for p in multiprocessing.active_children()}


def _wait_gone(pid: int) -> None:
    """Wait until process ``pid`` has ended and been reaped."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} still exists")


def test_replication_pool_is_kept_after_a_raising_task():
    with replication_pool(2) as pool:
        with pytest.raises(ValueError):
            list(pool.map(int, ["1", "x"]))
        workers = _live_workers()
    with replication_pool(2) as pool:
        assert pool.submit(os.getpid).result() in workers
    assert _live_workers() == workers


class _KillWorker:
    """Stands in for ``run_single``: the pool worker that unpickles it is
    killed by SIGKILL, as by the kernel's out-of-memory killer."""

    def __reduce__(self):
        return signal.raise_signal, (signal.SIGKILL,)


def test_worker_killed_during_run_exits_2(tmp_path, capsys, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_grid_doc(tmp_path, replications=2, threads=2)))
    monkeypatch.setattr(cellens.experiment, "run_single", _KillWorker())
    assert main(["--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: replication pool worker ended abruptly")
    assert err.count("\n") == 1
    assert not (tmp_path / "grid.csv").exists()
    # the broken pool was dropped: the next run gets working workers
    monkeypatch.undo()
    assert main(["--config", str(p)]) == 0


def test_worker_dead_between_calls_gets_a_fresh_pool():
    with replication_pool(2) as pool:
        victim = pool.submit(os.getpid).result()
    os.kill(victim, signal.SIGKILL)
    _wait_gone(victim)
    with replication_pool(2) as pool:
        assert pool.submit(os.getpid).result() != victim


# two 2-thread runs, then one serial run, of the same config; after each
# 2-thread run, the pid that answers through replication_pool(2) and the
# process's live multiprocessing children
REUSE_SCRIPT = """
import json, multiprocessing, os, sys
from dataclasses import replace
from cellens.experiment import load_config, replication_pool, run_experiment

cfg = load_config(sys.argv[1])
seen = []
for i, threads in enumerate((2, 2, 1)):
    run_experiment(replace(cfg, threads=threads, output_path=f"run{i}.csv"))
    if threads > 1:
        with replication_pool(2) as pool:
            answer = pool.submit(os.getpid).result()
        live = sorted(p.pid for p in multiprocessing.active_children())
        seen.append([answer, live])
print(json.dumps(seen))
"""


def test_runs_reuse_the_pool_and_leave_no_worker(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_grid_doc(tmp_path, replications=3)))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", REUSE_SCRIPT, str(p)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr
    (answer_1, live_1), (answer_2, live_2) = json.loads(proc.stdout)
    assert len(live_1) == 2 and live_1 == live_2
    assert {answer_1, answer_2} <= set(live_1)
    t_idx = RESULT_COLUMNS.index("cpu_seconds")
    rows = [[r[:t_idx] + r[t_idx + 1:] for r in read_rows(tmp_path / f"run{i}.csv")]
            for i in range(3)]
    assert len(rows[2]) == 4 and rows[0] == rows[1] == rows[2]
    for pid in live_1:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_fit_csv_single_predictor(tmp_path, capsys):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(30)
    y = 2 * x + 0.1 * rng.standard_normal(30)
    path = tmp_path / "single.csv"
    with open(path, "w") as fh:
        fh.write("y,x1\n")
        for yi, xi in zip(y, x):
            fh.write(f"{float(yi)!r},{float(xi)!r}\n")
    model_out = tmp_path / "m.json"
    fit_csv(str(path), SelectionConfig(K=3, tau=0.01, cv_folds=5, seed=2),
            str(model_out))
    doc = json.loads(model_out.read_text())
    nonempty = [s for s in doc["sets"] if s]
    assert len(nonempty) <= 1


def test_fit_csv_constant_column_named(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "const.csv"
    with open(path, "w") as fh:
        fh.write("y,x1,x2\n")
        for _ in range(20):
            fh.write(f"{float(rng.standard_normal())!r},"
                     f"{float(rng.standard_normal())!r},7.0\n")
    with pytest.raises(DegenerateColumn, match="x2"):
        fit_csv(str(path), SelectionConfig(K=2, cv_folds=5, seed=3),
                str(tmp_path / "m.json"))


def test_fit_csv_too_few_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    with open(path, "w") as fh:
        fh.write("y,x1\n1.0,2.0\n")
    with pytest.raises(ShapeMismatch, match="10 rows"):
        fit_csv(str(path), SelectionConfig(), str(tmp_path / "m.json"))


def test_predict_csv_roundtrip(tmp_path, capsys):
    model_out = tmp_path / "model.json"
    fit_csv(example_csv_path(), SelectionConfig(K=3, tau=0.01, cv_folds=5,
                                                seed=1), str(model_out))
    preds_out = tmp_path / "preds.csv"
    predict_csv(str(model_out), example_csv_path(), str(preds_out))
    rows = read_rows(preds_out)
    assert rows[0] == ["prediction"]
    data = dataset_from_csv(example_csv_path())
    assert len(rows) - 1 == data.n
    # in-sample predictions beat the null model
    preds = np.array([float(r[0]) for r in rows[1:]])
    null_mse = float(np.mean((data.y - data.y.mean()) ** 2))
    fit_mse = float(np.mean((data.y - preds) ** 2))
    assert fit_mse < null_mse


def test_predict_csv_single_row(tmp_path, capsys):
    model_out = tmp_path / "model.json"
    fit_csv(example_csv_path(), SelectionConfig(K=2, tau=0.01, cv_folds=5,
                                                seed=4), str(model_out))
    xpath = tmp_path / "one.csv"
    header = ",".join(f"x{j}" for j in range(1, 21))
    xpath.write_text(header + "\n" + ",".join(["0.0"] * 20) + "\n")
    out = tmp_path / "o.csv"
    predict_csv(str(model_out), str(xpath), str(out))
    assert len(read_rows(out)) == 2


def test_predict_csv_wrong_width(tmp_path, capsys):
    model_out = tmp_path / "model.json"
    fit_csv(example_csv_path(), SelectionConfig(K=2, tau=0.01, cv_folds=5,
                                                seed=4), str(model_out))
    xpath = tmp_path / "bad.csv"
    xpath.write_text("x1,x2\n1.0,2.0\n")
    with pytest.raises(ShapeMismatch, match="expected 20 .* found 2"):
        predict_csv(str(model_out), str(xpath), str(tmp_path / "o.csv"))


def test_default_config_matches_headline():
    cfg = ExperimentConfig()
    assert cfg.sim.n == 50 and cfg.sim.p == 500
    assert cfg.sim.snr == 1.0
    assert cfg.selection.K == 10


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch, capsys):
    # a valid config whose second of three replications fails at run time:
    # exit 2, and an earlier results file at the path is left as it was
    out = tmp_path / "results.csv"
    earlier = b"schema_version,mode\r\n1,fit\r\n"
    out.write_bytes(earlier)
    calls = []
    real = cellens.experiment.run_single

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise CellensError("replication failed")
        return real(*args)

    monkeypatch.setattr(cellens.experiment, "run_single", fail_second)
    cfg = small_fit_config(tmp_path, reps=3)
    assert main(["--config", str(cfg), "--threads", "1"]) == 2
    assert capsys.readouterr().err == "error: replication failed\n"
    assert len(calls) == 2
    assert out.read_bytes() == earlier
    assert sorted(os.listdir(tmp_path)) == ["config.json", "results.csv"]


@pytest.mark.parametrize("out_name", ["a_file/x.csv", "a_dir"])
def test_unwritable_results_path_exits_1_before_any_replication(
        tmp_path, monkeypatch, capsys, out_name):
    (tmp_path / "a_file").write_text("not a directory\n")
    (tmp_path / "a_dir").mkdir()
    calls = []
    real = cellens.experiment.run_single

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cellens.experiment, "run_single", counting)
    cfg = small_fit_config(tmp_path, reps=2)
    out = tmp_path / out_name
    assert main(["--config", str(cfg), "--out", str(out), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write results to {out} (")
    assert err.count("\n") == 1
    # a path that cannot be created fails before any replication; one that
    # cannot be replaced (a directory) after them
    assert len(calls) == (0 if out_name == "a_file/x.csv" else 2)
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file", "config.json"]
    assert os.listdir(tmp_path / "a_dir") == []
    # a writable path gets the rows and no leftover file
    assert main(["--config", str(cfg), "--threads", "1"]) == 0
    assert len(read_rows(tmp_path / "results.csv")) == 3
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file", "config.json",
                                            "results.csv"]


@pytest.mark.parametrize("case", ["model_out", "predict out"])
def test_unwritable_model_or_prediction_path_exits_1(tmp_path, monkeypatch,
                                                     capsys, case):
    model = tmp_path / "model.json"
    fit_csv(example_csv_path(), SelectionConfig(K=2, tau=0.01, cv_folds=5,
                                                seed=4), str(model))
    (tmp_path / "a_file").write_text("not a directory\n")
    calls = []
    real = cellens.experiment.fit_ensemble

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cellens.experiment, "fit_ensemble", counting)
    out = tmp_path / "a_file" / "out"
    doc = ({"mode": "fit", "data_csv": example_csv_path(),
            "model_out": str(out)} if case == "model_out" else
           {"mode": "fit", "predict": {"model": str(model),
                                       "X": example_csv_path(),
                                       "out": str(out)}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write results to {out} (")
    assert err.count("\n") == 1
    # the model file is opened before the fit, and nothing is left behind
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == before
    assert (tmp_path / "a_file").read_text() == "not a directory\n"


def test_cli_threads_validation(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mode": "fit", "threads": 0}))
    assert main(["--config", str(p)]) == 1
    # the same value as a flag is validated too, not ignored
    cfg = small_fit_config(tmp_path, reps=1)
    assert main(["--config", str(cfg), "--threads", "0"]) == 1


def test_predict_csv_non_numeric_cell(tmp_path, capsys):
    model_out = tmp_path / "model.json"
    fit_csv(example_csv_path(), SelectionConfig(K=2, tau=0.01, cv_folds=5,
                                                seed=4), str(model_out))
    xpath = tmp_path / "bad.csv"
    header = ",".join(f"x{j}" for j in range(1, 21))
    row = ["0.0"] * 20
    xpath.write_text(header + "\n" + ",".join(row) + "\n"
                     + ",".join(row[:4] + ["abc"] + row[5:]) + "\n")
    out = tmp_path / "o.csv"
    with pytest.raises(ShapeMismatch, match=r"bad\.csv:3: non-numeric"):
        predict_csv(str(model_out), str(xpath), str(out))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "fit", "predict": {
        "model": str(model_out), "X": str(xpath), "out": str(out)}}))
    assert main(["--config", str(cfg)]) == 2
    assert "bad.csv:3" in capsys.readouterr().err


def test_fit_csv_nonfinite_column_named(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "nan.csv"
    with open(path, "w") as fh:
        fh.write("y,x1,x2,x3\n")
        for i in range(20):
            x3 = "nan" if i == 11 else repr(float(rng.standard_normal()))
            fh.write(f"{float(rng.standard_normal())!r},"
                     f"{float(rng.standard_normal())!r},"
                     f"{float(rng.standard_normal())!r},{x3}\n")
    with pytest.raises(NonFiniteValue, match="x3") as info:
        fit_csv(str(path), SelectionConfig(K=2, cv_folds=5, seed=3),
                str(tmp_path / "m.json"))
    assert info.value.column == 3


def test_config_sections_take_dataclass_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"sim": {"n": 30, "coef_range": [1.0, 2.0]},
                             "selection": {"K": 4}}))
    cfg = load_config(str(p))
    assert cfg.sim == replace(SimConfig(), n=30, coef_range=(1.0, 2.0))
    assert cfg.contamination == ContaminationSpec()
    assert cfg.selection == replace(SelectionConfig(), K=4)
    p.write_text("{}")
    assert load_config(str(p)) == ExperimentConfig()


@pytest.mark.parametrize("section", ["sim", "contamination", "selection"])
def test_config_unknown_section_field(tmp_path, section):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({section: {"bogus": 1}}))
    with pytest.raises(InvalidConfig,
                       match=rf"unknown {section} fields: \['bogus'\]"):
        load_config(str(p))


def test_predict_csv_nonfinite_cell(tmp_path, capsys):
    model_out = tmp_path / "model.json"
    fit_csv(example_csv_path(), SelectionConfig(K=2, tau=0.01, cv_folds=5,
                                                seed=4), str(model_out))
    header = ",".join(f"x{j}" for j in range(1, 21))
    row = ["0.0"] * 20
    out = tmp_path / "o.csv"
    for bad_value, column in (("nan", 7), ("inf", 1), ("-inf", 20)):
        xpath = tmp_path / "bad.csv"
        bad = list(row)
        bad[column - 1] = bad_value
        xpath.write_text(header + "\n" + ",".join(row) + "\n"
                         + ",".join(bad) + "\n")
        with pytest.raises(NonFiniteValue, match=rf"bad\.csv:3: x{column} ") as info:
            predict_csv(str(model_out), str(xpath), str(out))
        assert info.value.column == column
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "fit", "predict": {
            "model": str(model_out), "X": str(xpath), "out": str(out)}}))
        assert main(["--config", str(cfg)]) == 2
        assert f"bad.csv:3: x{column} " in capsys.readouterr().err
    assert not out.exists()


def test_predict_csv_malformed_model(tmp_path, capsys):
    model_out = tmp_path / "model.json"
    fit_csv(example_csv_path(), SelectionConfig(K=2, tau=0.01, cv_folds=5,
                                                seed=4), str(model_out))
    good = json.loads(model_out.read_text())
    assert all(good["sets"])
    out = tmp_path / "o.csv"
    bad_model = tmp_path / "bad_model.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "fit", "predict": {
        "model": str(bad_model), "X": example_csv_path(), "out": str(out)}}))
    truncated = dict(good, scales=good["scales"][:1])
    long_coef = dict(good, coefficients=[good["coefficients"][0] + [1.0],
                                         good["coefficients"][1]])
    big_index = dict(good, sets=[good["sets"][0],
                                 [good["p"]] + good["sets"][1][1:]])
    missing = {k: v for k, v in good.items() if k != "iterations"}
    cases = [
        (json.dumps(truncated),
         "model field 'scales' has 1 entries for 2 sets"),
        (json.dumps(long_coef), "model field 'coefficients'[0]"),
        (json.dumps(big_index),
         f"model field 'sets'[1] holds index {good['p']}"),
        (json.dumps(missing), "model field 'iterations' is missing"),
        (model_out.read_text()[:-5], "model is not valid JSON"),
    ]
    for text, message in cases:
        bad_model.write_text(text)
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            predict_csv(str(bad_model), example_csv_path(), str(out))
        assert main(["--config", str(cfg)]) == 2
        assert f"{bad_model}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 3)])
def test_cli_selftest_exit_code(monkeypatch, capsys, passed, code):
    calls = []

    def fake_run_all(verbose=True):
        calls.append(verbose)
        return passed

    monkeypatch.setattr(cellens.selfcheck, "run_all", fake_run_all)
    assert main(["--mode", "selftest"]) == code
    assert len(calls) == 1
    err = capsys.readouterr().err
    assert ("selftest failed" in err) == (not passed)


def test_cli_selftest_prints_the_logged_report(monkeypatch, capsys):
    def fake_run_all():
        logging.getLogger("cellens.selfcheck").info("selfcheck fake: PASS")
        return True

    log = logging.getLogger("cellens")
    handlers, level = list(log.handlers), log.level
    monkeypatch.setattr(cellens.selfcheck, "run_all", fake_run_all)
    assert main(["--mode", "selftest"]) == 0
    assert capsys.readouterr().out == "selfcheck fake: PASS\n"
    # the command's handler and level are gone once it returns
    assert log.handlers == handlers and log.level == level


@pytest.mark.parametrize("predict", [{"model": "m.json", "X": "x.csv"},
                                     "model X out",
                                     {"model": "m.json", "X": 3, "out": "o"}])
def test_malformed_predict_section_is_a_config_error(tmp_path, monkeypatch,
                                                     capsys, predict):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"mode": "fit",
                                                   "predict": predict}))
    assert main(["--config", "cfg.json"]) == 1
    assert "config error: predict section" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


PREDICT = {"model": "m.json", "X": "x.csv", "out": "p.csv"}


@pytest.mark.parametrize("doc, message", [
    ({"mode": "sweep-k", "data_csv": example_csv_path()},
     "data_csv is set, but the sweep-k mode does not read it"),
    ({"mode": "sweep-contamination", "model_out": "m.json"},
     "model_out is set, but the sweep-contamination mode does not read it"),
    ({"mode": "selftest", "predict": PREDICT},
     "predict is set, but the selftest mode does not read it"),
    ({"mode": "fit", "data_csv": example_csv_path(), "model_out": "m.json",
      "predict": PREDICT}, "data_csv and predict are both set"),
    ({"mode": "fit", "model_out": "m.json"},
     "model_out is set without data_csv"),
])
def test_config_field_the_run_would_ignore_exits_1(tmp_path, monkeypatch,
                                                   capsys, doc, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert main(["--config", "cfg.json"]) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("case", ["model", "X", "empty X", "header-only X",
                                  "data_csv"])
def test_missing_or_empty_input_path_exits_2(tmp_path, capsys, case):
    model_out = tmp_path / "model.json"
    fit_csv(example_csv_path(), SelectionConfig(K=2, tau=0.01, cv_folds=5,
                                                seed=4), str(model_out))
    capsys.readouterr()
    missing = tmp_path / "missing.csv"
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header_only = tmp_path / "header.csv"
    header_only.write_text(",".join(f"x{j}" for j in range(1, 21)) + "\n")
    out = tmp_path / "o.csv"
    predict_spec, message = {  # predict section (None: data_csv), error text
        "model": ({"model": str(tmp_path / "nope.json"),
                   "X": example_csv_path()},
                  f"{tmp_path / 'nope.json'}: cannot open"),
        "X": ({"model": str(model_out), "X": str(missing)},
              f"{missing}: cannot open"),
        "empty X": ({"model": str(model_out), "X": str(empty)},
                    f"{empty}: empty file"),
        "header-only X": ({"model": str(model_out), "X": str(header_only)},
                          f"{header_only}: no data rows"),
        "data_csv": (None, f"{missing}: cannot open"),
    }[case]
    if predict_spec is None:
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            dataset_from_csv(str(missing))
        doc = {"mode": "fit", "data_csv": str(missing),
               "model_out": str(tmp_path / "m.json")}
    else:
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            predict_csv(predict_spec["model"], predict_spec["X"], str(out))
        doc = {"mode": "fit", "predict": dict(predict_spec, out=str(out))}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "m.json").exists()


def _grid_doc(tmp_path, **updates):
    doc = {"replications": 1, "test_size": 50, "seed": 3,
           "output": str(tmp_path / "grid.csv"),
           "sim": {"n": 30, "p": 20, "sparsity": 5, "block_size": 5},
           "selection": {"K": 2, "cv_folds": 5}}
    doc.update(updates)
    return doc


@pytest.mark.parametrize("updates, message", [
    ({"selection": {"K": 0}}, "K=0 must be >= 1"),
    ({"selection": {"tau": 0.0}}, "tau=0.0 must be positive"),
    ({"selection": {"cv_folds": 1}}, "cv_folds=1 must be >= 2"),
    ({"selection": {"max_vars": -1}}, "max_vars=-1 must be >= 0"),
    ({"mode": "sweep-k", "k_grid": [2, 0]}, "K=0 must be >= 1"),
    ({"mode": "sweep-k", "k_grid": []}, "the sweep-k grid has no cells"),
    ({"mode": "sweep-contamination", "scenario_grid": ["Clean", "Bogus"]},
     "unknown scenario 'Bogus'"),
    ({"mode": "sweep-contamination", "alpha_grid": [0.1, 1.5]},
     "alpha and alpha2 must lie in [0, 1)"),
    # bounds set by each cell's simulated n=30 and p=20
    ({"selection": {"cv_folds": 31}}, "cv_folds=31 exceeds n=30"),
    ({"selection": {"max_vars": 21}}, "max_vars=21 exceeds p=20"),
    ({"mode": "sweep-k", "selection": {"cv_folds": 31}},
     "cv_folds=31 exceeds n=30"),
])
def test_grid_config_error_exits_1_without_csv(tmp_path, capsys, updates,
                                               message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_grid_doc(tmp_path, **updates)))
    assert main(["--config", str(p)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("updates, message", [
    ({"contamination": {"scenario": "Casewise", "alpha": "0.1"}},
     "alpha='0.1' must be a number"),
    ({"sim": {"snr": "2"}}, "snr='2' must be a number"),
    ({"selection": {"tau": "0.01"}}, "tau='0.01' must be a number"),
    ({"sim": {"rho_within": "0.8"}}, "rho_within='0.8' must be a number"),
    ({"sim": {"rho_background": True}},
     "rho_background=True must be a number"),
    ({"sim": {"coef_range": ["1", 5.0]}}, "coef_range[0]='1' must be a number"),
    ({"sim": {"coef_range": [1.0, False]}},
     "coef_range[1]=False must be a number"),
    ({"contamination": {"scenario": "MixtureCorrelation", "alpha": 0.1,
                        "alpha2": "0.05"}}, "alpha2='0.05' must be a number"),
    ({"sim": {"snr": [2]}}, "snr=[2] must be a number"),
    ({"sim": {"rho_within": [0.8, 0.9]}},
     "rho_within=[0.8, 0.9] must be a number"),
    ({"contamination": {"scenario": "Casewise", "alpha": [0.1]}},
     "alpha=[0.1] must be a number"),
    ({"selection": {"tau": [0.01]}}, "tau=[0.01] must be a number"),
    ({"sim": {"coef_range": 3}}, "coef_range=3 must be a list of numbers"),
    ({"sim": {"coef_range": "15"}},
     "coef_range='15' must be a list of numbers"),
])
def test_non_number_setting_exits_1_naming_the_field(tmp_path, capsys,
                                                     updates, message):
    # a string or boolean where a number belongs is named, not compared
    doc = _grid_doc(tmp_path)
    for key, value in updates.items():
        doc[key] = {**doc.get(key, {}), **value}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["--config", str(p)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("updates, message", [
    ({"replications": 1.5}, "replications=1.5 must be an integer"),
    ({"test_size": 50.0}, "test_size=50.0 must be an integer"),
    ({"threads": True}, "threads=True must be an integer"),
    ({"seed": 3.5}, "seed=3.5 must be an integer"),
    ({"sim": {"n": 30.0}}, "n=30.0 must be an integer"),
    ({"sim": {"p": 20.0}}, "p=20.0 must be an integer"),
    ({"sim": {"sparsity": 5.0}}, "sparsity=5.0 must be an integer"),
    ({"sim": {"sparsity": 5, "block_size": 5.0}},
     "block_size=5.0 must be an integer"),
    ({"sim": {"seed": False}}, "seed=False must be an integer"),
    ({"sim": {"snr": float("nan")}}, "snr=nan must be positive"),
    ({"sim": {"coef_range": [float("nan"), 5.0]}}, "coef_range=(nan, 5.0)"),
    ({"selection": {"K": 2.0}}, "K=2.0 must be an integer"),
    ({"selection": {"intercept": "false"}},
     "intercept='false' must be a boolean"),
    ({"selection": {"intercept": 0}}, "intercept=0 must be a boolean"),
    ({"impute": "no"}, "impute='no' must be a boolean"),
    ({"impute": None}, "impute=None must be a boolean"),
    ({"contamination": {"scenario": "MixtureCorrelation", "alpha": 0.1,
                        "alpha2": 0.05, "marginal_shift": float("inf")}},
     "marginal_shift=inf must be a finite number"),
    ({"contamination": {"scenario": "Casewise", "alpha": 0.1,
                        "leverage_c": float("nan")}},
     "leverage_c=nan must be a finite number"),
    ({"output": 5}, "output=5 must be a string"),
    ({"data_csv": 3}, "data_csv=3 must be a string"),
    ({"data_csv": "x.csv", "model_out": 7}, "model_out=7 must be a string"),
    ({"mode": "sweep-k", "k_grid": 3}, "k_grid=3 must be a list"),
    ({"mode": "sweep-contamination", "scenario_grid": "Clean"},
     "scenario_grid='Clean' must be a list"),
    ({"mode": "sweep-contamination", "scenario_grid": ["Clean", 3]},
     "scenario_grid[1]=3 must be a string"),
    ({"mode": "sweep-contamination", "alpha_grid": 0.1},
     "alpha_grid=0.1 must be a list"),
])
def test_non_integer_count_or_nan_exits_1_without_csv(tmp_path, capsys,
                                                      updates, message):
    doc = _grid_doc(tmp_path)
    for key, value in updates.items():
        doc[key] = ({**doc.get(key, {}), **value} if isinstance(value, dict)
                    else value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["--config", str(p)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()
