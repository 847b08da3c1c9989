"""Config-driven experiments: replicated runs, sweeps, CSV fits.

Everything the command line does is available programmatically. A JSON
config fixes the simulation, corruption, and selection settings; results
land in a versioned CSV that is byte-reproducible for a fixed seed
(timing column aside). The same runner fits user CSVs and scores saved
models. Equivalent shell commands are shown in the comments.
"""

import csv
import json
import tempfile
from pathlib import Path

from cellens.data import example_csv_path
from cellens.experiment import load_config, run_experiment, fit_csv, predict_csv
from cellens.selection import SelectionConfig

tmp = tempfile.TemporaryDirectory(prefix="cellens_demo_")
workdir = Path(tmp.name)

# ---------------------------------------------------------------------------
# 1. replicated simulation runs
#    CLI: cellens --config fit.json --mode fit --seed 5 --out results.csv
# ---------------------------------------------------------------------------
fit_cfg = {
    "mode": "fit",
    "seed": 5,
    "replications": 4,
    "test_size": 500,
    "output": str(workdir / "results.csv"),
    "sim": {"n": 40, "p": 80, "sparsity": 10, "snr": 1.0, "block_size": 5},
    "contamination": {"scenario": "CellwiseMarginal", "alpha": 0.05},
    "selection": {"K": 5, "tau": 0.01, "cv_folds": 5},
}
cfg_path = workdir / "fit.json"
cfg_path.write_text(json.dumps(fit_cfg, indent=2))
out = run_experiment(load_config(str(cfg_path)))
with open(out, newline="") as fh:
    rows = list(csv.reader(fh))
print(f"fit mode: {len(rows) - 1} replication rows in {out}")
header = rows[0]
for row in rows[1:3]:
    summary = {k: row[header.index(k)] for k in ("rep", "mspe", "recall",
                                                 "selected_count")}
    print(f"  {summary}")

# ---------------------------------------------------------------------------
# 2. ensemble-size sweep (one row per (K, replication))
#    CLI: cellens --config sweep.json --mode sweep-k --out sweep.csv
# ---------------------------------------------------------------------------
sweep_cfg = dict(fit_cfg, mode="sweep-k", k_grid=[1, 5, 10],
                 replications=2, output=str(workdir / "sweep.csv"))
(workdir / "sweep.json").write_text(json.dumps(sweep_cfg))
out = run_experiment(load_config(str(workdir / "sweep.json")))
print(f"\nsweep-k mode: wrote {out}")

# ---------------------------------------------------------------------------
# 3. fitting a user CSV and scoring a saved model
#    CLI: cellens --config fitcsv.json --mode fit
#    with {"data_csv": ..., "model_out": ...} in the config
# ---------------------------------------------------------------------------
model_path = workdir / "model.json"
print(f"\nfitting the bundled example dataset ({example_csv_path()}):")
fit_csv(example_csv_path(), SelectionConfig(K=3, tau=0.01, cv_folds=5, seed=1),
        str(model_path))
preds_path = workdir / "predictions.csv"
predict_csv(str(model_path), example_csv_path(), str(preds_path))
n_preds = sum(1 for _ in open(preds_path)) - 1
print(f"wrote {n_preds} predictions to {preds_path}")

# ---------------------------------------------------------------------------
# 4. the built-in property checks
#    CLI: cellens --mode selftest   (exit code 3 on failure)
# ---------------------------------------------------------------------------
print("\nselftest runs the invariance, path-equivalence and S-scale suites;")
print("see `cellens --mode selftest` or cellens.selfcheck.run_all()")
tmp.cleanup()
