"""Seeded results must not depend on the BLAS thread count.

Each check runs the same seeded work in two subprocesses, one with
``OPENBLAS_NUM_THREADS=1`` and one with 2, and compares their output
bytes: the runner's CSV (without the timing column) on a replicated
study, and digests of simulated data for every contamination scenario.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellens.experiment import RESULT_COLUMNS

ROOT = Path(__file__).resolve().parents[1]

# the runner's criterion-8 study shape: n=50, p=200, MixtureCorrelation
STUDY = {
    "mode": "fit",
    "seed": 7,
    "replications": 8,
    "test_size": 2000,
    "threads": 1,
    "sim": {"n": 50, "p": 200, "sparsity": 20, "snr": 1.0, "block_size": 10},
    "contamination": {"scenario": "MixtureCorrelation", "alpha": 0.1,
                      "alpha2": 0.05},
    "selection": {"K": 10, "tau": 0.01, "cv_folds": 5},
}

# prints one digest of (X, y, masks) per scenario, plus one of a test set
SIMULATE_DIGESTS = """
import hashlib, json
import numpy as np
from cellens import (SCENARIOS, ContaminationSpec, SimConfig,
                     block_covariance, contaminate, generate_clean,
                     make_test_set)

def digest(data):
    h = hashlib.sha256()
    for a in (data.X, data.y, data.truth.mask_X, data.truth.mask_y):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

sim = SimConfig(n=100, p=1000, sparsity=50, snr=1.0, block_size=25, seed=11)
clean = generate_clean(sim)
sigma = block_covariance(sim)
digests = {"test set": digest(make_test_set(
    sim, 500, clean.truth.beta, clean.truth.noise_sd, seed=12))}
for k, scenario in enumerate(SCENARIOS):
    spec = ContaminationSpec(
        scenario=scenario, alpha=0.0 if scenario == "Clean" else 0.1,
        alpha2=0.05 if scenario.startswith("Mixture") else 0.0)
    digests[scenario] = digest(contaminate(clean, spec, sigma, seed=13 + k))
print(json.dumps(digests))
"""


def _run(args, blas_threads, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(runner CSV rows without timing, simulator digests) per thread count."""
    tmp = tmp_path_factory.mktemp("blas")
    config = tmp / "study.json"
    config.write_text(json.dumps(STUDY))
    t_idx = RESULT_COLUMNS.index("cpu_seconds")
    result = {}
    for threads in (1, 2):
        out = tmp / f"study_{threads}.csv"
        _run(["-m", "cellens.experiment", "--config", str(config),
              "--out", str(out)], threads, tmp)
        with open(out, newline="") as fh:
            rows = [r[:t_idx] + r[t_idx + 1:] for r in csv.reader(fh)]
        digests = json.loads(_run(["-c", SIMULATE_DIGESTS], threads, tmp))
        result[threads] = rows, digests
    return result


def test_runner_csv_independent_of_blas_threads(outputs):
    rows_1, _ = outputs[1]
    rows_2, _ = outputs[2]
    assert len(rows_1) == STUDY["replications"] + 1
    assert rows_1 == rows_2


def test_simulated_data_independent_of_blas_threads(outputs):
    _, digests_1 = outputs[1]
    _, digests_2 = outputs[2]
    assert len(digests_1) == 7
    assert digests_1 == digests_2
