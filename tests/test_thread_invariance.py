"""Seeded results must not depend on the BLAS thread count or the CPUs.

Each check runs the same seeded work in two subprocesses and compares
their output bytes. With ``OPENBLAS_NUM_THREADS=1`` and 2: the runner's
CSV (without the timing column) on a replicated study, digests of
simulated data for every contamination scenario, and a p=1000 fit's
correlation columns, selection and coefficients. With one CPU and with
all of them: the cleaning stage of a ``wide``-shaped input, whose partner
correlations run on every available CPU. And with the runner's
``threads`` at 1 and 2: a study above that stage's work cut, cleaned on
every CPU in the first run and serially in each pool worker in the second.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellens.cellwise import PARTNER_PARALLEL_PRODUCTS
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

# prints the digest of ddc_impute on a wide-shaped (n=100, C=2001) input,
# drawn elementwise, and the partner loop's thread count; with the
# argument "one" the process first pins itself to one of its CPUs
DDC_DIGEST = """
import hashlib, json, os, sys
import numpy as np
from cellens import ddc_impute
from cellens.cellwise import _partner_workers

if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
n, C = 100, 2001
rng = np.random.default_rng(7)
h = rng.standard_normal((n, C // 25 + 1))
Z = (0.4 * rng.standard_normal((n, 1)) + 0.75 * h[:, np.arange(C) // 25]
     + 0.5 * rng.standard_normal((n, C)))
cells = rng.random((n, C)) < 0.1
Z[cells] += rng.choice([-1.0, 1.0], cells.sum()) * rng.uniform(4, 10, cells.sum())
imp = ddc_impute(Z)
digest = hashlib.sha256()
for a in (imp.flags, imp.Z_imp, imp.marginal):
    digest.update(np.ascontiguousarray(a).tobytes())
print(json.dumps({"digest": digest.hexdigest(),
                  "workers": _partner_workers(n, C)}))
"""

# prints digests of a seeded n=100, p=1000 fit, drawn elementwise: every
# predictor correlation column with r_y, the sets, the winner sequence
# and the sub-models' coefficient bytes
FIT_DIGEST = """
import hashlib, json
import numpy as np
from cellens import SelectionConfig, fit_ensemble

n, p = 100, 1000
rng = np.random.default_rng(17)
h = rng.standard_normal((n, p // 25))
X = 0.75 * h[:, np.arange(p) // 25] + 0.5 * rng.standard_normal((n, p))
y = 2.0 * X[:, 3] - 1.5 * X[:, 260] + X[:, 511] + rng.standard_normal(n)
cells = rng.random((n, p)) < 0.05
X[cells] += rng.choice([-1.0, 1.0], cells.sum()) * rng.uniform(4, 10, cells.sum())
fit = fit_ensemble(y, X, SelectionConfig(K=5, tau=0.01, seed=18))
columns = hashlib.sha256(fit.structure.columns(range(p)).tobytes())
columns.update(fit.structure.r_y.tobytes())
coef = hashlib.sha256()
for f in fit.model.fits:
    coef.update(np.r_[f.coefficients, f.intercept, f.scale].tobytes())
print(json.dumps({"columns": columns.hexdigest(), "sets": fit.model.sets,
                  "winners": fit.selection.winner_sequence(),
                  "coefficients": coef.hexdigest()}))
"""

# above the partner loop's work cut: n * (p + 1)**2 = 100 * 420**2
WIDE_STUDY = dict(
    STUDY, replications=2,
    sim={"n": 100, "p": 419, "sparsity": 20, "snr": 1.0, "block_size": 10},
    selection={"K": 3, "tau": 0.01, "cv_folds": 5})


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


def test_fit_independent_of_blas_threads(tmp_path):
    one = json.loads(_run(["-c", FIT_DIGEST], 1, tmp_path))
    two = json.loads(_run(["-c", FIT_DIGEST], 2, tmp_path))
    assert len(one["winners"]) >= 3
    assert one == two


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs a CPU affinity mask")
def test_cleaning_independent_of_cpu_count(tmp_path):
    one = json.loads(_run(["-c", DDC_DIGEST, "one"], 1, tmp_path))
    every = json.loads(_run(["-c", DDC_DIGEST, "all"], 1, tmp_path))
    assert one["workers"] == 1
    assert every["workers"] == len(os.sched_getaffinity(0))
    assert one["digest"] == every["digest"]


def test_runner_csv_independent_of_pool(tmp_path):
    assert 100 * 420**2 >= PARTNER_PARALLEL_PRODUCTS
    t_idx = RESULT_COLUMNS.index("cpu_seconds")
    rows = {}
    for threads in (1, 2):
        config = tmp_path / f"wide_{threads}.json"
        config.write_text(json.dumps(dict(WIDE_STUDY, threads=threads)))
        out = tmp_path / f"wide_{threads}.csv"
        _run(["-m", "cellens.experiment", "--config", str(config),
              "--out", str(out)], 1, tmp_path)
        with open(out, newline="") as fh:
            rows[threads] = [r[:t_idx] + r[t_idx + 1:] for r in csv.reader(fh)]
    assert len(rows[1]) == WIDE_STUDY["replications"] + 1
    assert rows[1] == rows[2]
