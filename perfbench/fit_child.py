"""Fit one pre-generated input and report this process's peak resident memory.

Usage: python3 perfbench/fit_child.py <inputs.npz>

The parent benchmark writes ``y``, ``X`` and the selection settings to the
``.npz`` file. Running the fit in a fresh process keeps the memory of data
generation (the p x p design covariance) out of the peak. Prints one JSON
object: peak resident memory before and after the fit, in MiB, and the selected
sets, which the parent compares with its own fit of the same input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cellens import SelectionConfig, fit_ensemble  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set size of this process image, in MiB.

    Read from VmHWM rather than ``getrusage``: ``ru_maxrss`` of a freshly
    started child still carries the parent's resident size from before
    ``exec``, which would report the benchmark's own memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(path: str) -> None:
    with np.load(path) as data:
        y, X = data["y"], data["X"]
        max_vars = int(data["max_vars"])
        cfg = SelectionConfig(K=int(data["K"]), tau=float(data["tau"]),
                              cv_folds=int(data["cv_folds"]),
                              max_vars=max_vars if max_vars >= 0 else None,
                              seed=int(data["seed"]))
    before = peak_rss_mb()
    result = fit_ensemble(y, X, cfg)
    print(json.dumps({"rss_before_mb": before, "peak_rss_mb": peak_rss_mb(),
                      "sets": result.model.sets}))


if __name__ == "__main__":
    main(sys.argv[1])
