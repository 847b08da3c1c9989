"""Dataset containers and CSV import/export.

A :class:`Dataset` bundles the response, the predictor matrix, and (for
simulated data) the ground truth needed to score selection: the true
coefficients, the active set, the contamination masks, and the noise
scale. The CSV layout is a header row ``y,x1,...,xp`` followed by one
row per observation; masks use the same layout with 0/1 entries.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch


def real_array(a) -> np.ndarray:
    """``a`` as a float array. Complex input, whose imaginary parts a cast
    would drop, raises :class:`ShapeMismatch` naming its dtype."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ShapeMismatch(f"expected real values, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def regression_arrays(y, X) -> tuple[np.ndarray, np.ndarray]:
    """``(y, X)`` as float arrays: a vector and a matrix with the same
    nonzero number of rows. A one-column ``y`` counts as a vector and a
    vector ``X`` as one predictor; anything else, or complex input, raises
    :class:`ShapeMismatch`."""
    y = real_array(y)
    X = real_array(X)
    if y.ndim == 2 and y.shape[1] == 1:
        y = y[:, 0]
    if X.ndim == 1:
        X = X[:, None]
    if y.ndim != 1 or X.ndim != 2:
        raise ShapeMismatch(f"y must be a vector and X a matrix, got shapes "
                            f"{y.shape} and {X.shape}")
    if X.shape[0] != len(y):
        raise ShapeMismatch(f"y has length {len(y)}, X has {X.shape[0]} rows")
    if not len(y):
        raise ShapeMismatch("y and X have no rows")
    return y, X


def require_matrix(Z: np.ndarray) -> None:
    """Raise :class:`ShapeMismatch` naming the shape of ``Z`` unless it is
    a matrix with at least one row and one column."""
    if Z.ndim != 2 or not Z.size:
        raise ShapeMismatch(
            f"Z must be a nonempty matrix, got shape {Z.shape}")


def require_finite(y: np.ndarray, X: np.ndarray, columns=None) -> None:
    """Raise :class:`NonFiniteValue` naming the first column of ``[y, X]``
    (0 is ``y``, ``j`` is ``x_j``) that holds a NaN or infinite cell,
    checking ``y`` and either every column of ``X`` or those whose indices
    ``columns`` lists in ascending order."""
    if not np.isfinite(y).all():
        raise NonFiniteValue(0)
    checked = X if columns is None else X[:, columns]
    nonfinite = ~np.isfinite(checked).all(axis=0)
    if nonfinite.any():
        j = int(np.argmax(nonfinite))
        raise NonFiniteValue((j if columns is None else int(columns[j])) + 1)


@dataclass
class GroundTruth:
    """Truth record for simulated data.

    Attributes
    ----------
    beta : ndarray of shape (p,)
        True coefficient vector.
    mask_X : ndarray of shape (n, p), values in {0, 1}
        1 where a predictor cell was rewritten by contamination.
    mask_y : ndarray of shape (n,), values in {0, 1}
        1 where a response entry was rewritten.
    noise_sd : float
        Standard deviation used to draw the error term.
    """

    beta: np.ndarray
    mask_X: np.ndarray
    mask_y: np.ndarray
    noise_sd: float = 1.0

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)

    @property
    def active_set(self) -> set[int]:
        """Indices j with ``beta[j] != 0``."""
        return {int(j) for j in np.flatnonzero(self.beta)}


@dataclass
class Dataset:
    """Observed regression data: response ``y`` and predictors ``X``."""

    y: np.ndarray
    X: np.ndarray
    truth: Optional[GroundTruth] = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ShapeMismatch(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.shape[0] != self.X.shape[0]:
            raise ShapeMismatch(
                f"y has length {self.y.shape[0]}, X has {self.X.shape[0]} rows"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def _header(p: int) -> list[str]:
    return ["y"] + [f"x{j}" for j in range(1, p + 1)]


def dataset_to_csv(data: Dataset, path: str, mask_path: str | None = None) -> None:
    """Write a dataset (and optionally its contamination masks) to CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(data.p))
        for i in range(data.n):
            writer.writerow([repr(float(data.y[i]))]
                            + [repr(float(v)) for v in data.X[i]])
    if mask_path is not None:
        if data.truth is None:
            my = np.zeros(data.n, dtype=int)
            mX = np.zeros((data.n, data.p), dtype=int)
        else:
            my, mX = data.truth.mask_y, data.truth.mask_X
        with open(mask_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_header(data.p))
            for i in range(data.n):
                writer.writerow([int(my[i])] + [int(v) for v in mX[i]])


@contextmanager
def open_csv(path: str):
    """Open a CSV for reading; yields its stripped header and a row reader.

    Raises
    ------
    ShapeMismatch
        Naming the path, when the file cannot be opened or is empty.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ShapeMismatch(f"{path}: cannot open ({exc.strerror})") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ShapeMismatch(f"{path}: empty file") from None
        yield [h.strip() for h in header], reader


def csv_rows(path: str, reader, width: int, skip: int = 0):
    """Yield ``(line, values)`` for each non-blank row of a CSV ``reader``
    positioned after its header.

    Every row must have ``width`` fields; the first ``skip`` are dropped
    unread and the rest parsed as floats.

    Raises
    ------
    ShapeMismatch
        Naming ``path:line`` for a ragged row or a non-numeric field, and
        naming ``path`` once the rows run out when there were none.
    """
    found = False
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ShapeMismatch(
                f"{path}:{lineno}: expected {width} fields, found {len(row)}"
            )
        try:
            values = [float(v) for v in row[skip:]]
        except ValueError as exc:
            raise ShapeMismatch(f"{path}:{lineno}: non-numeric field ({exc})") from None
        found = True
        yield lineno, values
    if not found:
        raise ShapeMismatch(f"{path}: no data rows")


def dataset_from_csv(path: str) -> Dataset:
    """Read a ``y,x1,...,xp`` CSV into a Dataset.

    Raises
    ------
    ShapeMismatch
        Naming the path, when it cannot be opened or is empty, and on a
        malformed header, ragged rows, or non-numeric fields.
    """
    with open_csv(path) as (header, reader):
        if not header or header[0] != "y":
            raise ShapeMismatch(f"{path}: first header field must be 'y', got {header[:1]}")
        p = len(header) - 1
        if p < 1:
            raise ShapeMismatch(f"{path}: no predictor columns found")
        rows = [values for _, values in csv_rows(path, reader, p + 1)]
    arr = np.asarray(rows, dtype=float)
    return Dataset(y=arr[:, 0], X=arr[:, 1:])


def example_csv_path() -> str:
    """Path of the bundled 50x20 example dataset (block-correlated, 5% cell noise)."""
    return str(resources.files("cellens") / "resources" / "example_50x20.csv")
