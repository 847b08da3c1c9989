"""Synthetic regression data with block-correlated designs and cell/row corruption.

The generator draws rows from a zero-mean Gaussian whose correlation
matrix places the active predictors in equicorrelated blocks against a
constant background correlation ``rho_background`` in [0, rho_within).
It draws them from the factor form of that matrix: with one background
factor g, one factor h_b per active block b and independent noise e_j,

    x_j = sqrt(rho_bg) g + sqrt(rho_j - rho_bg) h_b(j) + sqrt(1 - rho_j) e_j,

where rho_j is ``rho_within`` on the active blocks and ``rho_background``
elsewhere. Draws and signals are elementwise numpy: no p x p matrix is
factorized and no BLAS product is taken (correlation-structured
corruption solves eigenproblems of at most 15 x 15 only), so seeded
data do not depend on the BLAS thread count. The generator scales the
noise to a target signal-to-noise ratio, and then applies one of five
corruption mechanisms:

- ``Clean``: no corruption.
- ``Casewise``: whole rows replaced by high-leverage points along the
  direction of least variance, (e_0 - e_1) / sqrt(2), with responses
  generated from distorted coefficients.
- ``CellwiseMarginal``: individual cells replaced by draws far from the
  clean center (detectable per column).
- ``CellwiseCorrelation``: cell groups replaced by a multiple of the
  minimum-variance eigenvector of the group's covariance submatrix, so
  each value stays marginally plausible while breaking the row's
  multivariate pattern.
- ``MixtureMarginal`` / ``MixtureCorrelation``: casewise rows at rate
  ``alpha``, then cellwise corruption at rate ``alpha2`` on the rest.

Every rewritten cell is recorded in the ground-truth masks, so detection
and selection can be scored exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, GroundTruth
from .errors import (InvalidConfig, ShapeMismatch, require_integers,
                     require_numbers)
from .rng import make_rng

SCENARIOS = (
    "Clean",
    "Casewise",
    "CellwiseMarginal",
    "CellwiseCorrelation",
    "MixtureMarginal",
    "MixtureCorrelation",
)

# Cell-group sizes for correlation-structured corruption are drawn
# uniformly from this inclusive range (per contaminated row segment).
GROUP_SIZE_RANGE = (5, 15)


@dataclass(frozen=True)
class SimConfig:
    """Clean-data generator settings.

    ``sparsity`` active predictors occupy the leading indices, grouped in
    consecutive blocks of ``block_size`` with within-block correlation
    ``rho_within``; every other pair of predictors has correlation
    ``rho_background``, with 0 <= rho_background < rho_within < 1.
    Nonzero coefficients are drawn uniformly from ``coef_range`` with
    random signs, and the error variance is set so the empirical
    Var(X beta) / Var(eps) equals ``snr``.
    """

    n: int = 50
    p: int = 500
    sparsity: int = 50
    snr: float = 1.0
    block_size: int = 25
    rho_within: float = 0.8
    rho_background: float = 0.2
    coef_range: tuple[float, float] = (0.0, 5.0)
    seed: int = 0

    def validate(self) -> None:
        require_integers(self, ("n", "p", "sparsity", "block_size", "seed"))
        require_numbers(self, ("snr", "rho_within", "rho_background",
                               "coef_range"), sequences=("coef_range",))
        if self.n < 1 or self.p < 1:
            raise InvalidConfig(f"n={self.n}, p={self.p} must be positive")
        if not 0 <= self.sparsity <= self.p:
            raise InvalidConfig(f"sparsity={self.sparsity} outside [0, p]")
        if self.sparsity > 0:
            if self.block_size < 1:
                raise InvalidConfig("block_size must be >= 1")
            if self.sparsity % self.block_size != 0:
                raise InvalidConfig(
                    f"block_size={self.block_size} must divide sparsity={self.sparsity}"
                )
        if not 0 <= self.rho_background < 1:
            raise InvalidConfig(
                f"rho_background={self.rho_background} outside [0, 1)")
        if not self.rho_background < self.rho_within < 1:
            raise InvalidConfig(
                f"rho_within={self.rho_within} outside (rho_background, 1)")
        if not 0 < self.snr < np.inf:
            raise InvalidConfig(f"snr={self.snr} must be positive and finite")
        if (len(self.coef_range) != 2
                or not -np.inf < self.coef_range[0] <= self.coef_range[1] < np.inf):
            raise InvalidConfig(
                f"coef_range={self.coef_range} must be a finite (low, high) pair")


@dataclass(frozen=True)
class ContaminationSpec:
    """Corruption mechanism and rates.

    ``alpha`` is the row rate for Casewise, the cell rate for the pure
    cellwise scenarios, and the casewise row rate inside mixtures;
    ``alpha2`` is the cellwise rate applied to the remaining rows of a
    mixture.
    """

    scenario: str = "Clean"
    alpha: float = 0.0
    alpha2: float = 0.0
    leverage_c: float = 2.0
    marginal_shift: float = 10.0
    gamma_corr: float = 3.0
    beta_distort: float = 100.0

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise InvalidConfig(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        require_numbers(self, ("alpha", "alpha2", "leverage_c",
                               "marginal_shift", "gamma_corr", "beta_distort"))
        if not 0 <= self.alpha < 1 or not 0 <= self.alpha2 < 1:
            raise InvalidConfig("alpha and alpha2 must lie in [0, 1)")
        if self.alpha + self.alpha2 >= 1:
            raise InvalidConfig("alpha + alpha2 must be < 1")
        if self.scenario.startswith("Mixture") and self.alpha2 <= 0:
            raise InvalidConfig("mixture scenarios need alpha2 > 0")
        if self.scenario not in ("Clean",) and self.alpha <= 0:
            raise InvalidConfig(f"{self.scenario} needs alpha > 0")
        for name in ("leverage_c", "marginal_shift", "gamma_corr",
                     "beta_distort"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidConfig(f"{name}={value!r} must be a finite number")


def block_covariance(cfg: SimConfig) -> np.ndarray:
    """Fill in the block correlation matrix of the simulated predictors.

    The draw never reads it (see :func:`_draw_design`); it is the matrix
    :func:`contaminate` takes for correlation-structured corruption. It
    is positive definite for every valid config, being the covariance of
    the factor form.

    Raises
    ------
    InvalidConfig
        If ``cfg`` is invalid.
    """
    cfg.validate()
    p = cfg.p
    sigma = np.full((p, p), cfg.rho_background)
    if cfg.sparsity > 0:
        for start in range(0, cfg.sparsity, cfg.block_size):
            stop = start + cfg.block_size
            sigma[start:stop, start:stop] = cfg.rho_within
    np.fill_diagonal(sigma, 1.0)
    return sigma


def _draw_design(rng: np.random.Generator, n: int, cfg: SimConfig) -> np.ndarray:
    """Draw ``n`` design rows from the factor form of the block correlation.

    x_j = sqrt(rho_bg) g + sqrt(rho_j - rho_bg) h_b(j) + sqrt(1 - rho_j) e_j
    with standard normal g, h_b and e_j: unit variances, ``rho_within``
    inside an active block and ``rho_background`` across all other pairs.
    """
    s = cfg.sparsity
    rho = np.full(cfg.p, cfg.rho_background)
    rho[:s] = cfg.rho_within
    g = rng.standard_normal((n, 1))
    X = np.sqrt(1.0 - rho) * rng.standard_normal((n, cfg.p))
    X += np.sqrt(cfg.rho_background) * g
    if s > 0:
        h = rng.standard_normal((n, s // cfg.block_size))
        X[:, :s] += (np.sqrt(cfg.rho_within - cfg.rho_background)
                     * np.repeat(h, cfg.block_size, axis=1))
    return X


def generate_clean(cfg: SimConfig) -> Dataset:
    """Draw a clean dataset with full ground truth and all-zero masks."""
    cfg.validate()
    rng = make_rng(cfg.seed)
    X = _draw_design(rng, cfg.n, cfg)
    beta = np.zeros(cfg.p)
    if cfg.sparsity > 0:
        lo, hi = cfg.coef_range
        mags = rng.uniform(lo, hi, cfg.sparsity)
        signs = rng.choice([-1.0, 1.0], cfg.sparsity)
        beta[: cfg.sparsity] = mags * signs
    signal = (X * beta).sum(axis=1)
    if cfg.sparsity > 0 and np.var(signal, ddof=1) > 0:
        noise_sd = float(np.sqrt(np.var(signal, ddof=1) / cfg.snr))
    else:
        noise_sd = 1.0
    eps = noise_sd * rng.standard_normal(cfg.n)
    y = signal + eps
    truth = GroundTruth(
        beta=beta,
        mask_X=np.zeros((cfg.n, cfg.p), dtype=int),
        mask_y=np.zeros(cfg.n, dtype=int),
        noise_sd=noise_sd,
    )
    return Dataset(y=y, X=X, truth=truth)


def make_test_set(cfg: SimConfig, m: int, beta: np.ndarray, noise_sd: float,
                  seed: int) -> Dataset:
    """Draw ``m`` fresh clean rows with the given realized coefficients.

    Uses the same block design as :func:`generate_clean` but a caller
    supplied seed, so a training set and its test set never share draws.
    ``beta`` has shape (p,); any other shape raises
    :class:`ShapeMismatch`.
    """
    cfg.validate()
    if m < 1:
        raise InvalidConfig(f"test size m={m} must be >= 1")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (cfg.p,):
        raise ShapeMismatch(f"beta must have shape ({cfg.p},), got shape "
                            f"{beta.shape}")
    rng = make_rng(seed)
    X = _draw_design(rng, m, cfg)
    y = (X * beta).sum(axis=1) + noise_sd * rng.standard_normal(m)
    truth = GroundTruth(
        beta=beta,
        mask_X=np.zeros((m, cfg.p), dtype=int),
        mask_y=np.zeros(m, dtype=int),
        noise_sd=noise_sd,
    )
    return Dataset(y=y, X=X, truth=truth)


def _least_variance_direction(p: int) -> np.ndarray:
    """Unit eigenvector of the least eigenvalue of any block correlation.

    It is u = (e_0 - e_1) / sqrt(2) (e_0 when p = 1). Rows 0 and 1 of
    every block correlation matrix agree outside columns 0 and 1, so u
    is an eigenvector with eigenvalue 1 - sigma_01, the least one:
    1 - rho_within, or 1 - rho_background when no block has two columns.
    """
    u = np.zeros(p)
    u[0] = 1.0
    if p > 1:
        u[:2] = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return u


def _casewise_rows(rng, data, spec, rows):
    """Replace the given rows by low-variance-direction leverage points."""
    p = data.p
    u = _least_variance_direction(p)
    beta_cont = data.truth.beta.copy()
    active = sorted(data.truth.active_set)
    beta_cont[active] = beta_cont[active] * spec.beta_distort
    X_rows = rng.standard_normal((len(rows), p)) * np.sqrt(0.1) + spec.leverage_c * u
    data.X[rows] = X_rows
    data.y[rows] = (X_rows * beta_cont).sum(axis=1)
    data.truth.mask_X[rows] = 1
    data.truth.mask_y[rows] = 1


def _cellwise_marginal(rng, data, spec, rows, rate):
    """Rewrite cells of the given rows independently at the given rate."""
    mask = rng.random((len(rows), data.p)) < rate
    vals = rng.normal(spec.marginal_shift, 1.0, int(mask.sum()))
    sub = data.X[rows]
    sub[mask] = vals
    data.X[rows] = sub
    msub = data.truth.mask_X[rows]
    msub[mask] = 1
    data.truth.mask_X[rows] = msub


def _cellwise_correlation(rng, data, sigma, spec, rows, rate):
    """Place eigen-structured cell groups until the cell budget is met.

    Group sizes are uniform on GROUP_SIZE_RANGE; the final group is
    truncated to the remaining budget. Rows are visited in random order,
    possibly several times, whichever the budget requires; groups within
    one row never overlap.
    """
    rows = list(rows)
    p = data.p
    budget = int(round(rate * len(rows) * p))
    if budget <= 0:
        return
    lo, hi = GROUP_SIZE_RANGE
    used = {i: np.zeros(p, dtype=bool) for i in rows}
    order = list(rng.permutation(rows))
    pos = 0
    while budget > 0:
        if pos >= len(order):
            order = list(rng.permutation(rows))
            pos = 0
        i = order[pos]
        pos += 1
        free = np.flatnonzero(~used[i])
        if free.size == 0:
            # Row saturated; if every row is saturated the budget cannot
            # be met and we stop.
            if all(used[r].all() for r in rows):
                break
            continue
        size = min(int(rng.integers(lo, hi + 1)), budget, free.size)
        cols = rng.choice(free, size=size, replace=False)
        cols = np.sort(cols)
        sub = sigma[np.ix_(cols, cols)]
        eigvals, eigvecs = np.linalg.eigh(sub)
        v = eigvecs[:, 0]
        if v[np.flatnonzero(v)[0]] < 0:
            v = -v
        data.X[i, cols] = spec.gamma_corr * np.sqrt(size) * v
        data.truth.mask_X[i, cols] = 1
        used[i][cols] = True
        budget -= size


def contaminate(data: Dataset, spec: ContaminationSpec, sigma: np.ndarray,
                seed: int) -> Dataset:
    """Apply a corruption mechanism, returning a new Dataset with exact masks.

    ``sigma`` must be the covariance used to generate the clean rows (see
    :func:`block_covariance`); correlation-structured cell corruption
    reads eigenvectors of its small submatrices. A ``sigma`` of any shape
    but (p, p) raises :class:`ShapeMismatch`. The input dataset is not
    modified.
    """
    spec.validate()
    if data.truth is None:
        raise InvalidConfig("contaminate requires a dataset carrying ground truth")
    p = data.X.shape[1]
    if np.shape(sigma) != (p, p):
        raise ShapeMismatch(f"sigma must have shape ({p}, {p}), got shape "
                            f"{np.shape(sigma)}")
    out = Dataset(
        y=data.y.copy(),
        X=data.X.copy(),
        truth=GroundTruth(
            beta=data.truth.beta.copy(),
            mask_X=np.array(data.truth.mask_X, dtype=int, copy=True),
            mask_y=np.array(data.truth.mask_y, dtype=int, copy=True),
            noise_sd=data.truth.noise_sd,
        ),
    )
    if spec.scenario == "Clean":
        return out
    rng = make_rng(seed)
    n = out.n
    all_rows = np.arange(n)
    if spec.scenario == "Casewise":
        k = int(round(spec.alpha * n))
        rows = rng.choice(all_rows, size=k, replace=False)
        _casewise_rows(rng, out, spec, np.sort(rows))
    elif spec.scenario == "CellwiseMarginal":
        _cellwise_marginal(rng, out, spec, all_rows, spec.alpha)
    elif spec.scenario == "CellwiseCorrelation":
        _cellwise_correlation(rng, out, sigma, spec, all_rows, spec.alpha)
    else:  # mixtures
        k = int(round(spec.alpha * n))
        case_rows = np.sort(rng.choice(all_rows, size=k, replace=False))
        _casewise_rows(rng, out, spec, case_rows)
        rest = np.setdiff1d(all_rows, case_rows)
        if spec.scenario == "MixtureMarginal":
            _cellwise_marginal(rng, out, spec, rest, spec.alpha2)
        else:
            _cellwise_correlation(rng, out, sigma, spec, rest, spec.alpha2)
    return out
