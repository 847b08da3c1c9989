"""Synthetic regression data with block-correlated designs and cell/row corruption.

The generator draws rows from a zero-mean Gaussian whose correlation
matrix places the active predictors in equicorrelated blocks against a
constant background correlation, scales the noise to a target
signal-to-noise ratio, and then applies one of five corruption
mechanisms:

- ``Clean``: no corruption.
- ``Casewise``: whole rows replaced by high-leverage points along the
  direction of least variance, with responses generated from distorted
  coefficients.
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
from .errors import InvalidConfig
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
    ``rho_background``. Nonzero coefficients are drawn uniformly from
    ``coef_range`` with random signs, and the error variance is set so
    the empirical Var(X beta) / Var(eps) equals ``snr``.
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
        for name, rho in (("rho_within", self.rho_within),
                          ("rho_background", self.rho_background)):
            if not -1 < rho < 1:
                raise InvalidConfig(f"{name}={rho} outside (-1, 1)")
        if self.rho_within <= self.rho_background:
            raise InvalidConfig("rho_within must exceed rho_background")
        if self.snr <= 0:
            raise InvalidConfig(f"snr={self.snr} must be positive")
        if self.coef_range[0] > self.coef_range[1]:
            raise InvalidConfig(f"coef_range {self.coef_range} is inverted")


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
        if not 0 <= self.alpha < 1 or not 0 <= self.alpha2 < 1:
            raise InvalidConfig("alpha and alpha2 must lie in [0, 1)")
        if self.alpha + self.alpha2 >= 1:
            raise InvalidConfig("alpha + alpha2 must be < 1")
        if self.scenario.startswith("Mixture") and self.alpha2 <= 0:
            raise InvalidConfig("mixture scenarios need alpha2 > 0")
        if self.scenario not in ("Clean",) and self.alpha <= 0:
            raise InvalidConfig(f"{self.scenario} needs alpha > 0")


def block_covariance(cfg: SimConfig) -> np.ndarray:
    """Build the block correlation matrix used to draw predictor rows.

    Raises
    ------
    InvalidConfig
        If the requested structure is not positive definite.
    """
    cfg.validate()
    p = cfg.p
    sigma = np.full((p, p), cfg.rho_background)
    if cfg.sparsity > 0:
        for start in range(0, cfg.sparsity, cfg.block_size):
            stop = start + cfg.block_size
            sigma[start:stop, start:stop] = cfg.rho_within
    np.fill_diagonal(sigma, 1.0)
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise InvalidConfig("block covariance is not positive definite") from None
    return sigma


def _draw_design(rng: np.random.Generator, n: int, sigma: np.ndarray) -> np.ndarray:
    L = np.linalg.cholesky(sigma)
    return rng.standard_normal((n, sigma.shape[0])) @ L.T


def generate_clean(cfg: SimConfig) -> Dataset:
    """Draw a clean dataset with full ground truth and all-zero masks."""
    cfg.validate()
    sigma = block_covariance(cfg)
    rng = make_rng(cfg.seed)
    X = _draw_design(rng, cfg.n, sigma)
    beta = np.zeros(cfg.p)
    if cfg.sparsity > 0:
        lo, hi = cfg.coef_range
        mags = rng.uniform(lo, hi, cfg.sparsity)
        signs = rng.choice([-1.0, 1.0], cfg.sparsity)
        beta[: cfg.sparsity] = mags * signs
    signal = X @ beta
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

    Uses the same block covariance as :func:`generate_clean` but a caller
    supplied seed, so a training set and its test set never share draws.
    """
    if m < 1:
        raise InvalidConfig(f"test size m={m} must be >= 1")
    sigma = block_covariance(cfg)
    rng = make_rng(seed)
    X = _draw_design(rng, m, sigma)
    beta = np.asarray(beta, dtype=float)
    y = X @ beta + noise_sd * rng.standard_normal(m)
    truth = GroundTruth(
        beta=beta,
        mask_X=np.zeros((m, cfg.p), dtype=int),
        mask_y=np.zeros(m, dtype=int),
        noise_sd=noise_sd,
    )
    return Dataset(y=y, X=X, truth=truth)


def _casewise_rows(rng, data, sigma, spec, rows):
    """Replace the given rows by low-variance-direction leverage points."""
    n, p = data.X.shape
    eigvals, eigvecs = np.linalg.eigh(sigma)
    u = eigvecs[:, 0]
    if u[np.flatnonzero(u)[0]] < 0:
        u = -u
    beta_cont = data.truth.beta.copy()
    active = sorted(data.truth.active_set)
    beta_cont[active] = beta_cont[active] * spec.beta_distort
    X_rows = rng.standard_normal((len(rows), p)) * np.sqrt(0.1) + spec.leverage_c * u
    data.X[rows] = X_rows
    data.y[rows] = X_rows @ beta_cont
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
    :func:`block_covariance`); the structured scenarios read eigenvectors
    from it. The input dataset is not modified.
    """
    spec.validate()
    if data.truth is None:
        raise InvalidConfig("contaminate requires a dataset carrying ground truth")
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
        _casewise_rows(rng, out, sigma, spec, np.sort(rows))
    elif spec.scenario == "CellwiseMarginal":
        _cellwise_marginal(rng, out, spec, all_rows, spec.alpha)
    elif spec.scenario == "CellwiseCorrelation":
        _cellwise_correlation(rng, out, sigma, spec, all_rows, spec.alpha)
    else:  # mixtures
        k = int(round(spec.alpha * n))
        case_rows = np.sort(rng.choice(all_rows, size=k, replace=False))
        _casewise_rows(rng, out, sigma, spec, case_rows)
        rest = np.setdiff1d(all_rows, case_rows)
        if spec.scenario == "MixtureMarginal":
            _cellwise_marginal(rng, out, spec, rest, spec.alpha2)
        else:
            _cellwise_correlation(rng, out, sigma, spec, rest, spec.alpha2)
    return out
