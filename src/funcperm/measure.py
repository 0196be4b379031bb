"""Weighting measure over random functions.

The distributional statistic compares group empirical CDFs at random
evaluation functions Z.  Z is a truncated trigonometric expansion

    Z(t) = c_1 + sum_j sqrt(2) c_{2j} cos[j pi (2t - T)/T]
               + sum_j sqrt(2) c_{2j+1} sin[j pi (2t - T)/T]

with independent random coefficients: c_1 has mean ``mean_level`` and the
higher-order coefficients have mean zero, all with standard deviation
``coeff_sd`` (default 1/sqrt(n_terms), so the coefficient variances sum
to one).  Drawing many such Z's materializes the measure on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import Seed, _index, substream
from .samples import FunctionalSample, TimeGrid

COEFF_LAWS = ("gaussian", "uniform", "student-t")

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class MeasureSpec:
    """Parameters of the random-function law.

    ``n_terms`` must be odd so the expansion pairs each cosine with a sine.
    ``coeff_sd`` of ``None`` selects the default 1/sqrt(n_terms).
    """

    n_terms: int
    mean_level: float
    coeff_sd: float | None = None
    law: str = "gaussian"
    df: float = 5.0
    seed: Seed = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_terms", _index(self.n_terms))
        if self.n_terms < 1 or self.n_terms % 2 == 0:
            raise ValueError(f"n_terms must be an odd positive integer, got {self.n_terms}")
        if not np.isfinite(self.mean_level):
            raise ValueError(f"mean_level must be finite, got {self.mean_level!r}")
        sd = self.coeff_sd
        if sd is None:
            object.__setattr__(self, "coeff_sd", 1.0 / math.sqrt(self.n_terms))
        elif not (sd > 0 and np.isfinite(sd)):
            raise ValueError("coeff_sd must be a positive real")
        if self.law not in COEFF_LAWS:
            raise ValueError(f"unknown coefficient law {self.law!r}")
        if self.law == "student-t" and not self.df > 2:
            raise ValueError("student-t law needs df > 2 for unit variance")


@dataclass(frozen=True)
class MeasureDraws:
    """Realized random functions evaluated on a grid, one per row."""

    values: np.ndarray  # (L, J)
    spec: MeasureSpec | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("draws must form a nonempty 2-d matrix")
        if not np.all(np.isfinite(values)):
            raise ValueError("draws contain non-finite values")
        values = np.array(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]


def trig_basis(k: int, t, horizon: int):
    """k-th element of the trigonometric basis at slot(s) ``t`` in 1..horizon.

    Element 1 is the constant 1; elements 2j and 2j+1 are the scaled cosine
    and sine of frequency j.
    """
    if k < 1:
        raise ValueError("basis index must be >= 1")
    t_arr = np.asarray(t, dtype=float)
    if k == 1:
        out = np.ones_like(t_arr)
    else:
        j = k // 2
        arg = j * np.pi * (2.0 * t_arr - horizon) / horizon
        out = _SQRT2 * (np.cos(arg) if k % 2 == 0 else np.sin(arg))
    return float(out) if np.isscalar(t) else out


def basis_matrix(n_terms: int, grid: TimeGrid) -> np.ndarray:
    """(n_terms, J) matrix of basis elements evaluated at slots 1..J.

    The matrix is read-only and shared: repeated calls with the same
    ``n_terms`` and grid length return the same array.
    """
    return _basis_matrix(int(n_terms), grid.horizon)


@lru_cache(maxsize=16)
def _basis_matrix(n_terms: int, horizon: int) -> np.ndarray:
    t = np.arange(1, horizon + 1, dtype=float)
    out = np.vstack([trig_basis(k, t, horizon) for k in range(1, n_terms + 1)])
    out.flags.writeable = False
    return out


def expand_coefficients(coeffs: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Evaluate expansion(s) with explicit coefficient vector(s) on the grid."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    return coeffs @ basis_matrix(coeffs.shape[1], grid)


def median_peak(sample) -> float:
    """Median over units of each path's maximum value.

    Used as the default mean level of the measure: it sits near the center
    of the region where the pooled paths live, where CDF comparisons are
    informative.  Even counts average the two middle order statistics.
    """
    paths = sample.paths if isinstance(sample, FunctionalSample) else np.asarray(sample, dtype=float)
    if paths.size == 0:
        raise ValueError("empty sample")
    return float(np.median(paths.max(axis=1)))


def _unit_coefficients(
    rng: np.random.Generator, law: str, df: float, size: tuple[int, ...]
) -> np.ndarray:
    """Mean-zero, unit-variance draws under the requested law."""
    if law == "gaussian":
        return rng.standard_normal(size)
    if law == "uniform":
        return rng.uniform(-_SQRT3, _SQRT3, size)
    return rng.standard_t(df, size) * math.sqrt((df - 2.0) / df)


def draw_coefficients(spec: MeasureSpec, count: int) -> np.ndarray:
    """(count, n_terms) coefficient matrix drawn from the one stream ``spec.seed``.

    The matrix is filled in row order, so a longer run extends a shorter
    one: the first k rows do not depend on ``count``.
    """
    if count < 1:
        raise ValueError("need at least one draw")
    rng = substream(spec.seed)
    out = _unit_coefficients(rng, spec.law, spec.df, (count, spec.n_terms))
    out *= spec.coeff_sd
    out[:, 0] += spec.mean_level
    return out


def draw_functions(spec: MeasureSpec, grid: TimeGrid, count: int) -> MeasureDraws:
    """Materialize ``count`` independent random functions on ``grid``.

    Pure in (spec, grid, count): the same inputs always produce the same
    matrix, bit for bit, because every draw comes from the one stream keyed
    by ``spec.seed``; a longer run extends a shorter one.
    """
    coeffs = draw_coefficients(spec, count)
    return MeasureDraws(values=coeffs @ basis_matrix(spec.n_terms, grid), spec=spec)


def pointwise_variance(spec: MeasureSpec, grid: TimeGrid) -> np.ndarray:
    """Exact Var[Z(t)] at each grid point: coeff_sd^2 * sum_k psi_k(t)^2."""
    psi = basis_matrix(spec.n_terms, grid)
    return spec.coeff_sd**2 * np.sum(psi**2, axis=0)
