"""Weighting measure over random functions.

The distributional statistic compares group empirical CDFs at random
evaluation functions Z.  Z is a truncated trigonometric expansion

    Z(t) = c_1 + sum_j sqrt(2) c_{2j} cos[j pi (2t - T)/T]
               + sum_j sqrt(2) c_{2j+1} sin[j pi (2t - T)/T]

with independent random coefficients: c_1 has mean ``mean_level`` and the
higher-order coefficients have mean zero, all with standard deviation
1/sqrt(n_terms).  Since sum_k psi_k(t)^2 = n_terms at every slot, Z(t)
has unit variance everywhere.  Student-t coefficients have 5 degrees of
freedom, rescaled to unit variance.  Drawing many such Z's materializes
the measure on the grid.
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
    The coefficient scale and the student-t df are fixed (module docstring).
    """

    n_terms: int
    mean_level: float
    law: str = "gaussian"
    seed: Seed = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_terms", _index(self.n_terms))
        if self.n_terms < 1 or self.n_terms % 2 == 0:
            raise ValueError(f"n_terms must be an odd positive integer, got {self.n_terms}")
        if not np.isfinite(self.mean_level):
            raise ValueError(f"mean_level must be finite, got {self.mean_level!r}")
        if self.law not in COEFF_LAWS:
            raise ValueError(f"unknown coefficient law {self.law!r}")

    @property
    def coeff_sd(self) -> float:
        """Coefficient standard deviation 1/sqrt(n_terms): unit variance of Z(t)."""
        return 1.0 / math.sqrt(self.n_terms)


@dataclass(frozen=True)
class MeasureDraws:
    """Realized random functions evaluated on a grid, one per row.

    ``values`` becomes a read-only array.  A read-only array that owns its
    data is kept as it is; any other is copied, so that a caller's array
    changed later does not change the draws.
    """

    values: np.ndarray  # (L, J)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("draws must form a nonempty 2-d matrix")
        if not np.all(np.isfinite(values)):
            raise ValueError("draws contain non-finite values")
        if values.flags.writeable or not values.flags.owndata:
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


def _unit_coefficients(rng: np.random.Generator, law: str, size: tuple[int, ...]) -> np.ndarray:
    """Mean-zero, unit-variance draws under the requested law."""
    if law == "gaussian":
        return rng.standard_normal(size)
    if law == "uniform":
        return rng.uniform(-_SQRT3, _SQRT3, size)
    return rng.standard_t(5.0, size) * math.sqrt(3.0 / 5.0)  # 5 df, unit variance


def draw_coefficients(spec: MeasureSpec, count: int) -> np.ndarray:
    """(count, n_terms) coefficient matrix drawn from the one stream ``spec.seed``.

    The matrix is filled in row order, so a longer run extends a shorter
    one: the first k rows do not depend on ``count``.
    """
    if count < 1:
        raise ValueError("need at least one draw")
    rng = substream(spec.seed)
    out = _unit_coefficients(rng, spec.law, (count, spec.n_terms))
    out *= spec.coeff_sd
    out[:, 0] += spec.mean_level
    return out


def draw_functions(spec: MeasureSpec, grid: TimeGrid, count: int) -> MeasureDraws:
    """Materialize ``count`` independent random functions on ``grid``.

    Pure in (spec, grid, count): the same inputs always produce the same
    matrix, bit for bit, because every draw comes from the one stream keyed
    by ``spec.seed``; a longer run extends a shorter one.
    """
    values = draw_coefficients(spec, count) @ basis_matrix(spec.n_terms, grid)
    # read-only, so that MeasureDraws keeps this product without a copy
    values.flags.writeable = False
    return MeasureDraws(values)
