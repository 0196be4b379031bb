"""Closed-form local power curves for a two-period benchmark setup.

Benchmark: two groups observed at two time points, the measure putting
all its mass on one evaluation point (x1, x2), the alternative shrinking
toward the null at the root-n rate.  In that regime the scaled
CDF-distance statistic is asymptotically noncentral chi-square with one
degree of freedom, so its local power is that of a two-sided z-test
against mean, variance, and correlation shifts.  Comparator tests (mean,
variance, and correlation comparisons) have their own noncentral
chi-square limits.

These curves serve as an independent oracle for the Monte Carlo engine:
at matching configurations the simulated rejection rate of the
permutation test must agree with the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .special import chisq_quantile, noncentral_chisq_sf, normal_cdf, normal_pdf

DEFAULT_LEVEL = 0.05


def _critical(level: float, df: int) -> float:
    # Computed, not hard-coded: 3.841459 for df=1 and 5.991465 for df=2
    # at the 0.05 level.
    return chisq_quantile(1.0 - level, df)


def _chisq_power(ncp: float, df: int, level: float) -> float:
    return noncentral_chisq_sf(_critical(level, df), df, ncp)


def null_variance(x1: float, x2: float) -> float:
    """Asymptotic null variance of the scaled ECDF difference at (x1, x2).

    Equals 2 F (1 - F) with F = Phi(x1) Phi(x2).  Positive in exact
    arithmetic, but in floating point it rounds to 0 once F falls below
    the smallest double or 1 - F below about 1e-16, that is at points deep
    in the tails such as (-40, 0) or (9, 9).
    """
    f = normal_cdf(x1) * normal_cdf(x2)
    return 2.0 * f * (1.0 - f)


def _cvm_ncp(drift: float, x1: float, x2: float) -> float:
    # drift^2 / null_variance; where the variance rounds to 0 there is no
    # finite noncentrality to report
    variance = null_variance(x1, x2)
    if variance == 0.0:
        raise ValueError(f"evaluation point ({x1}, {x2}) is too far in the tails: "
                         "its null variance rounds to 0")
    return drift**2 / variance


def mean_shift_ncp_coefficient(x1: float, x2: float) -> float:
    """Coefficient c in ncp = c * shift^2 for mean shifts of the CDF test.

    c = [Phi(x1) phi(x2)]^2 / null_variance(x1, x2).  Over equal
    evaluation points the coefficient peaks near x1 = x2 = 0.4, where it
    is about 0.119.
    """
    return _cvm_ncp(normal_cdf(x1) * normal_pdf(x2), x1, x2)


def cvm_power_mean_shift(
    shift: float, x1: float, x2: float, level: float = DEFAULT_LEVEL
) -> float:
    """Local power of the CDF-distance test against a mean shift."""
    return _chisq_power(mean_shift_ncp_coefficient(x1, x2) * shift**2, 1, level)


def mean_comparison_power(shift: float, level: float = DEFAULT_LEVEL) -> float:
    """Local power of the mean-comparison test against a mean shift.

    Noncentral chi-square with two degrees of freedom and noncentrality
    shift^2 / 2.
    """
    return _chisq_power(0.5 * shift**2, 2, level)


def cvm_power_variance_shift(
    shift: float, x1: float, x2: float, level: float = DEFAULT_LEVEL
) -> float:
    """Local power of the CDF-distance test against a variance shift.

    Drift: shift * [x1 phi(x1) Phi(x2) + x2 Phi(x1) phi(x2)]; vanishes at
    the origin, so evaluation points near zero have trivial power.
    """
    drift = shift * (
        x1 * normal_pdf(x1) * normal_cdf(x2) + x2 * normal_cdf(x1) * normal_pdf(x2)
    )
    return _chisq_power(_cvm_ncp(drift, x1, x2), 1, level)


def variance_comparison_power(shift: float, level: float = DEFAULT_LEVEL) -> float:
    """Local power of the variance-comparison test.

    Noncentrality shift^2 / (1 + shift^4) with two degrees of freedom;
    note this expression is not monotone beyond shift = 1.
    """
    return _chisq_power(shift**2 / (1.0 + shift**4), 2, level)


def cvm_power_correlation_shift(
    rho: float, x1: float, x2: float, level: float = DEFAULT_LEVEL
) -> float:
    """Local power of the CDF-distance test against a correlation shift.

    Drift: rho phi(x1) phi(x2); depends on rho only through rho^2.
    """
    drift = rho * normal_pdf(x1) * normal_pdf(x2)
    return _chisq_power(_cvm_ncp(drift, x1, x2), 1, level)


def correlation_comparison_power(rho: float, level: float = DEFAULT_LEVEL) -> float:
    """Local power of the correlation-comparison test.

    Noncentrality rho^2 / [1 + (1 - rho^2)^2] with one degree of freedom;
    not monotone beyond rho^2 = sqrt(2).
    """
    return _chisq_power(rho**2 / (1.0 + (1.0 - rho**2) ** 2), 1, level)


@dataclass(frozen=True)
class Shift:
    """One shift type: the CDF-distance test's power, the comparator test
    and its power, whether the curve is tabulated against the squared
    shift, the default evaluation point and the command line's grid."""

    cdf_power: Callable[[float, float, float, float], float]
    comparator: str
    comparator_power: Callable[[float, float], float]
    squared: bool
    eval_points: tuple[float, float]
    grid: tuple[float, ...]


SHIFTS = {
    "mean": Shift(cvm_power_mean_shift, "mean_comparison", mean_comparison_power,
                  True, (0.4, 0.4), tuple(np.sqrt(np.linspace(0.0, 100.0, 41)))),
    "variance": Shift(cvm_power_variance_shift, "variance_comparison", variance_comparison_power,
                      False, (-0.4, 0.4), tuple(np.linspace(0.0, 3.0, 31))),
    "correlation": Shift(cvm_power_correlation_shift, "correlation_comparison",
                         correlation_comparison_power, False, (-0.2, 0.2),
                         tuple(np.linspace(0.0, 3.0, 31))),
}


@dataclass(frozen=True)
class PowerCurve:
    """Tabulated power curves over a shift grid at fixed evaluation points."""

    shift_name: str
    abscissa_name: str
    abscissa: tuple[float, ...]
    powers: dict  # column name -> tuple of powers
    eval_points: tuple[float, float]
    level: float

    def to_csv_text(self) -> str:
        names = list(self.powers)
        lines = [
            f"# shift = {self.shift_name}",
            f"# eval_points = ({self.eval_points[0]}, {self.eval_points[1]})",
            f"# level = {self.level:.10g}",
            f"# chisq_crit_df1 = {_critical(self.level, 1):.6f} (computed)",
            f"# chisq_crit_df2 = {_critical(self.level, 2):.6f} (computed)",
            ",".join([self.abscissa_name] + names),
        ]
        for i, x in enumerate(self.abscissa):
            row = [f"{x:.10g}"] + [f"{self.powers[n][i]:.10g}" for n in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def shift_curve(kind: str, shifts: Sequence[float] | None = None, x1: float | None = None,
                x2: float | None = None, level: float = DEFAULT_LEVEL) -> PowerCurve:
    """Powers of the CDF-distance test and its comparator against the
    ``kind`` shift (a key of :data:`SHIFTS`).  Shifts, and each evaluation
    coordinate, default to the row's grid and point."""
    row = SHIFTS[kind]
    shifts = row.grid if shifts is None else shifts
    x1 = row.eval_points[0] if x1 is None else x1
    x2 = row.eval_points[1] if x2 is None else x2
    powers = {
        "cdf_distance": tuple(row.cdf_power(s, x1, x2, level) for s in shifts),
        row.comparator: tuple(row.comparator_power(s, level) for s in shifts),
    }
    abscissa = tuple(s**2 if row.squared else float(s) for s in shifts)
    name = "shift_squared" if row.squared else "shift"
    return PowerCurve(kind, name, abscissa, powers, (x1, x2), level)
