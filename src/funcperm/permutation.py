"""Group-relabeling plans, critical values, and decision rules.

This module owns plans, critical values and decisions; the statistics
themselves, for one plan or many, live in :mod:`funcperm.stats`.

The test recomputes a statistic under relabelings of the pooled sample
that keep the group sizes fixed.  Because the statistic is a deterministic
function of the partition (the same evaluation draws are reused for every
relabeling), the resulting test rejects a true null hypothesis with
probability exactly alpha in finite samples -- for any number of
evaluation draws, any grid, and either exhaustive or sampled plans, as
long as plan 0 is the identity.

Decision rule: with t* the ceil(Q(1-alpha))-th smallest of the Q plan
statistics, reject when the observed value exceeds t*; on a tie with t*,
reject with probability a = (Q alpha - Q+)/Q0 where Q+ and Q0 count plan
statistics above and equal to t*.  The conservative variant replaces a
with zero and can reject with probability below alpha, never above.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measure import MeasureDraws
from .rng import Seed, _index, substream
from .samples import pooled_by_group
from .stats import _checked_sizes, _identity_assignment, _plan_matrix, permutation_statistics

DECISION_MODES = ("randomized", "conservative")

# Guard against alpha resolutions so fine that float rounding of
# Q*(1-alpha) could move the order-statistic index.
_QUANTILE_EPS = 1e-9

# The most assignments exhaustive mode enumerates.
_EXHAUSTIVE_CAP = 1_000_000


@dataclass(frozen=True)
class PermutationPlan:
    """One assignment of the pooled rows to groups of fixed sizes."""

    assignment: np.ndarray  # (N,) small ints
    index: int  # 0 is the identity assignment

    def __post_init__(self) -> None:
        arr = np.asarray(self.assignment, dtype=np.int8)
        arr.flags.writeable = False
        object.__setattr__(self, "assignment", arr)


@dataclass(frozen=True)
class PermutationDistribution:
    """Plan statistics, identity plan first."""

    stats: np.ndarray  # (Q,)

    def __post_init__(self) -> None:
        stats = np.asarray(self.stats, dtype=float)
        if stats.ndim != 1 or stats.shape[0] < 1:
            raise ValueError("need at least one plan statistic")
        if not np.all(np.isfinite(stats)) or np.any(stats < 0):
            raise ValueError("plan statistics must be finite and nonnegative")
        stats = np.array(stats)
        stats.flags.writeable = False
        object.__setattr__(self, "stats", stats)

    @property
    def n_plans(self) -> int:
        return self.stats.shape[0]

    @property
    def observed(self) -> float:
        """The identity plan's statistic."""
        return float(self.stats[0])


@dataclass(frozen=True)
class TestResult:
    """Outcome of one permutation test."""

    observed: float
    critical: float
    p_value: float
    phi: float  # rejection probability given the data: 1, a, or 0
    rejected: bool
    mode: str  # "randomized" | "conservative"
    level: float


@dataclass(frozen=True)
class CombinedResult:
    """Either-rejects combination of the CDF-distance and mean-path tests."""

    cvm: TestResult
    mean_path: TestResult
    rejected: bool
    p_value_combined: float


def number_of_assignments(group_sizes: Sequence[int]) -> int:
    """Count of distinct assignments: N! / (n_0! ... n_S!)."""
    total = 1
    remaining = sum(group_sizes)
    for size in group_sizes:
        total *= math.comb(remaining, size)
        remaining -= size
    return total


def _int8_sizes(group_sizes: Sequence[int]) -> tuple[int, ...]:
    """:func:`stats._checked_sizes` for an int8 plan matrix: at most 127 groups."""
    sizes = _checked_sizes(group_sizes)
    if len(sizes) > 127:
        raise ValueError("more than 127 groups is unsupported")
    return sizes


def _all_assignments(sizes: tuple[int, ...]) -> np.ndarray:
    """(Q, N) int8 matrix of every distinct assignment, identity first: group
    0's position sets in lexicographic order, then the rest's, recursively."""
    n_total = sum(sizes)
    if len(sizes) == 1:
        return np.zeros((1, n_total), dtype=np.int8)
    rest = _all_assignments(sizes[1:]) + 1
    chosen = np.fromiter(
        itertools.combinations(range(n_total), sizes[0]), dtype=np.dtype((np.intp, sizes[0]))
    )
    free = np.ones((len(chosen), n_total), dtype=bool)
    np.put_along_axis(free, chosen, False, axis=1)
    plans = np.zeros((len(chosen) * len(rest), n_total), dtype=np.int8)
    plans[np.repeat(free, len(rest), axis=0)] = np.tile(rest, (len(chosen), 1)).ravel()
    return plans


def sampled_plan_matrix(group_sizes: Sequence[int], count: int, seed: Seed) -> np.ndarray:
    """Read-only (count, N) int8 matrix of group labels, one plan per row.

    Row 0 is the identity assignment; rows 1.. are independent uniform
    relabelings, duplicates permitted, drawn in row order from the one
    stream keyed ``seed``, so a longer matrix extends a shorter one.  The
    seed must be explicit: a default would share its stream with any
    other stage left at the same default, such as ``MeasureSpec.seed``.
    """
    sizes = _int8_sizes(group_sizes)
    if count is None or _index(count) < 1:
        raise ValueError("sampled mode needs a positive plan count")
    if seed is None:
        raise ValueError("sampled mode needs an explicit seed")
    matrix = np.tile(_identity_assignment(sizes).astype(np.int8), (count, 1))
    substream(seed).permuted(matrix[1:], axis=1, out=matrix[1:])
    matrix.flags.writeable = False
    return matrix


def make_plans(
    group_sizes: Sequence[int],
    mode: str = "sampled",
    count: int | None = None,
    seed: Seed | None = None,
) -> list[PermutationPlan]:
    """Build the plan list the permutation engine iterates.

    Both modes build one read-only (Q, N) int8 matrix, identity first,
    and wrap its rows, read-only views, as plans; the engine also takes
    such a matrix directly.  ``sampled`` is :func:`sampled_plan_matrix`.
    ``exhaustive`` holds every distinct assignment exactly once (error
    when there are more than 1,000,000) and takes no ``count`` or ``seed``.
    The plan objects remain for callers that iterate them.
    """
    if mode == "sampled":
        matrix = sampled_plan_matrix(group_sizes, count, seed)
    elif mode == "exhaustive":
        if count is not None or seed is not None:
            raise ValueError("exhaustive mode takes no plan count or seed")
        sizes = _int8_sizes(group_sizes)
        total = number_of_assignments(sizes)
        if total > _EXHAUSTIVE_CAP:
            raise ValueError(
                f"exhaustive mode would enumerate {total} assignments, "
                f"above the cap of {_EXHAUSTIVE_CAP}; use sampled mode"
            )
        matrix = _all_assignments(sizes)
        matrix.flags.writeable = False
    else:
        raise ValueError(f"unknown plan mode {mode!r}")
    return [PermutationPlan(row, q) for q, row in enumerate(matrix)]


def permutation_distributions(
    pooled: np.ndarray,
    group_sizes: Sequence[int],
    plans,
    statistics: Sequence[str] = ("cvm", "mean_path"),
    draws: MeasureDraws | None = None,
) -> dict[str, PermutationDistribution]:
    """Wrap :func:`permutation_statistics` results as distributions."""
    raw = permutation_statistics(pooled, group_sizes, plans, statistics, draws)
    return {name: PermutationDistribution(stats) for name, stats in raw.items()}


def critical_value(dist: PermutationDistribution, alpha: float) -> float:
    """Smallest plan statistic whose empirical CDF reaches 1 - alpha.

    Equals the ceil(Q(1-alpha))-th smallest plan statistic.  Invariant
    under reordering of the plan statistics.  Alpha must not be tuned
    finer than about 1e-9/Q (float guard on the index).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    ordered = np.sort(dist.stats)
    # at least 1: within the guard of alpha = 1 the rank would be 0, and
    # ordered[-1] the largest statistic
    rank = max(1, math.ceil(dist.n_plans * (1.0 - alpha) - _QUANTILE_EPS))
    return float(ordered[rank - 1])


def p_value(observed: float, dist: PermutationDistribution) -> float:
    """Share of plan statistics at or above the observed value.

    The identity plan is part of the distribution, so the result is always
    at least 1/Q and the test ``p <= alpha`` is exactly valid.
    """
    return float(np.count_nonzero(dist.stats >= observed) / dist.n_plans)


def decide(
    observed: float,
    dist: PermutationDistribution,
    alpha: float,
    mode: str = "randomized",
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Apply the (possibly randomized) decision rule at level ``alpha``.

    ``observed`` must be the identity plan's statistic, i.e.
    ``dist.observed``, so it is finite.  In randomized mode a tie with
    the critical value rejects with probability a (drawn from ``rng``),
    so that mode needs ``rng`` whether or not the data tie; conservative
    mode never rejects on a tie.
    """
    _check_mode(mode)
    if mode == "randomized" and rng is None:
        raise ValueError("randomized mode needs a random generator")
    if not math.isfinite(observed):
        raise ValueError(f"the observed statistic must be finite, got {observed!r}")
    threshold = critical_value(dist, alpha)  # validates alpha
    stats = dist.stats
    if observed > threshold:
        phi = 1.0
        rejected = True
    elif observed == threshold:
        q_above = int(np.count_nonzero(stats > threshold))
        q_equal = int(np.count_nonzero(stats == threshold))
        boundary = (dist.n_plans * alpha - q_above) / q_equal
        boundary = min(max(boundary, 0.0), 1.0)
        if mode == "randomized":
            phi = boundary
            rejected = bool(rng.random() < boundary)
        else:
            phi = 0.0
            rejected = False
    else:
        phi = 0.0
        rejected = False
    return TestResult(
        observed=float(observed),
        critical=threshold,
        p_value=p_value(observed, dist),
        phi=phi,
        rejected=rejected,
        mode=mode,
        level=alpha,
    )


def combine_tests(cvm_result: TestResult, mean_result: TestResult) -> CombinedResult:
    """Either-rejects combination of two component results.

    The combination rejects iff either component rejected (after its own
    randomization); its size is bounded between the larger component level
    and the sum of the two levels.  Both component p-values are carried
    along with a weighted-Bonferroni combined p-value.
    """
    return CombinedResult(
        cvm=cvm_result,
        mean_path=mean_result,
        rejected=cvm_result.rejected or mean_result.rejected,
        p_value_combined=combined_p_value(
            cvm_result.p_value,
            mean_result.p_value,
            cvm_result.level,
            mean_result.level,
        ),
    )


def _check_mode(mode: str) -> None:
    if mode not in DECISION_MODES:
        raise ValueError(f"unknown decision mode {mode!r}")


def _check_levels(alpha_cvm: float, alpha_mean: float) -> None:
    """The two component levels of a combined test: both positive, their
    sum below one."""
    if not (alpha_cvm > 0 and alpha_mean > 0):
        raise ValueError("component levels must be positive")
    if not alpha_cvm + alpha_mean < 1:
        raise ValueError("component levels must sum to less than one")


def combined_p_value(
    p_cvm: float, p_mean: float, alpha_cvm: float, alpha_mean: float
) -> float:
    """Weighted-Bonferroni combined p-value.

    With weights w_i = alpha_i / (alpha_cvm + alpha_mean), returns
    min(1, p_cvm/w_cvm, p_mean/w_mean).  The conservative either-rejects
    rule at total level alpha_cvm + alpha_mean rejects exactly when this
    value is at or below that total.
    """
    _check_levels(alpha_cvm, alpha_mean)
    total = alpha_cvm + alpha_mean
    return min(1.0, p_cvm * total / alpha_cvm, p_mean * total / alpha_mean)


def run_combined_test(
    sample,
    draws: MeasureDraws,
    plans,
    alpha_cvm: float = 0.025,
    alpha_mean: float = 0.025,
    mode: str = "randomized",
    seed: Seed = 0,
) -> CombinedResult:
    """Run the CDF-distance and mean-path tests on shared plans and combine.

    Sharing one plan set between the two component tests halves the cost
    and leaves each component's marginal exactness untouched.  Each test
    decides on plan 0's statistic, so plan 0 must be the identity.  The
    levels and the mode are checked before any statistic is computed.
    """
    _check_levels(alpha_cvm, alpha_mean)
    _check_mode(mode)
    pooled, sizes = pooled_by_group(sample)
    plans = _plan_matrix(plans, sizes)
    if not np.array_equal(plans[:1], _identity_assignment(sizes)[None]):
        raise ValueError("plan 0 must be the identity assignment")
    dists = permutation_distributions(
        pooled, sizes, plans, ("cvm", "mean_path"), draws
    )
    rng = substream(seed, 1)
    cvm_result = decide(dists["cvm"].observed, dists["cvm"], alpha_cvm, mode, rng)
    mean_result = decide(
        dists["mean_path"].observed, dists["mean_path"], alpha_mean, mode, rng
    )
    return combine_tests(cvm_result, mean_result)
