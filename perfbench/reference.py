"""Reference statistics for checking the program's outputs.

Written from the definitions in the package documentation, not from
``funcperm.stats`` or ``funcperm.permutation``, so that a rewrite of the
program's statistics is checked against an implementation it does not
share code with.  Speed matters only enough to keep the checks short.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-12

# Bound on the (paths x draws) boolean block held while counting dominated
# paths, so a check never needs more memory than the program it checks.
_BLOCK_ELEMS = 1 << 23


def split_groups(pooled: np.ndarray, sizes) -> list[np.ndarray]:
    """Cut a block-ordered pooled matrix into its per-group matrices."""
    bounds = np.cumsum([0, *sizes])
    return [pooled[bounds[s] : bounds[s + 1]] for s in range(len(sizes))]


def dominated_counts(paths: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """For each draw z, the number of paths x with x[j] <= z[j] at every j."""
    n, width = paths.shape
    # One contiguous row per grid point: the loop below reads them whole.
    path_cols, draw_cols = paths.T.copy(), draws.T.copy()
    counts = np.empty(draws.shape[0], dtype=np.int64)
    step = max(1, _BLOCK_ELEMS // max(1, n))
    for start in range(0, draws.shape[0], step):
        block = draw_cols[:, start : start + step]
        below = np.ones((n, block.shape[1]), dtype=bool)
        for j in range(width):
            below &= path_cols[j][:, None] <= block[j][None, :]
        counts[start : start + block.shape[1]] = below.sum(axis=0)
    return counts


def cvm(groups: list[np.ndarray], draws: np.ndarray) -> float:
    """Sum over treatments s of (n0 + ns) * mean over draws of (F0 - Fs)^2."""
    cdfs = [dominated_counts(g, draws) / g.shape[0] for g in groups]
    n0 = groups[0].shape[0]
    return sum(
        (n0 + g.shape[0]) * float(np.mean((cdfs[0] - cdfs[s]) ** 2))
        for s, g in enumerate(groups)
        if s > 0
    )


def mean_path(groups: list[np.ndarray]) -> float:
    """Sum over treatments s of (n0 + ns) * mean over grid of (m0 - ms)^2."""
    means = [g.sum(axis=0) / g.shape[0] for g in groups]
    n0 = groups[0].shape[0]
    return sum(
        (n0 + g.shape[0]) * float(np.mean((means[0] - means[s]) ** 2))
        for s, g in enumerate(groups)
        if s > 0
    )


def _mean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Average Euclidean distance over all pairs (a_i, b_k), from differences."""
    total = 0.0
    for row in a:
        total += float(np.sqrt(((b - row) ** 2).sum(axis=1)).sum())
    return total / (a.shape[0] * b.shape[0])


def energy(groups: list[np.ndarray]) -> float:
    """Sum over treatments of n0 ns/(n0+ns) (2 E|X0-Xs| - E|X0-X0'| - E|Xs-Xs'|)."""
    n0 = groups[0].shape[0]
    within0 = _mean_distance(groups[0], groups[0])
    total = 0.0
    for g in groups[1:]:
        ns = g.shape[0]
        cross = _mean_distance(groups[0], g)
        total += n0 * ns / (n0 + ns) * (2.0 * cross - within0 - _mean_distance(g, g))
    return max(total, 0.0)


def bonferroni(p_cvm: float, p_mean: float, alpha_cvm: float, alpha_mean: float) -> float:
    """Weighted-Bonferroni combination with weights alpha_i / (alpha_cvm + alpha_mean)."""
    total = alpha_cvm + alpha_mean
    return min(1.0, p_cvm / (alpha_cvm / total), p_mean / (alpha_mean / total))


def close(value: float, expected: float, rel: float = REL_TOL) -> bool:
    return abs(value - expected) <= rel * max(abs(value), abs(expected))


def check_test(record: dict) -> list[str]:
    """Problems found in one permutation-test outcome.

    ``record`` holds ``groups`` (per-group path matrices), ``draws`` (the
    evaluation functions, or None), ``observed`` (statistic name -> value),
    ``p_values`` (name -> p-value), ``n_plans`` and, for a combined test,
    ``p_combined`` with ``alphas`` = (alpha_cvm, alpha_mean).
    """
    problems = []
    groups = record["groups"]
    refs = {"mean_path": lambda: mean_path(groups), "energy": lambda: energy(groups)}
    if record.get("draws") is not None:
        refs["cvm"] = lambda: cvm(groups, record["draws"])
    for name, value in record["observed"].items():
        expected = refs[name]()
        if not close(value, expected):
            problems.append(f"observed {name} {value!r} != reference {expected!r}")
    floor = 1.0 / record["n_plans"]
    for name, p in record["p_values"].items():
        if not floor <= p <= 1.0:
            problems.append(f"{name} p-value {p!r} outside [1/Q, 1]")
    if "p_combined" in record:
        p = record["p_values"]
        expected = bonferroni(p["cvm"], p["mean_path"], *record["alphas"])
        if not close(record["p_combined"], expected):
            problems.append(f"combined p-value {record['p_combined']!r} != {expected!r}")
    return problems
