"""Distance statistics between groups of observed paths.

This module owns every statistic, for one plan or many:
:func:`permutation_statistics` evaluates them under a whole matrix of
group assignments at once, and the standalone functions are that engine
run on the single identity assignment.  So a standalone value equals
plan 0 of a one-plan call.  A cvm value also equals plan 0 of any call;
a mean_path or energy value may differ from plan 0 of a many-plan call
in the last bits, since a float64 product's rounding can depend on the
row count of plan 0's block.

Three statistics, all nonnegative and zero when the compared groups are
indistinguishable:

* ``cvm``: Cramer-von Mises-type distance between group empirical CDFs
  evaluated at random functions (the rows of a :class:`MeasureDraws`);
* ``mean_path``: scaled average squared difference of pointwise group
  mean paths;
* ``energy``: the multi-sample energy distance built from pairwise
  Euclidean distances between grid-evaluated paths.

Each standalone function takes a list of groups, control first, and sums
control-versus-treatment terms over the treatment groups; with one
treatment that is the two-sample statistic.

Numerical contract:

* the CvM indicator equals the pointwise ``<=`` test exactly: it is built
  from per-grid-point sorted orders, prefix bitmasks and bitwise ANDs
  into packed uint64 words, one row per draw, so only comparisons decide
  it and no arithmetic touches a path value (draws must be finite).  At
  each grid point a draw selects the prefix of the paths at or below it,
  one ``searchsorted(side="right")`` of the draws into the sorted paths.
  :func:`indicator_matrix` unpacks the words into a ``bool`` (N, L)
  matrix; the CvM step counts each draw's paths from the words and keeps
  only the informative draws' words, N * L' / 8 bytes.  It unpacks them
  one block of ``_CVM_DRAW_BLOCK`` draws at a time into one reused
  float32 buffer, so it never builds an (N, L) or (N, L') matrix and its
  memory does not grow with L;
* draws whose pooled count is 0 or N are the same for every group under
  every plan, so they add exactly 0 and are dropped before the group
  counts; the average still divides by all L draws;
* group counts are float32 mask words times float32 indicator columns.
  A word carries two treatments, as mask_a + B mask_b with B the
  smallest power of two above every treatment size, while B <= 4096;
  otherwise, or for one treatment, it carries one.  Every partial sum is
  an integer at most B**2 - 1 < 2**24 (or N < 2**24), so the word counts
  are exact whatever the summation order or thread count, and dividing
  by B splits them exactly into c_b (integer part) and c_a (fraction).
  The counts become float64 before the division by the group size (N
  above 2**24 is rejected);
* each statistic is one table entry that gives its bytes per plan row,
  and all reduce the plans in the same blocks of rows, each holding at
  most ``_BLOCK_BYTES`` of bool label planes and every statistic's
  buffers (or one row), so no statistic's memory grows with Q.  In the
  CvM step one product per plan block and draw block gives every mask
  word's counts, split into the treatments' counts, and the control
  counts are the pooled counts minus their sum, all exact integers; the
  float64 steps after them work row by row, adding each draw block's
  terms to the row totals in draw order.  The draw-block edges depend
  only on L', so a plan's cvm value depends neither on its block nor on
  the word layout.  With L' above ``_CVM_DRAW_BLOCK`` the sum over draws
  is split at those edges, so it can differ in the last bits from one
  unsplit sum; with fewer it is one sum.  mean_path and energy take
  float64 products per block, whose rounding can depend on the block's
  row count;
* the remaining reductions use numpy's pairwise summation, so
  recomputing any statistic on the same inputs is bit-identical, and
  mathematically equivalent summation orders agree to better than 1e-12
  relative error at the sizes this package targets.

The set of dropped draws depends only on the pooled paths and the draws,
never on the plan, so each statistic stays a fixed function of the
partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measure import MeasureDraws
from .rng import _index

# float32 holds every integer up to 2**24 exactly, so group counts of at
# most this many paths are exact in float32.
_MAX_EXACT_COUNT = 1 << 24

# Bytes that indicator_matrix may hold for one block of grid points: their
# prefix-bitmask tables, their path sort arrays and their draws.  Small
# blocks stay in cache.
_INDICATOR_BLOCK_BYTES = 1 << 20

# Bytes that permutation_statistics may hold for one block of plan rows: bool
# label planes and every statistic's buffers, the CvM step's float64 means
# included.  A cvm call holds, besides, its packed indicator words and its
# draw-block buffer.
_BLOCK_BYTES = 7 << 20

# Informative draws per block of the CvM step: it unpacks this many draws'
# indicator words at a time into a float32 (draws, N) buffer, so its memory
# does not grow with the number of draws.
_CVM_DRAW_BLOCK = 512

# Set bits of every byte value, to count the paths below each draw from its
# packed indicator words.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _as_matrix(paths) -> np.ndarray:
    out = np.asarray(paths, dtype=float)
    if out.ndim != 2:
        raise ValueError("paths must be a 2-d matrix")
    return out


def _checked_sizes(group_sizes: Sequence[int]) -> tuple[int, ...]:
    """Group sizes as ints: at least two groups, each of at least one path."""
    sizes = tuple(_index(n) for n in group_sizes)
    if len(sizes) < 2:
        raise ValueError("need a control group and at least one treatment group")
    if any(n < 1 for n in sizes):
        raise ValueError("every group needs at least one path")
    return sizes


def _check_groups(groups: Sequence[np.ndarray]) -> list[np.ndarray]:
    mats = [_as_matrix(g) for g in groups]
    if len({m.shape[1] for m in mats}) > 1:
        raise ValueError("all groups must share the same grid width")
    _checked_sizes([len(m) for m in mats])
    return mats


def ecdf_indicator(paths, z) -> float:
    """Fraction of paths lying weakly below ``z`` at every grid point.

    The comparison is non-strict in every coordinate, so the value is the
    multivariate empirical CDF of the paths evaluated at z.
    """
    paths = _as_matrix(paths)
    z = np.asarray(z, dtype=float)
    if z.shape != (paths.shape[1],):
        raise ValueError(
            f"evaluation point has {z.shape} values, paths have "
            f"{paths.shape[1]} columns"
        )
    return float(np.all(paths <= z, axis=1).mean())


def _indicator_words(paths, zvalues) -> np.ndarray:
    """(L, ceil(N/64)) uint64 words of :func:`indicator_matrix`: path i
    is bit i % 64 of word i // 64 in row l iff path i <= draw l everywhere.
    Bits past path N - 1 are 0."""
    paths = _as_matrix(paths)
    zvalues = _as_matrix(zvalues)
    if zvalues.shape[1] != paths.shape[1]:
        raise ValueError("draws and paths must share the same grid width")
    # min and max are NaN or infinite iff some draw is
    if zvalues.size and not np.isfinite([zvalues.min(), zvalues.max()]).all():
        raise ValueError("draws contain non-finite values")
    (n_paths, width), n_draws = paths.shape, zvalues.shape[0]
    words = max(1, -(-n_paths // 64))
    bits = np.left_shift(np.uint64(1), np.arange(n_paths, dtype=np.uint64) & np.uint64(63))
    acc = np.full((n_draws, words), np.iinfo(np.uint64).max, dtype=np.uint64)
    acc[:, -1] = (1 << (n_paths - 64 * (words - 1))) - 1
    path_cols = np.ascontiguousarray(paths.T)
    # per grid point: its table, three int64 arrays of one entry per path
    # (the sort order, its word indices and its bits) and its draws
    block = max(1, _INDICATOR_BLOCK_BYTES // (8 * (words * (n_paths + 1) + 3 * n_paths + n_draws)))
    for start in range(0, width, block):
        x = path_cols[start:start + block]
        z = np.ascontiguousarray(zvalues[:, start:start + block].T)
        x_order = np.argsort(x, axis=1)
        tables = np.zeros((len(x), n_paths + 1, words), dtype=np.uint64)
        tables[np.arange(len(x))[:, None], np.arange(1, n_paths + 1), x_order >> 6] = bits[x_order]
        np.bitwise_or.accumulate(tables, axis=1, out=tables)
        # each draw's table row is the number of paths at or below it
        for table, xs, order, zs in zip(tables, x, x_order, z):
            acc &= table.take(np.searchsorted(xs[order], zs, side="right"), axis=0)
    return acc


def _unpack_words(words: np.ndarray, n_paths: int) -> np.ndarray:
    """(rows, n_paths) uint8 0/1 bits of (rows, words) indicator words."""
    return np.unpackbits(
        words.astype("<u8", copy=False).view(np.uint8), axis=1, count=n_paths, bitorder="little"
    )


def indicator_matrix(paths, zvalues) -> np.ndarray:
    """(N, L) bool matrix: entry (i, l) is True iff path i <= draw l everywhere.

    Built from sorted orders, with no arithmetic on the values.  At each
    grid point the paths at or below a draw are a prefix of that point's
    sorted path order (tied paths are all in or all out), so the draw
    selects one row of a table of prefix bitmasks: row c holds the bits
    of the c lowest paths, path i being bit i % 64 of uint64 word i // 64.
    The prefix length c is the number of paths at or below the draw, one
    ``searchsorted(side="right")`` of the draws into the sorted paths per
    grid point, so tied paths and -0.0 against +0.0 count in, and NaN
    paths (sorted last) and +inf paths (above every finite draw) do not.
    The rows each draw selects are AND-ed over the grid points into one
    row of packed words per draw, and this function unpacks them; the CvM
    step of :func:`permutation_statistics` counts and unpacks the same
    words itself.  Only comparisons in
    numpy's sort order decide the result, so it equals the pointwise
    ``<=`` test exactly, also for NaN, +inf and -inf paths and for -0.0
    against +0.0.  Draws must be finite: a NaN draw would sort above every
    path.

    A grid point's table takes (N + 1) * ceil(N/64) * 8 bytes, which is
    more than the N x L result once N exceeds about 16 L.  Grid points
    are taken in blocks whose tables, sort arrays and draws fit
    ``_INDICATOR_BLOCK_BYTES`` (at least one point per block).  The
    result is the transpose of an (L, N) array.
    """
    paths = _as_matrix(paths)
    return _unpack_words(_indicator_words(paths, zvalues), paths.shape[0]).view(np.bool_).T


def _identity_assignment(group_sizes: Sequence[int]) -> np.ndarray:
    """Plan 0 of every plan set: label s on the s-th block of ``group_sizes[s]`` rows."""
    return np.repeat(np.arange(len(group_sizes)), group_sizes)


def _identity_plan_statistic(
    kind: str, groups: Sequence[np.ndarray], draws: MeasureDraws | None = None
) -> float:
    """Plan 0 of :func:`permutation_statistics` on the pooled groups.

    Raises ValueError unless the value is nonnegative; this catches a NaN
    result, such as mean_path and energy give for a NaN path.
    """
    mats = _check_groups(groups)
    sizes = tuple(m.shape[0] for m in mats)
    identity = _identity_assignment(sizes)[None]
    stats = permutation_statistics(np.vstack(mats), sizes, identity, (kind,), draws)
    value = float(stats[kind][0])
    if not value >= 0.0:
        raise ValueError(f"statistic must be nonnegative, got {value}")
    return value


def cvm_statistic(groups: Sequence[np.ndarray], draws: MeasureDraws) -> float:
    """Summed CDF-distance terms, control (group 0) versus each treatment.

    Each term is (n_0 + n_s) times the average over draws of the squared
    difference of the two empirical CDFs.  The value is plan 0 of any
    :func:`permutation_statistics` call, so recomputation is bit-identical.
    """
    return _identity_plan_statistic("cvm", groups, draws)


def mean_path_statistic(groups: Sequence[np.ndarray]) -> float:
    """Summed mean-path distance terms, control versus each treatment.

    Each term is (n_0 + n_s) times the average over grid points of the
    squared difference of the group mean paths.  The value is plan 0 of
    a one-plan :func:`permutation_statistics` call; plan 0 of a many-plan
    call may differ in the last bits, as its block has more rows.
    """
    return _identity_plan_statistic("mean_path", groups)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix between the rows of ``points``.

    Uses the Gram-matrix identity, which runs the O(N^2 J) work through
    BLAS; squared distances are clipped at zero before the square root.
    Row 0 is first moved to the origin, or a large common offset would
    cancel away the distances; a data row, unlike the mean, keeps dyadic
    inputs exact.
    """
    points = _as_matrix(points)
    points = points - points[:1]
    sq = np.einsum("ij,ij->i", points, points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, 0.0)
    return dist


def energy_statistic(groups: Sequence[np.ndarray]) -> float:
    """Multi-sample energy distance, control versus each treatment.

    For each treatment s the term is n_0 n_s / (n_0 + n_s) times
    2 E||X_0 - X_s|| - E||X_0 - X_0'|| - E||X_s - X_s'||, with all-pairs
    averages (diagonal included) over the observed paths.  The value is
    plan 0 of a one-plan :func:`permutation_statistics` call; plan 0 of a
    many-plan call may differ in the last bits, as its block has more rows.
    """
    return _identity_plan_statistic("energy", groups)


def _plan_matrix(plans, group_sizes: Sequence[int]) -> np.ndarray:
    """The (Q, N) integer label matrix of ``plans``, such a matrix or
    objects with an ``assignment`` row; anything else raises ValueError."""
    refused = "plans must be an integer (Q, N) label matrix or plan objects"
    if not isinstance(plans, np.ndarray):
        try:
            plans = np.stack([p.assignment for p in plans])
        except AttributeError:
            raise ValueError(refused) from None
    if plans.dtype.kind not in "iu":
        raise ValueError(refused)
    if plans.ndim != 2 or plans.shape[1] != sum(group_sizes):
        raise ValueError("plans do not match the pooled sample length")
    return plans


def _cvm_hits(pooled: np.ndarray, zvalues) -> tuple[np.ndarray, np.ndarray]:
    """The CvM step's (L', ceil(N/64)) uint64 packed indicator words of the
    informative draws, rows of :func:`indicator_matrix`'s words in draw
    order, and their float32 pooled counts.

    A draw every path is below, or none is, has the same CDF in every
    group under every plan: it adds exactly 0 but still counts in L, so
    it is dropped here.  The pooled counts come from the packed words
    through a byte popcount table.  The words stay packed, N * L' / 8
    bytes; the CvM step unpacks them one draw block at a time.
    """
    words = _indicator_words(pooled, zvalues)
    pooled_count = _POPCOUNT[words.view(np.uint8)].sum(axis=1)
    varying = (pooled_count > 0) & (pooled_count < len(pooled))
    return words[varying], pooled_count[varying].astype(np.float32)


def _cvm_base(sizes) -> int:
    """Weight B of the second treatment in a CvM mask word, or 0 if each
    word carries one treatment.

    Two treatments a and b share a float32 word as mask_a + B mask_b, B
    the smallest power of two above every treatment size.  A count
    c_a + B c_b of such a word is at most B**2 - 1, which is exact in
    float32 for any summation order while B <= 4096, and the power of two
    splits it back exactly.
    """
    base = 1 << max(sizes[1:]).bit_length()
    return base if base * base <= _MAX_EXACT_COUNT else 0


def _block_rows(row_bytes: int) -> int:
    """Plan rows per block of :func:`permutation_statistics`: as many rows
    of ``row_bytes`` as fit ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _label_planes(rows: np.ndarray, sizes, planes: np.ndarray) -> np.ndarray:
    """(S+1, B, N) bool planes of a block of plan rows, plane s marking
    group s, in the flat buffer ``planes``; raises ValueError unless every
    row gives each group its size."""
    (n_rows, n_paths), n_groups = rows.shape, len(sizes)
    labels = planes[:n_groups * n_rows * n_paths].reshape(n_groups, n_rows, n_paths)
    # same-dtype labels keep the comparison in the rows' dtype; a dtype too
    # narrow for the last label wraps them, and no row can then hold it
    np.equal(rows, np.arange(n_groups, dtype=rows.dtype)[:, None, None], out=labels)
    counts = np.count_nonzero(labels, axis=2)
    if n_groups > np.iinfo(rows.dtype).max + 1 or np.any(counts != np.array(sizes)[:, None]):
        raise ValueError("a plan does not respect the group sizes")
    return labels


def _add_contrasts(total: np.ndarray, group_sums, sizes, width: int) -> None:
    """Add to ``total``, per row, the sum over treatments s of (n_0 + n_s)
    times the average over ``width`` columns of the squared difference of
    the control and treatment-s means, for cvm and mean_path alike.

    ``group_sums`` yields the control's sums, then each treatment's; a
    group's mean is its sums divided by its size in float64.  Every step
    works row by row, and a generator keeps one treatment's sums live.
    """
    group_sums = iter(group_sums)
    control = np.divide(next(group_sums), sizes[0], dtype=np.float64)
    for s, sums in enumerate(group_sums, start=1):
        contrast = np.divide(sums, sizes[s], dtype=np.float64)
        np.subtract(control, contrast, out=contrast)
        np.square(contrast, out=contrast)
        total += (sizes[0] + sizes[s]) * (contrast.sum(axis=1) / width)
        del sums, contrast  # free them before the next treatment's are built


def _cvm_check(sizes, draws: MeasureDraws | None) -> None:
    if draws is None:
        raise ValueError("the cvm statistic needs measure draws")
    if sum(sizes) > _MAX_EXACT_COUNT:
        raise ValueError("the cvm statistic supports at most 2**24 pooled paths")


def _cvm_prepare(pooled: np.ndarray, sizes, draws: MeasureDraws):
    """A row holds float32 mask words (see :func:`_cvm_base`) and, for one
    draw block (see :func:`_cvm_hits`), float32 treatment and control
    counts and float64 control and treatment means; ``bind`` allocates
    them once.  Its step packs the treatment planes two to a mask word
    with weight B, or one if B is 0, and takes the informative draws in
    blocks of ``_CVM_DRAW_BLOCK`` in draw order: one product with a block's
    unpacked float32 (draws, N) indicator gives the words' counts, split
    back out exactly, and the float64 steps add the block's terms to the
    totals row by row.  The block edges depend only on L', so a plan's
    value is a fixed function of its partition.
    """
    words, pooled_hits = _cvm_hits(pooled, draws.values)
    (n_cols, _), n_paths, width = words.shape, len(pooled), len(draws.values)
    base, n_treat = _cvm_base(sizes), len(sizes) - 1
    n_words = -(-n_treat // 2) if base else n_treat
    # treatments 1..n_words take weight 1 in words 0..n_words - 1; the rest
    # take weight B in words 0..n_high - 1, the mixed words
    n_high = n_treat - n_words
    n_draws = min(n_cols, _CVM_DRAW_BLOCK)

    def bind(block: int):
        packed = np.empty(n_words * block * n_paths, dtype=np.float32)
        buffer = np.empty(n_treat * block * n_draws, dtype=np.float32)
        hits = np.empty((n_draws, n_paths), dtype=np.float32)

        def step(labels: np.ndarray, total: np.ndarray) -> None:
            n_rows = labels.shape[1]
            masks = packed[:n_words * n_rows * n_paths].reshape(n_words, n_rows, n_paths)
            # the weight-B treatments set the mixed words, the first n_high
            # treatments add into them, and the rest fill the other words
            np.multiply(labels[n_words + 1:], np.float32(base), out=masks[:n_high])
            np.add(masks[:n_high], labels[1:n_high + 1], out=masks[:n_high])
            np.copyto(masks[n_high:], labels[n_high + 1:n_words + 1])
            masks = masks.reshape(n_words * n_rows, n_paths)
            for first in range(0, n_cols, _CVM_DRAW_BLOCK):
                last = min(first + _CVM_DRAW_BLOCK, n_cols)
                n_block = last - first
                block_hits = hits[:n_block]
                np.copyto(block_hits, _unpack_words(words[first:last], n_paths))
                # the product fills the leading n_words planes of the counts
                counts = buffer[:n_treat * n_rows * n_block].reshape(n_treat, n_rows, n_block)
                np.matmul(masks, block_hits.T, out=counts[:n_words].reshape(n_words * n_rows, n_block))
                if n_high:
                    # a mixed word's x = c_a + B c_b: x / B has integer part c_b
                    # and fraction c_a / B, each step exact
                    mixed, high = counts[:n_high], counts[n_words:]
                    np.multiply(mixed, np.float32(1 / base), out=mixed)
                    np.floor(mixed, out=high)
                    np.subtract(mixed, high, out=mixed)
                    np.multiply(mixed, np.float32(base), out=mixed)
                control = counts.sum(axis=0)
                np.subtract(pooled_hits[first:last], control, out=control)
                _add_contrasts(total, (control, *counts), sizes, width)

        return step

    return 4 * n_words * n_paths + (4 * n_treat + 20) * n_draws, bind


def _mean_path_prepare(pooled: np.ndarray, sizes, draws):
    """Group sums are float64 mask products with the pooled paths; a row
    holds one float64 mask and the control's and one treatment's means."""
    width = pooled.shape[1]

    def step(labels: np.ndarray, total: np.ndarray) -> None:
        _add_contrasts(total, (plane.astype(np.float64) @ pooled for plane in labels), sizes, width)

    return 8 * (len(pooled) + 2 * width), lambda block: step


def _energy_prepare(pooled: np.ndarray, sizes, draws):
    """Distance-kernel contrasts from the pooled distance matrix; a row
    holds every float64 mask and its float64 row block (mask @ distances)."""
    dist, n0 = pairwise_distances(pooled), sizes[0]

    def step(labels: np.ndarray, total: np.ndarray) -> None:
        masks = labels.astype(np.float64)
        rows = [mask @ dist for mask in masks]
        within = [np.einsum("qn,qn->q", rows[s], masks[s]) / sizes[s] ** 2 for s in range(len(sizes))]
        for s in range(1, len(sizes)):
            cross = np.einsum("qn,qn->q", rows[0], masks[s]) / (n0 * sizes[s])
            total += n0 * sizes[s] / (n0 + sizes[s]) * (2.0 * cross - within[0] - within[s])
        # Clip away negative rounding residue from exactly-zero configurations.
        np.maximum(total, 0.0, out=total)

    return 16 * len(sizes) * len(pooled), lambda block: step


@dataclass(frozen=True)
class _Statistic:
    """One statistic of :func:`permutation_statistics`: ``check(sizes,
    draws)`` raises ValueError if it cannot be taken; ``prepare(pooled,
    sizes, draws)`` returns its bytes per plan row and ``bind(block)``,
    which allocates its buffers for blocks of at most ``block`` rows and
    returns ``step(labels, total)``, adding a block's values to ``total``."""

    prepare: Callable[[np.ndarray, tuple[int, ...], MeasureDraws | None], tuple[int, Callable]]
    check: Callable[[tuple[int, ...], MeasureDraws | None], None] = lambda sizes, draws: None


_STATISTICS = {
    "cvm": _Statistic(_cvm_prepare, _cvm_check),
    "mean_path": _Statistic(_mean_path_prepare),
    "energy": _Statistic(_energy_prepare),
}


def permutation_statistics(
    pooled: np.ndarray,
    group_sizes: Sequence[int],
    plans,
    statistics: Sequence[str],
    draws: MeasureDraws | None = None,
) -> dict[str, np.ndarray]:
    """Evaluate the requested statistics under every plan at once.

    ``pooled`` must hold the rows in group-block order so that the
    identity assignment reproduces the observed grouping.  ``plans`` is an
    integer (Q, N) matrix of group labels or a sequence of objects with an
    ``assignment`` row.  All plans are evaluated against the same
    ``draws``, which is what makes the sampled test exact for any number
    of draws.  Before any work it raises ValueError unless there are at
    least two groups, none empty, every requested statistic's check passes
    (cvm needs draws and at most 2**24 pooled paths, for exact float32
    counts), ``pooled`` is a 2-d matrix of ``sum(group_sizes)`` rows and
    ``plans`` is a matrix or plan objects as above.

    Each statistic is one entry of ``_STATISTICS``, prepared and returned
    in that table's order.  One loop takes the plans in blocks of rows
    (see :func:`_block_rows`): per block, :func:`_label_planes` builds the
    group labels and checks the plan sizes, and each statistic's step
    reduces the block with a few matrix products.  Group masks hold exact
    0/1 values, so CDF counts are exact integers and a cvm value is a fixed
    function of the partition; a mean_path or energy value's last bits may
    depend on its block's row count.
    """
    unknown = set(statistics) - set(_STATISTICS)
    if unknown:
        raise ValueError(f"unknown statistics {sorted(unknown)}")
    sizes = _checked_sizes(group_sizes)
    requested = {name: entry for name, entry in _STATISTICS.items() if name in statistics}
    for entry in requested.values():
        entry.check(sizes, draws)
    pooled = _as_matrix(pooled)
    if len(pooled) != sum(sizes):
        raise ValueError(f"pooled paths have {len(pooled)} rows, the group sizes sum to {sum(sizes)}")
    matrix = _plan_matrix(plans, sizes)
    prepared = {name: entry.prepare(pooled, sizes, draws) for name, entry in requested.items()}
    n_plans, n_paths = matrix.shape
    # the bool label planes, then every statistic's buffers
    row_bytes = len(sizes) * n_paths + sum(row for row, _ in prepared.values())
    block = max(1, min(n_plans, _block_rows(row_bytes)))
    steps = {name: bind(block) for name, (_, bind) in prepared.items()}
    out = {name: np.zeros(n_plans) for name in steps}
    planes = np.empty(len(sizes) * block * n_paths, dtype=np.bool_)
    for start in range(0, n_plans, block):
        labels = _label_planes(matrix[start:start + block], sizes, planes)
        for name, step in steps.items():
            step(labels, out[name][start:start + block])
    return out
