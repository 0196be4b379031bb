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

The multi-group forms sum control-versus-treatment terms over the
treatment groups; with a single treatment they reduce exactly to the
two-sample forms.

Numerical contract:

* the CvM indicator equals the pointwise ``<=`` test exactly: it is built
  from per-grid-point sorted orders, prefix bitmasks and bitwise ANDs
  into packed uint64 words, one row per draw, so only comparisons decide
  it and no arithmetic touches a path value (draws must be finite).
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
* every statistic reduces the plans in the same blocks of rows, each
  holding at most ``_BLOCK_BYTES`` of bool label planes and statistic
  buffers (or one row), so no statistic's memory grows with Q.  In the
  CvM step one product per plan block and draw block gives every mask
  word's counts, split into the treatments' counts, and the control
  counts are the pooled counts minus their sum, all exact integers; the
  float64 steps after them run in row slices of ``_CVM_TAIL_BYTES`` and
  work row by row, adding each draw block's terms to the row totals in
  draw order.  The draw-block edges depend only on L', so a plan's cvm
  value depends neither on its block, its slice nor the word layout.
  With L' above ``_CVM_DRAW_BLOCK`` the sum over draws is split at those
  edges, so it can differ in the last bits from one unsplit sum; with
  fewer it is one sum.  mean_path and energy take float64 products per
  block, whose rounding can depend on the block's row count;
* the remaining reductions use numpy's pairwise summation, so
  recomputing any statistic on the same inputs is bit-identical, and
  mathematically equivalent summation orders agree to better than 1e-12
  relative error at the sizes this package targets.

The set of dropped draws depends only on the pooled paths and the draws,
never on the plan, so each statistic stays a fixed function of the
partition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .measure import MeasureDraws
from .rng import _index

# float32 holds every integer up to 2**24 exactly, so group counts of at
# most this many paths are exact in float32.
_MAX_EXACT_COUNT = 1 << 24

# Bytes that indicator_matrix may hold for one block of grid points: their
# prefix-bitmask tables and their sort and index arrays.  Small blocks stay
# in cache.
_INDICATOR_BLOCK_BYTES = 1 << 20

# Bytes that permutation_statistics may hold for one block of plan rows: bool
# label planes and statistic buffers.  With the CvM tail a cvm call holds 8 MiB,
# besides its packed indicator words and its draw-block buffer.
_BLOCK_BYTES = 7 << 20

# Informative draws per block of the CvM step: it unpacks this many draws'
# indicator words at a time into a float32 (draws, N) buffer, so its memory
# does not grow with the number of draws.
_CVM_DRAW_BLOCK = 512

# Bytes that the CvM step may hold for one slice of a block's rows in its
# float64 tail: the control counts and the control and treatment means.
_CVM_TAIL_BYTES = 1 << 20

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
    # per grid point: its table and about eight int64 or float64 sort and
    # index arrays of one entry per path or draw
    block = max(1, _INDICATOR_BLOCK_BYTES // (8 * (words * (n_paths + 1) + 8 * (n_paths + n_draws))))
    for start in range(0, width, block):
        x = path_cols[start:start + block]
        z = np.ascontiguousarray(zvalues[:, start:start + block].T)
        n_points = x.shape[0]
        point = np.arange(n_points)[:, None]
        x_order = np.argsort(x, axis=1)
        x_sorted = x.ravel().take(x_order + point * n_paths)
        # flat indices into z, in each grid point's sorted draw order
        z_order = np.argsort(z, axis=1)
        z_order += point * n_draws
        z_sorted = z.ravel().take(z_order)
        tables = np.zeros((n_points, n_paths + 1, words), dtype=np.uint64)
        tables[point, np.arange(1, n_paths + 1), x_order >> 6] = bits[x_order]
        np.bitwise_or.accumulate(tables, axis=1, out=tables)
        # prefix length at each sorted draw position, from the number of
        # draws strictly below each path
        strictly_below = np.stack([np.searchsorted(zs, xs) for zs, xs in zip(z_sorted, x_sorted)])
        strictly_below += point * (n_draws + 1)
        prefix = np.bincount(strictly_below.ravel(), minlength=n_points * (n_draws + 1))
        prefix = prefix.reshape(n_points, n_draws + 1)[:, :n_draws].cumsum(axis=1)
        # each draw's table row, in draw order, as a row of the flat tables
        prefix += point * (n_paths + 1)
        rows = np.empty(z.shape, dtype=np.intp)
        rows.ravel()[z_order] = prefix
        flat_tables = tables.reshape(-1, words)
        for point_rows in rows:
            acc &= flat_tables.take(point_rows, axis=0)
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
    The prefix length c comes from the draws' sorted order: path i is at
    or below the draw in sorted position q iff at most q draws lie
    strictly below path i, which one ``searchsorted`` of the sorted paths
    per grid point counts.  The rows each draw selects are AND-ed over
    the grid points into one row of packed words per draw, and this
    function unpacks them; the CvM step of :func:`permutation_statistics`
    counts and unpacks the same words itself.  Only comparisons in
    numpy's sort order decide the result, so it equals the pointwise
    ``<=`` test exactly, also for NaN, +inf and -inf paths and for -0.0
    against +0.0.  Draws must be finite: a NaN draw would sort above every
    path.

    A grid point's table takes (N + 1) * ceil(N/64) * 8 bytes, which is
    more than the N x L result once N exceeds about 16 L.  Grid points
    are taken in blocks whose tables and sort arrays fit
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


def cvm_statistic_multi(groups: Sequence[np.ndarray], draws: MeasureDraws) -> float:
    """Summed CDF-distance terms, control (group 0) versus each treatment.

    Each term is (n_0 + n_s) times the average over draws of the squared
    difference of the two empirical CDFs.  The value is plan 0 of any
    :func:`permutation_statistics` call, so recomputation is bit-identical.
    """
    return _identity_plan_statistic("cvm", groups, draws)


def cvm_statistic(group_a, group_b, draws: MeasureDraws) -> float:
    """Two-sample CDF-distance statistic."""
    return cvm_statistic_multi([group_a, group_b], draws)


def mean_path_statistic_multi(groups: Sequence[np.ndarray]) -> float:
    """Summed mean-path distance terms, control versus each treatment.

    Each term is (n_0 + n_s) times the average over grid points of the
    squared difference of the group mean paths.  The value is plan 0 of
    a one-plan :func:`permutation_statistics` call; plan 0 of a many-plan
    call may differ in the last bits, as its block has more rows.
    """
    return _identity_plan_statistic("mean_path", groups)


def mean_path_statistic(group_a, group_b) -> float:
    """Two-sample mean-path statistic."""
    return mean_path_statistic_multi([group_a, group_b])


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


PERMUTATION_STATISTICS = ("cvm", "mean_path", "energy")


def _plan_matrix(plans, group_sizes: Sequence[int]) -> np.ndarray:
    if isinstance(plans, np.ndarray):
        matrix = plans
    else:
        matrix = np.stack([p.assignment for p in plans])
    if matrix.ndim != 2 or matrix.shape[1] != sum(group_sizes):
        raise ValueError("plans do not match the pooled sample length")
    return matrix


def _cvm_hits(pooled: np.ndarray, zvalues) -> tuple[np.ndarray, np.ndarray]:
    """The CvM step's (L', ceil(N/64)) uint64 packed indicator words of the
    informative draws, rows of :func:`indicator_matrix`'s words in draw
    order, and their float32 pooled counts.

    A draw every path is below, or none is, has the same CDF in every
    group under every plan: it adds exactly 0 but still counts in L, so
    it is dropped here.  The pooled counts come from the packed words
    through a byte popcount table.  The words stay packed, N * L' / 8
    bytes; :func:`_cvm_step` unpacks them one draw block at a time.
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


def _cvm_block_rows(n_treat: int, n_paths: int, n_cols: int, n_words: int | None = None,
                    statistics: Sequence[str] = ("cvm",), width: int = 0) -> int:
    """Plan rows per block of :func:`permutation_statistics`, for every
    statistic: as many as fit ``_BLOCK_BYTES`` with the bool label planes
    and the per-row buffers of each of ``statistics``.  cvm has ``n_words``
    mask words per row (by default two treatments to a word) and ``n_cols``
    informative draws, of which it counts one draw block of at most
    ``_CVM_DRAW_BLOCK`` at a time; mean_path has ``width`` grid points.
    The CvM step's float32 draw-block buffer is a fixed cost outside the
    budget."""
    if n_words is None:
        n_words = -(-n_treat // 2)
    row_bytes = (n_treat + 1) * n_paths
    if "cvm" in statistics:
        # float32 mask words and one draw block's treatment counts (the
        # product fills the latter)
        row_bytes += 4 * n_words * n_paths + 4 * n_treat * min(n_cols, _CVM_DRAW_BLOCK)
    if "mean_path" in statistics:
        # one float64 mask, the control's and one treatment's float64 means
        row_bytes += 8 * (n_paths + 2 * width)
    if "energy" in statistics:
        # every float64 mask and its float64 row block (mask @ distances)
        row_bytes += 16 * (n_treat + 1) * n_paths
    return max(1, _BLOCK_BYTES // row_bytes)


def _cvm_tail_rows(n_cols: int) -> int:
    """Plan rows per slice of the CvM float64 tail: as many as fit
    ``_CVM_TAIL_BYTES`` of float32 control counts and float64 control and
    treatment means over ``n_cols`` draws, one draw block's."""
    return max(1, _CVM_TAIL_BYTES // (20 * max(1, n_cols)))


def _label_planes(rows: np.ndarray, sizes, planes: np.ndarray) -> np.ndarray:
    """(S+1, B, N) bool planes of a block of plan rows, plane s marking
    group s, in the flat buffer ``planes``; raises ValueError unless every
    row gives each group its size."""
    n_rows, n_paths = rows.shape
    labels = planes[:len(sizes) * n_rows * n_paths].reshape(len(sizes), n_rows, n_paths)
    for s, plane in enumerate(labels):
        np.equal(rows, s, out=plane)
        if not np.all(np.count_nonzero(plane, axis=1) == sizes[s]):
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


def _cvm_step(sizes, words: np.ndarray, pooled_hits, n_paths: int, width: int, base: int,
              n_words: int, block: int):
    """The CvM reduction of a block's label planes into its ``total``,
    as ``step(labels, total)``.

    ``words`` are the informative draws' packed indicator words and
    ``pooled_hits`` their pooled counts (see :func:`_cvm_hits`); ``width``
    counts every draw.  The treatment planes are packed into ``n_words``
    float32 mask words per row, two to a word with weight ``base`` (see
    :func:`_cvm_base`) or one if it is 0.  The draws are taken in blocks
    of ``_CVM_DRAW_BLOCK``, in draw order: a block's words are unpacked
    into one float32 (draws, N) buffer, one product with it gives the mask
    words' counts, which are split back out exactly, and the float64 tail
    adds the block's terms to the row totals, in row slices that fit
    ``_CVM_TAIL_BYTES``.  The draw-block edges depend only on L', so a
    plan's value is a fixed function of its partition, whose sum over
    draws is split at those edges.  The mask-word, count and draw buffers
    are allocated once and reused by every block.
    """
    n_treat, n_cols = len(sizes) - 1, len(words)
    # treatments 1..n_words take weight 1 in words 0..n_words - 1; the rest
    # take weight B in words 0..n_high - 1, the mixed words
    n_high = n_treat - n_words
    n_draws = min(n_cols, _CVM_DRAW_BLOCK)
    step = _cvm_tail_rows(n_draws)
    packed = np.empty(n_words * block * n_paths, dtype=np.float32)
    buffer = np.empty(n_treat * block * n_draws, dtype=np.float32)
    hits = np.empty((n_draws, n_paths), dtype=np.float32)

    def reduce(labels: np.ndarray, total: np.ndarray) -> None:
        n_rows = labels.shape[1]
        masks = packed[:n_words * n_rows * n_paths].reshape(n_words, n_rows, n_paths)
        # weight-B treatments first, so that they set the mixed words
        for s in range(n_treat, 0, -1):
            if s > n_words:
                np.multiply(labels[s], np.float32(base), out=masks[s - 1 - n_words])
            elif s > n_high:
                np.copyto(masks[s - 1], labels[s])
            else:
                np.add(masks[s - 1], labels[s], out=masks[s - 1])
        masks = masks.reshape(n_words * n_rows, n_paths)
        for first in range(0, n_cols, _CVM_DRAW_BLOCK):
            last = min(first + _CVM_DRAW_BLOCK, n_cols)
            block_hits = hits[:last - first]
            np.copyto(block_hits, _unpack_words(words[first:last], n_paths))
            # the product fills the leading n_words planes of the counts
            counts = buffer[:n_treat * n_rows * (last - first)].reshape(n_treat, n_rows, last - first)
            product = counts[:n_words].reshape(n_words * n_rows, last - first)
            np.matmul(masks, block_hits.T, out=product)
            for lo in range(0, n_rows, step):
                treated = counts[:, lo:lo + step]
                if n_high:
                    # a mixed word's x = c_a + B c_b: x / B has integer part
                    # c_b and fraction c_a / B, each step exact
                    mixed, high = treated[:n_high], treated[n_words:]
                    np.multiply(mixed, np.float32(1 / base), out=mixed)
                    np.floor(mixed, out=high)
                    np.subtract(mixed, high, out=mixed)
                    np.multiply(mixed, np.float32(base), out=mixed)
                control = treated.sum(axis=0)
                np.subtract(pooled_hits[first:last], control, out=control)
                _add_contrasts(total[lo:lo + step], (control, *treated), sizes, width)

    return reduce


def _distance_contrast(labels: np.ndarray, sizes, dist: np.ndarray, total: np.ndarray) -> None:
    """Add to ``total``, per row, the energy sum over treatments of
    distance-kernel contrasts, from a block's bool label planes."""
    masks = labels.astype(np.float64)
    rows = [mask @ dist for mask in masks]
    within = [np.einsum("qn,qn->q", rows[s], masks[s]) / sizes[s] ** 2 for s in range(len(sizes))]
    n0 = sizes[0]
    for s in range(1, len(sizes)):
        cross = np.einsum("qn,qn->q", rows[0], masks[s]) / (n0 * sizes[s])
        total += n0 * sizes[s] / (n0 + sizes[s]) * (2.0 * cross - within[0] - within[s])
    # Clip away negative rounding residue from exactly-zero configurations.
    np.maximum(total, 0.0, out=total)


def permutation_statistics(
    pooled: np.ndarray,
    group_sizes: Sequence[int],
    plans,
    statistics: Sequence[str],
    draws: MeasureDraws | None = None,
) -> dict[str, np.ndarray]:
    """Evaluate the requested statistics under every plan at once.

    ``pooled`` must hold the rows in group-block order so that the
    identity assignment reproduces the observed grouping.  ``plans`` is a
    sequence of objects with an ``assignment`` row or a (Q, N) matrix of
    group labels.  All plans are evaluated against the same ``draws``,
    which is what makes the sampled test exact for any number of draws.
    Before any work it raises ValueError unless there are at least two
    groups, each of at least one path, and ``pooled`` is a 2-d matrix of
    ``sum(group_sizes)`` rows.

    One loop takes the plans in blocks of rows (see ``_cvm_block_rows``):
    per block, :func:`_label_planes` builds the group labels and checks the
    plan sizes, for every statistic and for a call with none, and each
    requested statistic reduces the block with a few matrix products into
    its slice of the (Q,) result.  Group masks hold exact 0/1 values, so
    CDF counts are exact integers and a cvm value is a fixed function of
    the partition; a mean_path or energy value's last bits may depend on
    its block's row count.  The cvm statistic needs at most 2**24 pooled
    paths, the most for which float32 counts are exact.
    """
    unknown = set(statistics) - set(PERMUTATION_STATISTICS)
    if unknown:
        raise ValueError(f"unknown statistics {sorted(unknown)}")
    sizes = _checked_sizes(group_sizes)
    if "cvm" in statistics:
        if draws is None:
            raise ValueError("the cvm statistic needs measure draws")
        if sum(sizes) > _MAX_EXACT_COUNT:
            raise ValueError("the cvm statistic supports at most 2**24 pooled paths")
    pooled = _as_matrix(pooled)
    if len(pooled) != sum(sizes):
        raise ValueError(f"pooled paths have {len(pooled)} rows, the group sizes sum to {sum(sizes)}")
    matrix = _plan_matrix(plans, sizes)
    (n_plans, n_paths), width = matrix.shape, pooled.shape[1]
    n_treat, n_cols, n_words = len(sizes) - 1, 0, 0
    if "cvm" in statistics:
        words, pooled_hits = _cvm_hits(pooled, draws.values)
        base = _cvm_base(sizes)
        n_cols, n_words = len(words), (-(-n_treat // 2) if base else n_treat)
    block = max(1, min(n_plans, _cvm_block_rows(n_treat, n_paths, n_cols, n_words, statistics, width)))
    steps = {}
    if "cvm" in statistics:
        steps["cvm"] = _cvm_step(sizes, words, pooled_hits, n_paths, len(draws.values), base, n_words, block)
    if "mean_path" in statistics:
        steps["mean_path"] = lambda labels, total: _add_contrasts(
            total, (plane.astype(np.float64) @ pooled for plane in labels), sizes, width
        )
    if "energy" in statistics:
        dist = pairwise_distances(pooled)
        steps["energy"] = lambda labels, total: _distance_contrast(labels, sizes, dist, total)
    out = {name: np.zeros(n_plans) for name in steps}
    planes = np.empty(len(sizes) * block * n_paths, dtype=np.bool_)
    for start in range(0, n_plans, block):
        labels = _label_planes(matrix[start:start + block], sizes, planes)
        for name, step in steps.items():
            step(labels, out[name][start:start + block])
    return out
