import tracemalloc

import numpy as np
import pytest

from funcperm import stats
from funcperm import (
    MeasureDraws,
    MeasureSpec,
    TimeGrid,
    cvm_statistic,
    draw_functions,
    ecdf_indicator,
    energy_statistic,
    indicator_matrix,
    mean_path_statistic,
    median_peak,
    pairwise_distances,
    permutation_statistics,
    sampled_plan_matrix,
)


def draws_of(values) -> MeasureDraws:
    return MeasureDraws(values=np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# joint empirical CDF indicator
# ---------------------------------------------------------------------------

def test_ecdf_single_path_below():
    assert ecdf_indicator([[0.0]], [0.5]) == 1.0


def test_ecdf_requires_every_coordinate():
    # fails at the second coordinate, so the path does not count
    assert ecdf_indicator([[0.0, 2.0]], [1.0, 1.0]) == 0.0


def test_ecdf_hand_count():
    paths = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    assert ecdf_indicator(paths, [1.0, 1.0]) == pytest.approx(2.0 / 3.0)


def test_ecdf_comparison_is_non_strict():
    assert ecdf_indicator([[1.0, 1.0]], [1.0, 1.0]) == 1.0


def test_ecdf_dimension_mismatch():
    with pytest.raises(ValueError):
        ecdf_indicator([[0.0, 1.0]], [0.5])


def test_ecdf_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    paths = rng.normal(size=(20, 4))
    z = rng.normal(size=4)
    before = ecdf_indicator(paths, z)
    after = ecdf_indicator(np.expm1(paths), np.expm1(z))
    assert before == after  # order statistics untouched, exactly


def test_indicator_matrix_matches_scalar_op():
    rng = np.random.default_rng(6)
    paths = rng.normal(size=(9, 3))
    zvals = rng.normal(size=(11, 3))
    mat = indicator_matrix(paths, zvals)
    assert mat.shape == (9, 11)
    for l, z in enumerate(zvals):
        assert mat[:, l].mean() == ecdf_indicator(paths, z)


def test_indicator_matrix_is_bool_and_matches_loop_with_ties():
    # dyadic values on a coarse lattice make many exact ties, at every one
    # of several grid points; the comparison must stay non-strict
    rng = np.random.default_rng(21)
    paths = rng.integers(-2, 3, size=(12, 3)) * 0.5
    zvals = np.vstack([paths[:4], rng.integers(-2, 3, size=(30, 3)) * 0.5])
    mat = indicator_matrix(paths, zvals)
    assert mat.dtype == np.bool_
    oracle = [
        [all(p[j] <= z[j] for j in range(3)) for z in zvals.tolist()]
        for p in paths.tolist()
    ]
    assert mat.tolist() == oracle
    assert mat[np.arange(4), np.arange(4)].all()  # a path is below itself


def _indicator_loop(paths, zvalues) -> np.ndarray:
    """Oracle: the comparison loop indicator_matrix used to run, verbatim.

    One (N, L) block of ``<=`` comparisons per grid point, AND-ed in.
    """
    paths = np.asarray(paths, dtype=float)
    zvalues = np.asarray(zvalues, dtype=float)
    path_cols = np.ascontiguousarray(paths.T)
    draw_cols = np.ascontiguousarray(zvalues.T)
    out = np.ones((paths.shape[0], zvalues.shape[0]), dtype=bool)
    for path_col, draw_col in zip(path_cols, draw_cols):
        out &= path_col[:, None] <= draw_col[None, :]
    return out


def _dyadic_case(n_paths, width, seed):
    """Paths and draws on a coarse dyadic lattice: many exact ties at every
    grid point, draws that copy some paths, and draws between lattice
    points."""
    rng = np.random.default_rng(seed)
    paths = rng.integers(-3, 4, size=(n_paths, width)) * 0.5
    copies = paths[rng.integers(n_paths, size=min(n_paths, 8))]
    between = rng.integers(-8, 9, size=(40, width)) * 0.25
    return paths, np.vstack([copies, between])


@pytest.mark.parametrize("width", [1, 2, 7])
@pytest.mark.parametrize("n_paths", [1, 2, 63, 64, 65, 127, 128, 129, 700])
def test_indicator_matrix_equals_comparison_loop_on_dyadic_ties(n_paths, width):
    # N crosses 64-bit word boundaries; ties must stay non-strict
    paths, zvals = _dyadic_case(n_paths, width, seed=n_paths * 10 + width)
    mat = indicator_matrix(paths, zvals)
    oracle = _indicator_loop(paths, zvals)
    assert mat.dtype == np.bool_ and mat.shape == oracle.shape
    assert np.array_equal(mat, oracle)
    assert 0 < mat.sum() < mat.size


def test_indicator_matrix_blocks_do_not_change_the_result(monkeypatch):
    # budgets from one grid point per block up to every point in one
    # block, so blocks of every size and uneven last blocks all occur
    paths, zvals = _dyadic_case(700, 7, seed=3)
    oracle = _indicator_loop(paths, zvals)
    for budget in [1] + [1 << k for k in range(16, 24)]:
        monkeypatch.setattr(stats, "_INDICATOR_BLOCK_BYTES", budget)
        assert np.array_equal(indicator_matrix(paths, zvals), oracle), budget


def test_indicator_matrix_non_finite_paths_and_signed_zeros():
    # NaN and +inf paths are below no finite draw, -inf paths below every
    # one, and -0.0 and +0.0 compare equal, as the pointwise test has it
    nan, inf = np.nan, np.inf
    paths = np.array(
        [[0.0, 1.0], [-0.0, 1.0], [nan, 0.0], [inf, -1.0], [-inf, -inf],
         [0.0, nan], [-inf, inf], [-0.0, -0.0], [1.0, 0.5]]
    )
    zvals = np.array(
        [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [5.0, 5.0],
         [-5.0, -5.0], [1.0, 0.5], [-1e308, 1e308]]
    )
    mat = indicator_matrix(paths, zvals)
    assert np.array_equal(mat, _indicator_loop(paths, zvals))
    assert mat[4].all() and not mat[2].any() and not mat[5].any()


@pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 130])
def test_cvm_hits_from_packed_words_equal_indicator_columns(n_paths):
    # the CvM step counts the packed words and keeps the informative draws'
    # words; unpacked, they and the pooled counts must be the informative
    # columns of indicator_matrix and their sums, across word boundaries,
    # with ties, NaN and +-inf paths and signed zeros
    rng = np.random.default_rng(n_paths)
    paths, zvals = _dyadic_case(n_paths, 3, seed=n_paths + 5)
    special = [[np.nan, 0.0, 0.5], [np.inf, -0.0, 0.0], [-np.inf, 1.5, -np.inf]]
    for i, row in enumerate(special):
        paths[(17 * i) % n_paths] = row
    # a draw below every path, and one above every path but the NaN and
    # +inf ones
    zvals = np.vstack([zvals, [[-5.0] * 3, [5.0] * 3]])
    for values in (paths, zvals):
        values[(values == 0) & (rng.random(values.shape) < 0.5)] = -0.0
    below = indicator_matrix(paths, zvals)
    count = below.sum(axis=0)
    varying = (count > 0) & (count < n_paths)
    words, pooled_hits = stats._cvm_hits(paths, zvals)
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert words.shape == (varying.sum(), -(-n_paths // 64))
    hits = stats._unpack_words(words, n_paths).T
    assert np.array_equal(hits, below[:, varying])
    assert pooled_hits.dtype == np.float32
    assert np.array_equal(pooled_hits, count[varying].astype(np.float32))
    assert 0 < varying.sum() < len(zvals) or n_paths == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_indicator_matrix_rejects_non_finite_draws(bad):
    zvals = np.zeros((3, 2))
    zvals[1, 1] = bad
    with pytest.raises(ValueError, match="^draws contain non-finite values$"):
        indicator_matrix(np.zeros((4, 2)), zvals)


def test_indicator_matrix_rejects_other_grid_width():
    with pytest.raises(ValueError, match="^draws and paths must share the same grid width$"):
        indicator_matrix(np.zeros((4, 2)), np.zeros((3, 3)))


def test_indicator_matrix_degenerate_shapes():
    for n_paths, width, n_draws in [(0, 3, 5), (4, 0, 5), (4, 3, 0)]:
        paths = np.zeros((n_paths, width))
        zvals = np.ones((n_draws, width))
        assert np.array_equal(indicator_matrix(paths, zvals), _indicator_loop(paths, zvals))


def test_indicator_matrix_peak_memory_bounded_by_block_budget(monkeypatch):
    # N = 700 paths (11 words), J = 48, L = 1000: all 48 prefix tables at
    # once would take 48 * 701 * 11 * 8 = 3.0 MB, more than the bound
    budget = 1 << 20
    monkeypatch.setattr(stats, "_INDICATOR_BLOCK_BYTES", budget)
    rng = np.random.default_rng(8)
    n_paths, width, n_draws = 700, 48, 1000
    words = -(-n_paths // 64)
    paths = rng.normal(size=(n_paths, width))
    zvals = rng.normal(size=(n_draws, width))
    tracemalloc.start()
    try:
        indicator_matrix(paths, zvals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # live at the peak: the unpacked (L, N) result, the packed (L, words)
    # accumulator and the table rows one grid point selects (the same
    # size), the transposed float64 copies of the paths and draws, and one
    # block of tables and sort arrays
    layout = (
        n_paths * n_draws
        + 2 * 8 * n_draws * words
        + 8 * width * (n_paths + n_draws)
        + budget
    )
    assert peak <= 1.1 * layout


def _loop_words(paths, zvalues) -> np.ndarray:
    """The comparison loop's indicator as the kernel's packed words: path
    i is bit i % 64 of little-endian uint64 word i // 64, bits past path
    N - 1 are 0."""
    below = _indicator_loop(paths, zvalues)
    n_paths, n_draws = below.shape
    bits = np.zeros((n_draws, 64 * max(1, -(-n_paths // 64))), dtype=np.uint8)
    bits[:, :n_paths] = below.T
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _cvm_by_kernel_and_loop(monkeypatch, pooled, sizes, plans, draws):
    """cvm under every plan from the kernel's words, then from the
    comparison loop's words put in their place."""
    kernel = permutation_statistics(pooled, sizes, plans, ("cvm",), draws)["cvm"]
    monkeypatch.setattr(stats, "_indicator_words", _loop_words)
    loop = permutation_statistics(pooled, sizes, plans, ("cvm",), draws)["cvm"]
    return kernel, loop


def _on_lattice(values) -> np.ndarray:
    """``values`` rounded to multiples of 1/8, so that paths and draws tie
    at every grid point."""
    return np.round(np.asarray(values) * 8.0) / 8.0


def test_cvm_statistics_unchanged_by_the_indicator_kernel(monkeypatch):
    # every plan statistic is a function of the indicator alone, so the
    # kernel must give the same bits as the comparison loop, ties included
    rng = np.random.default_rng(19)
    sizes = (40, 35, 45)
    pooled = _on_lattice(rng.normal(size=(sum(sizes), 24)).cumsum(axis=1) * 0.3)
    draws = MeasureDraws(values=_on_lattice(rng.normal(size=(300, 24)).cumsum(axis=1) * 0.3 + 0.5))
    plans = np.stack([rng.permutation(np.repeat(np.arange(3), sizes)) for _ in range(50)])
    plans[0] = np.repeat(np.arange(3), sizes)
    kernel, loop = _cvm_by_kernel_and_loop(monkeypatch, pooled, sizes, plans, draws)
    assert kernel.tobytes() == loop.tobytes()
    assert np.count_nonzero(kernel) > 0


def test_cvm_statistics_unchanged_by_the_indicator_kernel_at_cohort_shape(monkeypatch):
    # N = 1492 paths in 5 groups, J = 48, Q = 500, on the lattice: more
    # informative draws than one CvM draw block and more plans than one
    # plan block
    rng = np.random.default_rng(29)
    sizes = (304, 297, 297, 297, 297)
    noise = rng.normal(size=(sum(sizes), 48))
    for t in range(1, 48):
        noise[:, t] = 0.4 * noise[:, t - 1] + 0.9 * noise[:, t]
    angle = 2.0 * np.pi * np.arange(48) / 48
    pooled = _on_lattice(1.6 + 0.6 * np.sin(angle) + 0.3 * np.sin(2.0 * angle) + 0.5 * noise)
    spec = MeasureSpec(n_terms=19, mean_level=median_peak(pooled), seed=(29, 1))
    draws = MeasureDraws(values=_on_lattice(draw_functions(spec, TimeGrid.regular(48), 1200).values))
    plans = sampled_plan_matrix(sizes, 500, seed=(29, 2))
    n_informative = len(stats._cvm_hits(pooled, draws.values)[0])
    row_bytes, _ = stats._STATISTICS["cvm"].prepare(pooled, sizes, draws)
    assert n_informative > stats._CVM_DRAW_BLOCK
    assert stats._block_rows(len(sizes) * len(pooled) + row_bytes) < len(plans)
    kernel, loop = _cvm_by_kernel_and_loop(monkeypatch, pooled, sizes, plans, draws)
    assert kernel.tobytes() == loop.tobytes()
    assert np.count_nonzero(kernel) == len(plans)


# ---------------------------------------------------------------------------
# CDF-distance statistic
# ---------------------------------------------------------------------------

def test_cvm_identical_groups_is_zero():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 3))
    d = draws_of(rng.normal(size=(20, 3)))
    assert cvm_statistic([a, a.copy()], d) == 0.0


def test_cvm_hand_computation():
    # one path per group at 0 and 1, a single draw at 0.5:
    # CDFs are 1 and 0, so the statistic is (1+1) * (1-0)^2 = 2
    a, b = [[0.0]], [[1.0]]
    assert cvm_statistic([a, b], draws_of([[0.5]])) == 2.0


def test_cvm_matches_point_mass_closed_form():
    # a measure on finitely many atoms with exact draw frequencies makes
    # the draw average equal the weighted closed form
    a = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 2.0]])
    b = np.array([[0.5, 0.2], [1.5, 1.8]])
    atoms = np.array([[0.4, 0.6], [1.2, 1.0], [1.8, 2.1], [0.9, 1.6]])
    weights = np.array([0.25, 0.25, 0.25, 0.25])
    closed = (len(a) + len(b)) * sum(
        w * (ecdf_indicator(a, z) - ecdf_indicator(b, z)) ** 2
        for z, w in zip(atoms, weights)
    )
    est = cvm_statistic([a, b], draws_of(atoms))
    assert est == pytest.approx(closed, rel=1e-12)


def test_cvm_symmetric_in_groups():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(6, 3))
    d = draws_of(rng.normal(size=(15, 3)))
    assert cvm_statistic([a, b], d) == cvm_statistic([b, a], d)


def test_cvm_row_order_invariant():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2))
    d = draws_of(rng.normal(size=(10, 2)))
    shuffled = a[rng.permutation(5)]
    assert cvm_statistic([a, b], d) == cvm_statistic([shuffled, b], d)


def test_cvm_deterministic_recomputation():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(7, 4))
    d = draws_of(rng.normal(size=(33, 4)))
    assert cvm_statistic([a, b], d) == cvm_statistic([a, b], d)


def test_cvm_multi_identical_groups_zero():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(4, 2))
    d = draws_of(rng.normal(size=(9, 2)))
    assert cvm_statistic([g, g.copy(), g.copy()], d) == 0.0


def test_cvm_multi_duplicate_control_drops_term():
    rng = np.random.default_rng(13)
    g0 = rng.normal(size=(4, 2))
    g1 = rng.normal(size=(4, 2))
    d = draws_of(rng.normal(size=(9, 2)))
    full = cvm_statistic([g0, g1, g0.copy()], d)
    only_first = cvm_statistic([g0, g1], d)
    assert full == only_first  # the control-vs-control term vanishes


def test_cvm_needs_two_groups():
    with pytest.raises(ValueError):
        cvm_statistic([np.zeros((2, 2))], draws_of(np.zeros((1, 2))))


def test_groups_must_share_a_grid_width():
    groups = [np.zeros((2, 2)), np.zeros((2, 3))]
    message = "^all groups must share the same grid width$"
    with pytest.raises(ValueError, match=message):
        cvm_statistic(groups, draws_of(np.zeros((1, 2))))
    for statistic in (mean_path_statistic, energy_statistic):
        with pytest.raises(ValueError, match=message):
            statistic(groups)


# ---------------------------------------------------------------------------
# mean-path statistic
# ---------------------------------------------------------------------------

def test_mean_path_equal_means_zero():
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    b = np.array([[1.0, 1.0]])
    assert mean_path_statistic([a, b]) == 0.0


def test_mean_path_hand_computation():
    # (1+1) * (1/2) * ((1-0)^2 + (1-0)^2) = 2
    assert mean_path_statistic([[[1.0, 1.0]], [[0.0, 0.0]]]) == 2.0


def test_mean_path_translation_invariant():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(6, 4))
    shift = rng.normal(size=4)
    base = mean_path_statistic([a, b])
    moved = mean_path_statistic([a + shift, b + shift])
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_mean_path_multi_reduces_and_closed_form():
    # constant control, constant shift; second treatment equals control:
    # statistic is (n0 + n1) * delta^2 exactly, the two-group value
    c0 = np.full((4, 3), 1.5)
    c1 = c0 + 0.25
    got = mean_path_statistic([c0, c1, c0.copy()])
    assert got == (4 + 4) * 0.25**2 == mean_path_statistic([c0, c1])


def test_mean_path_row_order_invariant():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(4, 3))
    shuffled = a[rng.permutation(6)]
    assert mean_path_statistic([shuffled, b]) == pytest.approx(
        mean_path_statistic([a, b]), rel=1e-12
    )


# ---------------------------------------------------------------------------
# energy statistic
# ---------------------------------------------------------------------------

def test_energy_identical_single_paths_zero():
    assert energy_statistic([[[1.0, 2.0]], [[1.0, 2.0]]]) == 0.0


def test_energy_hand_computation():
    # singleton groups at 0 and 1: (1*1/2) * (2*1 - 0 - 0) = 1
    assert energy_statistic([[[0.0]], [[1.0]]]) == 1.0


def test_energy_translation_invariant():
    rng = np.random.default_rng(17)
    groups = [rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=(6, 3))]
    shift = rng.normal(size=3)
    base = energy_statistic(groups)
    moved = energy_statistic([g + shift for g in groups])
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_energy_translation_invariant_at_large_offset():
    # tightly clustered paths far from the origin: the Gram identity on
    # uncentred rows cancels away the distances unless the rows are shifted
    rng = np.random.default_rng(0)
    groups = [rng.normal(scale=1e-3, size=(10, 48)) for _ in range(2)]
    base = energy_statistic(groups)
    moved = energy_statistic([g + 1e6 for g in groups])
    assert moved == pytest.approx(base, rel=1e-6)


def test_energy_nonnegative_on_random_inputs():
    rng = np.random.default_rng(18)
    for _ in range(10):
        groups = [rng.normal(size=(int(rng.integers(1, 8)), 3)) for _ in range(3)]
        assert energy_statistic(groups) >= 0.0


def test_energy_needs_two_groups():
    with pytest.raises(ValueError):
        energy_statistic([np.zeros((3, 2))])


def test_pairwise_distances_hand_case():
    d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert d.tolist() == [[0.0, 5.0], [5.0, 0.0]]


def test_statistics_take_one_list_of_groups():
    # a two-sample call of the form f(a, b[, draws]) is refused, never read
    # as a list of groups and draws
    a, b = np.zeros((2, 2)), np.ones((2, 2))
    d = draws_of(np.zeros((1, 2)))
    with pytest.raises(TypeError):
        cvm_statistic(a, b, d)
    for statistic in (mean_path_statistic, energy_statistic):
        with pytest.raises(TypeError):
            statistic(a, b)


@pytest.mark.parametrize(
    "statistic", [mean_path_statistic, energy_statistic], ids=["mean_path", "energy"]
)
def test_statistic_rejects_nan_result(statistic):
    groups = [np.array([[0.0, np.nan]]), np.array([[1.0, 2.0]])]
    with pytest.raises(ValueError, match="statistic must be nonnegative, got nan"):
        statistic(groups)
