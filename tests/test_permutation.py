import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from funcperm import (
    MeasureDraws,
    MeasureSpec,
    PermutationDistribution,
    TimeGrid,
    combine_tests,
    combined_p_value,
    critical_value,
    cvm_statistic,
    decide,
    draw_functions,
    energy_statistic,
    indicator_matrix,
    make_plans,
    mean_path_statistic,
    median_peak,
    number_of_assignments,
    p_value,
    permutation_statistics,
    sampled_plan_matrix,
)
from funcperm import permutation as permutation_module
from funcperm import stats as stats_module
from funcperm.rng import substream


def dist_of(values) -> PermutationDistribution:
    return PermutationDistribution(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# plan generation
# ---------------------------------------------------------------------------

def test_exhaustive_two_one():
    plans = make_plans((2, 1), "exhaustive")
    assert len(plans) == 3  # 3!/(2!1!)
    assert plans[0].assignment.tolist() == [0, 0, 1]


def test_exhaustive_three_three():
    plans = make_plans((3, 3), "exhaustive")
    assert len(plans) == 20  # C(6, 3)
    seen = {tuple(p.assignment.tolist()) for p in plans}
    assert len(seen) == 20  # all distinct


def test_exhaustive_multinomial_count():
    plans = make_plans((2, 1, 1), "exhaustive")
    assert len(plans) == number_of_assignments((2, 1, 1)) == 12


def test_exhaustive_cap_enforced(monkeypatch):
    # (12, 12) has 2,704,156 assignments, above the cap of 1,000,000;
    # none is enumerated
    def no_work(*args):
        raise AssertionError("assignments were enumerated past the cap")

    monkeypatch.setattr(permutation_module, "_all_assignments", no_work)
    with pytest.raises(ValueError, match="2704156 assignments, above the cap of 1000000"):
        make_plans((12, 12), "exhaustive")


def test_sampled_identity_first():
    plans = make_plans((4, 3, 2), "sampled", count=25, seed=5)
    assert plans[0].assignment.tolist() == [0] * 4 + [1] * 3 + [2] * 2
    for p in plans:
        assert np.bincount(p.assignment, minlength=3).tolist() == [4, 3, 2]


def test_sampled_deterministic_per_index():
    a = make_plans((5, 5), "sampled", count=10, seed=9)
    b = make_plans((5, 5), "sampled", count=10, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.assignment, y.assignment)
    # plans come from one stream in plan order, so a shorter list is a
    # prefix of a longer one
    c = make_plans((5, 5), "sampled", count=4, seed=9)
    for x, y in zip(c, a):
        assert np.array_equal(x.assignment, y.assignment)


def test_sampled_single_plan_is_identity():
    plans = make_plans((3, 2), "sampled", count=1, seed=4)
    assert len(plans) == 1
    assert plans[0].assignment.tolist() == [0, 0, 0, 1, 1]


def test_sampled_plans_uniform_over_assignments():
    # sizes (2, 2) have 6 assignments; every relabeling after the identity
    # must be one of them, and all 6 must turn up at the uniform rate
    count = 3001
    plans = make_plans((2, 2), "sampled", count=count, seed=17)
    rows = np.stack([p.assignment for p in plans[1:]])
    assert np.all(rows.sum(axis=1) == 2)
    assert np.all(np.isin(rows, (0, 1)))
    _, freq = np.unique(rows, axis=0, return_counts=True)
    assert freq.shape[0] == 6
    expected = (count - 1) / 6
    sd = math.sqrt((count - 1) * (1 / 6) * (5 / 6))
    assert np.all(np.abs(freq - expected) <= 5 * sd)


def test_sampled_plan_matrix_is_make_plans_rows():
    matrix = sampled_plan_matrix((4, 7, 1), 50, seed=(3, 2))
    plans = make_plans((4, 7, 1), "sampled", count=50, seed=(3, 2))
    assert matrix.dtype == np.int8
    assert not matrix.flags.writeable
    assert np.array_equal(matrix[0], np.repeat(np.arange(3), (4, 7, 1)))
    assert matrix.tobytes() == np.stack([p.assignment for p in plans]).tobytes()
    with pytest.raises(ValueError):
        matrix[1, 0] = 0


def test_make_plans_validation():
    with pytest.raises(ValueError):
        make_plans((5,), "sampled", count=3)
    with pytest.raises(ValueError):
        make_plans((2, 2), "sampled", count=0)
    with pytest.raises(ValueError):
        make_plans((2, 2), "bogus")
    # labels are int8
    with pytest.raises(ValueError, match="more than 127 groups"):
        make_plans((1,) * 128, "sampled", count=2, seed=1)
    # an ignored count or seed would hide that every assignment is listed
    with pytest.raises(ValueError, match="no plan count or seed"):
        make_plans((2, 2), "exhaustive", count=3, seed=1)
    with pytest.raises(ValueError, match="no plan count or seed"):
        make_plans((2, 2), "exhaustive", seed=1)


def test_sampled_plans_need_explicit_seed():
    # a default seed would share its stream with other defaulted stages
    with pytest.raises(ValueError, match="seed"):
        make_plans((2, 2), "sampled", count=3)
    assert len(make_plans((2, 2), "exhaustive")) == 6


@pytest.mark.parametrize(
    "sizes, digest",
    [
        ((2, 1, 1), "cfc0f9154e02ca49"),
        ((4, 3, 2), "97e23d3b7036ff8f"),
        ((2, 2, 2, 2), "174926fe6f35c6b3"),
        ((3, 2, 2, 1), "f87a7a4ab5628304"),
        ((5, 4, 3), "0d65d49d18393012"),
        ((9, 9), "a526d9461f3b77e4"),
        ((1, 1, 1, 1, 1), "1c0f79a84883e97b"),
    ],
)
def test_exhaustive_order_is_pinned(sizes, digest):
    # the sha256 prefixes of the row-by-row enumeration the plan matrix
    # replaced: same rows, same order, same int8 bytes
    rows = np.stack([p.assignment for p in make_plans(sizes, "exhaustive")])
    assert rows.shape == (number_of_assignments(sizes), sum(sizes))
    assert np.array_equal(rows[0], np.repeat(np.arange(len(sizes)), sizes))
    assert hashlib.sha256(rows.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("mode, count, seed", [("exhaustive", None, None), ("sampled", 30, 4)])
def test_make_plans_rows_are_read_only(mode, count, seed):
    plans = make_plans((3, 2, 2), mode, count, seed)
    for plan in plans:
        assert plan.assignment.dtype == np.int8
        assert not plan.assignment.flags.writeable
        with pytest.raises(ValueError):
            plan.assignment[0] = 1


@pytest.mark.parametrize("mode, count, seed", [("exhaustive", None, None), ("sampled", 5, 1)])
def test_plan_group_sizes_must_be_integers(mode, count, seed):
    with pytest.raises(TypeError):
        make_plans((2.7, 2), mode, count, seed)
    with pytest.raises(TypeError):
        make_plans(("2", 2), mode, count, seed)
    with pytest.raises(TypeError):
        make_plans((True, 2), mode, count, seed)
    plans = make_plans(np.array([2, 2]), mode, count, seed)
    assert plans[0].assignment.tolist() == [0, 0, 1, 1]


def test_sampled_plan_count_must_be_an_integer():
    # True is a flag, not one plan, and 2.0 is not truncated to 2
    for count in (True, 2.0):
        with pytest.raises(TypeError):
            sampled_plan_matrix((2, 2), count, seed=1)
        with pytest.raises(TypeError):
            make_plans((2, 2), "sampled", count, seed=1)
    assert sampled_plan_matrix((2, 2), np.int64(2), seed=1).shape == (2, 4)


# ---------------------------------------------------------------------------
# critical values, p-values, decision rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "stats, message",
    [([], "at least one plan statistic"), ([[1.0, 2.0]], "at least one plan statistic"),
     ([1.0, -1.0], "finite and nonnegative"), ([1.0, np.nan], "finite and nonnegative")],
    ids=["empty", "2-d", "negative", "nan"],
)
def test_distribution_validation(stats, message):
    with pytest.raises(ValueError, match=message):
        PermutationDistribution(stats)


def test_critical_value_definition_cases():
    stats = list(range(1, 21))
    assert critical_value(dist_of(stats), 0.05) == 19.0
    assert critical_value(dist_of(stats), 0.049) == 20.0
    # Q (1 - alpha) below the float guard: the rank is 1, the smallest
    assert critical_value(dist_of(stats), 1 - 1e-12) == 1.0


def test_critical_value_constant_stats():
    for alpha in (0.01, 0.3, 0.9):
        assert critical_value(dist_of([4.0] * 7), alpha) == 4.0


def test_critical_value_reorder_invariant():
    rng = np.random.default_rng(2)
    stats = rng.exponential(size=50)
    t1 = critical_value(dist_of(stats), 0.1)
    t2 = critical_value(dist_of(stats[rng.permutation(50)]), 0.1)
    assert t1 == t2


def test_critical_value_alpha_domain():
    with pytest.raises(ValueError):
        critical_value(dist_of([1.0]), 0.0)
    with pytest.raises(ValueError):
        critical_value(dist_of([1.0]), 1.0)


def test_decide_strictly_above_threshold():
    # identity holds the unique maximum of the 20 distinct plan statistics
    stats = np.concatenate([[20.0], np.arange(1.0, 20.0)])
    res = decide(20.0, dist_of(stats), 0.05, "randomized", substream(0))
    assert res.critical == 19.0
    assert res.phi == 1.0
    assert res.rejected


def test_decide_tie_with_zero_weight():
    # observed equals the critical value and already exhausts Q*alpha
    res = decide(19.0, dist_of(range(1, 21)), 0.05, "randomized", substream(0))
    assert res.critical == 19.0
    assert res.phi == 0.0  # a = (20*0.05 - 1)/1 = 0
    assert not res.rejected


def test_decide_tie_with_half_weight():
    res = decide(5.0, dist_of([5.0, 5.0, 5.0, 5.0]), 0.5, "randomized", substream(1))
    assert res.critical == 5.0
    assert res.phi == 0.5  # a = (4*0.5 - 0)/4


def test_decide_randomized_tie_frequency():
    dist = dist_of([5.0, 5.0, 5.0, 5.0])
    hits = sum(
        decide(5.0, dist, 0.5, "randomized", substream(3, k)).rejected
        for k in range(4000)
    )
    assert abs(hits / 4000 - 0.5) < 0.03


def test_decide_conservative_never_rejects_tie():
    res = decide(5.0, dist_of([5.0, 5.0, 5.0, 5.0]), 0.5, "conservative")
    assert res.phi == 0.0
    assert not res.rejected
    below = decide(1.0, dist_of([1.0, 2.0, 3.0, 4.0]), 0.5, "conservative")
    assert not below.rejected
    above = decide(4.0, dist_of([4.0, 1.0, 2.0, 3.0]), 0.5, "conservative")
    assert above.rejected  # 4 > t* = 3


def test_decide_randomized_requires_rng_on_tie():
    with pytest.raises(ValueError, match="generator"):
        decide(5.0, dist_of([5.0, 5.0]), 0.5, "randomized")


def test_decide_randomized_requires_rng_without_a_tie():
    # whether a call fails must not depend on the data: below and above
    # the critical value 2 fail as the tie does
    with pytest.raises(ValueError, match="generator"):
        decide(1.0, dist_of([1.0, 2.0, 3.0, 4.0]), 0.5)
    with pytest.raises(ValueError, match="generator"):
        decide(4.0, dist_of([4.0, 1.0, 2.0, 3.0]), 0.5, "randomized")


@pytest.mark.parametrize("observed", [float("nan"), float("inf"), -float("inf")])
def test_decide_rejects_non_finite_observed(observed):
    # a NaN compares false with everything and would read as p = 0, not
    # rejected
    with pytest.raises(ValueError, match="finite"):
        decide(observed, dist_of([1.0, 2.0, 3.0, 4.0]), 0.5, "conservative")


def test_p_value_cases():
    stats = np.arange(1.0, 501.0)
    assert p_value(500.0, dist_of(stats)) == pytest.approx(1 / 500)
    assert p_value(1.0, dist_of(stats)) == 1.0
    assert p_value(3.0, dist_of([1.0, 2.0, 3.0, 4.0])) == 0.5


def test_p_value_at_least_one_over_q():
    rng = np.random.default_rng(4)
    stats = rng.exponential(size=37)
    assert p_value(float(stats.max()), dist_of(stats)) >= 1 / 37


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def _result(rejected: bool, p: float, level: float):
    from funcperm import TestResult

    return TestResult(
        observed=1.0,
        critical=1.0,
        p_value=p,
        phi=1.0 if rejected else 0.0,
        rejected=rejected,
        mode="randomized",
        level=level,
    )


@pytest.mark.parametrize(
    "rej_a,rej_b,expected",
    [(True, False, True), (False, False, False), (False, True, True)],
)
def test_combination_is_either_rejects(rej_a, rej_b, expected):
    combined = combine_tests(_result(rej_a, 0.5, 0.03), _result(rej_b, 0.5, 0.02))
    assert combined.rejected is expected
    assert combined.cvm.p_value == 0.5
    assert combined.mean_path.p_value == 0.5


def test_combined_p_value_examples():
    assert combined_p_value(0.016, 1.0, 0.04, 0.01) == pytest.approx(0.02)
    assert combined_p_value(1.0, 1.0, 0.04, 0.01) == 1.0
    assert combined_p_value(0.02, 1.0, 0.025, 0.025) == pytest.approx(0.04)


def test_combined_p_value_validation():
    with pytest.raises(ValueError):
        combined_p_value(0.5, 0.5, 0.0, 0.05)
    with pytest.raises(ValueError):
        combined_p_value(0.5, 0.5, 0.6, 0.5)


def test_combined_p_value_matches_conservative_rule():
    # conservative either-rejects at the total level iff the combined
    # p-value is at or below that total
    rng = np.random.default_rng(6)
    q = 40
    for _ in range(200):
        stats_a = np.round(rng.exponential(size=q), 3)
        stats_b = np.round(rng.exponential(size=q), 3)
        alpha_a, alpha_b = 0.04, 0.01
        obs_a, obs_b = float(stats_a[0]), float(stats_b[0])
        da, db = dist_of(stats_a), dist_of(stats_b)
        ra = decide(obs_a, da, alpha_a, "conservative")
        rb = decide(obs_b, db, alpha_b, "conservative")
        combined = combined_p_value(ra.p_value, rb.p_value, alpha_a, alpha_b)
        total = alpha_a + alpha_b
        # skip knife-edge float coincidences
        if abs(combined - total) < 1e-9:
            continue
        assert (ra.rejected or rb.rejected) == (combined <= total)


# ---------------------------------------------------------------------------
# engine versus standalone statistics and brute force
# ---------------------------------------------------------------------------

def _partitions(free, sizes):
    """Every split of ``free`` into blocks of ``sizes``, group 0 first."""
    if not sizes:
        yield []
        return
    for combo in itertools.combinations(free, sizes[0]):
        rest = [i for i in free if i not in combo]
        for tail in _partitions(rest, sizes[1:]):
            yield [list(combo)] + tail


def brute_force_plan_stats(pooled, sizes, draws_values):
    """Independent enumerator: plain Python loops over combinations.

    Sums control-versus-treatment terms for any number of groups.
    """
    rows = [tuple(r) for r in np.asarray(pooled).tolist()]
    zlist = [tuple(z) for z in np.asarray(draws_values).tolist()]
    width = len(rows[0])

    def cdf(group, z):
        hits = sum(1 for r in group if all(r[j] <= z[j] for j in range(width)))
        return hits / len(group)

    def distance(u, v):
        return sum((x - y) ** 2 for x, y in zip(u, v)) ** 0.5

    def mean_distance(g, h):
        return sum(distance(u, v) for u in g for v in h) / (len(g) * len(h))

    out_cvm, out_mean, out_energy = [], [], []
    for blocks in _partitions(list(range(len(rows))), list(sizes)):
        groups = [[rows[i] for i in block] for block in blocks]
        a = groups[0]
        n0 = len(a)
        tot_cvm = tot_mean = tot_energy = 0.0
        for b in groups[1:]:
            n1 = len(b)
            acc = 0.0
            for z in zlist:
                acc += (cdf(a, z) - cdf(b, z)) ** 2
            tot_cvm += (n0 + n1) * (acc / len(zlist))
            acc = 0.0
            for j in range(width):
                ma = sum(r[j] for r in a) / n0
                mb = sum(r[j] for r in b) / n1
                acc += (ma - mb) ** 2
            tot_mean += (n0 + n1) * acc / width
            tot_energy += n0 * n1 / (n0 + n1) * (
                2 * mean_distance(a, b) - mean_distance(a, a) - mean_distance(b, b)
            )
        out_cvm.append(tot_cvm)
        out_mean.append(tot_mean)
        out_energy.append(tot_energy)
    return out_cvm, out_mean, out_energy


def test_engine_matches_brute_force_exactly():
    # dyadic path and draw values at width one keep every intermediate
    # quantity exactly representable, so the two independently coded
    # reductions must agree bit for bit
    rng = np.random.default_rng(11)
    pooled = rng.integers(-8, 9, size=(6, 1)) * 0.25
    zvals = rng.integers(-8, 9, size=(3, 1)) * 0.25
    plans = make_plans((3, 3), "exhaustive")
    stats = permutation_statistics(
        pooled, (3, 3), plans, ("cvm", "mean_path", "energy"), MeasureDraws(values=zvals)
    )
    oc, om, oe = brute_force_plan_stats(pooled, (3, 3), zvals)
    assert stats["cvm"].tolist() == oc
    assert stats["mean_path"].tolist() == om
    assert stats["energy"].tolist() == oe


def test_engine_matches_brute_force_general_data():
    rng = np.random.default_rng(12)
    pooled = rng.normal(size=(7, 3))
    zvals = rng.normal(size=(5, 3))
    plans = make_plans((4, 3), "exhaustive")
    stats = permutation_statistics(
        pooled, (4, 3), plans, ("cvm", "mean_path", "energy"), MeasureDraws(values=zvals)
    )
    oc, om, oe = brute_force_plan_stats(pooled, (4, 3), zvals)
    assert np.allclose(stats["cvm"], oc, rtol=1e-12, atol=1e-14)
    assert np.allclose(stats["mean_path"], om, rtol=1e-12, atol=1e-14)
    assert np.allclose(stats["energy"], oe, rtol=1e-12, atol=1e-14)


def test_engine_matches_brute_force_three_groups():
    # every one of the 7!/(3!2!2!) = 210 plans, against the plain-loop oracle
    rng = np.random.default_rng(16)
    sizes = (3, 2, 2)
    pooled = rng.normal(size=(7, 3))
    zvals = rng.normal(size=(6, 3))
    plans = make_plans(sizes, "exhaustive")
    assert len(plans) == 210
    stats = permutation_statistics(
        pooled, sizes, plans, ("cvm", "mean_path", "energy"), MeasureDraws(values=zvals)
    )
    oc, om, oe = brute_force_plan_stats(pooled, sizes, zvals)
    assert np.allclose(stats["cvm"], oc, rtol=1e-12, atol=1e-14)
    assert np.allclose(stats["mean_path"], om, rtol=1e-12, atol=1e-14)
    assert np.allclose(stats["energy"], oe, rtol=1e-12, atol=1e-14)


def test_engine_identity_plan_matches_standalone():
    rng = np.random.default_rng(13)
    sizes = (4, 3, 5)
    groups = [rng.normal(size=(n, 4)) for n in sizes]
    pooled = np.vstack(groups)
    draws = MeasureDraws(values=rng.normal(size=(17, 4)))
    plans = make_plans(sizes, "sampled", count=6, seed=8)
    stats = permutation_statistics(
        pooled, sizes, plans, ("cvm", "mean_path", "energy"), draws
    )
    assert stats["cvm"][0] == cvm_statistic(groups, draws)
    assert stats["mean_path"][0] == pytest.approx(
        mean_path_statistic(groups), rel=1e-12
    )
    assert stats["energy"][0] == pytest.approx(
        energy_statistic(groups), rel=1e-12
    )


def test_engine_repeated_partition_is_bit_identical(monkeypatch):
    # each statistic is a fixed function of the partition, so a plan that
    # repeats the identity must reproduce its value exactly, wherever it
    # sits in the plan matrix; with 5-row CvM blocks the repeats sit in
    # the first, second and last (short) block
    monkeypatch.setattr(stats_module, "_block_rows", lambda *shape: 5)
    rng = np.random.default_rng(15)
    sizes = (4, 3, 5)
    pooled = rng.normal(size=(sum(sizes), 6))
    draws = MeasureDraws(values=rng.normal(size=(33, 6)))
    plans = make_plans(sizes, "sampled", count=12, seed=6)
    matrix = np.stack([p.assignment for p in plans])
    repeats = (3, 7, 11)
    matrix[list(repeats)] = matrix[0]
    names = ("cvm", "mean_path", "energy")
    out = permutation_statistics(pooled, sizes, matrix, names, draws)
    for name in names:
        stats = out[name]
        for row in repeats:
            assert stats[row] == stats[0], (name, row)


def _cvm_case(sizes, width, n_draws, q, seed):
    rng = np.random.default_rng(seed)
    pooled = rng.normal(size=(sum(sizes), width))
    draws = MeasureDraws(values=rng.normal(size=(n_draws, width)))
    return pooled, draws, sampled_plan_matrix(sizes, q, seed=(seed, 2))


@pytest.mark.parametrize("block_rows", [7, 12])
def test_engine_cvm_blocks_match_one_call(monkeypatch, block_rows):
    # 50 plans in blocks of rows (the last one short) against one block: the
    # counts are exact integers and the float64 steps work row by row
    sizes = (6, 5, 7, 4)
    pooled, draws, matrix = _cvm_case(sizes, 5, 40, 50, seed=21)
    whole = permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)["cvm"]
    monkeypatch.setattr(stats_module, "_block_rows", lambda *shape: block_rows)
    blocked = permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)["cvm"]
    assert blocked.tobytes() == whole.tobytes()


def test_engine_cvm_block_rows_at_cohort_shape():
    # 4 treatments, N = 1492 paths, about half of L = 4000 draws informative:
    # the label planes and cvm's bytes per row leave at least 128 rows a block
    pooled, sizes, _, draws = _cohort_case(4000)
    row_bytes, _ = stats_module._STATISTICS["cvm"].prepare(pooled, sizes, draws)
    assert stats_module._block_rows(len(sizes) * len(pooled) + row_bytes) >= 128


@pytest.mark.parametrize("label", [0, 2])
def test_engine_cvm_checks_plan_sizes_in_every_block(monkeypatch, label):
    # a plan in the last block moves one path of group `label` to a label
    # that no group has; every statistic, and the call for none, shares the
    # blocks and their size check
    monkeypatch.setattr(stats_module, "_block_rows", lambda *shape: 4)
    sizes = (3, 3, 3)
    pooled, draws, matrix = _cvm_case(sizes, 3, 20, 10, seed=22)
    matrix = matrix.copy()
    matrix[9, np.flatnonzero(matrix[9] == label)[0]] = 5
    for statistics in (("cvm",), ("mean_path",), ("energy",), ()):
        with pytest.raises(ValueError, match="group sizes"):
            permutation_statistics(pooled, sizes, matrix, statistics, draws)


def test_engine_cvm_without_informative_draws_is_zero():
    # every draw lies above every path: no draw separates the groups
    sizes = (3, 4)
    pooled, _, matrix = _cvm_case(sizes, 3, 1, 9, seed=23)
    draws = MeasureDraws(values=np.full((5, 3), pooled.max() + 1.0))
    out = permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)["cvm"]
    assert out.tolist() == [0.0] * 9


def _cvm_integer_oracle(pooled, sizes, matrix, draws):
    """cvm per plan from int64 group counts, with the engine's float64 steps
    in the engine's order, so a layout that counts exactly matches it
    bit for bit."""
    ind = indicator_matrix(pooled, draws.values)
    pooled_count = ind.sum(axis=0)
    ind = ind[:, (pooled_count > 0) & (pooled_count < len(pooled))].astype(np.int64)
    control = ((matrix == 0).astype(np.int64) @ ind) / sizes[0]
    total = np.zeros(len(matrix))
    for s in range(1, len(sizes)):
        contrast = control - ((matrix == s).astype(np.int64) @ ind) / sizes[s]
        total += (sizes[0] + sizes[s]) * ((contrast**2).sum(axis=1) / len(draws.values))
    return total


def _cvm_both_layouts(monkeypatch, pooled, sizes, matrix, draws):
    """cvm as the engine packs it, and with one treatment per mask word."""
    packed = permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)["cvm"]
    with monkeypatch.context() as m:
        m.setattr(stats_module, "_cvm_base", lambda sizes: 0)
        single = permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)["cvm"]
    return packed, single


@pytest.mark.parametrize("sizes, base", [
    ((5, 7), 8),
    ((5, 4, 6), 8),
    ((5, 4, 6, 3), 8),
    ((4, 3, 5, 2), 8),
    ((4, 3, 5, 2, 6, 3), 8),
    ((6, 9, 3, 16, 2), 32),
])
def test_engine_cvm_packed_words_match_one_treatment_per_word(monkeypatch, sizes, base):
    # one to five treatments: the last word of an odd count carries one
    assert stats_module._cvm_base(sizes) == base
    pooled, draws, matrix = _cvm_case(sizes, 4, 60, 40, seed=24)
    packed, single = _cvm_both_layouts(monkeypatch, pooled, sizes, matrix, draws)
    assert packed.tobytes() == single.tobytes()
    assert packed.tobytes() == _cvm_integer_oracle(pooled, sizes, matrix, draws).tobytes()


def _two_large_treatments(sizes, q):
    """Width-one paths: control paths above 9, treatment paths in [0, 1),
    and draws between them, so under the identity plan the last draw lies
    above every treatment path and below every control path."""
    rng = np.random.default_rng(25)
    pooled = rng.uniform(size=(sum(sizes), 1))
    pooled[:sizes[0]] += 9.0
    draws = MeasureDraws(values=np.array([[0.25], [0.5], [0.75], [5.0]]))
    return pooled, draws, sampled_plan_matrix(sizes, q, seed=(25, 2))


@pytest.mark.parametrize("sizes, base", [((2, 4095, 4095), 4096), ((2, 4096, 4096), 0)])
def test_engine_cvm_packing_at_the_float32_limit(monkeypatch, sizes, base):
    # treatments of 4095 paths take B = 4096, and the identity plan's word
    # count at the last draw is 4095 + 4096 * 4095 = 2**24 - 1; a treatment
    # of 4096 paths leaves one treatment per word
    assert stats_module._cvm_base(sizes) == base
    pooled, draws, matrix = _two_large_treatments(sizes, 6)
    if base:
        word = (matrix[0] == 1) + base * (matrix[0] == 2)
        assert int(word @ (pooled[:, 0] <= 5.0)) == 2**24 - 1
    packed, single = _cvm_both_layouts(monkeypatch, pooled, sizes, matrix, draws)
    assert packed.tobytes() == single.tobytes()
    assert packed.tobytes() == _cvm_integer_oracle(pooled, sizes, matrix, draws).tobytes()


def test_engine_cvm_packed_words_without_informative_draws(monkeypatch):
    # L' = 0: the product has no columns, in either layout
    sizes = (3, 4, 2, 5)
    pooled, _, matrix = _cvm_case(sizes, 3, 1, 9, seed=26)
    draws = MeasureDraws(values=np.full((5, 3), pooled.max() + 1.0))
    packed, single = _cvm_both_layouts(monkeypatch, pooled, sizes, matrix, draws)
    assert packed.tolist() == single.tolist() == [0.0] * 9


def test_engine_cvm_packed_repeated_identity_in_later_blocks(monkeypatch):
    # 3-row blocks reuse the first block's buffers; the identity repeated in
    # the second, third and last (short) block keeps plan 0's bits
    monkeypatch.setattr(stats_module, "_block_rows", lambda *shape: 3)
    sizes = (5, 4, 6, 3)
    pooled, draws, matrix = _cvm_case(sizes, 4, 60, 10, seed=27)
    repeats = [4, 8, 9]
    matrix = matrix.copy()
    matrix[repeats] = matrix[0]
    packed, single = _cvm_both_layouts(monkeypatch, pooled, sizes, matrix, draws)
    assert packed.tobytes() == single.tobytes()
    assert all(packed[row] == packed[0] for row in repeats)


def _with_constant_draws(zvals, pooled):
    """Append draws above every path and below every path: each has the
    same pooled count (N or 0) under every plan."""
    above = np.full((2, pooled.shape[1]), pooled.max() + 0.5)
    below = np.full((2, pooled.shape[1]), pooled.min() - 0.5)
    return np.vstack([above[:1], below[:1], zvals, above[1:], below[1:]])


def test_engine_constant_draws_add_zero_but_count_in_average():
    # dyadic width-one data and L = 7 < 8 draws: the oracle adds every draw,
    # the engine drops the constant ones; both divide by L, exactly
    rng = np.random.default_rng(17)
    pooled = rng.integers(-8, 9, size=(6, 1)) * 0.25
    zvals = _with_constant_draws(rng.integers(-8, 9, size=(3, 1)) * 0.25, pooled)
    assert zvals.shape[0] == 7
    plans = make_plans((3, 3), "exhaustive")
    out = permutation_statistics(pooled, (3, 3), plans, ("cvm",), MeasureDraws(values=zvals))
    oc, _, _ = brute_force_plan_stats(pooled, (3, 3), zvals)
    assert out["cvm"].tolist() == oc

    # general data, several grid points and L = 13 draws
    pooled = rng.normal(size=(7, 3))
    zvals = _with_constant_draws(rng.normal(size=(9, 3)), pooled)
    plans = make_plans((4, 3), "exhaustive")
    out = permutation_statistics(pooled, (4, 3), plans, ("cvm",), MeasureDraws(values=zvals))
    oc, _, _ = brute_force_plan_stats(pooled, (4, 3), zvals)
    assert np.allclose(out["cvm"], oc, rtol=1e-12, atol=0.0)


def test_engine_rejects_more_paths_than_exact_float32_counts():
    draws = MeasureDraws(values=np.zeros((1, 1)))
    plan = np.zeros((1, 2), dtype=np.int8)
    with pytest.raises(ValueError, match="2\\*\\*24"):
        permutation_statistics(np.zeros((2, 1)), (2**24, 1), plan, ("cvm",), draws)


def test_engine_cvm_peak_memory_bounded():
    # Q = 2000 plans, 3 x 100 paths, J = 24, L = 1000 draws, every draw
    # informative (the most memory the CvM step can need at these sizes)
    rng = np.random.default_rng(3)
    sizes, width, q, n_draws = (100, 100, 100), 24, 2000, 1000
    n = sum(sizes)
    pooled = rng.normal(size=(n, 1)) + 0.1 * rng.normal(size=(n, width))
    levels = rng.uniform(-1.0, 2.0, size=(n_draws, 1))
    draws = MeasureDraws(values=levels + 0.1 * rng.normal(size=(n_draws, width)))
    count = indicator_matrix(pooled, draws.values).sum(axis=0)
    assert np.all((count > 0) & (count < n))
    plans = make_plans(sizes, "sampled", count=q, seed=(5, 2))
    tracemalloc.start()
    try:
        permutation_statistics(pooled, sizes, plans, ("cvm",), draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # live at the peak: the control's float64 (Q, L) means, one treatment's
    # float32 counts and float64 means, the bool group masks and the int8
    # plan matrix, and the (N, L) indicator, its temporary and float32 copy
    layout = 20 * q * n_draws + (len(sizes) + 1) * q * n + 6 * n * n_draws
    assert peak <= 1.1 * layout


def test_engine_cvm_peak_memory_independent_of_q():
    # the sizes of test_engine_cvm_peak_memory_bounded; the plan matrix is
    # built outside the trace, so what grows with Q is only the (Q,) result
    rng = np.random.default_rng(3)
    sizes, width, n_draws = (100, 100, 100), 24, 1000
    n = sum(sizes)
    pooled = rng.normal(size=(n, 1)) + 0.1 * rng.normal(size=(n, width))
    levels = rng.uniform(-1.0, 2.0, size=(n_draws, 1))
    draws = MeasureDraws(values=levels + 0.1 * rng.normal(size=(n_draws, width)))
    peaks = {}
    for q in (2000, 8000):
        matrix = sampled_plan_matrix(sizes, q, seed=(5, 2))
        tracemalloc.start()
        try:
            permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)
            _, peaks[q] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[8000] <= 1.1 * peaks[2000]


def _cohort_case(n_draws):
    """N = 1492 paths in 5 groups, J = 48, Q = 500 plans and ``n_draws``
    draws, about half of them informative, as in the application."""
    rng = np.random.default_rng(31)
    sizes, width, q = (304, 297, 297, 297, 297), 48, 500
    n = sum(sizes)
    noise = rng.normal(size=(n, width))
    for t in range(1, width):
        noise[:, t] = 0.4 * noise[:, t - 1] + math.sqrt(1.0 - 0.4**2) * noise[:, t]
    angle = 2.0 * np.pi * np.arange(width) / width
    pooled = 1.6 + 0.6 * np.sin(angle) + 0.3 * np.sin(2.0 * angle) + 0.5 * noise
    spec = MeasureSpec(n_terms=19, mean_level=median_peak(pooled), seed=(31, 1))
    draws = draw_functions(spec, TimeGrid.regular(width), n_draws)
    return pooled, sizes, sampled_plan_matrix(sizes, q, seed=(31, 2)), draws


def _cvm_peak_bytes(pooled, sizes, matrix, draws) -> int:
    tracemalloc.start()
    try:
        permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_engine_cvm_peak_memory_at_cohort_shape():
    # L = 4000.  The step holds the informative draws' packed uint64 words
    # and, besides them, one draw block (its float32 buffer and the uint8
    # bits unpacked into it) and at most one block of masks, counts and
    # float64 means; it builds no (N, L) or (N, L') matrix
    pooled, sizes, matrix, draws = _cohort_case(4000)
    n, n_draws = len(pooled), len(draws.values)
    words_bytes = stats_module._cvm_hits(pooled, draws.values)[0].nbytes
    assert 0.3 * n_draws < words_bytes / (8 * -(-n // 64)) < 0.7 * n_draws
    draw_block = 5 * stats_module._CVM_DRAW_BLOCK * n
    budget = words_bytes + draw_block + stats_module._BLOCK_BYTES
    assert _cvm_peak_bytes(pooled, sizes, matrix, draws) <= 1.1 * budget


def test_engine_cvm_peak_memory_flat_in_draw_count():
    # the draws are built outside the trace; what grows with L inside it is
    # only the packed words, N / 8 bytes per draw
    peaks = {n_draws: _cvm_peak_bytes(*_cohort_case(n_draws)) for n_draws in (4000, 16000)}
    assert peaks[16000] <= 1.2 * peaks[4000]


@pytest.mark.parametrize("block_rows", [3, 7, 50])
def test_engine_cvm_draw_blocks_are_fixed_in_draw_order(monkeypatch, block_rows):
    # 7-draw blocks split the L' informative draws into several blocks, the
    # last one short, in every plan block; their edges do not depend on the
    # plan blocks, so the values are bit-identical across plan-block sizes,
    # and within float64 rounding of one draw block
    sizes = (6, 5, 7, 4)
    pooled, draws, matrix = _cvm_case(sizes, 5, 120, 50, seed=30)
    one_block = permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)["cvm"]
    n_cols = len(stats_module._cvm_hits(pooled, draws.values)[0])
    assert 2 * 7 < n_cols < stats_module._CVM_DRAW_BLOCK and n_cols % 7
    monkeypatch.setattr(stats_module, "_CVM_DRAW_BLOCK", 7)
    whole = permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)["cvm"]
    monkeypatch.setattr(stats_module, "_block_rows", lambda *shape: block_rows)
    blocked = permutation_statistics(pooled, sizes, matrix, ("cvm",), draws)["cvm"]
    assert blocked.tobytes() == whole.tobytes()
    assert np.all(np.abs(blocked - one_block) <= 1e-15 * one_block)
    groups = [pooled[:6], pooled[6:11], pooled[11:18], pooled[18:]]
    assert blocked[0] == cvm_statistic(groups, draws)


def _engine_peak_bytes(statistic, sizes, width, q) -> int:
    rng = np.random.default_rng(4)
    pooled = rng.normal(size=(sum(sizes), width))
    plans = make_plans(sizes, "sampled", count=q, seed=(6, 2))
    tracemalloc.start()
    try:
        permutation_statistics(pooled, sizes, plans, (statistic,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_engine_mean_path_peak_memory_bounded():
    # Q = 2000 plans, 3 x 100 paths, J = 24
    sizes, width, q = (100, 100, 100), 24, 2000
    n = sum(sizes)
    peak = _engine_peak_bytes("mean_path", sizes, width, q)
    # live at the peak: the int8 plan matrix and the bool group masks, one
    # mask cast to float64, and the control's and one treatment's (Q, J)
    # float64 group-mean blocks
    layout = (len(sizes) + 1) * q * n + 8 * q * n + 16 * q * width
    assert peak <= 1.1 * layout


def test_engine_energy_peak_memory_bounded():
    # Q = 2000 plans, 3 x 100 paths, J = 24
    sizes, width, q = (100, 100, 100), 24, 2000
    n = sum(sizes)
    peak = _engine_peak_bytes("energy", sizes, width, q)
    # live at the peak: the int8 plan matrix and the bool group masks,
    # every mask cast to float64 and its (Q, N) float64 row block
    # (mask @ distances), and the N x N distance matrix
    layout = (len(sizes) + 1) * q * n + 16 * len(sizes) * q * n + 8 * n * n
    assert peak <= 1.1 * layout


@pytest.mark.parametrize("statistic", ["mean_path", "energy"])
def test_engine_peak_memory_independent_of_q(statistic):
    # 3 x 100 paths, J = 24; the plan matrix is built outside the trace, so
    # what grows with Q is only the (Q,) result
    rng = np.random.default_rng(4)
    sizes, width = (100, 100, 100), 24
    pooled = rng.normal(size=(sum(sizes), width))
    peaks = {}
    for q in (2000, 8000):
        matrix = sampled_plan_matrix(sizes, q, seed=(6, 2))
        tracemalloc.start()
        try:
            permutation_statistics(pooled, sizes, matrix, (statistic,))
            _, peaks[q] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[8000] <= 1.1 * peaks[2000]


def test_engine_one_statistic_equals_every_statistic_at_power_shape():
    # a power-study replication's shape: 3 x 20 paths, J = 96, L = 512,
    # Q = 199.  Every statistic set fits one block there, so a call for one
    # statistic gives the bits of the call for all three
    sizes = (20, 20, 20)
    pooled, draws, matrix = _cvm_case(sizes, 96, 512, 199, seed=28)
    names = ("cvm", "mean_path", "energy")
    every = permutation_statistics(pooled, sizes, matrix, names, draws)
    for name in names:
        one = permutation_statistics(pooled, sizes, matrix, (name,), draws)
        assert list(one) == [name]
        assert one[name].tobytes() == every[name].tobytes(), name


def test_engine_blocks_match_one_block_for_every_statistic(monkeypatch):
    # 50 plans in 7-row blocks (the last one short) against one block: cvm
    # bit for bit, mean_path and energy within float64 rounding
    sizes = (6, 5, 7, 4)
    pooled, draws, matrix = _cvm_case(sizes, 5, 40, 50, seed=29)
    names = ("cvm", "mean_path", "energy")
    monkeypatch.setattr(stats_module, "_block_rows", lambda *shape: len(matrix))
    whole = permutation_statistics(pooled, sizes, matrix, names, draws)
    monkeypatch.setattr(stats_module, "_block_rows", lambda *shape: 7)
    blocked = permutation_statistics(pooled, sizes, matrix, names, draws)
    assert blocked["cvm"].tobytes() == whole["cvm"].tobytes()
    for name in ("mean_path", "energy"):
        assert blocked[name] == pytest.approx(whole[name], rel=1e-12), name


def test_engine_rejects_plan_violating_sizes():
    pooled = np.zeros((4, 2))
    bad = np.array([[0, 0, 0, 1]], dtype=np.int8)
    with pytest.raises(ValueError, match="group sizes"):
        permutation_statistics(pooled, (2, 2), bad, ("mean_path",))
    for plans in (np.zeros((1, 5), np.int8), np.zeros(4, np.int8)):
        with pytest.raises(ValueError, match="^plans do not match the pooled sample length$"):
            permutation_statistics(pooled, (2, 2), plans, ("mean_path",))
    with pytest.raises(ValueError, match=r"^unknown statistics \['bogus'\]$"):
        permutation_statistics(pooled, (2, 2), bad, ("mean_path", "bogus"))


# inputs the engine refuses before any work: (pooled, group sizes, message)
_MALFORMED_ENGINE_INPUTS = {
    "one group": (np.zeros((6, 4)), (6,), "need a control group and at least one treatment group"),
    "empty group": (np.zeros((6, 4)), (0, 6), "every group needs at least one path"),
    "row mismatch": (np.zeros((5, 4)), (3, 3), "pooled paths have 5 rows, the group sizes sum to 6"),
    "1-d pooled": (np.zeros(6), (3, 3), "paths must be a 2-d matrix"),
}


@pytest.mark.parametrize("statistic", ["cvm", "mean_path", "energy"])
@pytest.mark.parametrize("case", list(_MALFORMED_ENGINE_INPUTS))
def test_engine_refuses_malformed_groups_and_pooled(case, statistic):
    # the plan gives each group its size, so only the groups or the pooled
    # matrix are at fault; the messages are those of the standalone checks
    pooled, sizes, message = _MALFORMED_ENGINE_INPUTS[case]
    plan = np.repeat(np.arange(len(sizes)), sizes)[None].astype(np.int8)
    draws = MeasureDraws(values=np.random.default_rng(32).normal(size=(8, 4)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        permutation_statistics(pooled, sizes, plan, (statistic,), draws)


def test_engine_refuses_plans_that_are_not_integer_labels(monkeypatch):
    # a float (0./1.) matrix, a bool matrix and a list of plain label arrays
    # are refused before the indicator is built, for every statistic
    sizes = (3, 3)
    pooled, draws, matrix = _cvm_case(sizes, 3, 8, 4, seed=34)

    def no_work(*args):
        raise AssertionError("the indicator was built before the plan check")

    monkeypatch.setattr(stats_module, "_indicator_words", no_work)
    message = "^plans must be an integer \\(Q, N\\) label matrix or plan objects$"
    for plans in (matrix.astype(float), matrix == 1, list(matrix)):
        for statistics in (("cvm", "mean_path", "energy"), ()):
            with pytest.raises(ValueError, match=message):
                permutation_statistics(pooled, sizes, plans, statistics, draws)


def test_engine_checks_every_statistic_before_any_set_up(monkeypatch):
    # cvm's check runs before energy's distance matrix is built, whatever
    # the requested order; the result follows the table's order, once each
    sizes = (3, 4)
    pooled, draws, matrix = _cvm_case(sizes, 3, 8, 5, seed=35)
    with monkeypatch.context() as m:
        m.setattr(stats_module, "pairwise_distances", lambda points: pytest.fail("set-up ran first"))
        with pytest.raises(ValueError, match="needs measure draws"):
            permutation_statistics(pooled, sizes, matrix, ("energy", "cvm"), None)
    repeated = permutation_statistics(pooled, sizes, matrix, ("energy", "cvm", "cvm"), draws)
    reordered = permutation_statistics(pooled, sizes, matrix, ("cvm", "energy"), draws)
    assert list(repeated) == list(reordered) == ["cvm", "energy"]
    for name in reordered:
        assert repeated[name].tobytes() == reordered[name].tobytes(), name


def test_engine_without_plans_returns_empty_arrays():
    sizes = (3, 4)
    pooled, draws, _ = _cvm_case(sizes, 3, 8, 1, seed=33)
    names = ("cvm", "mean_path", "energy")
    out = permutation_statistics(pooled, sizes, np.zeros((0, 7), np.int8), names, draws)
    assert {name: stats.shape for name, stats in out.items()} == {name: (0,) for name in names}


def test_conservative_rule_never_exceeds_level_under_null():
    # size check at a scale small enough for the test suite: the
    # conservative rule may under-reject but must not over-reject
    rng_data = substream(44)
    reps = 600
    alpha = 0.10
    hits = 0
    for rep in range(reps):
        pooled = rng_data.normal(size=(12, 3))
        # key (44, 0) would be the data stream itself: trailing zeros alias
        plans = make_plans((6, 6), "sampled", count=99, seed=(44, 1, rep))
        dist = PermutationDistribution(
            permutation_statistics(pooled, (6, 6), plans, ("mean_path",))["mean_path"]
        )
        hits += decide(dist.observed, dist, alpha, "conservative").rejected
    rate = hits / reps
    assert rate <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / reps)


def test_run_combined_test_end_to_end():
    from funcperm import FunctionalSample, MeasureSpec, TimeGrid, draw_functions, run_combined_test

    rng = np.random.default_rng(4)
    paths = np.vstack([rng.normal(size=(8, 5)), rng.normal(size=(8, 5)) + 6.0])
    sample = FunctionalSample(paths, [0] * 8 + [1] * 8, TimeGrid.regular(5))
    draws = draw_functions(MeasureSpec(n_terms=3, mean_level=3.0, seed=1), sample.grid, 64)
    plans = make_plans(sample.group_sizes, "sampled", count=99, seed=2)
    result = run_combined_test(sample, draws, plans, 0.025, 0.025, seed=3)
    # groups six sigma apart: the mean-path component is certain to reject
    assert result.mean_path.rejected
    assert result.rejected
    assert result.p_value_combined <= 0.05
    assert result.cvm.level == 0.025 and result.mean_path.level == 0.025


@pytest.mark.parametrize(
    "levels, mode, message",
    [
        ((0.6, 0.6), "randomized", "^component levels must sum to less than one$"),
        ((0.0, 0.05), "randomized", "^component levels must be positive$"),
        ((0.025, 0.025), "bogus", "^unknown decision mode 'bogus'$"),
    ],
    ids=["level-sum", "level-zero", "mode"],
)
def test_run_combined_test_checks_levels_and_mode_before_any_work(monkeypatch, levels, mode, message):
    from funcperm import FunctionalSample, run_combined_test

    def no_work(*args):
        raise AssertionError("the statistics were computed before the checks")

    # permutation imports the engine by name, so both bindings are patched
    monkeypatch.setattr(stats_module, "permutation_statistics", no_work)
    monkeypatch.setattr(permutation_module, "permutation_statistics", no_work)
    rng = np.random.default_rng(5)
    sample = FunctionalSample(rng.normal(size=(8, 4)), [0] * 4 + [1] * 4, TimeGrid.regular(4))
    draws = draw_functions(MeasureSpec(n_terms=3, mean_level=0.0, seed=1), sample.grid, 16)
    plans = sampled_plan_matrix((4, 4), 9, seed=2)
    with pytest.raises(ValueError, match=message):
        run_combined_test(sample, draws, plans, *levels, mode, seed=3)


def test_run_combined_test_needs_the_identity_first():
    # each component decides on plan 0's statistic, so a plan set that
    # does not start at the identity would test some other partition
    from funcperm import FunctionalSample, run_combined_test

    rng = np.random.default_rng(6)
    paths = np.vstack([rng.normal(size=(10, 6)), rng.normal(size=(10, 6)) + 1.0])
    sample = FunctionalSample(paths, [0] * 10 + [1] * 10, TimeGrid.regular(6))
    draws = draw_functions(MeasureSpec(n_terms=3, mean_level=1.0, seed=1), sample.grid, 64)
    matrix = sampled_plan_matrix((10, 10), 99, seed=2)
    with pytest.raises(ValueError, match="identity"):
        run_combined_test(sample, draws, matrix[::-1], 0.025, 0.025, seed=3)
    with pytest.raises(ValueError, match="identity"):
        run_combined_test(sample, draws, make_plans((10, 10), "sampled", 99, seed=2)[1:], seed=3)
    from_matrix = run_combined_test(sample, draws, matrix, 0.025, 0.025, seed=3)
    from_list = run_combined_test(sample, draws, make_plans((10, 10), "sampled", 99, seed=2), seed=3)
    assert from_matrix == from_list
    assert from_matrix.cvm.observed == cvm_statistic([paths[:10], paths[10:]], draws)


def test_hand_evaluation_of_critical_value_and_weight_on_tiny_sample():
    # sizes (3, 3), exhaustive: check t* and the randomized weight against
    # a by-the-definition evaluation on the realized statistics
    rng = np.random.default_rng(14)
    pooled = rng.normal(size=(6, 2))
    plans = make_plans((3, 3), "exhaustive")
    dist = PermutationDistribution(
        permutation_statistics(pooled, (3, 3), plans, ("mean_path",))["mean_path"]
    )
    alpha = 0.1
    ordered = sorted(dist.stats.tolist())
    k = math.ceil(20 * (1 - alpha))
    t_star = ordered[k - 1]
    assert critical_value(dist, alpha) == t_star
    q_plus = sum(1 for s in dist.stats if s > t_star)
    q_zero = sum(1 for s in dist.stats if s == t_star)
    res = decide(dist.observed, dist, alpha, "conservative")
    if dist.observed == t_star:
        assert res.phi == 0.0
    expected_a = (20 * alpha - q_plus) / q_zero
    res_rand = decide(t_star, dist, alpha, "randomized", substream(1))
    assert res_rand.phi == pytest.approx(expected_a)
