import math
import tracemalloc

import numpy as np
import pytest

from funcperm import (
    COEFF_LAWS,
    FunctionalSample,
    MeasureDraws,
    MeasureSpec,
    TimeGrid,
    basis_matrix,
    draw_functions,
    expand_coefficients,
    median_peak,
    trig_basis,
)


def _pointwise_variance(spec, grid):
    """Exact Var[Z(t)] at each grid point: coeff_sd^2 * sum_k psi_k(t)^2."""
    return spec.coeff_sd**2 * np.sum(basis_matrix(spec.n_terms, grid) ** 2, axis=0)


def test_basis_first_element_is_constant():
    assert trig_basis(1, 1, 10) == 1.0
    assert trig_basis(1, 7, 10) == 1.0


def test_basis_cosine_at_midpoint():
    # argument vanishes at t = T/2, so the cosine element equals sqrt(2)
    assert trig_basis(2, 5, 10) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_basis_sine_at_midpoint():
    assert trig_basis(3, 5, 10) == pytest.approx(0.0, abs=1e-12)


def test_basis_rejects_bad_index():
    with pytest.raises(ValueError):
        trig_basis(0, 1, 10)


def test_basis_matrix_shape_and_rows():
    grid = TimeGrid.regular(8)
    psi = basis_matrix(5, grid)
    assert psi.shape == (5, 8)
    t = np.arange(1, 9, dtype=float)
    assert np.array_equal(psi[0], np.ones(8))
    assert np.allclose(psi[1], math.sqrt(2) * np.cos(np.pi * (2 * t - 8) / 8))
    assert np.allclose(psi[2], math.sqrt(2) * np.sin(np.pi * (2 * t - 8) / 8))


def test_basis_matrix_is_shared_and_read_only():
    grid = TimeGrid.regular(96)
    psi = basis_matrix(19, grid)
    assert basis_matrix(19, TimeGrid.regular(96)) is psi
    assert not psi.flags.writeable
    t = np.arange(1, 97, dtype=float)
    fresh = np.vstack([trig_basis(k, t, 96) for k in range(1, 20)])
    assert psi.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        psi[0, 0] = 2.0


def test_median_peak_hand_case():
    paths = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 5.0]])
    # per-unit maxima {2, 3, 5} -> median 3
    assert median_peak(paths) == 3.0


def test_median_peak_constant_paths():
    assert median_peak(np.full((4, 6), 2.5)) == 2.5


def test_median_peak_single_unit():
    assert median_peak(np.array([[0.3, 1.7, -2.0]])) == 1.7


def test_median_peak_even_count_averages():
    paths = np.array([[1.0], [2.0], [4.0], [8.0]])
    assert median_peak(paths) == 3.0


def test_median_peak_accepts_sample():
    sample = FunctionalSample(np.array([[1.0, 4.0], [2.0, 0.0]]), [0, 1], TimeGrid.regular(2))
    assert median_peak(sample) == 3.0


def test_median_peak_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        median_peak(np.empty((0, 3)))


def test_spec_validations():
    with pytest.raises(ValueError, match="odd"):
        MeasureSpec(n_terms=4, mean_level=0.0)
    with pytest.raises(ValueError, match="law"):
        MeasureSpec(n_terms=3, mean_level=0.0, law="cauchy")
    assert MeasureSpec(n_terms=9, mean_level=0.0).coeff_sd == pytest.approx(1 / 3)
    # a fractional n_terms must not pass the checks and fail inside
    # draw_functions
    with pytest.raises(TypeError):
        MeasureSpec(3.5, 0.0)
    with pytest.raises(TypeError):
        MeasureSpec("3", 0.0)
    with pytest.raises(TypeError):
        MeasureSpec(True, 0.0)
    spec = MeasureSpec(np.int64(3), 0.0)
    assert type(spec.n_terms) is int and spec.n_terms == 3


def test_single_term_rows_are_constant():
    spec = MeasureSpec(n_terms=1, mean_level=2.0, seed=4)
    draws = draw_functions(spec, TimeGrid.regular(6), 10)
    assert np.all(draws.values == draws.values[:, :1])


def test_forced_coefficients_give_constant_row():
    grid = TimeGrid.regular(7)
    row = expand_coefficients(np.array([3.25, 0.0, 0.0]), grid)
    assert np.allclose(row, 3.25, atol=1e-14)


def test_draws_are_deterministic():
    grid = TimeGrid.regular(12)
    spec = MeasureSpec(n_terms=7, mean_level=1.0, seed=99)
    a = draw_functions(spec, grid, 50)
    b = draw_functions(spec, grid, 50)
    assert np.array_equal(a.values, b.values)
    c = draw_functions(MeasureSpec(n_terms=7, mean_level=1.0, seed=100), grid, 50)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("law", COEFF_LAWS)
def test_draw_prefix_stable_in_count(law):
    # all draws come from one stream filled in row order, so longer runs
    # extend shorter ones; student-t's rejection sampler must keep this too
    grid = TimeGrid.regular(5)
    spec = MeasureSpec(n_terms=3, mean_level=0.0, law=law, seed=21)
    short = draw_functions(spec, grid, 10).values
    long = draw_functions(spec, grid, 25).values
    assert np.array_equal(long[:10], short)


@pytest.mark.parametrize("law", ["gaussian", "uniform", "student-t"])
def test_mean_level_recovered(law):
    # sample mean of Z(t) must sit within Monte Carlo bands of the mean
    # level at every t; the exact variance of Z(t) gives the band width.
    grid = TimeGrid.regular(16)
    n_draws = 4000
    spec = MeasureSpec(n_terms=19, mean_level=1.5, law=law, seed=7)
    draws = draw_functions(spec, grid, n_draws)
    var_t = _pointwise_variance(spec, grid)
    band = 4.0 * np.sqrt(var_t / n_draws)
    err = np.abs(draws.values.mean(axis=0) - 1.5)
    assert np.all(err <= band)


def test_pointwise_variance_matched_by_samples():
    grid = TimeGrid.regular(10)
    n_draws = 6000
    spec = MeasureSpec(n_terms=9, mean_level=0.0, seed=13)
    draws = draw_functions(spec, grid, n_draws)
    var_t = _pointwise_variance(spec, grid)
    sample_var = draws.values.var(axis=0, ddof=1)
    # variance of a variance estimate ~ 2 var^2 / (n-1) for gaussian draws
    band = 5.0 * var_t * np.sqrt(2.0 / (n_draws - 1))
    assert np.all(np.abs(sample_var - var_t) <= band)


def test_variance_sums_to_one_with_default_sd():
    # sum_k psi_k(t)^2 = n_terms at every t, so the coefficient scale
    # 1/sqrt(n_terms) gives unit pointwise variance
    grid = TimeGrid.regular(30)
    assert np.allclose(np.sum(basis_matrix(11, grid) ** 2, axis=0), 11.0, atol=1e-12)
    spec = MeasureSpec(n_terms=11, mean_level=0.0, seed=0)
    assert np.allclose(_pointwise_variance(spec, grid), 1.0, atol=1e-12)


def test_uniform_law_is_bounded():
    spec = MeasureSpec(n_terms=5, mean_level=0.0, law="uniform", seed=3)
    from funcperm import draw_coefficients

    coeffs = draw_coefficients(spec, 500)
    assert np.max(np.abs(coeffs)) <= math.sqrt(3.0) / math.sqrt(5) + 1e-12


def test_draws_validation():
    with pytest.raises(ValueError, match="non-finite"):
        MeasureDraws(values=np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="nonempty"):
        MeasureDraws(values=np.empty((0, 3)))


def test_draws_copy_a_callers_array():
    # a writeable array, and a read-only view of one, are copied: changing
    # the caller's array afterwards leaves the draws as they were
    values = np.arange(6.0).reshape(2, 3)
    view = values.view()
    view.flags.writeable = False
    draws, from_view = MeasureDraws(values=values), MeasureDraws(values=view)
    values[0, 0] = 99.0
    assert draws.values.tolist() == from_view.values.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert not draws.values.flags.writeable and not from_view.values.flags.writeable


def test_draw_functions_holds_one_copy_of_the_draws():
    # L = 16000, J = 48: the (L, J) product goes to MeasureDraws without a
    # second copy, so at the peak it lives beside the (L, K) coefficients only
    spec = MeasureSpec(n_terms=19, mean_level=1.0, seed=1)
    grid = TimeGrid.regular(48)
    draw_functions(spec, grid, 1)  # the cached basis is built outside the trace
    tracemalloc.start()
    try:
        draws = draw_functions(spec, grid, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draws.values.base is None and not draws.values.flags.writeable
    assert peak <= 1.1 * (draws.values.nbytes + 8 * 16000 * 19)
