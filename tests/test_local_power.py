import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from funcperm import (
    correlation_comparison_power,
    cvm_power_correlation_shift,
    cvm_power_mean_shift,
    cvm_power_variance_shift,
    mean_comparison_power,
    mean_shift_ncp_coefficient,
    null_variance,
    shift_curve,
    variance_comparison_power,
)
from funcperm.local_power import SHIFTS

ALL_POWERS_AT_ZERO = [
    lambda: cvm_power_mean_shift(0.0, 0.4, 0.4),
    lambda: mean_comparison_power(0.0),
    lambda: cvm_power_variance_shift(0.0, -0.4, 0.4),
    lambda: variance_comparison_power(0.0),
    lambda: cvm_power_correlation_shift(0.0, -0.2, 0.2),
    lambda: correlation_comparison_power(0.0),
]


def test_null_variance_hand_values():
    # 2 * 0.25 * 0.75 at the origin
    assert null_variance(0.0, 0.0) == pytest.approx(0.375, abs=1e-12)
    assert null_variance(0.4, 0.4) == pytest.approx(0.4901, abs=1e-3)
    assert null_variance(-40.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_mean_shift_ncp_coefficient_reference():
    assert mean_shift_ncp_coefficient(0.4, 0.4) == pytest.approx(0.119, abs=1e-3)


def test_all_powers_equal_level_at_zero_shift():
    for power in ALL_POWERS_AT_ZERO:
        assert power() == pytest.approx(0.05, abs=1e-9)


def test_mean_comparison_beats_cdf_distance_on_mean_shifts():
    # the CDF-distance noncentrality coefficient (~0.119) is far below the
    # mean-comparison one (0.5), and that ordering survives the df-1 vs
    # df-2 critical values across the whole grid
    shifts = np.sqrt(np.linspace(0.25, 100.0, 60))
    for s in shifts:
        assert mean_comparison_power(s) > cvm_power_mean_shift(s, 0.4, 0.4)


def test_cvm_powers_monotone_in_shift_magnitude():
    shifts = np.linspace(0.0, 6.0, 25)
    for fn in (
        lambda s: cvm_power_mean_shift(s, 0.4, 0.4),
        lambda s: cvm_power_variance_shift(s, -0.4, 0.4),
        lambda s: cvm_power_correlation_shift(s, -0.2, 0.2),
        mean_comparison_power,
    ):
        values = [fn(s) for s in shifts]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_powers_live_between_level_and_one():
    rng = np.random.default_rng(1)
    for _ in range(80):
        s = float(rng.uniform(0.0, 8.0))
        for value in (
            cvm_power_mean_shift(s, 0.4, 0.4),
            mean_comparison_power(s),
            cvm_power_variance_shift(s, -0.4, 0.4),
            variance_comparison_power(s),
            cvm_power_correlation_shift(s, -0.2, 0.2),
            correlation_comparison_power(s),
        ):
            assert 0.05 - 1e-9 <= value <= 1.0


def test_variance_power_vanishes_at_origin_points():
    # the variance-shift drift is identically zero at (0, 0)
    for s in (0.5, 1.0, 3.0):
        assert cvm_power_variance_shift(s, 0.0, 0.0) == pytest.approx(0.05, abs=1e-9)


def test_variance_comparison_close_to_cdf_distance_at_good_points():
    # at evaluation points (-0.4, 0.4) the two variance-shift curves stay
    # within 0.07 of each other over the plotted range, comparison on top
    for s in np.linspace(0.0, 2.0, 21):
        gap = variance_comparison_power(s) - cvm_power_variance_shift(s, -0.4, 0.4)
        assert -1e-9 <= gap <= 0.07


def test_correlation_power_symmetric_in_sign():
    for r in (0.3, 1.1, 2.0):
        assert cvm_power_correlation_shift(r, -0.2, 0.2) == cvm_power_correlation_shift(
            -r, -0.2, 0.2
        )
        assert correlation_comparison_power(r) == correlation_comparison_power(-r)


def test_curve_builders_zero_row_and_metadata():
    curve = shift_curve("mean", [0.0, 1.0, 2.0], 0.4, 0.4)
    assert curve.powers["cdf_distance"][0] == pytest.approx(0.05, abs=1e-9)
    assert curve.abscissa == (0.0, 1.0, 4.0)  # squared shifts
    text = curve.to_csv_text()
    assert "# eval_points = (0.4, 0.4)" in text
    assert "shift_squared,cdf_distance,mean_comparison" in text

    vcurve = shift_curve("variance", [0.0, 0.5], -0.4, 0.4)
    assert vcurve.powers["variance_comparison"][0] == pytest.approx(0.05, abs=1e-9)
    ccurve = shift_curve("correlation", [0.0, 0.5], -0.2, 0.2)
    assert ccurve.powers["correlation_comparison"][0] == pytest.approx(0.05, abs=1e-9)
    assert "# chisq_crit_df1 = 3.841459" in ccurve.to_csv_text()


def test_nan_points_and_shifts_and_unknown_curves_are_refused():
    for call in (lambda: cvm_power_mean_shift(1.0, math.nan, 0.4),
                 lambda: cvm_power_variance_shift(1.0, -0.4, math.nan),
                 lambda: cvm_power_correlation_shift(1.0, math.nan, 0.2),
                 lambda: mean_shift_ncp_coefficient(0.4, math.nan),
                 lambda: shift_curve("mean", [1.0], math.nan, 0.4)):
        with pytest.raises(ValueError, match="has a NaN coordinate"):
            call()
    for call in (lambda: cvm_power_mean_shift(math.nan, 0.4, 0.4), lambda: mean_comparison_power(math.nan),
                 lambda: cvm_power_variance_shift(math.nan, -0.4, 0.4),
                 lambda: variance_comparison_power(math.nan),
                 lambda: cvm_power_correlation_shift(math.nan, -0.2, 0.2),
                 lambda: correlation_comparison_power(math.nan),
                 lambda: shift_curve("variance", [0.5, math.nan])):
        with pytest.raises(ValueError, match="shift must not be NaN"):
            call()
    unknown = "unknown shift kind 'foo': expected one of mean, variance, correlation$"
    with pytest.raises(ValueError, match=unknown):
        shift_curve("foo")


def test_curves_use_computed_critical_values():
    text = shift_curve("correlation", [0.0], -0.2, 0.2).to_csv_text()
    assert "5.991465" in text  # df-2 critical value, computed not hard-coded


def test_df1_powers_reach_one_at_large_shifts():
    # the two-sided z-test form has no series to overflow; scipy agrees
    assert cvm_power_mean_shift(120.0, 0.4, 0.4) == 1.0
    assert cvm_power_correlation_shift(200.0, -0.2, 0.2) == 1.0


def test_mean_comparison_series_past_exp_underflow():
    # df 2 sums a Poisson(ncp / 2) series from exp(-ncp / 2), which
    # underflows once ncp / 2 = shift^2 / 4 passes about 745, that is beyond
    # a shift of about 54.6; the series carries its power of two apart
    crit = scipy_stats.chi2.isf(0.05, 2)
    for shift in (52.9, 53.0, 60.0):
        expected = scipy_stats.ncx2.sf(crit, 2, 0.5 * shift**2)
        assert expected == 1.0
        assert mean_comparison_power(shift) == pytest.approx(expected, abs=1e-13)


def _scipy_ncps(kind, s, x1, x2):
    # (df, ncp) of the CDF-distance test and of its comparator, from scipy's
    # normal law rather than the package's kernel
    cdf, pdf = scipy_stats.norm.cdf, scipy_stats.norm.pdf
    f = cdf(x1) * cdf(x2)
    variance = 2.0 * f * (1.0 - f)
    if kind == "mean":
        return (1, (s * cdf(x1) * pdf(x2)) ** 2 / variance), (2, 0.5 * s**2)
    if kind == "variance":
        drift = s * (x1 * pdf(x1) * cdf(x2) + x2 * cdf(x1) * pdf(x2))
        return (1, drift**2 / variance), (2, s**2 / (1.0 + s**4))
    drift = s * pdf(x1) * pdf(x2)
    return (1, drift**2 / variance), (1, s**2 / (1.0 + (1.0 - s**2) ** 2))


@pytest.mark.parametrize("level", [0.05, 0.01, 0.001])
def test_cli_grids_match_scipy(level):
    for kind, row in SHIFTS.items():
        curve = shift_curve(kind, level=level)
        columns = list(curve.powers.values())
        for i, s in enumerate(row.grid):
            for power, (df, ncp) in zip(columns, _scipy_ncps(kind, s, *row.eval_points)):
                crit = scipy_stats.chi2.ppf(1.0 - level, df)
                assert abs(power[i] - scipy_stats.ncx2.sf(crit, df, ncp)) <= 1e-13
