import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from funcperm import (
    chisq_cdf,
    chisq_quantile,
    noncentral_chisq_cdf,
    normal_cdf,
    normal_pdf,
)


def test_normal_cdf_at_zero():
    assert normal_cdf(0.0) == 0.5


def test_normal_pdf_at_zero():
    assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)


def test_normal_values_at_point_four():
    assert normal_cdf(0.4) == pytest.approx(0.6554, abs=5e-5)
    assert normal_pdf(0.4) == pytest.approx(0.3683, abs=5e-5)


def test_normal_cdf_against_scipy():
    xs = np.linspace(-8.0, 8.0, 81)
    for x in xs:
        assert normal_cdf(x) == pytest.approx(scipy_stats.norm.cdf(x), abs=1e-12)


def test_chisq_cdf_against_scipy():
    xs = np.linspace(0.01, 40.0, 67)
    for df in (1, 2):
        for x in xs:
            assert chisq_cdf(x, df) == pytest.approx(
                scipy_stats.chi2.cdf(x, df), abs=1e-13
            )


def test_chisq_quantile_reference_values():
    assert chisq_quantile(0.95, 1) == pytest.approx(3.8415, abs=5e-4)
    assert chisq_quantile(0.95, 2) == pytest.approx(5.9915, abs=5e-4)
    # df = 2 closed form: -2 ln(1 - p)
    assert chisq_quantile(0.95, 2) == pytest.approx(-2.0 * math.log(0.05), abs=1e-9)


def test_chisq_quantile_inverts_cdf():
    for p in (0.005, 0.1, 0.5, 0.9, 0.99, 0.9999):
        for df in (1, 2):
            assert chisq_cdf(chisq_quantile(p, df), df) == pytest.approx(p, abs=1e-13)


def test_noncentral_reduces_to_central():
    for x in (0.5, 2.0, 9.0):
        for df in (1, 2):
            assert noncentral_chisq_cdf(x, df, 0.0) == chisq_cdf(x, df)


def test_noncentral_against_scipy():
    xs = np.linspace(0.01, 60.0, 41)
    for df in (1, 2):
        for ncp in (0.5, 2.0, 8.0, 25.0):
            for x in xs:
                assert noncentral_chisq_cdf(x, df, ncp) == pytest.approx(
                    scipy_stats.ncx2.cdf(x, df, ncp), abs=1e-13
                )


def test_noncentral_df2_past_exp_underflow_against_scipy():
    # from ncp or x = 1400 on, the series' starts exp(-ncp / 2) and
    # exp(-x / 2) near or pass underflow; the series carries the power of
    # two of each start apart
    for x, ncp in ((5.99, 2000.0), (1400.0, 1400.0), (1500.0, 1400.0), (3000.0, 2800.0), (1e4, 1e4)):
        assert 1.0 - noncentral_chisq_cdf(x, 2, ncp) == pytest.approx(
            scipy_stats.ncx2.sf(x, 2, ncp), abs=1e-13
        )
    # past 2e6 the series would run for seconds
    for ncp in (2.1e6, math.inf):
        with pytest.raises(ValueError, match="noncentrality too large"):
            noncentral_chisq_cdf(1.0, 2, ncp)
        with pytest.raises(ValueError, match="argument too large"):
            noncentral_chisq_cdf(ncp, 2, 1.0)


def test_noncentral_monotone_in_ncp():
    x = 5.0
    values = [noncentral_chisq_cdf(x, 1, ncp) for ncp in (0.0, 0.5, 1.0, 4.0, 9.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_noncentral_brute_force_oracle_smoke():
    # small-scale version of the acceptance check: empirical CDF of
    # (Z1 + sqrt(ncp))^2 + sum of df-1 squared normals
    rng = np.random.default_rng(42)
    n = 200_000
    df, ncp = 2, 2.0
    z = rng.standard_normal((n, df))
    z[:, 0] += math.sqrt(ncp)
    sample = np.sum(z**2, axis=1)
    for x in (1.0, 3.0, 6.0, 10.0):
        emp = np.mean(sample <= x)
        assert noncentral_chisq_cdf(x, df, ncp) == pytest.approx(emp, abs=5e-3)


def test_domain_errors():
    with pytest.raises(ValueError):
        chisq_cdf(-1.0, 2)
    with pytest.raises(ValueError):
        chisq_cdf(1.0, 0)
    with pytest.raises(ValueError):
        chisq_quantile(1.0, 2)
    with pytest.raises(ValueError):
        chisq_quantile(0.0, 2)
    with pytest.raises(ValueError):
        noncentral_chisq_cdf(1.0, 2, -0.5)
    with pytest.raises(ValueError):
        noncentral_chisq_cdf(-1.0, 2, 0.5)
    # only the df-1 and df-2 closed forms exist
    with pytest.raises(ValueError, match="degrees of freedom"):
        chisq_cdf(1.0, 3)
    with pytest.raises(ValueError, match="degrees of freedom"):
        chisq_quantile(0.5, 3)
    with pytest.raises(ValueError, match="degrees of freedom"):
        noncentral_chisq_cdf(1.0, 3, 0.5)
