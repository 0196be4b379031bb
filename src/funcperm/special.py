"""Normal and (noncentral) chi-square distribution kernels.

The local-power oracle only meets chi-square laws with one degree of
freedom (a squared normal) and two (an exponential with mean 2), so the
chi-square functions are the closed forms of those two laws, built on the
standard library; any other df raises ``ValueError``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# past its mode the df-2 series' Poisson weights fall geometrically; the
# sum stops there once the current weight is below this
_NC_TAIL = 1e-17


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary erf."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _check(x: float, df: float) -> None:
    if df not in (1, 2):
        raise ValueError(f"degrees of freedom must be 1 or 2, got {df}")
    if x < 0:
        raise ValueError("argument must be nonnegative")


def chisq_cdf(x: float, df: float) -> float:
    """Central chi-square distribution function: erf(sqrt(x/2)) for df 1,
    1 - exp(-x/2) for df 2."""
    _check(x, df)
    return math.erf(math.sqrt(0.5 * x)) if df == 1 else -math.expm1(-0.5 * x)


def chisq_quantile(p: float, df: float) -> float:
    """Central chi-square quantile: the squared two-sided normal quantile
    for df 1, -2 log(1 - p) for df 2."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    _check(0.0, df)
    if df == 1:
        return NormalDist().inv_cdf(0.5 * (1.0 + p)) ** 2
    return -2.0 * math.log1p(-p)


def noncentral_chisq_sf(x: float, df: float, ncp: float) -> float:
    """Noncentral chi-square upper tail P(X > x).

    df 1: X = (Z + sqrt(ncp))^2, so the tail is
    Phi(sqrt(ncp) - sqrt(x)) + Phi(-sqrt(ncp) - sqrt(x)).  df 2: a
    Poisson(ncp/2) mixture over j of the Erlang(j + 1) upper tails at x/2,
    each the Poisson(x/2) mass on 0..j; ncp and x above 1400 raise.
    """
    _check(x, df)
    if ncp < 0:
        raise ValueError("noncentrality must be nonnegative")
    if df == 1:
        root, cut = math.sqrt(ncp), math.sqrt(x)
        return normal_cdf(root - cut) + normal_cdf(-root - cut)
    half, y = 0.5 * ncp, 0.5 * x
    if half > 700.0:
        raise ValueError("noncentrality too large for the series expansion")
    if y > 700.0:
        # exp(-y) would underflow; no level above 1e-300 puts x this high
        raise ValueError("argument too large for the series expansion")
    weight, term = math.exp(-half), math.exp(-y)
    tail = term
    total = weight * tail
    j = 0
    while j <= half or weight > _NC_TAIL:
        j += 1
        weight *= half / j
        term *= y / j
        tail += term
        total += weight * tail
    return min(total, 1.0)


def noncentral_chisq_cdf(x: float, df: float, ncp: float) -> float:
    """Noncentral chi-square distribution function, one minus the tail."""
    if ncp == 0.0:
        return chisq_cdf(x, df)
    return 1.0 - noncentral_chisq_sf(x, df, ncp)
