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

# The df-2 series takes about ncp/2 + 40 sqrt(ncp/2) terms, so a larger
# ncp/2 raises rather than run for seconds; so does a larger x/2, beyond
# which e * _LN2_HI in _exp_neg is no longer exact.
_NC_MAX_HALF = 1e6

# ln 2 split so that e * _LN2_HI is exact for |e| < 2**21 (fdlibm's split)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

# A df-2 series mantissa above 2**_RESCALE_BITS is scaled down by that
# power of two, so that no product of two mantissas overflows.
_RESCALE_BITS = 480


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary erf."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _check(x: float, df: float, ncp: float = 0.0) -> None:
    if df not in (1, 2):
        raise ValueError(f"degrees of freedom must be 1 or 2, got {df}")
    if math.isnan(x):
        raise ValueError("argument must not be NaN")
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if math.isnan(ncp):
        raise ValueError("noncentrality must not be NaN")
    if ncp < 0:
        raise ValueError("noncentrality must be nonnegative")


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


def _exp_neg(v: float) -> tuple[float, int]:
    """exp(-v) as (m, e) with exp(-v) = m * 2**e, for 0 <= v <= _NC_MAX_HALF.

    Up to v = 700 this is (exp(-v), 0); further out exp(-v) would
    underflow, so the nearest power of two is split off first.
    """
    if v <= 700.0:
        return math.exp(-v), 0
    e = -round(v / _LN2_HI)
    return math.exp((-v - e * _LN2_HI) - e * _LN2_LO), e


def _rescaled(m: float, e: int) -> tuple[float, int]:
    if m > 2.0 ** _RESCALE_BITS:
        return math.ldexp(m, -_RESCALE_BITS), e + _RESCALE_BITS
    return m, e


def noncentral_chisq_sf(x: float, df: float, ncp: float) -> float:
    """Noncentral chi-square upper tail P(X > x).

    df 1: X = (Z + sqrt(ncp))^2, so the tail is
    Phi(sqrt(ncp) - sqrt(x)) + Phi(-sqrt(ncp) - sqrt(x)).  df 2: a
    Poisson(ncp/2) mixture over j of the Erlang(j + 1) upper tails at x/2,
    each the Poisson(x/2) mass on 0..j.  Both Poisson recursions start
    from exp(-ncp/2) and exp(-x/2) with their powers of two carried apart
    (see :func:`_exp_neg`), so neither start underflows; ncp or x above
    2e6 raises, as does a NaN ncp or x.
    """
    _check(x, df, ncp)
    if df == 1:
        root, cut = math.sqrt(ncp), math.sqrt(x)
        return normal_cdf(root - cut) + normal_cdf(-root - cut)
    half, y = 0.5 * ncp, 0.5 * x
    if not half <= _NC_MAX_HALF:
        raise ValueError("noncentrality too large for the series expansion")
    if not y <= _NC_MAX_HALF:
        raise ValueError("argument too large for the series expansion")
    # the true values are weight * 2**w_exp, term and tail * 2**t_exp and
    # total * 2**total_exp; every exponent stays 0 unless a start would
    # underflow
    (weight, w_exp), (term, t_exp) = _exp_neg(half), _exp_neg(y)
    tail = term
    total, total_exp = weight * tail, w_exp + t_exp
    j = 0
    while j <= half or math.ldexp(weight, w_exp) > _NC_TAIL:
        j += 1
        weight *= half / j
        term *= y / j
        tail += term
        weight, w_exp = _rescaled(weight, w_exp)
        if tail > 2.0 ** _RESCALE_BITS:
            term, tail = math.ldexp(term, -_RESCALE_BITS), math.ldexp(tail, -_RESCALE_BITS)
            t_exp += _RESCALE_BITS
        total += math.ldexp(weight * tail, w_exp + t_exp - total_exp)
        total, total_exp = _rescaled(total, total_exp)
    return min(math.ldexp(total, total_exp), 1.0)


def noncentral_chisq_cdf(x: float, df: float, ncp: float) -> float:
    """Noncentral chi-square distribution function, one minus the tail."""
    if ncp == 0.0:
        return chisq_cdf(x, df)
    return 1.0 - noncentral_chisq_sf(x, df, ncp)
