"""Numerical kernel: distribution functions and quantiles.

The t tails run one continued fraction of the incomplete beta at (df/2, 1/2),
chosen in ``_t_tail``; the chi-square tail is the regularized upper gamma in
one routine, ``chisq_sf`` (series below the mean, continued fraction above).
One Stirling series, ``_stirling``, serves both ln B and the gamma prefactor.
No runtime dependency on scipy.

Every kernel is a pure function and keeps no state; a caller that repeats its
arguments memoizes them itself (``individual`` does, for the t-tests).
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

__all__ = [
    "chisq_sf",
    "normal_quantile",
    "sqrt_of_ratio",
    "t_cdf",
    "t_quantile",
    "t_sf",
]

_MAX_ITER = 300
_EPS = 1e-15
_TINY = 1e-300
_T_QUANTILE_MAX_STEPS = 60
_LN_SQRT_MAX = 0.5 * math.log(sys.float_info.max)
_LN_FAR_EXACT = 500.0 * math.log(2.0)  # ln 2^500: where t_quantile takes the power law
_SUBNORMAL_SPACING = math.ulp(0.0)  # 2^-1074
# From this df on, t and normal tails differ far below double precision wherever
# either is non-zero; the t tail's continued fraction fails for df past about 1e154
_DF_NORMAL = 1e30


# ---------------------------------------------------------------------------
# normal distribution
# ---------------------------------------------------------------------------

_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's AS 241, PPND16, as implemented
    by the standard library's NormalDist.inv_cdf).

    Pure rational arithmetic, no table lookups: the same inputs produce the
    same bits on every platform, so the z critical value behind every
    confidence interval, and the seed of t_quantile, are reproducible.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# regularized incomplete beta / gamma
# ---------------------------------------------------------------------------

def _beta_frac(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) B(a, b) / (x^a y^b), y = 1 - x, by the even part of its continued
    fraction (DiDonato & Morris 1992, ACM TOMS 18:360, BFRAC). Given lam = (a + b) y - b,
    no step subtracts numbers near 1, so an x near 1 keeps its digits at large a."""
    c, yp1, xx, s = 1.0 + lam, y + 1.0, x * x, a + 1.0
    an, bn = 0.0, s / (a * c)  # convergents A_n and B_n, scaled so that B_(n+1) = 1
    r, n, p, q = bn, 0.0, a - 1.0, a + b - 1.0  # p = a + n - 1, q = a + b + n - 1
    for _ in range(_MAX_ITER):
        n, p, q = n + 1.0, p + 1.0, q + 1.0
        w = n * (b - n)
        alpha = p * q * w * xx / (s * s)
        beta = n + w * x / s + (p + 1.0) * (c + n * yp1) / (s + 2.0)
        s += 2.0
        r0, bnp1 = r, alpha * bn + beta  # no tuple is built to assign up to three names
        r, an, bn = (alpha * an + beta * r0) / bnp1, r0 / bnp1, 1.0 / bnp1
        if abs(r - r0) <= _EPS * r:
            return r
    raise ArithmeticError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def _stirling(s: float) -> float:
    """ln Gamma(s) - ((s - 1/2) ln s - s + ln(2 pi) / 2) for s >= 8: Stirling's series
    to B_18 in 1/s^2, within 2e-17 of it."""
    t = 1.0 / (s * s)
    return (1 / 12 + t * (-1 / 360 + t * (1 / 1260 + t * (-1 / 1680 + t * (1 / 1188 + t * (
        -691 / 360360 + t * (1 / 156 + t * (-3617 / 122400 + t * (43867 / 244188))))))))) / s


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b). From a larger argument b of 8 on, ln(Gamma(b) / Gamma(a + b)) takes
    its Stirling corrections from ``_stirling``, as DiDonato & Morris's ALGDIV does
    (1992, ACM TOMS 18:360), free of the rounding of two large lgamma values."""
    a, b = min(a, b), max(a, b)
    if b < 8.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    w = _stirling(b) - _stirling(a + b)
    u, v = (b + (a - 0.5)) * math.log1p(a / b), a * (math.log(b) - 1.0)
    return math.lgamma(a) + ((w - v) - u if u > v else (w - u) - v)


# ---------------------------------------------------------------------------
# t and chi-square distributions
# ---------------------------------------------------------------------------

def _t_tail(x: float, df: float, q: float, ln_beta: float) -> float:
    """P(T > x) - q for x >= 0 and ln_beta = ln B(df/2, 1/2). With z = df/(df + x^2)
    and y = 1 - z, formed as x^2/(df + x^2), one test on y chooses: below the mode,
    y > 1.5/(df/2 + 2.5), the tail I_z(df/2, 1/2) / 2 by the continued fraction on z;
    else (1/2 - q) minus the central mass I_y(1/2, df/2) / 2, which keeps the digits
    of a small x. A test on z fails from df of about 1e16, where its bound rounds to 1."""
    x2 = x * x
    z, y = df / (df + x2), x2 / (df + x2)
    if z == 0.0 or y == 0.0:
        return (0.5 if y == 0.0 else 0.0) - q
    a = 0.5 * df
    front = math.exp(a * (math.log(z) if z < 0.5 else math.log1p(-y))
                     + 0.5 * (math.log1p(-z) if z < 0.5 else math.log(y)) - ln_beta)
    if y > 1.5 / (a + 2.5):
        lam = a - (a + 0.5) * z if a <= 0.5 else (a + 0.5) * y - 0.5
        return 0.5 * (front * _beta_frac(a, 0.5, z, y, lam)) - q
    lam = (a + 0.5) * z - a if a < 0.5 else 0.5 - (a + 0.5) * y
    return (0.5 - q) - 0.5 * (front * _beta_frac(0.5, a, y, z, lam))


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with `df` degrees of freedom."""
    if not 0.0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df!r}")
    if not math.isfinite(x):
        raise ValueError(f"t_cdf requires finite x, got {x!r}")
    tail = (0.5 * math.erfc(abs(x) / math.sqrt(2.0)) if df >= _DF_NORMAL
            else _t_tail(abs(x), df, 0.0, _ln_beta(0.5 * df, 0.5)))
    return 1.0 - tail if x > 0 else tail


def t_sf(x: float, df: float) -> float:
    """Upper tail P(T > x) of Student's t, stable for large x."""
    return t_cdf(-x, df)


def _hill_seed(q: float, df: float) -> float:
    """Hill's (1970, CACM Alg. 396) approximation to the t quantile with
    upper tail q, for df > 1; 0 where its power of q underflows."""
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (2.0 * d * q) ** (2.0 / df)
    if (df < 2.1 and q > 0.25) or y > 0.05 + a:
        # asymptotic expansion about the normal quantile
        x = normal_quantile(q)
        y = x * x
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    elif y > 0.0:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
              + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student's t.

    Solves tail(x) = q for x >= 0 with q = min(p, 1 - p), where tail is the
    upper tail P(T > x), so that a p near 0 or 1 keeps its digits. Closed
    forms: 1/tan(pi q) at df = 1, and from x = 2^500 on the far-tail power law
    x = sqrt(df) (q df B(df/2, 1/2))^(-1/df), exact there to double precision.
    Below that, Halley steps on the t density, with no bracket, refine a seed
    (Hill's Alg. 396 for df > 1, else the power law) until a step is below
    1e-6 x, which leaves an error of order 1e-18 x, or the residual is 2^-1074,
    all that a subnormal q resolves; past _T_QUANTILE_MAX_STEPS steps they raise
    ArithmeticError. Against scipy the relative error is below 1e-12 for df in
    [0.5, 1e6] and p in [1e-12, 1 - 1e-12].
    """
    if not 0.0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"t_quantile requires p in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    if df >= _DF_NORMAL:
        return normal_quantile(p)
    sign, q = (-1.0, p) if p < 0.5 else (1.0, 1.0 - p)
    if df == 1.0:
        return sign / math.tan(math.pi * q)
    ln_beta = _ln_beta(0.5 * df, 0.5)
    # tail(x) = (df/x^2)^(df/2) / (df B) (1 + O(df/x^2)): exact from x = 2^500 on
    ln_q = math.log(q)
    ln_far = 0.5 * math.log(df) - (ln_q + math.log(df) + ln_beta) / df
    if ln_far > _LN_FAR_EXACT:
        return sign * (math.exp(ln_far) if ln_far < 2.0 * _LN_SQRT_MAX else math.inf)
    x = _hill_seed(q, df) if df > 1.0 else 0.0
    if x == 0.0:
        x = math.exp(ln_far)
    ln_density_at_0 = -ln_beta - 0.5 * math.log(df)
    for _ in range(_T_QUANTILE_MAX_STEPS):
        r = _t_tail(x, df, q, ln_beta)
        # Newton step r / density, formed as (r/q) (q/density) so that it
        # stays finite where the density underflows
        ln_density = ln_density_at_0 - 0.5 * (df + 1.0) * math.log1p(x * x / df)
        s = r / q * math.exp(ln_q - ln_density)
        step = s * (1.0 + s * x * (df + 1.0) / (2.0 * (x * x + df)))
        # Halley converges cubically, so the error left after a step of
        # relative size h is of order h^3; a subnormal tail resolves no
        # residual below its spacing 2^-1074
        if abs(step) <= 1e-6 * x or abs(r) <= _SUBNORMAL_SPACING:
            return sign * (x + step)
        x += step
    raise ArithmeticError(f"t quantile failed to converge for p={p}, df={df}")


def chisq_sf(x: float, df: float) -> float:
    """Survival function P(X > x) of the chi-square distribution, Q(s, z) with
    s = df/2 and z = x/2: below z = s + 1, 1 - P(s, z) by the series of P, else
    Lentz's continued fraction for Q. Both scale by z^s e^-z / Gamma(s), formed
    from s = 8 on with ``_stirling``, free of the rounding of s ln z and ln Gamma(s)."""
    if not 0.0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df!r}")
    if not x >= 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x!r}")
    s, x = 0.5 * df, 0.5 * x
    if s == 0.0:  # df = 2^-1074, the least double
        raise ValueError(f"degrees of freedom halve to 0, got {df!r}")
    if x == 0.0 or x == math.inf:
        return 1.0 if x == 0.0 else 0.0
    if s < 8.0:
        front = math.exp(-x + s * math.log(x) - math.lgamma(s))
    else:  # ln front = -s (u - ln(1 + u)) - stirling(s) + ln(s / 2 pi) / 2, u = z/s - 1
        u = (x - s) / s
        lead = s * (u - math.log1p(u)) if u > -1.0 else math.inf  # u = -1: front < 1e-120
        front = math.exp(-lead - _stirling(s)) * math.sqrt(s / math.tau)
    series = x < s + 1.0
    # either needs about 8 sqrt(s) steps near z = s; the cap at s = 1e10 allows 1e6 of them
    steps = _MAX_ITER * 3 + int(10.0 * math.sqrt(min(s, 1e10)))
    if series:
        ap, term, total = s, 1.0 / s, 1.0 / s
        for _ in range(steps):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                return 1.0 - total * front
    else:
        b, c = x + 1.0 - s, 1.0 / _TINY  # b rounds to 0 at z = s from s = 2^53 on
        h = d = 1.0 / max(b, _TINY)
        for i in range(1, steps):
            an = -i * (i - s)
            b += 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                return h * front
    raise ArithmeticError(f"incomplete gamma {'series' if series else 'continued fraction'}"
                          f" failed for s={s}, x={x}")


def sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for integers num >= 0 and den > 0, correctly rounded: an
    integer root of at least 55 bits, rounded to odd, then rounded once to float
    (Boldo & Melquiond 2008, IEEE Trans. Comput. 57:462)."""
    shift = max(0, 112 - num.bit_length() + den.bit_length()) // 2
    root = math.isqrt((num << 2 * shift) // den)
    return (root | (root * root * den != num << 2 * shift)) / (1 << shift)
