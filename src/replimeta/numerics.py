"""Numerical kernel: distribution functions, quantiles and weighted least
squares.

Distribution functions are implemented on top of the regularized incomplete
beta and gamma functions (continued fractions with series fallback), so the
package carries no runtime dependency on scipy. numpy is used as the dense
linear-algebra backend behind the interfaces defined here.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np

__all__ = [
    "chisq_sf",
    "normal_cdf",
    "normal_quantile",
    "regularized_incomplete_beta",
    "regularized_upper_gamma",
    "t_cdf",
    "t_quantile",
    "t_sf",
    "wls_solve",
]

_MAX_ITER = 300
_EPS = 1e-15
_TINY = 1e-300
_T_QUANTILE_MAX_STEPS = 60
_LN_SQRT_MAX = 0.5 * math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# normal distribution
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well below 1e-12."""
    if not math.isfinite(x):
        raise ValueError(f"normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


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

def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta function."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # continued fraction converges fastest below the distribution mode
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _gamma_series(s: float, x: float) -> float:
    """Series expansion of the regularized lower incomplete gamma P(s, x)."""
    term = 1.0 / s
    total = term
    ap = s
    for _ in range(_MAX_ITER * 3):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ArithmeticError(f"incomplete gamma series failed for s={s}, x={x}")


def _gamma_cont_frac(s: float, x: float) -> float:
    """Lentz's continued fraction for the regularized upper gamma Q(s, x)."""
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER * 3):
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
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ArithmeticError(f"incomplete gamma continued fraction failed for s={s}, x={x}")


def regularized_upper_gamma(s: float, x: float) -> float:
    """Q(s, x) = 1 - P(s, x), computed without cancellation for large x."""
    if s <= 0:
        raise ValueError(f"shape must be positive, got {s!r}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_series(s, x)
    return _gamma_cont_frac(s, x)


# ---------------------------------------------------------------------------
# t and chi-square distributions
# ---------------------------------------------------------------------------

def _t_tail(x: float, df: float, q: float = 0.0) -> float:
    """P(T > x) - q for x >= 0, from I_z(df/2, 1/2) / 2 with z = df/(df + x^2).

    Where that continued fraction would be run on 1 - z instead, this takes
    (1/2 - q) minus the central mass I_{1-z}(1/2, df/2) / 2, with 1 - z formed
    as x^2/(df + x^2): a subtraction from 1/2 would drop the digits of a small
    x, and one from 1 those of a small 1 - z.
    """
    x2 = x * x
    z = df / (df + x2)
    if z < (0.5 * df + 1.0) / (0.5 * df + 2.5):
        return 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, z) - q
    return (0.5 - q) - 0.5 * regularized_incomplete_beta(0.5, 0.5 * df, x2 / (df + x2))


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with `df` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    if not math.isfinite(x):
        raise ValueError(f"t_cdf requires finite x, got {x!r}")
    tail = _t_tail(abs(x), df)
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
    upper tail P(T > x), so that a p near 0 or 1 keeps its digits. The seed
    is Hill's Alg. 396 for df > 1 and the far-tail power law
    x = sqrt(df) (q df B(df/2, 1/2))^(-1/df) otherwise. Two closed forms are
    returned as they are: the Cauchy quantile 1/tan(pi q) at df = 1, and the
    power law once x^2 overflows, where it is exact to double precision.
    Halley steps on the t density refine the seed inside a bracket, and a
    step that leaves the bracket is replaced by bisection. The search stops
    after a step below 1e-6 x, which leaves an error of order 1e-18 x, or
    when the residual stops shrinking. Against scipy the relative error is
    below 1e-10 for df in [0.5, 1e4] and p in [1e-12, 1 - 1e-12]; for larger
    df the incomplete beta limits it to about 1e-8.
    """
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"t_quantile requires p in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    sign, q = (-1.0, p) if p < 0.5 else (1.0, 1.0 - p)
    if df == 1.0:
        return sign / math.tan(math.pi * q)
    ln_beta = math.lgamma(0.5 * df) + math.lgamma(0.5) - math.lgamma(0.5 * df + 0.5)
    # tail(x) = (df/x^2)^(df/2) / (df B) (1 + O(df/x^2)): exact once x^2 overflows
    ln_q = math.log(q)
    ln_far = 0.5 * math.log(df) - (ln_q + math.log(df) + ln_beta) / df
    if ln_far > _LN_SQRT_MAX:
        return sign * (math.exp(ln_far) if ln_far < 2.0 * _LN_SQRT_MAX else math.inf)
    x = _hill_seed(q, df) if df > 1.0 else 0.0
    if x == 0.0:
        x = math.exp(ln_far)
    ln_density_at_0 = -ln_beta - 0.5 * math.log(df)
    lo, hi = 0.0, math.inf
    x_prev, r_prev = x, 0.0
    for _ in range(_T_QUANTILE_MAX_STEPS):
        r = _t_tail(x, df, q)
        if r > 0.0:
            lo = x
        elif r < 0.0:
            hi = x
        else:
            break
        # a step towards the root that stays on its side must shrink the
        # residual; if it did not, the tail's rounding has been reached
        if r * r_prev > 0.0 and abs(r) >= abs(r_prev):
            x = x_prev
            break
        x_prev, r_prev = x, r
        # Newton step r / density, formed as (r/q) (q/density) so that it
        # stays finite where the density underflows
        ln_density = ln_density_at_0 - 0.5 * (df + 1.0) * math.log1p(x * x / df)
        s = r / q * math.exp(ln_q - ln_density)
        step = s * (1.0 + s * x * (df + 1.0) / (2.0 * (x * x + df)))
        # Halley converges cubically, so the error left after a step of
        # relative size h is of order h^3
        if abs(step) <= 1e-6 * x:
            x += step
            break
        nxt = x + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
        x = nxt
    return sign * x


def chisq_sf(x: float, df: float) -> float:
    """Survival function P(X > x) of the chi-square distribution."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    if x < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x!r}")
    return regularized_upper_gamma(0.5 * df, 0.5 * x)


# ---------------------------------------------------------------------------
# weighted least squares
# ---------------------------------------------------------------------------

def wls_solve(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares: minimize sum(w * (y - X b)**2).

    Returns (coefficients, unscaled covariance (X'WX)^-1); callers apply
    their own scale convention to the covariance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if x.shape[0] != y.shape[0] or x.shape[0] != w.shape[0]:
        raise ValueError("X, y, and w must have matching first dimensions")
    sw = np.sqrt(w)
    xw = x * sw[:, None]
    yw = y * sw
    xtx = xw.T @ xw
    try:
        l = np.linalg.cholesky(xtx)
    except np.linalg.LinAlgError:
        raise ValueError("design matrix is rank deficient after weighting") from None
    beta = np.linalg.solve(l.T, np.linalg.solve(l, xw.T @ yw))
    linv = np.linalg.solve(l, np.eye(l.shape[0]))
    cov = linv.T @ linv
    return beta, cov
