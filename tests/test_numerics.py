import ast
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replimeta import numerics as nm
from replimeta.meta import _fit


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def simpson(f, a, b, n=4001):
    """Composite Simpson quadrature on [a, b] with n (odd) nodes."""
    assert n % 2 == 1
    xs = np.linspace(a, b, n)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (n - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def t_density(x, df):
    ln = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
          - 0.5 * math.log(df * math.pi) - (df + 1) / 2.0 * math.log1p(x * x / df))
    return math.exp(ln)


def t_cdf_quadrature(x, df):
    return 0.5 + simpson(lambda t: t_density(t, df), 0.0, x) if x >= 0 else 1.0 - t_cdf_quadrature(-x, df)


def t_quantile_bisection(p, df):
    """Bisection against the quadrature CDF; the documented quantile oracle."""
    lo, hi = 0.0, 1.0
    while t_cdf_quadrature(hi, df) < p:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if t_cdf_quadrature(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# normal distribution
# ---------------------------------------------------------------------------

def test_normal_quantile_round_trip():
    for p in np.linspace(0.0005, 0.9995, 41):
        assert scipy_stats.norm.cdf(nm.normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_normal_quantile_known_point():
    assert nm.normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)


def test_normal_quantile_domain():
    with pytest.raises(ValueError):
        nm.normal_quantile(0.0)
    with pytest.raises(ValueError):
        nm.normal_quantile(1.0)


# ---------------------------------------------------------------------------
# t distribution
# ---------------------------------------------------------------------------

def test_t_cdf_at_zero_any_df():
    for df in (1, 2.5, 7, 100):
        assert nm.t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-15)


def test_t_quantile_derived_value():
    # frozen from the bisection-vs-quadrature oracle
    assert t_quantile_bisection(0.975, 5) == pytest.approx(2.570582, abs=2e-5)
    assert nm.t_quantile(0.975, 5) == pytest.approx(2.570582, abs=1e-5)


def test_t_cdf_against_quadrature():
    for x, df in ((0.8, 3), (-1.7, 5), (2.4, 11), (0.3, 28)):
        assert nm.t_cdf(x, df) == pytest.approx(t_cdf_quadrature(x, df), abs=1e-8)


def test_t_cdf_large_df_approaches_normal():
    for x in (-2.0, -0.5, 0.7, 1.9):
        assert nm.t_cdf(x, 1e6) == pytest.approx(scipy_stats.norm.cdf(x), abs=1e-4)


def test_t_cdf_known_closed_form_df2():
    # F(x; 2) = 1/2 + x / (2 sqrt(2 + x^2))
    for x in (-3.0, -0.25, 0.5, 4.0):
        expected = 0.5 + x / (2.0 * math.sqrt(2.0 + x * x))
        assert nm.t_cdf(x, 2) == pytest.approx(expected, abs=1e-12)


@given(st.floats(0.001, 0.999), st.sampled_from([1, 2, 4, 9, 28, 120]))
@settings(max_examples=60)
def test_t_quantile_inverts_cdf(p, df):
    assert nm.t_cdf(nm.t_quantile(p, df), df) == pytest.approx(p, abs=1e-8)


def test_t_domain_errors():
    with pytest.raises(ValueError):
        nm.t_cdf(1.0, 0.0)
    with pytest.raises(ValueError):
        nm.t_quantile(1.2, 5)
    with pytest.raises(ValueError):
        nm.t_quantile(0.5, -1)


# ---------------------------------------------------------------------------
# chi-square
# ---------------------------------------------------------------------------

def test_chisq_sf_df2_closed_form():
    for x in (0.1, 1.0, 4.2, 20.0):
        assert nm.chisq_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)


def test_chisq_sf_at_zero():
    for df in (1, 2, 8, 33.5):
        assert nm.chisq_sf(0.0, df) == pytest.approx(1.0, abs=1e-15)


def test_chisq_sf_pooled_statistic_significant():
    assert nm.chisq_sf(47.13, 8) < 0.001


def test_chisq_sf_matches_gamma_quadrature():
    # oracle: integrate the chi-square density directly
    def chisq_pdf(x, df):
        ln = (0.5 * df - 1.0) * math.log(x) - 0.5 * x - 0.5 * df * math.log(2.0) - math.lgamma(0.5 * df)
        return math.exp(ln)

    # df >= 2 keeps the density bounded at the origin for the quadrature;
    # df = 1 is covered by the scipy cross-check below
    for x, df in ((1.3, 2), (3.8, 4), (12.0, 8), (47.13, 8)):
        expected = 1.0 - simpson(lambda t: chisq_pdf(t, df), 1e-12, x)
        assert nm.chisq_sf(x, df) == pytest.approx(expected, abs=1e-8)


def test_chisq_domain_errors():
    with pytest.raises(ValueError):
        nm.chisq_sf(-0.1, 2)
    with pytest.raises(ValueError):
        nm.chisq_sf(1.0, 0)


# ---------------------------------------------------------------------------
# weighted least squares: the closed-form fit behind every pool and the
# meta-regression
# ---------------------------------------------------------------------------

def test_wls_intercept_only_is_weighted_mean():
    (mean,), _, _, _ = _fit(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))
    assert mean == pytest.approx(2.5)


def test_wls_weighted_mean_hand_value():
    # hand computation: (1*1 + 3*3) / (1 + 3) = 2.5, Q = 1 (1.5)^2 + 3 (0.5)^2 = 3
    (mean,), (se,), q, h = _fit(np.array([1.0, 3.0]), np.array([1.0, 3.0]))
    assert (mean, se, q, h) == pytest.approx((2.5, 0.5, 3.0, 0.25))


def test_wls_exact_line_zero_residuals():
    beta, _, q, _ = _fit(np.array([1.0, 3.0, 5.0]), np.array([1.0, 2.0, 0.5]),
                         np.array([0.0, 1.0, 2.0]))
    assert beta == pytest.approx((1.0, 2.0), rel=1e-12)
    assert q == pytest.approx(0.0, abs=1e-24)


def test_wls_covariance_matches_inverse():
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(9), rng.standard_normal(9)])
    w = rng.uniform(0.5, 2.0, size=9)
    _, se, _, h = _fit(rng.standard_normal(9), w, x[:, 1])
    cov = np.linalg.inv(x.T @ np.diag(w) @ x)
    assert np.allclose(se, np.sqrt(np.diag(cov)), atol=1e-10)
    assert np.allclose(h, np.einsum("ij,jk,ik->i", x, cov, x), atol=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_wls_duplicated_rows_equal_summed_weights(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(5)
    y = rng.standard_normal(5)
    w = rng.uniform(0.1, 1.5, size=5)
    beta_dup, se_dup, q_dup, _ = _fit(np.append(y, y[2]), np.append(w, w[2]), np.append(x, x[2]))
    w2 = w.copy()
    w2[2] *= 2.0
    beta_sum, se_sum, q_sum, _ = _fit(y, w2, x)
    assert np.allclose(beta_dup + se_dup + (q_dup,), beta_sum + se_sum + (q_sum,), atol=1e-9)


# ---------------------------------------------------------------------------
# cross-checks against an independent library implementation
# ---------------------------------------------------------------------------

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")


def test_distributions_against_scipy():
    for x, df in ((0.8, 3), (-1.7, 5.5), (2.4, 11), (6.5, 28)):
        assert nm.t_cdf(x, df) == pytest.approx(scipy_stats.t.cdf(x, df), abs=1e-10)
    for p, df in ((0.025, 4), (0.6, 17), (0.975, 5), (0.995, 2)):
        assert nm.t_quantile(p, df) == pytest.approx(scipy_stats.t.ppf(p, df), abs=1e-8)
    for x, df in ((0.3, 1), (5.0, 4), (47.13, 8), (120.0, 60)):
        assert nm.chisq_sf(x, df) == pytest.approx(scipy_stats.chi2.sf(x, df), rel=1e-9, abs=1e-12)


def test_t_quantile_against_scipy_grid():
    # log-spaced in df and in the smaller tail q, both tails
    for df in [1.0, *np.logspace(np.log10(0.5), 6, 25)]:
        rtol = 1e-12
        for q in np.logspace(-12, np.log10(0.45), 25):
            for p in (q, 1.0 - q):
                expected = scipy_stats.t.ppf(p, df)
                assert nm.t_quantile(p, df) == pytest.approx(expected, rel=rtol, abs=0), (p, df)


def test_t_sf_against_scipy_grid_up_to_df_1e6():
    # at large df, z = df/(df + x^2) lies within a few ulps of 1: the tail keeps
    # its digits only with 1 - z formed directly, ln B(df/2, 1/2) free of two
    # large lgamma values, and a continued fraction that subtracts nothing near 1
    for df in [1.0, 2.0, *np.logspace(np.log10(0.5), 6, 31)]:
        for x in [0.0, *np.logspace(-3, np.log10(40.0), 30)]:
            for t in (x, -x):
                expected = scipy_stats.t.sf(t, df)
                # below 1e-300 scipy flushes tails that are still subnormal numbers
                assert nm.t_sf(t, df) == pytest.approx(expected, rel=1e-12, abs=1e-300), (t, df)


def test_t_sf_at_the_large_df_points_of_the_old_defect():
    # lgamma(a + b) - lgamma(a) - lgamma(b) put these 1e-11 to 1.6e-9 off
    for x, df in ((1.96, 1e4), (1.96, 1e6), (1.0, 1e6), (3.0, 1e5), (0.5, 1e6)):
        assert nm.t_sf(x, df) == pytest.approx(scipy_stats.t.sf(x, df), rel=1e-14, abs=0)
    # 2 t_sf(x, df) = I_z(df/2, 1/2) at z = df/(df + x^2)
    assert 2.0 * nm.t_sf(1.96, 1e6) == pytest.approx(
        scipy_special.betainc(5e5, 0.5, 1e6 / (1e6 + 1.96 ** 2)), rel=1e-10)


def test_t_sf_extremes():
    assert nm.t_sf(0.0, 3.0) == 0.5 and nm.t_sf(1e-200, 3.0) == 0.5
    assert nm.t_sf(1e200, 3.0) == 0.0 and nm.t_sf(-1e200, 3.0) == 1.0
    assert nm.t_sf(1e155, 3.0) == pytest.approx(scipy_stats.t.sf(1e155, 3.0), rel=1e-12)


def test_regularized_incomplete_beta_against_scipy():
    # t_sf(t, df) = I_z(df/2, 1/2) / 2 = (1 - I_y(1/2, df/2)) / 2 with z = df/(df + t^2) and
    # y = t^2/(df + t^2): each t-shaped pair (a, b), its argument z or y set to x
    for a, b in ((0.5, 0.5), (0.5, 3.0), (2.0, 0.5), (40.0, 0.5), (0.5, 1e3)):
        df = 2.0 * (a if b == 0.5 else b)
        for x in (1e-6, 0.01, 0.2, 0.5, 0.7, 0.99):
            if b == 0.5:
                t = math.sqrt(df * (1.0 - x) / x)
                expected = 0.5 * scipy_special.betainc(a, b, df / (df + t * t))
            else:
                t = math.sqrt(df * x / (1.0 - x))
                expected = 0.5 * scipy_special.betaincc(a, b, t * t / (df + t * t))
            assert nm.t_sf(t, df) == pytest.approx(expected, rel=1e-12, abs=1e-300), (a, b, x)


def test_regularized_incomplete_beta_closed_forms_near_one():
    # I_z(1/2, 1/2) = (2/pi) asin(sqrt(z)) is twice the Cauchy tail t_sf(t, 1) = 1/2 - atan(t)/pi,
    # written atan(1/t)/pi for t > 0; z = 1/(1 + t^2) lies near 1 for a small t
    for t in (1e-9, 2.0 ** -40, 0.3, 1.0, 3.0, 1e3, 1e9):
        tail = math.atan(1.0 / t) / math.pi
        assert nm.t_sf(t, 1.0) == pytest.approx(tail, rel=1e-14)
        assert nm.t_cdf(-t, 1.0) == pytest.approx(tail, rel=1e-14)
        assert nm.t_sf(-t, 1.0) == pytest.approx(1.0 - tail, rel=1e-14)


def test_t_quantile_df2_closed_form():
    # F^-1(p; 2) = (2p - 1) / sqrt(2 p (1 - p)), also far beyond p = 1e-12
    for p in (1e-300, 1e-100, 1e-12, 0.3, 0.5 + 1e-9, 0.9, 1.0 - 1e-12):
        expected = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
        assert nm.t_quantile(p, 2) == pytest.approx(expected, rel=1e-12)
    # past x = 2^500 at p = 4.7e-302 and past the overflow of x^2 at p = 2.8e-309
    for p in (1e-302, 1e-305, 1e-308, 1e-310, 1e-315, 1e-320, 5e-324):
        expected = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
        assert nm.t_quantile(p, 2) == pytest.approx(expected, rel=1e-12)


def mpmath_t_quantile(p, df):
    """The t quantile to 40 digits: the root in u = ln x of ln tail(e^u) = ln q."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q, n = mpmath.mpf(min(p, 1.0 - p)), mpmath.mpf(df)
        ln_q = mpmath.log(q)
        u = mpmath.findroot(lambda u: mpmath.log(mpmath.betainc(
            n / 2, 0.5, 0, n / (n + mpmath.exp(2 * u)), regularized=True) / 2) - ln_q,
            0.5 * mpmath.log(n) - (ln_q + mpmath.log(n) + mpmath.log(mpmath.beta(n / 2, 0.5))) / n)
        return math.copysign(float(mpmath.exp(u)), p - 0.5)


@pytest.mark.parametrize("p, df", [
    (2.62426666965046e-161, 1.038795132038865),
    (0.9999993922157905, 0.03816924902588277),
    (0.9902133161933346, 0.010998124479061013),
    (0.9999998217388657, 0.041596610702411496),
    (0.9999999999998183, 0.08032089514354612),
    (6.149078078097532e-190, 1.2246869257291433),
    (7.458619452844948e-155, 1.01683869133268),
    (1.5881243397529087e-133, 0.8625691815582514),
])
def test_t_quantile_beyond_2_to_the_500_against_mpmath(p, df):
    # small df, quantiles from 2^500 (3.3e150) up to the float maximum: the power law
    assert abs(nm.t_quantile(p, df)) >= 2.0 ** 500
    assert nm.t_quantile(p, df) == pytest.approx(mpmath_t_quantile(p, df), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p, df", [(2.73e-321, 551.9824311243374), (7.24e-321, 715.1020959190894),
                                   (1.457e-320, 2.2502927923509146), (1.93e-322, 2.1898105509458743)])
def test_t_quantile_of_a_subnormal_p_stops_at_the_spacing_of_its_tail(p, df):
    # the tail resolves p only to 2^-1074: Halley steps that alternate between
    # residuals of +-2^-1074 stop there and do not run out of steps
    x = nm.t_quantile(p, df)
    assert abs(nm.t_cdf(x, df) - p) <= math.ulp(0.0)


def test_t_quantile_raises_when_halley_runs_out_of_steps(monkeypatch):
    monkeypatch.setattr(nm, "_T_QUANTILE_MAX_STEPS", 0)
    with pytest.raises(ArithmeticError, match=r"^t quantile failed to converge for p=0\.975, df=5\.0$"):
        nm.t_quantile(0.975, 5.0)
    # the closed forms take no step
    assert nm.t_quantile(0.975, 1.0) == pytest.approx(12.706204736174707, rel=1e-14)
    assert nm.t_quantile(1e-320, 2.0) == pytest.approx(-1.0 / math.sqrt(2e-320), rel=1e-12)


def test_t_sf_raises_when_the_incomplete_beta_fraction_runs_out_of_steps(monkeypatch):
    monkeypatch.setattr(nm, "_MAX_ITER", 1)
    with pytest.raises(ArithmeticError, match=r"^incomplete beta continued fraction failed for "
                                              r"a=0\.5, b=2\.5, x=0\.16666666666666666$"):
        nm.t_sf(1.0, 5.0)


def test_t_cdf_keeps_digits_near_zero():
    # F(x; 2) - 1/2 = x / (2 sqrt(2 + x^2)), which 1 - tail would round to 0
    for x in (1e-9, -3e-12):
        assert nm.t_cdf(x, 2) - 0.5 == pytest.approx(x / (2.0 * math.sqrt(2.0 + x * x)), rel=1e-6)



def is_correctly_rounded_sqrt(s, num, den):
    """True when no double lies nearer sqrt(num / den) than s: the exact ratio
    lies between the squares of the midpoints from s to its neighbours."""
    ratio = Fraction(num, den)
    if s == 0.0:
        return ratio == 0
    lo = (Fraction(s) + Fraction(math.nextafter(s, 0.0))) / 2
    hi = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
    return lo * lo <= ratio <= hi * hi


@given(st.integers(0, 10**40), st.integers(1, 10**40))
@settings(max_examples=500, deadline=None)
def test_sqrt_of_ratio_is_correctly_rounded(num, den):
    assert is_correctly_rounded_sqrt(nm.sqrt_of_ratio(num, den), num, den)


def test_sqrt_of_ratio_small_ratios_and_exact_cases():
    # the ratios a variance of ordinal data takes; sqrt of the rounded ratio
    # is off by one ulp on some of them
    misses = 0
    for num in range(0, 240):
        for den in range(1, 80):
            s = nm.sqrt_of_ratio(num, den)
            assert is_correctly_rounded_sqrt(s, num, den), (num, den)
            misses += s != math.sqrt(num / den)
    assert misses > 0
    # where num / den is a double, math.sqrt is correctly rounded too
    for num, den in [(9, 4), (2, 1), (1, 3 << 60), (10**15 + 1, 1 << 20), (7, 1 << 1000)]:
        assert nm.sqrt_of_ratio(num, den) == math.sqrt(num / den)
    assert nm.sqrt_of_ratio(10**400, 1) == 1e200


# ---------------------------------------------------------------------------
# non-finite degrees of freedom and statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("df", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [lambda df: nm.t_cdf(1.0, df), lambda df: nm.t_sf(1.0, df),
                                  lambda df: nm.t_quantile(0.975, df),
                                  lambda df: nm.chisq_sf(3.0, df)])
def test_distributions_reject_degrees_of_freedom_that_are_not_positive_and_finite(call, df):
    with pytest.raises(ValueError, match=r"degrees of freedom must be positive and finite, got "):
        call(df)


def test_chisq_sf_of_an_infinite_statistic_is_zero_and_of_nan_an_error():
    for df in (0.5, 1.0, 4.0, 1e4):
        assert nm.chisq_sf(math.inf, df) == 0.0
        with pytest.raises(ValueError, match="chi-square statistic must be nonnegative, got nan"):
            nm.chisq_sf(math.nan, df)


def test_chisq_sf_of_the_least_df_names_it():
    # df / 2 rounds to 0 at df = 2^-1074, where lgamma(0) would raise a bare domain error
    with pytest.raises(ValueError, match=r"^degrees of freedom halve to 0, got 5e-324$"):
        nm.chisq_sf(3.0, 5e-324)


def test_chisq_sf_at_an_absurd_df_raises_its_own_error():
    # from s = 2^53 on, the fraction's first denominator z + 1 - s rounds to 0 at z = s;
    # guarded, the fraction runs out of steps instead of dividing by 0
    with pytest.raises(ArithmeticError, match="^incomplete gamma continued fraction failed"):
        nm.chisq_sf(1e300, 1e300)


# ---------------------------------------------------------------------------
# the normal limit at huge df
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("df", [1e30, 1e154, 1e200, 1e300])
def test_t_kernels_take_the_normal_limit_at_huge_df(df):
    norm = pytest.importorskip("scipy.stats").norm
    for x in (0.0, 0.3, 1.0, 1.96, 5.0, 12.0, 30.0, 37.0):
        for v in (x, -x):
            assert nm.t_sf(v, df) == pytest.approx(norm.sf(v), rel=1e-12, abs=0.0)
            assert nm.t_cdf(v, df) == pytest.approx(norm.cdf(v), rel=1e-12, abs=0.0)
    for p in (1e-300, 1e-12, 0.025, 0.3, 0.5, 0.975, 1.0 - 1e-12):
        assert nm.t_quantile(p, df) == pytest.approx(norm.ppf(p), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("df", [1e4, 1e6, 1e10, 1e15, 1e16, 3e17, 1e18, 1e20, 1e25,
                                math.nextafter(1e30, 0.0)])
def test_t_tails_keep_their_digits_up_to_the_normal_limit(df):
    # a branch test on z = df/(df + x^2) rounded to 1 from df of about 1e16 and gave
    # t_sf(10, 1e20) = 0.0; mpmath, not scipy, is the oracle: scipy's t.sf is 4e-12 off here
    mpmath = pytest.importorskip("mpmath")
    for x in (0.0, 1e-8, 0.5, 1.0, 1.96, 3.0, 5.0, 10.0, 20.0, 30.0):
        with mpmath.workdps(60):
            v, n = mpmath.mpf(x), mpmath.mpf(df)
            tail = float(mpmath.betainc(n / 2, 0.5, 0, n / (n + v * v), regularized=True) / 2)
        assert nm.t_sf(x, df) == pytest.approx(tail, rel=1e-12, abs=0.0), x
        assert nm.t_cdf(-x, df) == pytest.approx(tail, rel=1e-12, abs=0.0), x


def test_t_and_normal_paths_agree_at_the_threshold():
    # the t path just below df = 1e30 against the normal limit at 1e30
    below = math.nextafter(1e30, 0.0)
    for x in (0.0, 0.1, 0.5, 1.0, 2.0, -2.0):
        assert nm.t_sf(x, below) == pytest.approx(nm.t_sf(x, 1e30), rel=1e-13, abs=0.0)
        assert nm.t_cdf(x, below) == pytest.approx(nm.t_cdf(x, 1e30), rel=1e-13, abs=0.0)
    for p in (1e-300, 1e-10, 0.025, 0.3, 0.5, 0.975, 1.0 - 1e-16):
        assert nm.t_quantile(p, below) == pytest.approx(nm.t_quantile(p, 1e30), rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# the chi-square tail and the Stirling series against mpmath
# ---------------------------------------------------------------------------

def mpmath_chisq_sf(x, df):
    """Q(a, z) = 1 - z^a e^-z / Gamma(a + 1) 1F1(1; a + 1; z), a = df/2 and z = x/2, to
    80 digits; mpmath.gammainc fails to converge near the mean from df of about 1e3."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        a, z = mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
        front = mpmath.exp(a * mpmath.log(z) - z - mpmath.loggamma(a + 1))
        return 1 - front * mpmath.hyp1f1(1, a + 1, z)


def test_chisq_sf_against_mpmath_grid():
    # the prefactor z^s e^-z / Gamma(s) from lgamma terms was 2e-11 off at df 2e4, x = df
    for df in np.logspace(0.0, math.log10(2e4), 25).tolist():
        for ratio in (0.3, 0.5, 0.8, 0.95, 1.0, 1.02, 1.05, 1.2, 1.5, 2.0):
            expected = mpmath_chisq_sf(ratio * df, df)
            if expected > 1e-40:
                assert nm.chisq_sf(ratio * df, df) == pytest.approx(float(expected), rel=1e-12,
                                                                    abs=0.0), (ratio, df)


@pytest.mark.parametrize("df", [3e4, 1e5, 1e6])
def test_chisq_sf_near_the_mean_of_a_large_df_against_mpmath(df):
    # near x = df either expansion needs about 8 sqrt(df / 2) steps: 5 300 at df 1e6
    mpmath = pytest.importorskip("mpmath")
    for ratio in (0.99, 1.0, 1.002, 1.01):
        x = ratio * df
        with mpmath.workdps(80):
            a, z = mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
            front = mpmath.exp(a * mpmath.log(z) - z - mpmath.loggamma(a + 1))
            expected = 1 - front * mpmath.hyp1f1(1, a + 1, z, maxterms=10**6)
        assert nm.chisq_sf(x, df) == pytest.approx(float(expected), rel=1e-12, abs=0.0), ratio


def test_chisq_sf_series_and_continued_fraction_agree_at_the_switch():
    # x/2 = s + 1 runs the continued fraction, the float just below it the series
    for df in np.logspace(math.log10(16.0), math.log10(2e4), 200).tolist():
        z = 0.5 * df + 1.0
        above, below = nm.chisq_sf(2.0 * z, df), nm.chisq_sf(2.0 * math.nextafter(z, 0.0), df)
        assert below == pytest.approx(above, rel=1e-12, abs=0.0), df


def test_chisq_sf_far_below_a_large_df_is_one():
    # z/s - 1 rounds to -1 here, where ln(1 + u) is undefined and the lower tail negligible
    assert nm.chisq_sf(1e-300, 20.0) == 1.0
    assert nm.chisq_sf(1.0, 2e300) == 1.0


def test_stirling_series_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s in np.logspace(math.log10(8.0), 12.0, 200).tolist():
            m = mpmath.mpf(s)
            leading = (m - 0.5) * mpmath.log(m) - m + mpmath.log(2 * mpmath.pi) / 2
            assert abs(nm._stirling(s) - (mpmath.loggamma(m) - leading)) <= 2e-17, s


def test_ln_beta_of_the_t_kernels_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for df in np.logspace(math.log10(16.0), 30.0, 300).tolist():
            expected = mpmath.log(mpmath.beta(mpmath.mpf(df) / 2, mpmath.mpf(0.5)))
            assert abs(nm._ln_beta(0.5 * df, 0.5) - expected) <= 4e-15, df


# ---------------------------------------------------------------------------
# the kernels keep no state
# ---------------------------------------------------------------------------

def test_the_kernels_keep_no_state():
    # which calls repeat is the callers' knowledge: individual memoizes its t-test calls
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(nm))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "functools" not in imported
    assert [name for name, value in vars(nm).items() if hasattr(value, "cache_info")] == []


@pytest.mark.parametrize("call", [lambda: nm.t_quantile(0.975, 0.0), lambda: nm.t_quantile(1.5, 5.0),
                                  lambda: nm.t_quantile(0.0, 5.0), lambda: nm.t_cdf(1.0, -1.0),
                                  lambda: nm.t_cdf(math.inf, 5.0), lambda: nm.t_sf(math.nan, 5.0),
                                  lambda: nm.t_cdf(1.0, math.nan)])
def test_invalid_arguments_raise_on_every_call(call):
    # an exception is never cached: a repeat recomputes and raises again
    for _ in range(3):
        with pytest.raises(ValueError):
            call()
