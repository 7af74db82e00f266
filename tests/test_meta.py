import dataclasses
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replimeta import meta
from replimeta.descriptives import AnalysisWarning
from replimeta.effects import EffectSize
from replimeta.meta import (_root, forest_model, meta_regression, pool, pool_fixed, pool_random,
                            subgroup_analysis)
from replimeta.numerics import normal_quantile

scipy_stats = pytest.importorskip("scipy.stats")
scipy_optimize = pytest.importorskip("scipy.optimize")


def effect(name, d, variance, x=None, group=None):
    return EffectSize(name, d, variance, 20, subgroup_label=group, moderator_x=x)


def test_pool_fixed_closed_form():
    # w = 50 each: pooled = 0.64, se = 1 / sqrt(100) = 0.1, z = 6.4
    effects = [effect("A", 0.62, 0.02), effect("B", 0.66, 0.02)]
    res = pool_fixed(effects)
    z = res.pooled / res.se
    assert res.pooled == pytest.approx(0.64, rel=1e-12)
    assert res.se == pytest.approx(0.1, rel=1e-12)
    assert abs(z) == pytest.approx(6.4, rel=1e-12)
    assert res.p_value == pytest.approx(2.0 * scipy_stats.norm.sf(abs(z)), rel=1e-12, abs=0)


def test_pool_fixed_p_value_beyond_normal_cdf_resolution():
    # at |z| = 9 the two-sided p is 2.26e-19, below the spacing of doubles near 1
    res = pool_fixed([effect("A", -0.9, 0.01)])
    assert res.pooled / res.se == pytest.approx(-9.0, rel=1e-12)
    assert res.p_value == pytest.approx(2.0 * scipy_stats.norm.sf(9.0), rel=1e-12, abs=0)
    assert res.p_value == pytest.approx(2.26e-19, rel=1e-2, abs=0)


def dense_meta_regression(d, v, x):
    """Method-of-moments meta-regression with explicit diagonal weight matrices."""
    design = np.column_stack([np.ones(len(d)), x])
    w = np.diag(1.0 / v)
    xtwx_inv = np.linalg.inv(design.T @ w @ design)
    beta_f = xtwx_inv @ design.T @ w @ d
    resid = d - design @ beta_f
    q_e = resid @ w @ resid
    c = np.trace(w) - np.trace(xtwx_inv @ design.T @ w @ w @ design)
    tau2 = max(0.0, (q_e - (len(d) - 2)) / c)
    w_star = np.diag(1.0 / (v + tau2))
    cov = np.linalg.inv(design.T @ w_star @ design)
    beta = cov @ design.T @ w_star @ d
    return beta, np.sqrt(np.diag(cov)), tau2


@pytest.mark.parametrize("d", [
    [0.1, 0.9, 0.4, 1.6, 0.2],  # heterogeneous: tau^2 > 0
    [0.50, 0.55, 0.61, 0.64, 0.72],  # homogeneous: tau^2 truncated at 0
])
def test_meta_regression_against_dense_wls(d):
    d = np.array(d)
    v = np.array([0.04, 0.09, 0.05, 0.12, 0.07])
    x = np.array([1.0, 3.5, 2.0, 6.0, 2.5])
    res = meta_regression([effect(f"S{i}", *row) for i, row in enumerate(zip(d, v, x))])
    beta, ses, tau2 = dense_meta_regression(d, v, x)
    assert res.tau2 == pytest.approx(tau2, rel=1e-10, abs=1e-14)
    assert (res.intercept, res.slope) == pytest.approx(tuple(beta), rel=1e-10)
    assert (res.intercept_se, res.slope_se) == pytest.approx(tuple(ses), rel=1e-10)
    z975 = scipy_stats.norm.ppf(0.975)
    slope_ci = (beta[1] - z975 * ses[1], beta[1] + z975 * ses[1])
    assert res.slope_ci == pytest.approx(slope_ci, rel=1e-9)
    p_ref = 2.0 * scipy_stats.norm.sf(np.abs(beta / ses))
    assert (res.intercept_p, res.slope_p) == pytest.approx(tuple(p_ref), rel=1e-9, abs=0)


def exact_moment_meta_regression(d, v, x):
    """Method-of-moments meta-regression in exact rational arithmetic, solving
    the uncentred normal equations X'WX b = X'W d by Cramer's rule: returns
    tau^2 and the slope refitted with weights 1 / (v + tau^2)."""
    d, v, x = ([Fraction(float(t)) for t in a] for a in (d, v, x))

    def solve(w):
        s0, s1, s2 = sum(w), sum(wi * xi for wi, xi in zip(w, x)), sum(
            wi * xi * xi for wi, xi in zip(w, x))
        t0, t1 = sum(wi * di for wi, di in zip(w, d)), sum(
            wi * xi * di for wi, xi, di in zip(w, x, d))
        det = s0 * s2 - s1 * s1
        return (s2 * t0 - s1 * t1) / det, (s0 * t1 - s1 * t0) / det, (s0, s1, s2, det)

    w = [1 / vi for vi in v]
    b0, b1, (s0, s1, s2, det) = solve(w)
    q_e = sum(wi * (di - b0 - b1 * xi) ** 2 for wi, di, xi in zip(w, d, x))
    # tr((X'WX)^-1 X'W^2 X) = sum w_i^2 x_i'(X'WX)^-1 x_i
    trace = sum(wi * wi * (s2 - 2 * s1 * xi + s0 * xi * xi) / det for wi, xi in zip(w, x))
    tau2 = max(Fraction(0), (q_e - (len(d) - 2)) / (sum(w) - trace))
    return tau2, solve([1 / (vi + tau2) for vi in v])[1]


@pytest.mark.parametrize("seed", range(8))
def test_meta_regression_keeps_its_digits_for_a_moderator_far_from_zero(seed):
    # x = 1e5 + U(0, 3): an uncentred Cholesky solve of X'WX lost 2e-8 to 2e-6
    # of tau^2 and up to 1e-5 of the slope here, and centring once at a rounded
    # weighted mean up to 6e-12 of tau^2
    rng = np.random.default_rng(seed)
    x = 1e5 + rng.uniform(0.0, 3.0, 12)
    v = rng.uniform(0.02, 0.3, 12)
    d = 0.3 * (x - 1e5) + rng.normal(0.0, 1.0, 12)
    res = meta_regression([effect(f"S{i}", *row) for i, row in enumerate(zip(d, v, x))])
    tau2, slope = exact_moment_meta_regression(d, v, x)
    assert tau2 > 0
    assert res.tau2 == pytest.approx(float(tau2), rel=1e-13, abs=0)
    assert res.slope == pytest.approx(float(slope), rel=1e-13, abs=0)


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0), st.booleans(), st.floats(-1e4, 1e4))
@example(98, 0.01171875, False, 4096.0)
@settings(max_examples=100, deadline=None)
def test_meta_regression_under_affine_moderator(seed, a, negate, b):
    # x -> a x + b leaves tau^2 as it is and scales the slope by 1 / a, but only in exact
    # arithmetic: rounding a x + b moves tau^2 by up to 1.2e-8 (seed=98, a=0.01171875,
    # b=4096), so each fit is held to the exact fit of its own rounded moderator
    a = -a if negate else a
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 3.0, 12)
    v = rng.uniform(0.02, 0.3, 12)
    d = 0.3 * x + rng.normal(0.0, 0.6, 12)
    for xs in (x, a * x + b):
        res = meta_regression([effect(f"S{i}", *row) for i, row in enumerate(zip(d, v, xs))])
        tau2, slope = exact_moment_meta_regression(d, v, xs)
        assert res.tau2 == pytest.approx(float(tau2), rel=1e-8, abs=1e-12)
        assert res.slope == pytest.approx(float(slope), rel=1e-8, abs=1e-8 * res.slope_se)


def test_dl_pool_closed_form():
    # w = 2, 4, 4: mu = 1.6, Q = 2(1.6)^2 + 4(0.6)^2 + 4(1.4)^2 = 14.4 on 2 df,
    # I^2 = (14.4 - 2) / 14.4, C = 10 - 36/10 = 6.4, tau^2 = 12.4 / 6.4 = 1.9375
    effects = [effect("A", 0.0, 0.5), effect("B", 1.0, 0.25), effect("C", 3.0, 0.25)]
    res = pool_random(effects, "dl")
    assert res.model == "random_dl"
    assert res.q == pytest.approx(14.4, rel=1e-12)
    assert res.q_df == 2
    assert res.q_p == pytest.approx(math.exp(-7.2), rel=1e-12)  # chi^2_2 tail is exp(-q/2)
    assert res.i2 == pytest.approx(100.0 * 12.4 / 14.4, rel=1e-12)
    assert res.tau2 == pytest.approx(1.9375, rel=1e-12)
    w = [1.0 / (0.5 + 1.9375), 1.0 / (0.25 + 1.9375), 1.0 / (0.25 + 1.9375)]
    assert res.pooled == pytest.approx((w[1] * 1.0 + w[2] * 3.0) / sum(w), rel=1e-12)
    assert res.se == pytest.approx(1.0 / math.sqrt(sum(w)), rel=1e-12)
    assert res.weights == pytest.approx(tuple(x / sum(w) for x in w), rel=1e-12)


def reml_tau2_reference(d, v):
    """Minimize -2 x the restricted log-likelihood of tau^2, up to a constant,
    over the same bracket the program searches; prefer 0 when it is no worse."""
    def crit(tau2):
        w = 1.0 / (v + tau2)
        mu = np.sum(w * d) / np.sum(w)
        return np.sum(np.log(v + tau2)) + np.log(np.sum(w)) + np.sum(w * (d - mu) ** 2)

    hi = max(10.0 * np.var(d, ddof=1), 10.0 * np.max(v), 1.0)
    res = scipy_optimize.minimize_scalar(crit, bounds=(0.0, hi), method="bounded",
                                         options={"xatol": 1e-12})
    return 0.0 if crit(0.0) <= crit(res.x) else res.x


@pytest.mark.parametrize("seed", range(40))
def test_pool_random_reml_against_scipy(seed):
    rng = np.random.default_rng(seed)
    k = 2 + seed % 14
    d = rng.normal(0.5, rng.uniform(0.05, 1.0), size=k)
    v = rng.uniform(0.02, 0.4, size=k)
    res = pool_random([effect(f"S{i}", di, vi) for i, (di, vi) in enumerate(zip(d, v))], "reml")
    assert res.model == "random_reml"
    assert res.tau2 == pytest.approx(reml_tau2_reference(d, v), rel=1e-6, abs=1e-6)


def reml_case(seed):
    """The data sets of test_pool_random_reml_against_scipy."""
    rng = np.random.default_rng(seed)
    k = 2 + seed % 14
    return rng.normal(0.5, rng.uniform(0.05, 1.0), size=k), rng.uniform(0.02, 0.4, size=k)


@pytest.mark.parametrize("seed", range(40))
def test_pool_of_arrays_is_the_pool_of_their_effect_sizes_bit_for_bit(seed):
    d, v = reml_case(seed)
    effects = [effect(f"S{i}", di, vi) for i, (di, vi) in enumerate(zip(d, v))]
    ids = [e.experiment_id for e in effects]
    assert pool(d, v, "fixed", ids) == pool_fixed(effects)
    for method in ("dl", "reml"):
        assert pool(d, v, method, ids) == pool_random(effects, method)


def test_pool_closed_form_on_arrays_with_default_labels():
    # the hand case of test_dl_pool_closed_form: w = 2, 4, 4, mu = 1.6, se = 1 / sqrt(10),
    # Q = 14.4 on 2 df, tau^2 = 12.4 / 6.4 = 1.9375
    d, v = np.array([0.0, 1.0, 3.0]), [0.5, 0.25, 0.25]
    fixed, z975 = pool(d, v, "fixed"), scipy_stats.norm.ppf(0.975)
    assert (fixed.model, fixed.labels, fixed.tau2, fixed.q_df) == ("fixed", ("1", "2", "3"), 0.0, 2)
    assert fixed.pooled == pytest.approx(1.6, rel=1e-15)
    assert fixed.se == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-15)
    assert (fixed.ci_low, fixed.ci_high) == pytest.approx(
        (1.6 - z975 / math.sqrt(10.0), 1.6 + z975 / math.sqrt(10.0)), rel=1e-12)
    assert fixed.p_value == pytest.approx(2.0 * scipy_stats.norm.sf(1.6 * math.sqrt(10.0)),
                                          rel=1e-12, abs=0)
    assert fixed.weights == pytest.approx((0.2, 0.4, 0.4), rel=1e-15)
    assert fixed.q == pytest.approx(14.4, rel=1e-14)
    assert fixed.q_p == pytest.approx(math.exp(-7.2), rel=1e-12)
    assert fixed.i2 == pytest.approx(100.0 * 12.4 / 14.4, rel=1e-12)
    dl = pool(d, v)  # DerSimonian-Laird is the default
    w = [1.0 / (0.5 + 1.9375), 1.0 / (0.25 + 1.9375), 1.0 / (0.25 + 1.9375)]
    assert (dl.model, dl.labels) == ("random_dl", ("1", "2", "3"))
    assert (dl.q, dl.q_df, dl.q_p, dl.i2) == (fixed.q, fixed.q_df, fixed.q_p, fixed.i2)
    assert dl.tau2 == pytest.approx(1.9375, rel=1e-12)
    assert dl.pooled == pytest.approx((w[1] * 1.0 + w[2] * 3.0) / sum(w), rel=1e-12)
    assert dl.se == pytest.approx(1.0 / math.sqrt(sum(w)), rel=1e-12)
    assert dl.weights == pytest.approx(tuple(x / sum(w) for x in w), rel=1e-12)


@pytest.mark.parametrize("args, message", [
    (([0.1, 0.2], [0.1, 0.1], "random_dl"), "unknown pooling method 'random_dl'"),
    (([], [], "fixed"), "cannot pool an empty set of estimates"),
    (([[0.1, 0.2]], [[0.1, 0.1]], "dl"),
     r"estimates and variances need one 1-D shape, got \(1, 2\) and \(1, 2\)"),
    (([0.1, 0.2], [0.1], "dl"), r"estimates and variances need one 1-D shape, got \(2,\) and \(1,\)"),
    (([0.1, math.nan], [0.1, 0.1], "dl"), "estimates must be finite"),
    (([0.1, -math.inf], [0.1, 0.1], "reml"), "estimates must be finite"),
    (([0.1, 0.2], [0.1, 0.0], "fixed"), "variances must be positive and finite"),
    (([0.1, 0.2], [-0.1, 0.1], "dl"), "variances must be positive and finite"),
    (([0.1, 0.2], [0.1, math.inf], "reml"), "variances must be positive and finite"),
    (([0.1, 0.2], [math.nan, 0.1], "dl"), "variances must be positive and finite"),
    (([0.1, 0.2], [0.1, 0.1], "dl", ["A"]), "expected 2 labels, got 1"),
    (([0.1, 0.2], [0.1, 0.1], "fixed", ["A", "B", "C"]), "expected 2 labels, got 3"),
], ids=["method", "empty", "2-D", "unequal lengths", "NaN estimate", "inf estimate",
        "zero variance", "negative variance", "inf variance", "NaN variance",
        "one label short", "one label over"])
def test_pool_rejects_bad_arrays_by_name(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        pool(*args)


@pytest.mark.parametrize("args", [
    ([0.1, 0.2], [0.1, 1e-320], "dl"),  # 1 / v overflows
    ([0.1] * 4, [1e-308] * 4, "dl"),  # the sum of the weights overflows
    ([0.1, 0.2], [0.1, 1e-300], "dl"),  # the square of a weight overflows
    ([0.1, 0.5], [1e308, 1e308], "reml"),  # REML's grid top, 10 max v, overflows
    ([1e160, -1e160], [1.0, 1.0], "fixed"),  # (d - mu)^2 overflows
], ids=["subnormal variance", "tiny variances", "squared weight", "REML grid top", "huge estimates"])
def test_pool_rejects_inputs_past_the_float_range_by_name(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^estimates and variances lie too far from unit scale to pool$"):
            pool(*args)


@pytest.mark.parametrize("method", ["fixed", "dl", "reml"])
def test_pool_at_every_scale_pools_finitely_or_names_the_scale(method):
    # three studies, estimates from 1e-300 to 1e300 and variances from 1e-320 to 1e300: no
    # numpy warning, every field of a pool is finite, and the pool is refused just where
    # 2 sqrt(3) max(1, |d|) max(1, 1/v, v), about 10^(max(ed, 0) + |ev|), passes 2^511 = 6.7e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ed, ev in itertools.product(range(-300, 301, 25), range(-320, 301, 20)):
            d = np.array([1.0, -0.5, 1e-3]) * 10.0 ** ed
            v = np.array([1.0, 3.0, 0.5]) * 10.0 ** ev
            if max(ed, 0) + abs(ev) > 150:
                with pytest.raises(ValueError, match="^estimates and variances lie too far from unit scale"):
                    pool(d, v, method)
                continue
            res = pool(d, v, method)
            fields = [res.pooled, res.se, res.ci_low, res.ci_high, res.p_value, res.tau2, res.q,
                      res.q_p, res.i2, *res.weights]
            assert all(math.isfinite(x) for x in fields), (ed, ev, res)


def reml_tau2(d, v):
    return pool_random([effect(f"S{i}", di, vi) for i, (di, vi) in enumerate(zip(d, v))],
                       "reml").tau2


@pytest.mark.parametrize("seed", range(40))
def test_reml_tau2_does_not_move_with_a_last_bit_change(seed):
    d, v = reml_case(seed)
    nudged = d.copy()
    nudged[0] = np.nextafter(d[0], np.inf)
    assert reml_tau2(nudged, v) == pytest.approx(reml_tau2(d, v), rel=1e-10, abs=0)


def projection_reml_score(tau2, d, v):
    """Twice the derivative of the restricted log-likelihood in tau^2, written
    with P = W - W 1 1' W / (1' W 1), W = diag(1 / (v + tau^2)): y'PPy - tr(P)."""
    w = np.diag(1.0 / (v + tau2))
    wone = w @ np.ones(len(d))
    p = w - np.outer(wone, wone) / wone.sum()
    return d @ p @ p @ d - np.trace(p)


@pytest.mark.parametrize("d, v, tau2", [
    ([-0.2, 0.1, 0.6, 0.8, -0.4, 0.4, 0.0, -0.2, 0.9, 0.4],
     [0.95, 0.88, 0.86, 1.24, 0.04, 0.18, 0.33, 0.01, 0.5, 0.37], 0.0271218),
    ([-0.7, -0.5, 0.7, -0.6, 0.5, 0.2, 0.6, 0.3, 0.3, -0.8, -1.0, -0.5],
     [0.89, 0.76, 0.09, 0.9, 0.65, 0.93, 0.78, 0.87, 0.01, 0.5, 0.89, 0.47], 0.0508109),
])
def test_reml_finds_interior_maximum_beside_a_boundary_one(d, v, tau2):
    d, v = np.array(d), np.array(v)
    effects = [effect(f"S{i}", di, vi) for i, (di, vi) in enumerate(zip(d, v))]
    # DL is 0 and the likelihood falls away from 0, so a search started there stays there
    assert pool_random(effects, "dl").tau2 == 0.0
    assert projection_reml_score(0.0, d, v) < 0.0
    root = scipy_optimize.brentq(projection_reml_score, tau2 / 2, 2 * tau2, args=(d, v),
                                 xtol=1e-15, rtol=1e-15)
    got = pool_random(effects, "reml").tau2
    assert got == pytest.approx(root, rel=1e-9, abs=0)
    assert got == pytest.approx(tau2, rel=1e-5, abs=0)


def test_reml_is_exactly_zero_when_no_grid_score_is_positive():
    # six close effects with large variances: the score is negative down the whole grid
    d = np.array([0.10, 0.12, 0.11, 0.09, 0.10, 0.105])
    v = np.full(6, 0.2)
    top = max(10.0 * np.var(d, ddof=1), 10.0 * v.max(), 1.0)
    assert all(projection_reml_score(top * 0.5 ** j, d, v) < 0.0 for j in range(40))
    assert projection_reml_score(0.0, d, v) < 0.0
    tau2 = reml_tau2(d, v)
    assert tau2 == 0.0 and type(tau2) is float


@pytest.mark.parametrize("seed", range(40))
def test_reml_tau2_is_the_root_of_the_projection_score(seed):
    d, v = reml_case(seed)
    got = reml_tau2(d, v)
    if got == 0.0:  # a boundary maximum: the likelihood falls away from 0
        assert projection_reml_score(0.0, d, v) < 0.0
        return
    root = scipy_optimize.brentq(projection_reml_score, got / 2, 2 * got, args=(d, v),
                                 xtol=1e-300, rtol=1e-15)  # relative tolerance only
    assert got == pytest.approx(root, rel=1e-13, abs=0)


def root_of(f, lo, hi):
    """_root on [lo, hi], and the points at which it evaluated f."""
    points = []

    def counted(x):
        points.append(x)
        return f(x)

    return _root(counted, lo, f(lo), hi, f(hi)), points


def brentq(f, lo, hi):
    return scipy_optimize.brentq(f, lo, hi, xtol=1e-300, rtol=1e-15)


def test_root_of_a_smooth_cubic():
    def f(x):
        return x ** 3 - 2.0 * x - 5.0  # Wallis's cubic, root near 2.0946

    got, points = root_of(f, 2.0, 3.0)
    assert abs(got - brentq(f, 2.0, 3.0)) <= 4 * math.ulp(got)
    assert len(points) <= 12


def test_root_moves_both_ends_where_one_side_is_flat():
    # x^10 - 0.5 is flat below its root and steep above it: regula falsi keeps
    # the upper end forever and creeps up from below
    def f(x):
        return x ** 10 - 0.5

    got, points = root_of(f, 0.0, 1.5)
    want = brentq(f, 0.0, 1.5)
    assert abs(got - want) <= 4 * math.ulp(got)
    assert min(points) < want < max(points) < 1.5
    assert sum(x > want for x in points) >= 2  # the upper end moved more than once
    assert len(points) <= 25


def test_root_returns_an_exact_zero_at_once():
    def f(x):  # 0 on [0.3, 0.32], steeper above than below
        return min(x - 0.3, 0.0) + 10.0 * max(x - 0.32, 0.0)

    got, points = root_of(f, 0.0, 1.0)
    assert f(got) == 0.0 and got == points[-1]
    assert len(points) >= 2  # the zero is hit mid-run, not by the first step
    assert len(points) <= 12
    assert f(brentq(f, 0.0, 1.0)) == 0.0


@pytest.mark.parametrize("near", ["lo", "hi"])
def test_root_a_few_ulps_from_an_end(near):
    r = 1.0 + 3 * math.ulp(1.0) if near == "lo" else 2.0 - 3 * math.ulp(2.0)

    def f(x):
        return x - r

    got, points = root_of(f, 1.0, 2.0)
    assert abs(got - brentq(f, 1.0, 2.0)) <= 4 * math.ulp(got)
    assert abs(got - r) <= 2 * math.ulp(r)
    assert len(points) <= 4


def test_root_steps_off_an_end_whose_value_is_nearly_zero():
    # the secant step lands on hi itself, where f is -1e-300 and not 0; only
    # the two-ulp clearance moves the next point off it
    def f(x):
        return (1.0 - x) - 1e-300

    got, points = root_of(f, 0.0, 1.0)
    assert abs(got - brentq(f, 0.0, 1.0)) <= 4 * math.ulp(got)
    assert len(points) <= 4


def test_root_bisects_when_the_secant_step_is_undefined():
    def f(x):  # infinite at the upper end, so the first secant step is inf / inf
        return x - 0.3 if x < 1.0 else math.inf

    got, points = root_of(f, 0.0, 1.0)
    assert points[0] == 0.5
    assert abs(got - 0.3) <= 4 * math.ulp(0.3)
    assert len(points) <= 6


def reml_grid_reference(d, v):
    """Minimize -2 x the restricted log-likelihood on a 257-point grid over the
    program's search range, refine between the best point's neighbours with a
    bounded search, and keep 0 when it is no worse."""
    def crit(tau2):
        w = 1.0 / (v + tau2)
        mu = np.sum(w * d) / np.sum(w)
        return np.sum(np.log(v + tau2)) + np.log(np.sum(w)) + np.sum(w * (d - mu) ** 2)

    hi = max(10.0 * np.var(d, ddof=1), 10.0 * np.max(v), 1.0)
    grid = np.linspace(0.0, hi, 257)
    w = 1.0 / (v + grid[:, None])  # one row per grid point
    mu = (w @ d) / w.sum(axis=1)
    values = (np.log(v + grid[:, None]).sum(axis=1) + np.log(w.sum(axis=1))
              + (w * (d - mu[:, None]) ** 2).sum(axis=1))
    j = int(np.argmin(values))
    res = scipy_optimize.minimize_scalar(crit, method="bounded",
                                         bounds=(grid[max(j - 1, 0)], grid[min(j + 1, 256)]),
                                         options={"xatol": 1e-14 * hi})
    best = res.x if res.fun < values[j] else grid[j]
    return 0.0 if crit(0.0) <= crit(best) else best


def test_reml_tau2_agrees_with_grid_search_on_seeded_sweep():
    rng = np.random.default_rng(2005)
    misses = []
    for case in range(2000):
        k = int(rng.integers(2, 32))
        d = rng.normal(rng.normal(0.0, 0.5), rng.uniform(0.01, 1.5), size=k)
        v = rng.uniform(0.005, 1.0, size=k) * rng.choice([0.1, 1.0])
        if case % 3:  # data as reported, to 1 or 2 decimals
            places = case % 3
            d, v = np.round(d, places), np.maximum(np.round(v, places), 10.0 ** -places)
        got, want = reml_tau2(d, v), reml_grid_reference(d, v)
        if not math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-6):
            misses.append((case, got, want))
    assert misses == []


@pytest.mark.parametrize("k", [2, 3, 4, 8, 12, 13, 20, 59, 100, 500, 2000])
def test_reml_tau2_does_not_depend_on_the_scan_pass_width(k, monkeypatch):
    # each grid point's score sums its own row, so cutting the halving grid into
    # passes of another width leaves every score, and so tau^2, bit for bit
    rng = np.random.default_rng(26 + k)
    moved = []
    for case in range(28):
        d = rng.normal(rng.normal(0.0, 0.5), rng.uniform(0.01, 1.5), size=k)
        v = rng.uniform(0.005, 1.0, size=k) * rng.choice([0.1, 1.0])
        tau2 = {}
        for rows in (1, 3, 5, 8, 40):
            monkeypatch.setattr(meta, "_SCAN_ROWS", rows)
            tau2[rows] = meta._tau2_reml(d, v)
        if len(set(tau2.values())) > 1:
            moved.append((case, tau2))
    assert moved == []


def test_pool_fixed_heterogeneity_p_value_for_thirty_thousand_studies():
    # d_i = +-sqrt(v_i) puts Q near its df of 29 999, where the chi-square tail
    # takes about 8 sqrt(df / 2), some 980, steps
    rng = np.random.default_rng(30000)
    v = rng.uniform(0.02, 0.4, size=30000)
    d = np.sqrt(v) * np.where(np.arange(30000) % 2, 1.0, -1.0)
    res = pool_fixed([effect(f"S{i}", di, vi) for i, (di, vi) in enumerate(zip(d, v))])
    assert res.q_df == 29999 and res.q == pytest.approx(30000.0, rel=1e-2)
    assert res.q_p == pytest.approx(scipy_stats.chi2.sf(res.q, res.q_df), rel=1e-12, abs=0)


@pytest.mark.parametrize("method", ["dl", "reml"])
def test_pool_random_of_one_study_is_the_fixed_pool(method):
    effects = [effect("A", 0.4, 0.05)]
    with pytest.warns(AnalysisWarning, match="single study"):
        res = pool_random(effects, method)
    assert res.tau2 == 0.0
    assert dataclasses.replace(res, model="fixed") == pool_fixed(effects)


@pytest.mark.parametrize("k", [1, 3])
def test_pool_random_rejects_unknown_estimator(k):
    with pytest.raises(ValueError, match="unknown tau\\^2 estimator 'bogus'"):
        pool_random([effect(f"S{i}", 0.1 * i, 0.05) for i in range(k)], "bogus")


def test_subgroup_difference_from_group_pools():
    a = [effect("A1", 0.2, 0.04, group="student"), effect("A2", 0.9, 0.05, group="student"),
         effect("A3", 0.4, 0.03, group="student")]
    b = [effect("B1", 1.1, 0.06, group="professional"),
         effect("B2", 0.3, 0.08, group="professional")]
    res = subgroup_analysis([a[0], b[0], a[1], a[2], b[1]])
    assert res.group_order == ("student", "professional")
    pool_a, pool_b = pool_random(a, "reml"), pool_random(b, "reml")
    assert res.groups == {"student": pool_a, "professional": pool_b}
    diff = pool_b.pooled - pool_a.pooled
    se = math.hypot(pool_a.se, pool_b.se)
    z975 = scipy_stats.norm.ppf(0.975)
    assert res.difference == pytest.approx(diff, rel=1e-12)
    assert res.difference_ci == pytest.approx((diff - z975 * se, diff + z975 * se), rel=1e-9)
    assert res.difference_p == pytest.approx(2.0 * scipy_stats.norm.sf(abs(diff) / se), rel=1e-9)


def test_subgroup_singleton_group_pools_with_zero_tau2():
    a = [effect("A1", 0.2, 0.04, group="student"), effect("A2", 0.9, 0.05, group="student")]
    solo = effect("B1", 1.1, 0.06, group="professional")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = subgroup_analysis([a[0], solo, a[1]])
    group = res.groups["professional"]
    assert (group.tau2, group.i2, group.q_df) == (0.0, 0.0, 0)
    assert dataclasses.replace(group, model="fixed") == pool_fixed([solo])


def test_forest_model_rows_and_diamond():
    effects = [effect("A", 0.0, 0.5), effect("B", 1.0, 0.25), effect("C", 3.0, 0.25)]
    meta = pool_random(effects, "dl")
    model = forest_model(effects, meta)
    z975 = scipy_stats.norm.ppf(0.975)
    for row, e, w in zip(model.rows, effects, meta.weights):
        label, d, lo, hi, pct = row
        se = math.sqrt(e.variance)
        assert (label, d) == (e.experiment_id, e.d)
        assert (lo, hi) == pytest.approx((e.d - z975 * se, e.d + z975 * se), rel=1e-9)
        assert pct == pytest.approx(100.0 * w, rel=1e-12)
    assert sum(row[4] for row in model.rows) == pytest.approx(100.0, rel=1e-12)
    assert model.diamond == (meta.pooled, meta.ci_low, meta.ci_high)
    assert (model.q, model.q_df, model.q_p, model.i2, model.tau2) == (
        meta.q, meta.q_df, meta.q_p, meta.i2, meta.tau2)
    with pytest.raises(ValueError, match="do not match"):
        forest_model(effects[:2], meta)


def test_forest_model_rejects_effects_in_another_order():
    effects = [effect("A", 0.0, 0.5), effect("B", 1.0, 0.25), effect("C", 3.0, 0.25)]
    with pytest.raises(ValueError, match="do not match"):
        forest_model(effects[::-1], pool_random(effects, "dl"))


def test_forest_rows_are_bit_identical_to_per_effect_arithmetic():
    rng = np.random.default_rng(17)
    effects = [effect(f"S{i}", float(d), float(v)) for i, (d, v) in
               enumerate(zip(rng.normal(0.4, 0.5, 60), rng.uniform(0.01, 0.6, 60)))]
    meta = pool_fixed(effects)
    z975 = normal_quantile(0.975)
    expected = tuple((e.experiment_id, e.d, e.d - z975 * math.sqrt(e.variance),
                      e.d + z975 * math.sqrt(e.variance), 100.0 * w)
                     for e, w in zip(effects, meta.weights))
    rows = forest_model(effects, meta).rows
    assert rows == expected
    assert all(type(value) is float for row in rows for value in row[1:])


def test_meta_regression_needs_every_moderator():
    effects = [effect("A", 0.1, 0.1, 1.0), effect("B", 0.2, 0.1, None), effect("C", 0.5, 0.2, 3.0)]
    with pytest.raises(ValueError, match="every effect size needs a moderator value"):
        meta_regression(effects)
    with pytest.raises(ValueError, match="moderator is constant"):
        meta_regression([effect(n, 0.1 * i, 0.1, 2) for i, n in enumerate("ABC")])


@pytest.fixture(scope="module")
def many_effects():
    rng = np.random.default_rng(4000)
    k = 4000
    return [effect(f"S{i}", d, v, x, "AB"[i % 2]) for i, (d, v, x) in
            enumerate(zip(rng.normal(0.4, 0.5, k), rng.uniform(0.01, 0.6, k),
                          rng.uniform(1.0, 7.0, k)))]


@pytest.mark.parametrize("call", [
    pool_fixed,
    lambda effects: pool_random(effects, "dl"),
    lambda effects: pool_random(effects, "reml"),
    subgroup_analysis,
    meta_regression,
    lambda effects: forest_model(effects, pool_fixed(effects)),
    lambda effects: pool([e.d for e in effects], [e.variance for e in effects], "reml"),
], ids=["pool_fixed", "pool_random_dl", "pool_random_reml", "subgroup_analysis",
        "meta_regression", "forest_model", "pool_reml"])
def test_aggregated_data_paths_use_memory_linear_in_k(many_effects, call):
    # the results themselves hold up to about 30 doubles per study; one k x k
    # array would hold k of them
    k = len(many_effects)
    tracemalloc.start()
    try:
        call(many_effects)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 8 * k


@pytest.mark.parametrize("call", [
    pool_fixed,
    pool_random,
    lambda effects: pool_random(effects, "reml"),
    subgroup_analysis,
    lambda effects: forest_model(effects, pool_fixed([effect("A", 0.1, 0.1)])),
], ids=["pool_fixed", "pool_random_dl", "pool_random_reml", "subgroup_analysis", "forest_model"])
def test_an_empty_set_of_effects_is_rejected(call):
    with pytest.raises(ValueError, match="^cannot pool an empty set of effect sizes$"):
        call([])


def test_subgroup_analysis_needs_every_label():
    effects = [effect("A", 0.1, 0.1, group="student"), effect("B", 0.2, 0.1)]
    with pytest.raises(ValueError, match="^B: missing subgroup label$"):
        subgroup_analysis(effects)


def test_meta_regression_needs_three_effects():
    with pytest.raises(ValueError, match="^meta-regression needs at least 3 effect sizes$"):
        meta_regression([effect("A", 0.1, 0.1, 1.0), effect("B", 0.2, 0.1, 2.0)])


# six studies, two subject types of three; every estimator finds tau^2 > 0 in the first
# family and tau^2 = 0 in the second
FIT_FAMILIES = {
    "heterogeneous": [effect(f"S{i}", d, v, x, "AB"[i % 2]) for i, (d, v, x) in enumerate(zip(
        (0.0, 1.5, 3.0, -1.0, 2.0, 0.5), (0.05, 0.08, 0.04, 0.06, 0.05, 0.07), range(1, 7)))],
    "homogeneous": [effect(f"S{i}", d, v, x, "AB"[i % 2]) for i, (d, v, x) in enumerate(zip(
        (0.30, 0.32, 0.29, 0.31, 0.30, 0.31), (0.05, 0.08, 0.04, 0.06, 0.05, 0.07), range(1, 7)))],
}


@pytest.mark.parametrize("family", FIT_FAMILIES)
def test_each_pool_fits_the_inverse_variance_weights_once(family, monkeypatch):
    # one fit with w = 1 / v serves Q, the moment tau^2 and the tau^2 = 0 result;
    # only a tau^2 > 0 fits again
    effects, heterogeneous = FIT_FAMILIES[family], family == "heterogeneous"
    calls, fit = [], meta._fit
    monkeypatch.setattr(meta, "_fit", lambda *args: calls.append(args) or fit(*args))

    def fits(call):
        calls.clear()
        return call(effects), len(calls)

    assert fits(pool_fixed)[1] == 1
    for call in (pool_random, lambda e: pool_random(e, "reml"), meta_regression):
        result, n = fits(call)
        assert (result.tau2 > 0.0) == heterogeneous
        assert n == (2 if heterogeneous else 1)
    result, n = fits(subgroup_analysis)
    assert all((group.tau2 > 0.0) == heterogeneous for group in result.groups.values())
    assert n == len(result.groups) * (2 if heterogeneous else 1)
