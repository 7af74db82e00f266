import math

import numpy as np
import pytest

from replimeta.effects import EffectSize
from replimeta.meta import (forest_model, meta_regression, pool_fixed, pool_random,
                            subgroup_analysis)

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


def test_forest_model_rows_and_diamond():
    effects = [effect("A", 0.0, 0.5), effect("B", 1.0, 0.25), effect("C", 3.0, 0.25)]
    meta = pool_random(effects, "dl")
    model = forest_model(effects, meta)
    z975 = scipy_stats.norm.ppf(0.975)
    for row, e, w in zip(model.rows, effects, meta.weights):
        label, d, lo, hi, pct = row
        assert (label, d) == (e.experiment_id, e.d)
        assert (lo, hi) == pytest.approx((e.d - z975 * e.se, e.d + z975 * e.se), rel=1e-9)
        assert pct == pytest.approx(100.0 * w, rel=1e-12)
    assert sum(row[4] for row in model.rows) == pytest.approx(100.0, rel=1e-12)
    assert model.diamond == (meta.pooled, meta.ci_low, meta.ci_high)
    assert (model.q, model.q_df, model.q_p, model.i2, model.tau2) == (
        meta.q, meta.q_df, meta.q_p, meta.i2, meta.tau2)
    with pytest.raises(ValueError, match="do not match"):
        forest_model(effects[:2], meta)
