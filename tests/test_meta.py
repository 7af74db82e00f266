import dataclasses
import math
import warnings

import numpy as np
import pytest

from replimeta.descriptives import AnalysisWarning
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


def reml_case(seed):
    """The data sets of test_pool_random_reml_against_scipy."""
    rng = np.random.default_rng(seed)
    k = 2 + seed % 14
    return rng.normal(0.5, rng.uniform(0.05, 1.0), size=k), rng.uniform(0.02, 0.4, size=k)


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
        assert (label, d) == (e.experiment_id, e.d)
        assert (lo, hi) == pytest.approx((e.d - z975 * e.se, e.d + z975 * e.se), rel=1e-9)
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
