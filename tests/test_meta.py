import math

import numpy as np
import pytest

from replimeta.effects import EffectSize
from replimeta.meta import meta_regression, pool_fixed

scipy_stats = pytest.importorskip("scipy.stats")


def effect(name, d, variance, x=None):
    return EffectSize(name, d, variance, 20, moderator_x=x)


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
