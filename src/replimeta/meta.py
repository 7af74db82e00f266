"""Aggregated-data pooling: fixed-effect and random-effects meta-analysis,
heterogeneity statistics, subgroup analysis, meta-regression, and the
forest-plot data model.

The random-effects default is the DerSimonian-Laird moment estimator of the
between-study variance. A restricted-maximum-likelihood estimator is also
available and is the default inside subgroup pools, where the moment
estimator is known to understate heterogeneity for very small groups.
Confidence intervals and p-values are z-based throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .descriptives import AnalysisWarning
from .effects import EffectSize
from .numerics import chisq_sf, normal_quantile, wls_solve

__all__ = [
    "ForestPlotModel",
    "MetaRegressionResult",
    "MetaResult",
    "SubgroupResult",
    "forest_model",
    "heterogeneity_label",
    "meta_regression",
    "pool_fixed",
    "pool_random",
    "subgroup_analysis",
]

FIXED = "fixed"
RANDOM_DL = "random_dl"
RANDOM_REML = "random_reml"


@dataclass(frozen=True)
class MetaResult:
    pooled: float
    se: float
    ci_low: float
    ci_high: float
    p_value: float
    tau2: float
    q: float
    q_df: int
    q_p: float
    i2: float  # percent in [0, 100)
    model: str
    weights: tuple[float, ...]  # normalized, same order as the input effects
    labels: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.weights)


def _z_p(z: float) -> float:
    """Two-sided normal p-value, from the upper tail so that it keeps its digits."""
    return min(1.0, max(math.erfc(abs(z) / math.sqrt(2.0)), 1e-300))


def _heterogeneity(d: np.ndarray, v: np.ndarray) -> tuple[float, int, float, float]:
    """Cochran's Q with df, its p-value, and I^2 (%) from fixed weights."""
    w = 1.0 / v
    mu = float(np.sum(w * d) / np.sum(w))
    q = float(np.sum(w * (d - mu) ** 2))
    df = len(d) - 1
    q_p = chisq_sf(q, df) if df > 0 else 1.0
    i2 = max(0.0, (q - df) / q * 100.0) if df > 0 and q > 0 else 0.0
    return q, df, q_p, i2


def _tau2_dl(d: np.ndarray, v: np.ndarray) -> float:
    """DerSimonian-Laird moment estimator, truncated at zero."""
    if len(d) < 2:
        return 0.0
    w = 1.0 / v
    q, df, _, _ = _heterogeneity(d, v)
    c = float(np.sum(w) - np.sum(w * w) / np.sum(w))
    if c <= 0.0:
        return 0.0
    return max(0.0, (q - df) / c)


def _tau2_reml(d: np.ndarray, v: np.ndarray) -> float:
    """Restricted-maximum-likelihood estimator via golden-section search on
    the 1-d profiled criterion."""
    if len(d) < 2:
        return 0.0

    def crit(tau2: float) -> float:
        w = 1.0 / (v + tau2)
        mu = float(np.sum(w * d) / np.sum(w))
        return float(np.sum(np.log(v + tau2)) + math.log(np.sum(w))
                     + np.sum(w * (d - mu) ** 2))

    hi = max(10.0 * float(np.var(d, ddof=1)), 10.0 * float(np.max(v)), 1.0)
    lo = 0.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - inv_phi * (b - a)
    c2 = a + inv_phi * (b - a)
    f1, f2 = crit(c1), crit(c2)
    for _ in range(200):
        if b - a < 1e-12 * max(1.0, b):
            break
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - inv_phi * (b - a)
            f1 = crit(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + inv_phi * (b - a)
            f2 = crit(c2)
    tau2 = 0.5 * (a + b)
    # the criterion can be monotone increasing; prefer the boundary then
    if crit(0.0) <= crit(tau2):
        return 0.0
    return tau2


def _pool(effects: list[EffectSize], tau2: float, model: str) -> MetaResult:
    d = np.array([e.d for e in effects])
    v = np.array([e.variance for e in effects])
    q, q_df, q_p, i2 = _heterogeneity(d, v)
    w = 1.0 / (v + tau2)
    sw = float(np.sum(w))
    pooled = float(np.sum(w * d) / sw)
    se = 1.0 / math.sqrt(sw)
    z975 = normal_quantile(0.975)
    z = pooled / se
    return MetaResult(
        pooled=pooled, se=se,
        ci_low=pooled - z975 * se, ci_high=pooled + z975 * se,
        p_value=_z_p(z),
        tau2=tau2, q=q, q_df=q_df, q_p=q_p, i2=i2,
        model=model,
        weights=tuple(float(x) for x in w / sw),
        labels=tuple(e.experiment_id for e in effects),
    )


def pool_fixed(effects: list[EffectSize]) -> MetaResult:
    """Inverse-variance fixed-effect pooling."""
    if not effects:
        raise ValueError("cannot pool an empty set of effect sizes")
    return _pool(list(effects), 0.0, FIXED)


_TAU2_ESTIMATORS = {"dl": (_tau2_dl, RANDOM_DL), "reml": (_tau2_reml, RANDOM_REML)}


def pool_random(effects: list[EffectSize], tau2_method: str = "dl") -> MetaResult:
    """Random-effects pooling with the chosen between-study variance estimator
    ("dl" or "reml")."""
    if not effects:
        raise ValueError("cannot pool an empty set of effect sizes")
    try:
        estimator, model = _TAU2_ESTIMATORS[tau2_method]
    except KeyError:
        raise ValueError(f"unknown tau^2 estimator {tau2_method!r}") from None
    effects = list(effects)
    if len(effects) == 1:
        # both estimators return tau^2 = 0 for a single study
        warnings.warn("random-effects pool of a single study falls back to the "
                      "fixed-effect result with tau^2 = 0", AnalysisWarning)
    d = np.array([e.d for e in effects])
    v = np.array([e.variance for e in effects])
    return _pool(effects, estimator(d, v), model)


def heterogeneity_label(i2: float) -> str:
    """Rule-of-thumb label for an I^2 percentage (25/50/75 thresholds)."""
    if i2 < 25.0:
        return "negligible"
    if i2 < 50.0:
        return "small"
    if i2 < 75.0:
        return "medium"
    return "large"


@dataclass(frozen=True)
class SubgroupResult:
    groups: dict[str, MetaResult]
    group_order: tuple[str, ...]
    difference: float | None  # second group minus first, d units
    difference_ci: tuple[float, float] | None
    difference_p: float | None


def subgroup_analysis(effects: list[EffectSize], tau2_method: str = "reml") -> SubgroupResult:
    """Random-effects pool per subgroup label with a separate tau^2 per group.

    With exactly two groups, also reports their difference tested as
    z = delta / sqrt(se_a^2 + se_b^2). Singleton groups pool with tau^2 = 0
    and I^2 = 0.
    """
    if not effects:
        raise ValueError("cannot pool an empty set of effect sizes")
    order: list[str] = []
    grouped: dict[str, list[EffectSize]] = {}
    for e in effects:
        if e.subgroup_label is None:
            raise ValueError(f"{e.experiment_id}: missing subgroup label")
        if e.subgroup_label not in grouped:
            order.append(e.subgroup_label)
        grouped.setdefault(e.subgroup_label, []).append(e)
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalysisWarning)  # singleton groups are expected here
        for label in order:
            results[label] = pool_random(grouped[label], tau2_method)
    difference = ci = p = None
    if len(order) == 2:
        a, b = results[order[0]], results[order[1]]
        difference = b.pooled - a.pooled
        se = math.hypot(a.se, b.se)
        z975 = normal_quantile(0.975)
        ci = (difference - z975 * se, difference + z975 * se)
        p = _z_p(difference / se)
    return SubgroupResult(results, tuple(order), difference, ci, p)


@dataclass(frozen=True)
class MetaRegressionResult:
    intercept: float
    intercept_se: float
    intercept_ci: tuple[float, float]
    intercept_p: float
    slope: float
    slope_se: float
    slope_ci: tuple[float, float]
    slope_p: float
    tau2: float  # residual between-study variance


def meta_regression(effects: list[EffectSize]) -> MetaRegressionResult:
    """Weighted regression of effect size on a continuous study-level
    moderator, with a method-of-moments residual tau^2 and z-based inference.
    """
    effects = list(effects)
    if len(effects) < 3:
        raise ValueError("meta-regression needs at least 3 effect sizes")
    if any(e.moderator_x is None for e in effects):
        raise ValueError("every effect size needs a moderator value")
    d = np.array([e.d for e in effects])
    v = np.array([e.variance for e in effects])
    x = np.array([e.moderator_x for e in effects])
    if float(np.ptp(x)) == 0.0:
        raise ValueError("moderator is constant across studies")
    design = np.column_stack([np.ones(len(d)), x])

    # method-of-moments residual tau^2 from the fixed-weight fit
    w = 1.0 / v
    beta_f, xtwx_inv = wls_solve(design, d, w)
    resid = d - design @ beta_f
    q_e = float(np.sum(w * resid ** 2))
    trace_term = float(np.trace(xtwx_inv @ (design.T @ (design * (w ** 2)[:, None]))))
    c = float(np.sum(w)) - trace_term
    df = len(d) - 2
    tau2 = max(0.0, (q_e - df) / c) if c > 0 else 0.0

    w_star = 1.0 / (v + tau2)
    beta, cov = wls_solve(design, d, w_star)
    ses = np.sqrt(np.diag(cov))
    z975 = normal_quantile(0.975)

    def row(i: int) -> tuple[float, float, tuple[float, float], float]:
        est, se = float(beta[i]), float(ses[i])
        return est, se, (est - z975 * se, est + z975 * se), _z_p(est / se)

    b0, se0, ci0, p0 = row(0)
    b1, se1, ci1, p1 = row(1)
    return MetaRegressionResult(b0, se0, ci0, p0, b1, se1, ci1, p1, tau2)


@dataclass(frozen=True)
class ForestPlotModel:
    rows: tuple[tuple[str, float, float, float, float], ...]  # label, d, lo, hi, weight %
    diamond: tuple[float, float, float]  # pooled, lo, hi
    q: float
    q_df: int
    q_p: float
    i2: float
    tau2: float

    def caption(self) -> str:
        return (f"Q = {self.q:.2f} (df = {self.q_df}, p = {self.q_p:.3f}), "
                f"I² = {self.i2:.1f}%, τ² = {self.tau2:.3f}")


def forest_model(effects: list[EffectSize], meta: MetaResult) -> ForestPlotModel:
    """Per-study rows (z-based CIs) plus the pooled diamond and heterogeneity
    caption; weight percentages come from the MetaResult."""
    if len(effects) != len(meta.weights):
        raise ValueError("effects and meta-analysis weights do not match")
    z975 = normal_quantile(0.975)
    rows = tuple(
        (e.experiment_id, e.d, e.d - z975 * e.se, e.d + z975 * e.se, 100.0 * wt)
        for e, wt in zip(effects, meta.weights)
    )
    return ForestPlotModel(rows, (meta.pooled, meta.ci_low, meta.ci_high),
                           meta.q, meta.q_df, meta.q_p, meta.i2, meta.tau2)
