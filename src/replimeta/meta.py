"""Aggregated-data pooling: fixed-effect and random-effects meta-analysis,
heterogeneity statistics, subgroup analysis, meta-regression, and the
forest-plot data model.

The random-effects default is the DerSimonian-Laird moment estimator of the
between-study variance. The restricted-maximum-likelihood (REML) estimator,
found as the bracketed root of its score, is also available and is the one
subgroup pools use, where the moment estimator is known to understate
heterogeneity for very small groups. Confidence intervals and p-values are
z-based throughout.
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


def _cochran_q(d: np.ndarray, v: np.ndarray) -> float:
    """Cochran's Q from fixed (inverse-variance) weights."""
    w = 1.0 / v
    mu = float(np.sum(w * d) / np.sum(w))
    return float(np.sum(w * (d - mu) ** 2))


def _tau2_dl(d: np.ndarray, v: np.ndarray) -> float:
    """DerSimonian-Laird moment estimator, truncated at zero."""
    if len(d) < 2:
        return 0.0
    w = 1.0 / v
    c = float(np.sum(w) - np.sum(w * w) / np.sum(w))
    if c <= 0.0:
        return 0.0
    return max(0.0, (_cochran_q(d, v) - (len(d) - 1)) / c)


def _tau2_reml(d: np.ndarray, v: np.ndarray) -> float:
    """REML tau^2 (Viechtbauer 2005): the root of the score y'PPy - tr(P) =
    sum((w (d - mu))^2) - sum(w) + sum(w^2) / sum(w), w = 1 / (v + tau^2).

    Halving down from top = max(10 var d, 10 max v, 1) to the first positive
    score keeps an interior maximum even where the likelihood also peaks at 0.
    Bisection then fixes the root to 1e-12 top by signs alone, so a last-bit
    change in the data does not move it. Returns 0 when no score above
    1e-12 top is positive, or when the criterion at 0 is no worse."""
    if len(d) < 2:
        return 0.0

    def score(tau2: float) -> float:
        w = 1.0 / (v + tau2)
        sw = float(w.sum())
        r = w * (d - float(w @ d) / sw)
        return float(r @ r - sw + (w @ w) / sw)

    def crit(tau2: float) -> float:
        w = 1.0 / (v + tau2)
        mu = float(np.sum(w * d) / np.sum(w))
        return float(np.sum(np.log(v + tau2)) + math.log(np.sum(w))
                     + np.sum(w * (d - mu) ** 2))

    top = max(10.0 * float(np.var(d, ddof=1)), 10.0 * float(np.max(v)), 1.0)
    width = 1e-12 * top
    lo = hi = top
    while score(lo) <= 0.0:
        hi, lo = lo, 0.5 * lo
        if lo <= width:
            return 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if score(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    tau2 = 0.5 * (lo + hi)
    return 0.0 if crit(0.0) <= crit(tau2) else tau2


def _arrays(effects: list[EffectSize]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """d, sampling variances and experiment ids, in input order."""
    if not effects:
        raise ValueError("cannot pool an empty set of effect sizes")
    return (np.array([e.d for e in effects]), np.array([e.variance for e in effects]),
            [e.experiment_id for e in effects])


def _pool(d: np.ndarray, v: np.ndarray, labels: list[str], tau2: float, model: str) -> MetaResult:
    q = _cochran_q(d, v)
    q_df = len(d) - 1
    q_p = chisq_sf(q, q_df) if q_df > 0 else 1.0
    i2 = max(0.0, (q - q_df) / q * 100.0) if q_df > 0 and q > 0 else 0.0
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
        labels=tuple(labels),
    )


def pool_fixed(effects: list[EffectSize]) -> MetaResult:
    """Inverse-variance fixed-effect pooling."""
    return _pool(*_arrays(list(effects)), 0.0, FIXED)


_TAU2_ESTIMATORS = {"dl": (_tau2_dl, RANDOM_DL), "reml": (_tau2_reml, RANDOM_REML)}


def pool_random(effects: list[EffectSize], tau2_method: str = "dl") -> MetaResult:
    """Random-effects pooling with the chosen between-study variance estimator
    ("dl" or "reml")."""
    d, v, ids = _arrays(list(effects))
    try:
        estimator, model = _TAU2_ESTIMATORS[tau2_method]
    except KeyError:
        raise ValueError(f"unknown tau^2 estimator {tau2_method!r}") from None
    if len(d) == 1:
        # both estimators return tau^2 = 0 for a single study
        warnings.warn("random-effects pool of a single study falls back to the "
                      "fixed-effect result with tau^2 = 0", AnalysisWarning)
    return _pool(d, v, ids, estimator(d, v), model)


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


def subgroup_analysis(effects: list[EffectSize]) -> SubgroupResult:
    """REML random-effects pool per subgroup label, a separate tau^2 per group.

    With exactly two groups, also reports their difference tested as
    z = delta / sqrt(se_a^2 + se_b^2). Singleton groups pool with tau^2 = 0
    and I^2 = 0.
    """
    effects = list(effects)
    d, v, ids = _arrays(effects)
    members: dict[str, list[int]] = {}
    for i, e in enumerate(effects):
        if e.subgroup_label is None:
            raise ValueError(f"{e.experiment_id}: missing subgroup label")
        members.setdefault(e.subgroup_label, []).append(i)
    results = {}
    for label, idx in members.items():
        gd, gv = d[idx], v[idx]
        results[label] = _pool(gd, gv, [ids[i] for i in idx], _tau2_reml(gd, gv), RANDOM_REML)
    difference = ci = p = None
    if len(results) == 2:
        a, b = results.values()
        difference = b.pooled - a.pooled
        se = math.hypot(a.se, b.se)
        z975 = normal_quantile(0.975)
        ci = (difference - z975 * se, difference + z975 * se)
        p = _z_p(difference / se)
    return SubgroupResult(results, tuple(results), difference, ci, p)


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
    d, v, _ = _arrays(effects)
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
    if meta.labels != tuple(e.experiment_id for e in effects):
        raise ValueError("effects and meta-analysis weights do not match")
    z975 = normal_quantile(0.975)
    rows = tuple(
        (e.experiment_id, e.d, e.d - z975 * e.se, e.d + z975 * e.se, 100.0 * wt)
        for e, wt in zip(effects, meta.weights)
    )
    return ForestPlotModel(rows, (meta.pooled, meta.ci_low, meta.ci_high),
                           meta.q, meta.q_df, meta.q_p, meta.i2, meta.tau2)
