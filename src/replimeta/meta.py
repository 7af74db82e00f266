"""Aggregated-data pooling: fixed-effect and random-effects meta-analysis,
heterogeneity statistics, subgroup analysis, meta-regression, and the
forest-plot data model.

Every pool and the meta-regression are one weighted least-squares fit of d,
on an intercept alone or on an intercept and a centred moderator (`_fit`).
The random-effects default is the moment estimator of the between-study
variance built on that fit (`_tau2_mm`): DerSimonian-Laird without a
moderator, and the meta-regression's residual tau^2 with one. The
restricted-maximum-likelihood (REML) estimator is also available and is the
one subgroup pools use, where the moment estimator is known to understate
heterogeneity for very small groups. It is the root of its score, bracketed
by a vectorized scan and closed by one Illinois root finder (`_root`).
Confidence intervals and p-values are z-based throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .descriptives import AnalysisWarning
from .effects import EffectSize
from .numerics import chisq_sf, normal_quantile

__all__ = [
    "ForestPlotModel",
    "MetaRegressionResult",
    "MetaResult",
    "SubgroupResult",
    "forest_model",
    "meta_regression",
    "pool_fixed",
    "pool_random",
    "subgroup_analysis",
]

FIXED = "fixed"
RANDOM_DL = "random_dl"
RANDOM_REML = "random_reml"
_Z975 = normal_quantile(0.975)
_HALVINGS = np.array([0.5 ** j for j in range(40)])  # REML's grid: 2^-39 > 1e-12 > 2^-40


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


def _fit(d: np.ndarray, w: np.ndarray, x: np.ndarray | None = None
         ) -> tuple[tuple[float, ...], tuple[float, ...], float, float | np.ndarray]:
    """Weighted least-squares fit of d on an intercept, or on an intercept and
    the moderator x, in closed form. With x centred at its weighted mean the
    two columns are orthogonal under w, so nothing is solved and a moderator
    far from 0 costs no digits.

    Returns the coefficients, their SEs for known variances 1/w, the weighted
    residual sum of squares Q and the leverages h_i = 1/sum(w) + (x_i - xbar)^2 / S,
    a scalar without x.
    """
    sw = float(np.sum(w))
    mean = float(np.sum(w * d) / sw)
    r = d - mean
    if x is None:
        return (mean,), (1.0 / math.sqrt(sw),), float(np.sum(w * r ** 2)), 1.0 / sw
    xbar = float(np.sum(w * x) / sw)
    xc = x - xbar
    # a second pass takes out the rounding of xbar, which would move h at first order
    shift = float(np.sum(w * xc) / sw)
    xc -= shift
    xbar += shift
    s = float(np.sum(w * xc ** 2))
    slope = float(np.sum(w * xc * r) / s)
    r -= slope * xc
    return ((mean - slope * xbar, slope), (math.sqrt(1.0 / sw + xbar ** 2 / s), 1.0 / math.sqrt(s)),
            float(np.sum(w * r ** 2)), 1.0 / sw + xc ** 2 / s)


def _tau2_mm(d: np.ndarray, v: np.ndarray, x: np.ndarray | None = None) -> float:
    """Moment estimator of the (residual) between-study variance, truncated at
    zero: (Q_E - df) / (sum w - sum w^2 h) from the fit with w = 1 / v. Without
    x it is DerSimonian-Laird's; with x, the meta-regression one."""
    df = len(d) - (1 if x is None else 2)
    if df < 1:
        return 0.0
    w = 1.0 / v
    _, _, q, h = _fit(d, w, x)
    c = float(np.sum(w) - np.sum(w * w * h))
    return max(0.0, (q - df) / c) if c > 0.0 else 0.0


def _z_row(est: float, se: float) -> tuple[float, float, tuple[float, float], float]:
    """Estimate, SE, 95 % z interval and two-sided p, the p from the upper
    tail so that it keeps its digits."""
    p = min(1.0, max(math.erfc(abs(est / se) / math.sqrt(2.0)), 1e-300))
    return est, se, (est - _Z975 * se, est + _Z975 * se), p


def _root(f, lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """A root of f in [lo, hi], given f_lo = f(lo) != 0 and f_hi = f(hi) of the
    other sign or 0, by the Illinois method (Dowell & Jarratt 1971): regula falsi
    that halves the value kept at an end left in place twice running. A step
    that leaves the bracket becomes a bisection, and every step stays two ulps
    inside it, so the bracket closes to four ulps around the root."""
    moved = 0  # the end that moved last: -1 for lo, 1 for hi
    while True:
        tol = 2.0 * math.ulp(max(abs(lo), abs(hi)))
        if hi - lo <= 2.0 * tol:
            return 0.5 * (lo + hi)
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo <= x <= hi:
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + tol), hi - tol)
        fx = float(f(x))
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo, f_hi, moved = x, fx, 0.5 * f_hi if moved < 0 else f_hi, -1
        else:
            hi, f_hi, f_lo, moved = x, fx, 0.5 * f_lo if moved > 0 else f_lo, 1


def _tau2_reml(d: np.ndarray, v: np.ndarray) -> float:
    """REML tau^2 (Viechtbauer 2005): the root of the score y'PPy - tr(P) =
    sum((w (d - mu))^2) - sum(w) + sum(w^2) / sum(w), w = 1 / (v + tau^2).

    The score is scanned on the halving grid from top = max(10 var d, 10 max v,
    1) down to 1e-12 top, eight points to a numpy pass. The first positive point
    and the one above it bracket the root, which keeps an interior maximum even
    where the likelihood also peaks at 0. `_root` closes the bracket to a few
    ulps, so a last-bit change in the data does not move tau^2. Returns top if its
    score is positive, and 0 if no grid point's is or the criterion at 0 is no worse."""
    if len(d) < 2:
        return 0.0
    one = np.ones(len(d))

    def fit(tau2):  # tau2 a float, or a column with one value per row
        w = 1.0 / (v + tau2)
        sw = w @ one
        return w, sw, d - (w @ d / sw)[..., None]

    def score(tau2):
        w, sw, e = fit(tau2)
        return (w * e) ** 2 @ one - sw + (w * w) @ one / sw

    top = max(10.0 * float(np.var(d, ddof=1)), 10.0 * float(np.max(v)), 1.0)
    grid, s = top * _HALVINGS, []  # s: the score down the grid
    for i in range(0, 40, 8):
        s += score(grid[i:i + 8, None]).tolist()
        if max(s[i:]) > 0.0:
            break
    else:
        return 0.0
    j = next(j for j, sj in enumerate(s) if sj > 0.0)
    tau2 = top if j == 0 else _root(score, float(grid[j]), s[j], float(grid[j - 1]), s[j - 1])
    t = np.array([[0.0], [tau2]])
    w, sw, e = fit(t)
    crit = np.log(v + t) @ one + np.log(sw) + (w * e * e) @ one
    return 0.0 if crit[0] <= crit[1] else tau2


def _arrays(effects: list[EffectSize]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """d, sampling variances and experiment ids, in input order."""
    if not effects:
        raise ValueError("cannot pool an empty set of effect sizes")
    return (np.array([e.d for e in effects]), np.array([e.variance for e in effects]),
            [e.experiment_id for e in effects])


def _pool(d: np.ndarray, v: np.ndarray, labels: list[str], tau2: float, model: str) -> MetaResult:
    q = _fit(d, 1.0 / v)[2]
    q_df = len(d) - 1
    q_p = chisq_sf(q, q_df) if q_df > 0 else 1.0
    i2 = max(0.0, (q - q_df) / q * 100.0) if q_df > 0 and q > 0 else 0.0
    w = 1.0 / (v + tau2)
    (pooled,), (se,), _, _ = _fit(d, w)
    _, _, (ci_low, ci_high), p = _z_row(pooled, se)
    return MetaResult(
        pooled=pooled, se=se, ci_low=ci_low, ci_high=ci_high, p_value=p,
        tau2=tau2, q=q, q_df=q_df, q_p=q_p, i2=i2,
        model=model,
        weights=tuple((w / np.sum(w)).tolist()),
        labels=tuple(labels),
    )


def pool_fixed(effects: list[EffectSize]) -> MetaResult:
    """Inverse-variance fixed-effect pooling."""
    return _pool(*_arrays(list(effects)), 0.0, FIXED)


_TAU2_ESTIMATORS = {"dl": (_tau2_mm, RANDOM_DL), "reml": (_tau2_reml, RANDOM_REML)}


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
        difference, _, ci, p = _z_row(b.pooled - a.pooled, math.hypot(a.se, b.se))
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
    d, v, _ = _arrays(effects)
    x = np.array([e.moderator_x for e in effects], dtype=np.float64)  # NaN for None
    if np.isnan(x).any():
        raise ValueError("every effect size needs a moderator value")
    if float(np.ptp(x)) == 0.0:
        raise ValueError("moderator is constant across studies")
    tau2 = _tau2_mm(d, v, x)
    (b0, b1), (se0, se1), _, _ = _fit(d, 1.0 / (v + tau2), x)
    return MetaRegressionResult(*_z_row(b0, se0), *_z_row(b1, se1), tau2)


@dataclass(frozen=True)
class ForestPlotModel:
    rows: tuple[tuple[str, float, float, float, float], ...]  # label, d, lo, hi, weight %
    diamond: tuple[float, float, float]  # pooled, lo, hi
    q: float
    q_df: int
    q_p: float
    i2: float
    tau2: float


def forest_model(effects: list[EffectSize], meta: MetaResult) -> ForestPlotModel:
    """Per-study rows (z-based CIs) plus the pooled diamond and heterogeneity
    statistics; weight percentages come from the MetaResult."""
    d, v, ids = _arrays(list(effects))
    if meta.labels != tuple(ids):
        raise ValueError("effects and meta-analysis weights do not match")
    half = _Z975 * np.sqrt(v)  # np.sqrt is correctly rounded, as math.sqrt
    rows = tuple(zip(ids, d.tolist(), (d - half).tolist(), (d + half).tolist(),
                     [100.0 * wt for wt in meta.weights]))
    return ForestPlotModel(rows, (meta.pooled, meta.ci_low, meta.ci_high),
                           meta.q, meta.q_df, meta.q_p, meta.i2, meta.tau2)
