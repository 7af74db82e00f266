"""Aggregated-data pooling: fixed-effect and random-effects meta-analysis,
heterogeneity statistics, subgroup analysis, meta-regression, and the
forest-plot data model.

Every pool is one call to `pool` on plain arrays of estimates and variances, which
`pool_fixed`, `pool_random` and `subgroup_analysis` take from `EffectSize`s. It and the
meta-regression fit d once with the inverse-variance weights w = 1 / v, on an intercept
alone or on an intercept and a centred moderator (`_fit`). That fit gives Q, the result at
tau^2 = 0 and the moment estimator of the between-study variance (`_tau2_mm`), the
random-effects default: DerSimonian-Laird without a moderator, the meta-regression's
residual tau^2 with one. Only a tau^2 > 0 fits again, with 1 / (v + tau^2). The
restricted-maximum-likelihood (REML) estimator is the other choice and the one subgroup
pools use, as the moment one understates heterogeneity in very small groups. It is the root
of its score, bracketed by a vectorized scan and closed by one Illinois root finder
(`_root`). Confidence intervals and p-values are z-based throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .descriptives import AnalysisWarning, sample_variance
from .effects import EffectSize
from .numerics import chisq_sf, normal_quantile

__all__ = [
    "ForestPlotModel",
    "MetaRegressionResult",
    "MetaResult",
    "SubgroupResult",
    "forest_model",
    "meta_regression",
    "pool",
    "pool_fixed",
    "pool_random",
    "subgroup_analysis",
]

_Z975 = normal_quantile(0.975)
_HALVINGS = np.array([0.5 ** j for j in range(40)])  # REML's grid: 2^-39 > 1e-12 > 2^-40
_SCAN_ROWS = 8  # grid points to a numpy pass of the REML scan


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
    model: str  # "fixed", "random_dl" or "random_reml"
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
    sw = float(np.add.reduce(w))
    mean = float(np.add.reduce(w * d) / sw)
    r = d - mean
    if x is None:
        return (mean,), (1.0 / math.sqrt(sw),), float(np.add.reduce(w * r ** 2)), 1.0 / sw
    xbar = float(np.add.reduce(w * x) / sw)
    xc = x - xbar
    # a second pass takes out the rounding of xbar, which would move h at first order
    shift = float(np.add.reduce(w * xc) / sw)
    xc -= shift
    xbar += shift
    s = float(np.add.reduce(w * xc ** 2))
    slope = float(np.add.reduce(w * xc * r) / s)
    r -= slope * xc
    return ((mean - slope * xbar, slope), (math.sqrt(1.0 / sw + xbar * xbar / s), 1.0 / math.sqrt(s)),
            float(np.add.reduce(w * r ** 2)), 1.0 / sw + xc ** 2 / s)


def _tau2_mm(w: np.ndarray, fit: tuple, df: int) -> float:
    """Moment estimator of the (residual) between-study variance, truncated at zero:
    (Q_E - df) / (sum w - sum w^2 h), Q_E and h read from the caller's `_fit` with
    w = 1 / v. Without a moderator it is DerSimonian-Laird's; with one, the residual one."""
    if df < 1:
        return 0.0
    _, _, q, h = fit
    c = float(np.add.reduce(w) - np.add.reduce(w * w * h))
    return max(0.0, (q - df) / c) if c > 0.0 else 0.0


def _z_row(est: float, se: float) -> tuple[float, float, tuple[float, float], float]:
    """Estimate, SE, 95 % z interval and two-sided p, the p from the upper
    tail so that it keeps its digits."""
    p = max(math.erfc(abs(est / se) / math.sqrt(2.0)), 1e-300)
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

    The score is scanned on the halving grid from top = max(10 var d, 10 max v, 1)
    down to 1e-12 top, `_SCAN_ROWS` points to a numpy pass; each row sums its own
    studies, so a score has the same bits in any pass and in `_root`, which closes
    the bracket of the first positive point and the one above it to a few ulps. That
    keeps an interior maximum even where the likelihood also peaks at 0. Returns top
    if its score is positive, 0 if no grid point's is or the criterion at 0 is no worse."""
    if len(d) < 2:
        return 0.0

    def fit(tau2):  # tau2 a float, or a column with one value per row
        w = 1.0 / (v + tau2)
        sw = np.add.reduce(w, axis=-1)
        return w, sw, d - (np.add.reduce(w * d, axis=-1) / sw)[..., None]

    def score(tau2):
        w, sw, e = fit(tau2)
        return np.add.reduce((w * e) ** 2, axis=-1) - sw + np.add.reduce(w * w, axis=-1) / sw

    top = max(10.0 * sample_variance(d), 10.0 * float(np.maximum.reduce(v)), 1.0)
    grid, s = top * _HALVINGS, []  # s: the score down the grid
    for i in range(0, len(grid), _SCAN_ROWS):
        s += score(grid[i:i + _SCAN_ROWS, None]).tolist()
        if max(s[i:]) > 0.0:
            break
    else:
        return 0.0
    j = next(j for j, sj in enumerate(s) if sj > 0.0)
    tau2 = top if j == 0 else _root(score, float(grid[j]), s[j], float(grid[j - 1]), s[j - 1])
    w, sw, e = fit(t := np.array([[0.0], [tau2]]))
    crit = np.add.reduce(np.log(v + t), axis=-1) + np.log(sw) + np.add.reduce(w * e * e, axis=-1)
    return 0.0 if crit[0] <= crit[1] else tau2


def _arrays(effects: list[EffectSize]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """d, sampling variances and experiment ids, in input order."""
    if not effects:
        raise ValueError("cannot pool an empty set of effect sizes")
    return (np.array([e.d for e in effects]), np.array([e.variance for e in effects]),
            [e.experiment_id for e in effects])


def pool(estimates, variances, method: str = "dl", labels=None) -> MetaResult:
    """Inverse-variance pool of 1-D arrays of estimates and their sampling variances:
    fixed effect ("fixed"), or random effects with a DerSimonian-Laird ("dl") or REML
    ("reml") tau^2. Labels default to "1" ... "k"; one estimate pools with tau^2 = 0."""
    if method not in ("fixed", "dl", "reml"):
        raise ValueError(f"unknown pooling method {method!r}")
    d, v = np.asarray(estimates, dtype=np.float64), np.asarray(variances, dtype=np.float64)
    if d.ndim != 1 or v.shape != d.shape:
        raise ValueError(f"estimates and variances need one 1-D shape, got {d.shape} and {v.shape}")
    if d.size == 0:
        raise ValueError("cannot pool an empty set of estimates")
    if not np.isfinite(d).all():
        raise ValueError("estimates must be finite")
    v_min, v_max = float(np.minimum.reduce(v)), float(np.maximum.reduce(v))
    if not (v_min > 0.0 and v_max < math.inf):  # NaN fails both
        raise ValueError("variances must be positive and finite")
    # below 2^511 the weights, their squares, w (d - mu)^2 summed and REML's grid stay finite
    if 2.0 * math.sqrt(d.size) * max(1.0, float(np.maximum.reduce(np.abs(d)))) * max(
            1.0, 1.0 / v_min, v_max) >= 2.0 ** 511:
        raise ValueError("estimates and variances lie too far from unit scale to pool")
    labels = tuple(map(str, range(1, d.size + 1))) if labels is None else tuple(labels)
    if len(labels) != d.size:
        raise ValueError(f"expected {d.size} labels, got {len(labels)}")
    q = (fit := _fit(d, w := 1.0 / v))[2]
    q_df = d.size - 1
    q_p = chisq_sf(q, q_df) if q_df > 0 else 1.0
    i2 = max(0.0, (q - q_df) / q * 100.0) if q_df > 0 and q > 0 else 0.0
    tau2 = 0.0 if method == "fixed" else _tau2_mm(w, fit, q_df) if method == "dl" else _tau2_reml(d, v)
    if tau2 != 0.0:
        fit = _fit(d, w := 1.0 / (v + tau2))
    pooled, se, (ci_low, ci_high), p = _z_row(*fit[0], *fit[1])
    return MetaResult(pooled=pooled, se=se, ci_low=ci_low, ci_high=ci_high, p_value=p,
                      tau2=tau2, q=q, q_df=q_df, q_p=q_p, i2=i2,
                      model=method if method == "fixed" else f"random_{method}",
                      weights=tuple((w / np.add.reduce(w)).tolist()), labels=labels)


def pool_fixed(effects: list[EffectSize]) -> MetaResult:
    """Inverse-variance fixed-effect pooling."""
    d, v, ids = _arrays(list(effects))
    return pool(d, v, "fixed", ids)


def pool_random(effects: list[EffectSize], tau2_method: str = "dl") -> MetaResult:
    """Random-effects pooling with the chosen between-study variance estimator
    ("dl" or "reml")."""
    d, v, ids = _arrays(list(effects))
    if tau2_method not in ("dl", "reml"):
        raise ValueError(f"unknown tau^2 estimator {tau2_method!r}")
    if len(d) == 1:
        # both estimators return tau^2 = 0 for a single study
        warnings.warn("random-effects pool of a single study falls back to the "
                      "fixed-effect result with tau^2 = 0", AnalysisWarning)
    return pool(d, v, tau2_method, ids)


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
        results[label] = pool(d[idx], v[idx], "reml", [ids[i] for i in idx])
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
    if x.max() == x.min():
        raise ValueError("moderator is constant across studies")
    tau2 = _tau2_mm(w := 1.0 / v, fit := _fit(d, w, x), len(d) - 2)
    (b0, b1), (se0, se1), _, _ = fit if tau2 == 0.0 else _fit(d, 1.0 / (v + tau2), x)
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
