"""p-value pooling (Fisher, Stouffer) and the vote-count narrative summary.

These techniques are implemented for completeness and comparison only; every
result carries a warning that flags them as discouraged for joint
conclusions, since a pooled p-value conveys neither an effect size nor its
uncertainty, and vote counting has known low power."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .individual import TestResult
from .numerics import chisq_sf, normal_quantile

__all__ = ["PooledPValue", "VoteCount", "POOLING_WARNING", "fisher_pool", "stouffer_pool", "vote_count"]

POOLING_WARNING = (
    "Discouraged technique: narrative synthesis and p-value aggregation "
    "summarize statistical significance only. They provide no joint effect "
    "size, no interval, and they weight every replication identically; "
    "prefer aggregated-data and stratified individual-participant analyses."
)


@dataclass(frozen=True)
class PooledPValue:
    method: str  # "fisher" or "stouffer"
    statistic: float  # chi-square (fisher) or z (stouffer)
    df: int | None  # 2k for fisher, None for stouffer
    p_value: float
    warning: str = POOLING_WARNING


@dataclass(frozen=True)
class VoteCount:
    significant_positive: int
    significant_negative: int
    non_significant: int
    alpha: float
    verdict: str
    warning: str = POOLING_WARNING


def _check_ps(one_sided_ps: list[float]) -> list[float]:
    ps = list(one_sided_ps)
    if not ps:
        raise ValueError("no p-values to pool")
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p-values must lie in (0, 1], got {p!r}")
    return ps


def fisher_pool(one_sided_ps: list[float]) -> PooledPValue:
    """Fisher's method: chi^2 = -2 sum(ln p) on 2k degrees of freedom.

    Inputs must be one-sided p-values testing the same direction."""
    ps = _check_ps(one_sided_ps)
    statistic = -2.0 * sum(math.log(p) for p in ps)
    df = 2 * len(ps)
    return PooledPValue("fisher", statistic, df, max(chisq_sf(statistic, df), 1e-300))


def stouffer_pool(one_sided_ps: list[float], weights: list[float] | None = None) -> PooledPValue:
    """Stouffer's method: z = sum(w z_i) / sqrt(sum w^2) with z_i the normal
    quantile of 1 - p_i, taken as -normal_quantile(p_i) so that a small p_i
    keeps its digits. Unweighted by default."""
    ps = _check_ps(one_sided_ps)
    w = [1.0] * len(ps) if weights is None else list(weights)
    if len(w) != len(ps):
        raise ValueError("weights must match the p-values one to one")
    if not all(0.0 <= x < math.inf for x in w) or all(x == 0 for x in w):
        raise ValueError("weights must be finite, nonnegative and not all zero")
    zs = [-normal_quantile(p) if p < 1.0 else normal_quantile(1e-16) for p in ps]
    z = sum(wi * zi for wi, zi in zip(w, zs)) / math.sqrt(sum(wi * wi for wi in w))
    return PooledPValue("stouffer", z, None, max(0.5 * math.erfc(z / math.sqrt(2.0)), 1e-300))


def vote_count(results: list[TestResult], alpha: float = 0.05) -> VoteCount:
    """Tally significant-positive / significant-negative / non-significant
    replications and phrase the narrative verdict.

    A tie between positives and non-significants is inconclusive, which is
    exactly the weakness this summary is flagged for."""
    if not results:
        raise ValueError("no test results to count")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    pos = sum(1 for r in results if r.p_value < alpha and r.estimate > 0)
    neg = sum(1 for r in results if r.p_value < alpha and r.estimate < 0)
    ns = len(results) - pos - neg
    tally = {"positive": pos, "negative": neg, "non-significant": ns}
    if len(results) in tally.values():
        verdict = max(tally, key=tally.get)  # the one category every result falls in
    elif (pos == ns and not neg) or pos == neg > ns:
        verdict = "inconclusive"
    elif ns >= max(pos, neg):
        verdict = "mostly non-significant"
    else:
        verdict = "mostly positive" if pos > neg else "mostly negative"
    return VoteCount(pos, neg, ns, alpha, verdict)
