"""Consistent per-replication inference: dependent t-tests for
within-subjects designs, independent (Welch or pooled) t-tests otherwise.
A test's SE is built from the same sample sds that the summaries report.

The critical value and the one tail P(T > |t|) come from ``_t_quantile`` and ``_t_sf``,
bounded, typed memos of the pure ``numerics`` kernels: a replication's two-sided p (twice
the tail) and one-sided p (the tail, or 1 minus it for t < 0) share them, and paired
replications of equal size share df. Each bound holds about one family's arguments;
``typed`` keeps numpy scalars from answering floats, and no error is kept."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .data import PairedSample
from .descriptives import sample_mean, scaled_variance
from .numerics import t_quantile, t_sf

__all__ = ["TestResult", "independent_t_test", "paired_t_test", "TWO_SIDED", "ONE_SIDED_GREATER"]

TWO_SIDED = "two_sided"
ONE_SIDED_GREATER = "one_sided_greater"
_P_FLOOR = 1e-300
_SE_MIN = 2.0 ** -1022  # a subnormal SE has lost its digits
_t_quantile = lru_cache(maxsize=32, typed=True)(t_quantile)
_t_sf = lru_cache(maxsize=16, typed=True)(t_sf)


@dataclass(frozen=True)
class TestResult:
    experiment_id: str
    estimate: float  # mean treatment - control, outcome units
    ci_low: float
    ci_high: float
    p_value: float
    df: float
    sidedness: str
    n: int

    def __post_init__(self):
        if self.sidedness not in (TWO_SIDED, ONE_SIDED_GREATER):
            raise ValueError(f"unknown sidedness {self.sidedness!r}")


def _result(experiment_id, estimate, se, df, sidedness, alpha, n) -> TestResult:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    half = _t_quantile(1.0 - alpha / 2.0, df) * se
    upper = _t_sf(abs(t := estimate / se), df)
    p = (upper if t >= 0.0 else 1.0 - upper) if sidedness == ONE_SIDED_GREATER else 2.0 * upper
    return TestResult(experiment_id, estimate, estimate - half, estimate + half,
                      max(p, _P_FLOOR), df, sidedness, n)


def paired_t_test(sample: PairedSample, sidedness: str = TWO_SIDED,
                  alpha: float = 0.05) -> TestResult:
    """Dependent t-test on per-participant differences.

    The one-sided variant tests treatment > control. The confidence interval
    is the central 1-alpha interval regardless of sidedness.
    """
    where = f"{sample.experiment_id}: " if sample.experiment_id else ""
    diffs = sample.differences
    v, scale = scaled_variance(diffs)  # the sd is sqrt(v) scale, as sample_sd's
    sd, n = math.sqrt(v) * scale, len(diffs)
    if not math.isfinite(sd * sd):  # NaN or inf among the values, or past float range
        raise ValueError(f"{where}differences and their variance must be finite")
    if v == 0.0:  # not sd, which a subnormal scale rounds to 0
        raise ValueError(f"{where}differences have zero variance")
    if (se := sd / math.sqrt(n)) < _SE_MIN:
        raise ValueError(f"{where}the standard error underflows to 0")
    return _result(sample.experiment_id, sample_mean(diffs), se, n - 1, sidedness, alpha, n)


def independent_t_test(control: list[float], treatment: list[float],
                       welch: bool = True, sidedness: str = TWO_SIDED,
                       alpha: float = 0.05, experiment_id: str = "") -> TestResult:
    """Two-sample t-test of treatment minus control.

    welch=True (default) uses the Welch-Satterthwaite degrees of freedom;
    otherwise the pooled-variance test with df = n1 + n2 - 2.
    """
    where = f"{experiment_id}: " if experiment_id else ""
    n_c, n_t = len(control), len(treatment)
    if n_c < 2 or n_t < 2:
        raise ValueError(f"{where}each arm needs at least 2 observations")
    (v_c, scale_c), (v_t, scale_t) = scaled_variance(control), scaled_variance(treatment)
    sd_c, sd_t = math.sqrt(v_c) * scale_c, math.sqrt(v_t) * scale_t
    if not math.isfinite(sd_c * sd_c + sd_t * sd_t):  # as paired_t_test
        raise ValueError(f"{where}sample values and their variances must be finite")
    if v_c == 0.0 and v_t == 0.0:
        raise ValueError(f"{where}both arms have zero variance")
    estimate = sample_mean(treatment) - sample_mean(control)
    u_c, u_t = sd_c / math.sqrt(n_c), sd_t / math.sqrt(n_t)
    se = (math.hypot(u_c, u_t) if welch else
          math.hypot(math.sqrt(n_c - 1) * sd_c, math.sqrt(n_t - 1) * sd_t)
          * math.sqrt((1.0 / n_c + 1.0 / n_t) / (n_c + n_t - 2)))
    if se < _SE_MIN:  # as paired_t_test
        raise ValueError(f"{where}the standard error underflows to 0")
    df = n_c + n_t - 2
    if welch:
        r_c, r_t = u_c / se, u_t / se  # the larger r^4 is at least 1/4: the sum cannot underflow
        df = 1.0 / (r_c * r_c * r_c * r_c / (n_c - 1) + r_t * r_t * r_t * r_t / (n_t - 1))
    return _result(experiment_id, estimate, se, df, sidedness, alpha, n_c + n_t)
