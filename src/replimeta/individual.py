"""Consistent per-replication inference: dependent t-tests for
within-subjects designs, independent (Welch or pooled) t-tests otherwise."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import PairedSample
from .descriptives import sample_mean, scaled_variance
from .numerics import t_quantile, t_sf

__all__ = ["TestResult", "independent_t_test", "paired_t_test", "TWO_SIDED", "ONE_SIDED_GREATER"]

TWO_SIDED = "two_sided"
ONE_SIDED_GREATER = "one_sided_greater"
_P_FLOOR = 1e-300


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


def _p_from_t(t: float, df: float, sidedness: str) -> float:
    if sidedness == ONE_SIDED_GREATER:
        p = t_sf(t, df)
    else:
        p = 2.0 * t_sf(abs(t), df)
    return min(1.0, max(p, _P_FLOOR))


def _result(experiment_id, estimate, se, df, sidedness, alpha, n) -> TestResult:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    t = estimate / se
    half = t_quantile(1.0 - alpha / 2.0, df) * se
    return TestResult(experiment_id, estimate, estimate - half, estimate + half,
                      _p_from_t(t, df, sidedness), df, sidedness, n)


def paired_t_test(sample: PairedSample, sidedness: str = TWO_SIDED,
                  alpha: float = 0.05) -> TestResult:
    """Dependent t-test on per-participant differences.

    The one-sided variant tests treatment > control. The confidence interval
    is the central 1-alpha interval regardless of sidedness.
    """
    diffs = sample.differences
    var, scale = scaled_variance(diffs)  # the variance is var scale^2, the sd sqrt(var) scale
    if not math.isfinite(var * scale * scale):  # NaN or inf among the values, or past float range
        raise ValueError(f"{sample.experiment_id}: differences and their variance must be finite")
    if var == 0.0:
        raise ValueError(f"{sample.experiment_id}: differences have zero variance")
    n = len(diffs)
    return _result(sample.experiment_id, sample_mean(diffs), math.sqrt(var / n) * scale, n - 1,
                   sidedness, alpha, n)


def independent_t_test(control: list[float], treatment: list[float],
                       welch: bool = True, sidedness: str = TWO_SIDED,
                       alpha: float = 0.05, experiment_id: str = "") -> TestResult:
    """Two-sample t-test of treatment minus control.

    welch=True (default) uses the Welch-Satterthwaite degrees of freedom;
    otherwise the pooled-variance test with df = n1 + n2 - 2.
    """
    n_c, n_t = len(control), len(treatment)
    if n_c < 2 or n_t < 2:
        raise ValueError(f"{experiment_id}: each arm needs at least 2 observations")
    (var_c, scale_c), (var_t, scale_t) = scaled_variance(control), scaled_variance(treatment)
    if not math.isfinite(var_c * scale_c * scale_c + var_t * scale_t * scale_t):  # as paired_t_test
        raise ValueError(f"{experiment_id}: sample values and their variances must be finite")
    # both arms on the larger scale, a power of two: at 1.0 every bit stays as it was
    scale = max(scale_c, scale_t)
    var_c, var_t = var_c * (scale_c / scale) ** 2, var_t * (scale_t / scale) ** 2
    if var_c == 0.0 and var_t == 0.0:
        raise ValueError(f"{experiment_id}: both arms have zero variance")
    estimate = sample_mean(treatment) - sample_mean(control)
    if welch:
        a, b = var_c / n_c, var_t / n_t
        se = math.sqrt(a + b) * scale
        df = (a + b) ** 2 / (a * a / (n_c - 1) + b * b / (n_t - 1))
    else:
        pooled = ((n_c - 1) * var_c + (n_t - 1) * var_t) / (n_c + n_t - 2)
        se = math.sqrt(pooled * (1.0 / n_c + 1.0 / n_t)) * scale
        df = n_c + n_t - 2
    return _result(experiment_id, estimate, se, df, sidedness, alpha, n_c + n_t)
