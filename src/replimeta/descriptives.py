"""Per-replication and participant-characteristic descriptive statistics,
plus the data series behind profile plots.

Each function computes on every call from the layout data built once and leaves
it unchanged; a degenerate input warns with AnalysisWarning on every call."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from operator import mul
from types import MappingProxyType

import numpy as np

from .data import (
    CONTROL,
    TREATMENT,
    CovariateTable,
    ORDINAL_COVARIATES,
    Replication,
    ReplicationSet,
    SummaryRow,
)
from .numerics import sqrt_of_ratio

__all__ = [
    "AnalysisWarning",
    "CovariateSummary",
    "ProfileSeries",
    "pearson_corr",
    "profile_series_covariates",
    "profile_series_outcomes",
    "sample_mean",
    "sample_sd",
    "sample_variance",
    "scaled_variance",
    "summarize_covariates",
    "summarize_replication",
]


class AnalysisWarning(UserWarning):
    """Non-fatal analysis conditions (degenerate inputs, fallbacks)."""


def sample_mean(values) -> float:
    """Mean from the correctly rounded sum: the same bits on every platform. A sum past the
    float maximum is taken at a power-of-two scale, so a mean of finite values is finite."""
    xs = values.tolist() if type(values) is np.ndarray else values  # fsum reads Python floats faster
    try:
        return math.fsum(xs) / len(xs)
    except OverflowError:  # the scaled sum, at most n max|x| / 2^bit_length(n), is finite
        scale = 2.0 ** len(xs).bit_length()
        return math.fsum(x / scale for x in xs) / len(xs) * scale


def sample_variance(values) -> float:
    """Sample variance (n-1 denominator) by np.var(ddof=1)'s reductions; 0.0 if all
    equal. NaN or inf among the values, or a variance past the float maximum, gives a
    non-finite result without a numpy warning, so that callers can reject the sample."""
    v, scale = scaled_variance(values)
    return v * scale * scale


def scaled_variance(values) -> tuple[float, float]:
    """The sample variance v of values / scale, and scale, the power of two that
    _centred picks (1.0 unless the range or the squares near the ends of the float
    range): the variance is v scale^2 and the sd sqrt(v) scale, which keeps its
    digits where v scale^2 underflows. A sample that is not 1-D raises ValueError."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"a sample must be 1-D, got shape {x.shape}")
    d, scale = _centred(x)
    if d is None:
        return scale, 1.0
    return float(np.add.reduce(np.multiply(d, d, out=d)) / (d.size - 1)), scale


def sample_sd(values) -> float:
    """Sample sd (n-1 denominator), sqrt(v) scale from scaled_variance, so that it keeps its
    digits where the variance underflows: the sd summaries report and t-tests build SEs from."""
    v, scale = scaled_variance(values)
    return math.sqrt(v) * scale


def _median(values: np.ndarray) -> float:
    # np.median would import numpy.ma, about 1 MiB of resident memory
    s, h = np.sort(values), values.size // 2
    a, b = float(s[h - 1 + values.size % 2]), float(s[h])  # a == b for an odd size: (a + a) / 2 is a
    return (a + b) / 2.0 if math.isfinite(a + b) else a / 2.0 + b / 2.0  # a finite pair's sum may not be


def _centred(x: np.ndarray) -> tuple[np.ndarray | None, float]:
    """x divided by scale minus its mean, and scale: 1.0, or where the range overflows,
    the sum of squared deviations could overflow, or the squared range, below 2^-970,
    nears the subnormals, the power of two at or below x's largest magnitude, so that
    the division keeps every bit. None and x's variance for a constant x (0.0) or a
    non-finite one (NaN, or inf if no value is NaN), decided from x's extremes."""
    top, bottom = float(np.maximum.reduce(x)), float(np.minimum.reduce(x))  # Python floats do not warn
    if top == bottom or not (math.isfinite(top) and math.isfinite(bottom)):
        return None, top - bottom
    scale = 1.0
    if not 2.0 ** -485 < top - bottom < math.sqrt(sys.float_info.max / x.size):
        scale = math.ldexp(1.0, math.frexp(max(top, -bottom))[1] - 1)
        x = x / scale
    return x - np.add.reduce(x) / x.size, scale


def pearson_corr(x, y) -> float | None:
    """Pearson correlation; None for fewer than 2 points or a constant input, NaN for a
    non-finite one. Inputs that are not 1-D of one length raise ValueError."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"pearson_corr needs two 1-D inputs of equal length, "
                         f"got shapes {x.shape} and {y.shape}")
    if x.size < 2:
        return None
    (dx, sx), (dy, sy) = _centred(x), _centred(y)
    if dx is None or dy is None:  # a constant (variance 0.0) or non-finite input; scales are finite
        return None if math.isfinite(sx) and math.isfinite(sy) else math.nan
    r = float(dx @ dy) / math.sqrt(dx @ dx) / math.sqrt(dy @ dy)
    return max(-1.0, min(1.0, r))


def _observed_arms(replication: Replication) -> tuple[np.ndarray, np.ndarray]:
    """The non-missing control and treatment outcomes, ordered by participant id."""
    control, treatment = replication.observed
    if control.size < 2 or treatment.size < 2:
        raise ValueError(f"{replication.experiment_id}: need at least 2 non-missing "
                         f"outcomes per arm")
    return control, treatment


def summarize_replication(replication: Replication) -> SummaryRow:
    """Per-arm n/mean/sd/median plus the complete-pairs correlation for
    within-subjects designs.

    The correlation uses complete pairs only, consistent with the
    complete-observation rule of the aggregated-data path. When either paired
    arm is constant, or fewer than 2 complete pairs exist, the correlation is
    undefined: it is reported as missing and each call warns.
    """
    control, treatment = _observed_arms(replication)
    corr = None
    if replication.design == "within":
        paired_c, paired_t = replication.pairs
        corr = pearson_corr(paired_c, paired_t)
        if corr is None:
            reason = ("fewer than 2 complete pairs" if paired_c.size < 2
                      else "constant paired arm")
            warnings.warn(f"{replication.experiment_id}: paired correlation undefined "
                          f"({reason}); reported as missing", AnalysisWarning)
    # by position: matching eleven keywords doubles the cost of the constructor call
    return SummaryRow(replication.experiment_id, control.size, treatment.size,
                      sample_mean(control), sample_sd(control),
                      sample_mean(treatment), sample_sd(treatment),
                      corr, replication.design, _median(control), _median(treatment))


@dataclass(frozen=True)
class CovariateSummary:
    experiment_id: str
    stats: MappingProxyType[str, tuple[float, float]]  # covariate -> (mean, sd), 1..4 scale

    def mean(self, name: str) -> float:
        return self.stats[name][0]

    def sd(self, name: str) -> float:
        return self.stats[name][1]


def _covariate_columns(covariates: CovariateTable) -> tuple[tuple[str, tuple], ...]:
    """The table's ``columns``; a single-row experiment warns."""
    if not covariates.rows:
        raise ValueError("covariate table is empty")
    for exp in [exp for exp, columns in covariates.columns if len(columns[0]) < 2]:
        warnings.warn(f"{exp}: single covariate row; sd reported as 0", AnalysisWarning)
    return covariates.columns


def summarize_covariates(covariates: CovariateTable) -> list[CovariateSummary]:
    """Mean (sd) of each ordinal covariate per experiment, in order of first
    appearance. An experiment with a single row gets sd 0, and each call warns."""
    summaries = []
    for exp, columns in _covariate_columns(covariates):
        n, sums, squares = len(columns[0]), map(sum, columns), [sum(map(mul, c, c)) for c in columns]
        stats = {name: (s / n, sqrt_of_ratio(n * q - s * s, max(n * (n - 1), 1)))
                 for name, s, q in zip(ORDINAL_COVARIATES, sums, squares)}
        summaries.append(CovariateSummary(exp, MappingProxyType(stats)))
    return summaries


@dataclass(frozen=True)
class ProfileSeries:
    """Per-experiment polyline data over a fixed category axis."""

    label: str
    categories: tuple[str, ...]
    rows: tuple[tuple[str, tuple[float, ...]], ...]  # (experiment_id, y per category)

    def __post_init__(self):
        for exp, ys in self.rows:
            if len(ys) != len(self.categories):
                raise ValueError(f"{exp}: expected one value per category")


def profile_series_covariates(covariates: CovariateTable) -> ProfileSeries:
    rows = tuple((exp, tuple(sum(c) / len(c) for c in columns))
                 for exp, columns in _covariate_columns(covariates))
    return ProfileSeries("mean experience", ORDINAL_COVARIATES, rows)


def profile_series_outcomes(dataset: ReplicationSet) -> ProfileSeries:
    rows = tuple((rep.experiment_id, tuple(map(sample_mean, _observed_arms(rep))))
                 for rep in dataset.replications)
    return ProfileSeries("mean outcome", (CONTROL, TREATMENT), rows)
