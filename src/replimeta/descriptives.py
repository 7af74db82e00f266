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
    "sample_variance",
    "summarize_covariates",
    "summarize_replication",
]


class AnalysisWarning(UserWarning):
    """Non-fatal analysis conditions (degenerate inputs, fallbacks)."""


def sample_mean(values) -> float:
    """Mean from the correctly rounded sum: the same bits on every platform."""
    # fsum reads Python floats faster than numpy scalars
    return math.fsum(values.tolist() if type(values) is np.ndarray else values) / len(values)


def sample_variance(values) -> float:
    """Sample variance (n-1 denominator) by np.var(ddof=1)'s reductions; 0.0 if all
    equal. NaN or inf among the values, or a variance past the float maximum, gives a
    non-finite result without a numpy warning, so that callers can reject the sample."""
    x = np.asarray(values, dtype=np.float64)
    spread = float(np.maximum.reduce(x)) - float(np.minimum.reduce(x))  # Python floats do not warn
    if spread == 0.0:
        return 0.0
    if not math.isfinite(spread):
        return spread
    # n spread^2 bounds the sum of squares, and values whose sum can overflow differ by more
    # than sqrt(max / n): past that, divide by the power of two at or below the range, which
    # keeps the bits and leaves a range below 2; 2^1024 itself would overflow
    scale = 1.0
    if spread > math.sqrt(sys.float_info.max / x.size):
        scale = math.ldexp(1.0, math.frexp(spread)[1] - 1)
        x = x / scale
    d = x - np.add.reduce(x) / x.size
    return float(np.add.reduce(np.multiply(d, d, out=d)) / (x.size - 1)) * scale * scale


def _median(values: np.ndarray) -> float:
    # np.median would import numpy.ma, about 1 MiB of resident memory
    s, h = np.sort(values), values.size // 2
    return float(s[h]) if values.size % 2 else float((s[h - 1] + s[h]) / 2.0)


def _centred(x: np.ndarray) -> np.ndarray | None:
    """x minus its mean; None for a constant x. Where the range overflows, the sum of squared
    deviations could overflow, or the squared range, below 2^-970, nears the subnormals, x is
    first divided by the power of two at or below its largest magnitude: r is scale-free."""
    top, bottom = float(np.maximum.reduce(x)), float(np.minimum.reduce(x))  # Python floats do not warn
    spread = top - bottom
    if spread == 0.0:
        return None
    if not 2.0 ** -485 < spread < math.sqrt(sys.float_info.max / x.size):
        x = x / math.ldexp(1.0, math.frexp(max(top, -bottom))[1] - 1)
    return x - np.add.reduce(x) / x.size


def pearson_corr(x, y) -> float | None:
    """Pearson correlation; None for fewer than 2 points or a constant input."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2 or (dx := _centred(x)) is None or (dy := _centred(y)) is None:
        return None
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
                      sample_mean(control), math.sqrt(sample_variance(control)),
                      sample_mean(treatment), math.sqrt(sample_variance(treatment)),
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
