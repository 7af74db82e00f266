"""Per-replication and participant-characteristic descriptive statistics,
plus the data series behind profile plots."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    return math.fsum(values) / len(values)


def sample_variance(values) -> float:
    """Sample variance (n-1 denominator); exactly 0.0 when all values are equal."""
    return 0.0 if np.ptp(values) == 0 else float(np.var(values, ddof=1))


def _median(values: np.ndarray) -> float:
    # np.median would import numpy.ma, about 1 MiB of resident memory
    s, h = np.sort(values), values.size // 2
    return float(s[h]) if values.size % 2 else float((s[h - 1] + s[h]) / 2.0)


def pearson_corr(x, y) -> float | None:
    """Pearson correlation; None for fewer than 2 points or a constant input."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2 or np.ptp(x) == 0 or np.ptp(y) == 0:
        return None
    dx, dy = x - x.mean(), y - y.mean()
    r = float(dx @ dy) / math.sqrt(dx @ dx) / math.sqrt(dy @ dy)
    return max(-1.0, min(1.0, r))


def summarize_replication(replication: Replication) -> SummaryRow:
    """Per-arm n/mean/sd/median plus the complete-pairs correlation for
    within-subjects designs.

    The correlation uses complete pairs only, consistent with the
    complete-observation rule of the aggregated-data path. When either paired
    arm is constant, or fewer than 2 complete pairs exist, the correlation is
    undefined and reported as missing.
    """
    control, treatment = (arm[~np.isnan(arm)]
                          for arm in (replication.control, replication.treatment))
    if control.size < 2 or treatment.size < 2:
        raise ValueError(f"{replication.experiment_id}: need at least 2 non-missing "
                         f"outcomes per arm")
    corr = None
    if replication.design == "within":
        paired_c, paired_t = replication.paired_values()
        corr = pearson_corr(paired_c, paired_t)
        if corr is None:
            reason = ("fewer than 2 complete pairs" if paired_c.size < 2
                      else "constant paired arm")
            warnings.warn(f"{replication.experiment_id}: paired correlation undefined "
                          f"({reason}); reported as missing", AnalysisWarning)
    return SummaryRow(
        experiment_id=replication.experiment_id,
        n_control=control.size,
        n_treatment=treatment.size,
        mean_control=sample_mean(control),
        sd_control=math.sqrt(sample_variance(control)),
        mean_treatment=sample_mean(treatment),
        sd_treatment=math.sqrt(sample_variance(treatment)),
        corr=corr,
        design=replication.design,
        median_control=_median(control),
        median_treatment=_median(treatment),
    )


@dataclass(frozen=True)
class CovariateSummary:
    experiment_id: str
    stats: dict[str, tuple[float, float]]  # covariate -> (mean, sd) on the 1..4 scale

    def mean(self, name: str) -> float:
        return self.stats[name][0]

    def sd(self, name: str) -> float:
        return self.stats[name][1]


def summarize_covariates(covariates: CovariateTable) -> list[CovariateSummary]:
    """Mean (sd) of each ordinal covariate per experiment, in order of first
    appearance."""
    if not covariates.rows:
        raise ValueError("covariate table is empty")
    groups: dict[str, list[list[int]]] = {}
    for r in covariates.rows:
        groups.setdefault(r.experiment_id, []).append([r.values[n] for n in ORDINAL_COVARIATES])
    summaries = []
    for exp, rows in groups.items():
        if len(rows) < 2:
            warnings.warn(f"{exp}: single covariate row; sd reported as 0", AnalysisWarning)
        ordinals = np.array(rows, dtype=np.float64)  # (participants, covariates)
        stats = {name: (sample_mean(col), math.sqrt(sample_variance(col)))
                 for name, col in zip(ORDINAL_COVARIATES, ordinals.T)}
        summaries.append(CovariateSummary(exp, stats))
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
    rows = tuple((s.experiment_id, tuple(s.mean(name) for name in ORDINAL_COVARIATES))
                 for s in summarize_covariates(covariates))
    return ProfileSeries("mean experience", ORDINAL_COVARIATES, rows)


def profile_series_outcomes(dataset: ReplicationSet) -> ProfileSeries:
    summaries = [summarize_replication(rep) for rep in dataset.replications]
    rows = tuple((s.experiment_id, (s.mean_control, s.mean_treatment)) for s in summaries)
    return ProfileSeries("mean outcome", (CONTROL, TREATMENT), rows)
