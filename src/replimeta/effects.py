"""Standardized mean differences with sampling variances, for repeated-measures
and between-subjects designs, with an optional small-sample correction.

Direction is fixed as treatment minus control throughout, so positive values
favor the treatment."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import SummaryRow

__all__ = ["EffectSize", "between_subjects_d", "hedges_correction", "repeated_measures_d"]


@dataclass(frozen=True, init=False)
class EffectSize:
    """One study's standardized mean difference and its sampling variance.

    ``__init__`` is hand-written: it stores each field straight into the
    instance dict, at under half the cost of the generated frozen one."""

    experiment_id: str
    d: float
    variance: float
    n_effective: int
    corrected: bool = False
    subgroup_label: str | None = None
    moderator_x: float | None = None

    def __init__(self, experiment_id: str, d: float, variance: float, n_effective: int,
                 corrected: bool = False, subgroup_label: str | None = None,
                 moderator_x: float | None = None):
        if not (math.isfinite(d) and math.isfinite(variance)
                and (moderator_x is None or math.isfinite(moderator_x))):
            raise ValueError(f"{experiment_id}: d, variance and moderator must be finite, "
                             f"got {d!r}, {variance!r} and {moderator_x!r}")
        if variance <= 0.0:
            raise ValueError(f"{experiment_id}: effect-size variance must be positive")
        if n_effective < 2:
            raise ValueError(f"{experiment_id}: effective n must be >= 2")
        f = self.__dict__
        f["experiment_id"] = experiment_id
        f["d"] = d
        f["variance"] = variance
        f["n_effective"] = n_effective
        f["corrected"] = corrected
        f["subgroup_label"] = subgroup_label
        f["moderator_x"] = moderator_x


def repeated_measures_d(row: SummaryRow, n_pairs: int | None = None) -> EffectSize:
    """Standardized mean difference for a within-subjects row.

    The difference-score spread is rescaled to the cross-participant scale:

        s_diff^2 = sd_c^2 + sd_t^2 - 2 r sd_c sd_t
        s_within = s_diff / sqrt(2 (1 - r))
        d        = (mean_t - mean_c) / s_within
        var(d)   = (1/n + d^2 / (2 n)) * 2 (1 - r)

    where n is the number of complete pairs. When only the summary row is
    available, n defaults to min(n_control, n_treatment), the complete-pair
    count an AB repeated-measures design can support at most.
    """
    if row.design != "within":
        raise ValueError(f"{row.experiment_id}: repeated-measures d requires a "
                         f"within-subjects row")
    if row.corr is None:
        raise ValueError(f"{row.experiment_id}: paired correlation is required")
    r = row.corr
    if abs(r) >= 1.0:
        raise ValueError(f"{row.experiment_id}: |corr| must be < 1, got {r}")
    n = min(row.n_control, row.n_treatment) if n_pairs is None else n_pairs
    if n < 2:
        raise ValueError(f"{row.experiment_id}: need at least 2 complete pairs")
    s_diff_sq = row.sd_control ** 2 + row.sd_treatment ** 2 - 2.0 * r * row.sd_control * row.sd_treatment
    if s_diff_sq <= 0.0:
        raise ValueError(f"{row.experiment_id}: difference-score variance is not positive")
    s_within = math.sqrt(s_diff_sq) / math.sqrt(2.0 * (1.0 - r))
    d = (row.mean_treatment - row.mean_control) / s_within
    variance = (1.0 / n + d * d / (2.0 * n)) * 2.0 * (1.0 - r)
    return EffectSize(row.experiment_id, d, variance, n)


def between_subjects_d(row: SummaryRow) -> EffectSize:
    """Standardized mean difference for a between-subjects row (pooled sd)."""
    if row.design != "between":
        raise ValueError(f"{row.experiment_id}: between-subjects d requires a "
                         f"between-subjects row")
    n_c, n_t = row.n_control, row.n_treatment
    pooled_var = (((n_c - 1) * row.sd_control ** 2 + (n_t - 1) * row.sd_treatment ** 2)
                  / (n_c + n_t - 2))
    if pooled_var <= 0.0:
        raise ValueError(f"{row.experiment_id}: pooled standard deviation is zero")
    d = (row.mean_treatment - row.mean_control) / math.sqrt(pooled_var)
    variance = (n_c + n_t) / (n_c * n_t) + d * d / (2.0 * (n_c + n_t))
    return EffectSize(row.experiment_id, d, variance, n_c + n_t)


def hedges_correction(effect: EffectSize, df: float) -> EffectSize:
    """Small-sample correction J = 1 - 3/(4 df - 1) applied to d and variance.

    Refuses to correct twice."""
    if effect.corrected:
        raise ValueError(f"{effect.experiment_id}: effect size already corrected")
    if df <= 1.0:
        raise ValueError(f"degrees of freedom must exceed 1, got {df}")
    j = 1.0 - 3.0 / (4.0 * df - 1.0)
    return EffectSize(effect.experiment_id, effect.d * j, effect.variance * j * j,
                      effect.n_effective, True, effect.subgroup_label, effect.moderator_x)
