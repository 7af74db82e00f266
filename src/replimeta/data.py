"""Loading, validation, and indexing of participant-level replication data.

Raw data travel in a long-format CSV (one row per observation); summary
statistics and participant covariates have their own documented schemas.
All structures are immutable after validation and safe to share.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = [
    "CONTROL",
    "TREATMENT",
    "CovariateRow",
    "CovariateTable",
    "DataError",
    "Observation",
    "PairedSample",
    "ParseOptions",
    "Replication",
    "ReplicationSet",
    "SummaryRow",
    "complete_pairs",
    "load_covariates",
    "load_raw_dataset",
    "load_summary_dataset",
    "save_raw_dataset",
    "save_summary_dataset",
]

CONTROL = "control"
TREATMENT = "treatment"

RAW_COLUMNS = ("experiment_id", "participant_id", "treatment", "outcome")
SUMMARY_COLUMNS = ("experiment_id", "n_control", "n_treatment", "mean_control",
                   "sd_control", "mean_treatment", "sd_treatment", "corr", "design")
COVARIATE_COLUMNS = ("experiment_id", "participant_id", "subject_type",
                     "programming", "java", "unit_testing", "junit")
ORDINAL_COVARIATES = ("programming", "java", "unit_testing", "junit")
SUBJECT_TYPES = ("professional", "student")
DESIGNS = ("within", "between")


class DataError(ValueError):
    """Input data failed validation; message carries file/line context."""


@dataclass(frozen=True)
class Observation:
    experiment_id: str
    participant_id: str
    treatment: str  # CONTROL or TREATMENT
    outcome: float | None  # None encodes a missing measurement

    def __post_init__(self):
        if self.treatment not in (CONTROL, TREATMENT):
            raise DataError(f"unknown treatment level {self.treatment!r}")
        if self.outcome is not None and not math.isfinite(self.outcome):
            raise DataError(f"outcome must be finite, got {self.outcome!r} "
                            f"({self.experiment_id}/{self.participant_id})")


@dataclass(frozen=True)
class Replication:
    experiment_id: str
    design: str  # "within" or "between"
    observations: tuple[Observation, ...]

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise DataError(f"unknown design {self.design!r} for {self.experiment_id}")
        for obs in self.observations:
            if obs.experiment_id != self.experiment_id:
                raise DataError(f"observation for {obs.experiment_id!r} filed under "
                                f"replication {self.experiment_id!r}")
        informative = {o.participant_id for o in self.observations if o.outcome is not None}
        if len(informative) < 2:
            raise DataError(f"replication {self.experiment_id!r} needs at least 2 "
                            f"participants with a non-missing outcome")

    def participant_ids(self) -> list[str]:
        return sorted({o.participant_id for o in self.observations})

    def arm_values(self, treatment: str) -> list[float]:
        """Non-missing outcomes of one arm, ordered by participant id."""
        rows = [(o.participant_id, o.outcome) for o in self.observations
                if o.treatment == treatment and o.outcome is not None]
        return [v for _, v in sorted(rows)]

    def outcome_of(self, participant_id: str, treatment: str) -> float | None:
        for o in self.observations:
            if o.participant_id == participant_id and o.treatment == treatment:
                return o.outcome
        return None


@dataclass(frozen=True)
class ReplicationSet:
    replications: tuple[Replication, ...]
    outcome_name: str = "outcome"
    outcome_unit: str = ""

    def __post_init__(self):
        if not self.replications:
            raise DataError("a replication set needs at least one replication")
        seen: set[tuple[str, str, str]] = set()
        for rep in self.replications:
            for o in rep.observations:
                key = (o.experiment_id, o.participant_id, o.treatment)
                if key in seen:
                    raise DataError(f"duplicate observation for {key}")
                seen.add(key)

    def experiment_ids(self) -> list[str]:
        return [r.experiment_id for r in self.replications]

    def replication(self, experiment_id: str) -> Replication:
        for r in self.replications:
            if r.experiment_id == experiment_id:
                return r
        raise KeyError(experiment_id)

    def observations(self) -> Iterable[Observation]:
        for r in self.replications:
            yield from r.observations


@dataclass(frozen=True)
class SummaryRow:
    """Per-replication summary statistics.

    Medians are optional extras carried when the row was computed from raw
    data; the summary CSV interchange schema does not include them.

    A within-subjects row's corr is None only when the paired correlation is
    undefined; no repeated-measures d can then be computed from the row.
    A between-subjects row never carries corr.
    """

    experiment_id: str
    n_control: int
    n_treatment: int
    mean_control: float
    sd_control: float
    mean_treatment: float
    sd_treatment: float
    corr: float | None
    design: str
    median_control: float | None = None
    median_treatment: float | None = None

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise DataError(f"unknown design {self.design!r} for {self.experiment_id}")
        if self.n_control < 2 or self.n_treatment < 2:
            raise DataError(f"{self.experiment_id}: each arm needs n >= 2")
        if self.sd_control < 0 or self.sd_treatment < 0:
            raise DataError(f"{self.experiment_id}: standard deviations must be >= 0")
        if self.corr is not None and self.design == "between":
            raise DataError(f"{self.experiment_id}: between-subjects rows must not carry corr")
        if self.corr is not None and not -1.0 <= self.corr <= 1.0:
            raise DataError(f"{self.experiment_id}: corr {self.corr} outside [-1, 1]")


@dataclass(frozen=True)
class PairedSample:
    """Per-participant treatment-minus-control differences (complete pairs only)."""

    experiment_id: str
    differences: tuple[float, ...]

    def __post_init__(self):
        if len(self.differences) < 2:
            raise DataError(f"{self.experiment_id}: fewer than 2 complete pairs")

    @property
    def n_pairs(self) -> int:
        return len(self.differences)


@dataclass(frozen=True)
class CovariateRow:
    experiment_id: str
    participant_id: str
    subject_type: str
    values: Mapping[str, int]  # ordinal 1..4 per covariate name

    def __post_init__(self):
        if self.subject_type not in SUBJECT_TYPES:
            raise DataError(f"unknown subject_type {self.subject_type!r} "
                            f"({self.experiment_id}/{self.participant_id})")
        for name in ORDINAL_COVARIATES:
            v = self.values.get(name)
            if v is None or not 1 <= v <= 4:
                raise DataError(f"{name} must be an integer in 1..4, got {v!r} "
                                f"({self.experiment_id}/{self.participant_id})")


@dataclass(frozen=True)
class CovariateTable:
    rows: tuple[CovariateRow, ...]

    def for_experiment(self, experiment_id: str) -> list[CovariateRow]:
        return [r for r in self.rows if r.experiment_id == experiment_id]

    def experiment_ids(self) -> list[str]:
        out: list[str] = []
        for r in self.rows:
            if r.experiment_id not in out:
                out.append(r.experiment_id)
        return out


@dataclass(frozen=True)
class ParseOptions:
    """Declares how raw CSV cells map onto the analysis vocabulary.

    control_label / treatment_label: the file's two treatment spellings.
    design: experiment design applied to every replication, or a per-id map.
    exclude: optional (experiment_id, participant_id) pairs dropped on load.
    """

    control_label: str = CONTROL
    treatment_label: str = TREATMENT
    design: str | Mapping[str, str] = "within"
    outcome_name: str = "outcome"
    outcome_unit: str = ""
    exclude: frozenset[tuple[str, str]] = frozenset()

    def design_of(self, experiment_id: str) -> str:
        if isinstance(self.design, str):
            return self.design
        try:
            return self.design[experiment_id]
        except KeyError:
            raise DataError(f"no design declared for experiment {experiment_id!r}") from None


def _read_rows(path: Path, expected: tuple[str, ...]) -> Iterator[tuple[str, dict[str, str]]]:
    """Yield ("file:line", row) for each data row of a CSV file whose header
    names each expected column exactly once, in any order. Blank lines are
    skipped; a row with too few or too many fields is rejected."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = tuple(next(reader, ()))
        if len(names) != len(expected) or set(names) != set(expected):
            raise DataError(f"{path}: header {names!r} does not match expected columns {expected!r}")
        for cells in reader:
            if not cells:
                continue
            where = f"{path}:{reader.line_num}"
            if len(cells) != len(names):
                raise DataError(f"{where}: malformed row (expected {len(names)} fields, "
                                f"got {len(cells)})")
            yield where, dict(zip(names, cells))


def _parse_float(cell: str, what: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{where}: malformed {what} value {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{where}: {what} must be finite, got {cell!r}")
    return value


def _parse_int(cell: str, what: str, where: str) -> int:
    value = _parse_float(cell, what, where)
    if value != int(value):
        raise DataError(f"{where}: {what} must be an integer, got {cell.strip()!r}")
    return int(value)


def load_raw_dataset(path: str | Path, options: ParseOptions | None = None) -> ReplicationSet:
    """Load and validate a long-format raw dataset.

    Missing outcomes (empty cells) are preserved as missing, never dropped.
    """
    options = options or ParseOptions()
    path = Path(path)
    label_map = {options.control_label: CONTROL, options.treatment_label: TREATMENT}
    by_experiment: dict[str, list[Observation]] = {}
    n_rows = 0
    for where, row in _read_rows(path, RAW_COLUMNS):
        exp = row["experiment_id"].strip()
        pid = row["participant_id"].strip()
        if not exp or not pid:
            raise DataError(f"{where}: empty experiment or participant id")
        if (exp, pid) in options.exclude:
            continue
        label = row["treatment"].strip()
        if label not in label_map:
            raise DataError(f"{where}: unknown treatment label {label!r} "
                            f"(expected {options.control_label!r} or {options.treatment_label!r})")
        cell = row["outcome"].strip()
        outcome = None if cell == "" else _parse_float(cell, "outcome", where)
        try:
            obs = Observation(exp, pid, label_map[label], outcome)
        except DataError as err:
            raise DataError(f"{where}: {err}") from None
        by_experiment.setdefault(exp, []).append(obs)
        n_rows += 1
    if n_rows == 0:
        raise DataError(f"{path}: no data rows")
    # these checks span rows, so only the file can be named
    try:
        replications = tuple(
            Replication(exp, options.design_of(exp), tuple(obs_list))
            for exp, obs_list in by_experiment.items()
        )
        return ReplicationSet(replications, options.outcome_name, options.outcome_unit)
    except DataError as err:
        raise DataError(f"{path}: {err}") from None


def save_raw_dataset(dataset: ReplicationSet, path: str | Path,
                     options: ParseOptions | None = None) -> None:
    """Write a ReplicationSet back to the raw CSV schema (round-trip safe)."""
    options = options or ParseOptions()
    labels = {CONTROL: options.control_label, TREATMENT: options.treatment_label}
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        for obs in dataset.observations():
            cell = "" if obs.outcome is None else repr(obs.outcome)
            writer.writerow([obs.experiment_id, obs.participant_id, labels[obs.treatment], cell])


def load_summary_dataset(path: str | Path) -> list[SummaryRow]:
    """Load per-replication summary statistics (one row per experiment)."""
    path = Path(path)
    rows: list[SummaryRow] = []
    seen: set[str] = set()
    for where, row in _read_rows(path, SUMMARY_COLUMNS):
        exp = row["experiment_id"].strip()
        if exp in seen:
            raise DataError(f"{where}: duplicate summary row for {exp!r}")
        seen.add(exp)
        corr_cell = row["corr"].strip()
        corr = None if corr_cell == "" else _parse_float(corr_cell, "corr", where)
        counts = [_parse_int(row[name], name, where) for name in ("n_control", "n_treatment")]
        moments = [_parse_float(row[name], name, where)
                   for name in ("mean_control", "sd_control", "mean_treatment", "sd_treatment")]
        try:
            rows.append(SummaryRow(exp, *counts, *moments, corr, row["design"].strip()))
        except DataError as err:
            raise DataError(f"{where}: {err}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def save_summary_dataset(rows: Iterable[SummaryRow], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for r in rows:
            writer.writerow([r.experiment_id, r.n_control, r.n_treatment,
                             repr(r.mean_control), repr(r.sd_control),
                             repr(r.mean_treatment), repr(r.sd_treatment),
                             "" if r.corr is None else repr(r.corr), r.design])


def load_covariates(path: str | Path, dataset: ReplicationSet | None = None) -> CovariateTable:
    """Load participant covariates; validates referential integrity when the
    raw dataset is supplied (orphan participant references are errors)."""
    path = Path(path)
    known: set[tuple[str, str]] | None = None
    if dataset is not None:
        known = {(o.experiment_id, o.participant_id) for o in dataset.observations()}
    rows: list[CovariateRow] = []
    seen: set[tuple[str, str]] = set()
    for where, row in _read_rows(path, COVARIATE_COLUMNS):
        exp = row["experiment_id"].strip()
        pid = row["participant_id"].strip()
        key = (exp, pid)
        if key in seen:
            raise DataError(f"{where}: duplicate covariate row for {key}")
        seen.add(key)
        if known is not None and key not in known:
            raise DataError(f"{where}: participant {pid!r} of experiment {exp!r} "
                            f"is not present in the raw data")
        values = {name: _parse_int(row[name], name, where) for name in ORDINAL_COVARIATES}
        try:
            rows.append(CovariateRow(exp, pid, row["subject_type"].strip(), values))
        except DataError as err:
            raise DataError(f"{where}: {err}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return CovariateTable(tuple(rows))


def complete_pairs(replication: Replication) -> PairedSample:
    """Treatment-minus-control differences over participants with both arms.

    Ordering is deterministic (sorted by participant id); participants
    lacking either arm are excluded, mirroring the complete-observation rule
    used by the aggregated-data path.
    """
    if replication.design != "within":
        raise DataError(f"{replication.experiment_id}: complete pairs require a "
                        f"within-subjects design")
    control, treatment = paired_arm_values(replication)
    diffs = [t - c for c, t in zip(control, treatment)]
    if len(diffs) < 2:
        raise DataError(f"{replication.experiment_id}: fewer than 2 complete pairs")
    return PairedSample(replication.experiment_id, tuple(diffs))


def paired_arm_values(replication: Replication) -> tuple[list[float], list[float]]:
    """Control and treatment outcomes restricted to complete pairs, aligned
    by participant and sorted by participant id."""
    per_pid: dict[str, dict[str, float]] = {}
    for o in replication.observations:
        if o.outcome is not None:
            per_pid.setdefault(o.participant_id, {})[o.treatment] = o.outcome
    control, treatment = [], []
    for pid, vals in sorted(per_pid.items()):
        if CONTROL in vals and TREATMENT in vals:
            control.append(vals[CONTROL])
            treatment.append(vals[TREATMENT])
    return control, treatment
