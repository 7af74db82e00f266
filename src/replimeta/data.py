"""Loading, validation, and indexing of participant-level replication data.

Raw data travel in a long-format CSV (one row per observation); summary
statistics and participant covariates have their own documented schemas.
Each Replication lays its observations out once, on construction, as sorted
participant ids with aligned control and treatment arrays (NaN where an
outcome is missing or absent); arms, pairs and lookups all read that layout.
All structures, the arrays included, are immutable after validation and safe
to share.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "CONTROL",
    "TREATMENT",
    "CovariateRow",
    "CovariateTable",
    "DataError",
    "ORDINAL_COVARIATES",
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
ORDINAL_COVARIATES = ("programming", "java", "unit_testing", "junit")
COVARIATE_COLUMNS = ("experiment_id", "participant_id", "subject_type", *ORDINAL_COVARIATES)
INTEGER_COLUMNS = frozenset(("n_control", "n_treatment", *ORDINAL_COVARIATES))
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
    """One experiment's observations, laid out once as aligned arm arrays.

    ``participants`` holds the sorted participant ids; ``control`` and
    ``treatment`` are views of read-only float64 arrays, so that they cannot be
    made writeable, aligned with it, NaN where an outcome is missing or the
    participant has no row for that arm. They are attributes, not fields:
    ``observations`` stays the record of rows, and equality and repr use it.
    """

    experiment_id: str
    design: str  # "within" or "between"
    observations: tuple[Observation, ...]

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise DataError(f"unknown design {self.design!r} for {self.experiment_id}")
        participants = sorted({o.participant_id for o in self.observations})
        position = {pid: i for i, pid in enumerate(participants)}
        arms = {arm: [None] * len(participants) for arm in (CONTROL, TREATMENT)}  # None: no row
        for o in self.observations:
            if o.experiment_id != self.experiment_id:
                raise DataError(f"observation for {o.experiment_id!r} filed under "
                                f"replication {self.experiment_id!r}")
            cells, i = arms[o.treatment], position[o.participant_id]
            if cells[i] is not None:
                raise DataError(f"duplicate observation for "
                                f"{(self.experiment_id, o.participant_id, o.treatment)}")
            cells[i] = math.nan if o.outcome is None else o.outcome
        control, treatment = (np.array(arms[arm], dtype=np.float64) for arm in (CONTROL, TREATMENT))
        if np.count_nonzero(~(np.isnan(control) & np.isnan(treatment))) < 2:
            raise DataError(f"replication {self.experiment_id!r} needs at least 2 "
                            f"participants with a non-missing outcome")
        control.flags.writeable = treatment.flags.writeable = False
        self.__dict__.update(participants=tuple(participants),
                             control=control[:], treatment=treatment[:])

    def _arm(self, treatment: str) -> np.ndarray:
        return {CONTROL: self.control, TREATMENT: self.treatment}[treatment]

    def participant_ids(self) -> list[str]:
        return list(self.participants)

    def arm_values(self, treatment: str) -> list[float]:
        """Non-missing outcomes of one arm, ordered by participant id."""
        arm = self._arm(treatment)
        return arm[~np.isnan(arm)].tolist()

    def paired_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Control and treatment outcomes of the participants with both,
        aligned and ordered by participant id."""
        both = ~(np.isnan(self.control) | np.isnan(self.treatment))
        return self.control[both], self.treatment[both]


@dataclass(frozen=True)
class ReplicationSet:
    replications: tuple[Replication, ...]

    def __post_init__(self):
        if not self.replications:
            raise DataError("a replication set needs at least one replication")
        index: dict[str, Replication] = {}
        for rep in self.replications:
            if index.setdefault(rep.experiment_id, rep) is not rep:
                raise DataError(f"duplicate replication {rep.experiment_id!r}")
        self.__dict__["_index"] = index

    def experiment_ids(self) -> list[str]:
        return [r.experiment_id for r in self.replications]

    def replication(self, experiment_id: str) -> Replication:
        return self._index[experiment_id]


@dataclass(frozen=True, init=False)
class SummaryRow:
    """Per-replication summary statistics.

    Medians are optional extras carried when the row was computed from raw
    data; the summary CSV interchange schema does not include them.

    A within-subjects row's corr is None only when the paired correlation is
    undefined; no repeated-measures d can then be computed from the row.
    A between-subjects row never carries corr.

    ``__init__`` is hand-written: it stores each field straight into the
    instance dict, at under half the cost of the generated frozen one."""

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

    def __init__(self, experiment_id: str, n_control: int, n_treatment: int,
                 mean_control: float, sd_control: float, mean_treatment: float,
                 sd_treatment: float, corr: float | None, design: str,
                 median_control: float | None = None, median_treatment: float | None = None):
        if design not in DESIGNS:
            raise DataError(f"unknown design {design!r} for {experiment_id}")
        if n_control < 2 or n_treatment < 2:
            raise DataError(f"{experiment_id}: each arm needs n >= 2")
        if sd_control < 0 or sd_treatment < 0:
            raise DataError(f"{experiment_id}: standard deviations must be >= 0")
        if not (math.isfinite(mean_control) and math.isfinite(sd_control)
                and math.isfinite(mean_treatment) and math.isfinite(sd_treatment)):
            raise DataError(f"{experiment_id}: means and standard deviations must be finite")
        if corr is not None and design == "between":
            raise DataError(f"{experiment_id}: between-subjects rows must not carry corr")
        if corr is not None and not -1.0 <= corr <= 1.0:
            raise DataError(f"{experiment_id}: corr {corr} outside [-1, 1]")
        f = self.__dict__
        f["experiment_id"] = experiment_id
        f["n_control"] = n_control
        f["n_treatment"] = n_treatment
        f["mean_control"] = mean_control
        f["sd_control"] = sd_control
        f["mean_treatment"] = mean_treatment
        f["sd_treatment"] = sd_treatment
        f["corr"] = corr
        f["design"] = design
        f["median_control"] = median_control
        f["median_treatment"] = median_treatment


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


@dataclass(frozen=True, slots=True)
class CovariateRow:
    experiment_id: str
    participant_id: str
    subject_type: str
    values: Mapping[str, int]  # ordinal 1..4 per covariate name; kept as a read-only copy

    def __post_init__(self):
        object.__setattr__(self, "values", values := MappingProxyType(dict(self.values)))
        if self.subject_type not in SUBJECT_TYPES:
            raise DataError(f"unknown subject_type {self.subject_type!r} "
                            f"({self.experiment_id}/{self.participant_id})")
        for name in ORDINAL_COVARIATES:
            v = values.get(name)
            if v is None or not 1 <= v <= 4:
                raise DataError(f"{name} must be an integer in 1..4, got {v!r} "
                                f"({self.experiment_id}/{self.participant_id})")


@dataclass(frozen=True)
class CovariateTable:
    rows: tuple[CovariateRow, ...]


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
    exclude: frozenset[tuple[str, str]] = frozenset()

    def design_of(self, experiment_id: str) -> str:
        if isinstance(self.design, str):
            return self.design
        try:
            return self.design[experiment_id]
        except KeyError:
            raise DataError(f"no design declared for experiment {experiment_id!r}") from None


def _read_rows(path: Path, expected: tuple[str, ...]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line number, cells) for each data row of a CSV file whose header
    names each expected column exactly once, in any order; the cells come in
    the order of ``expected``. Blank lines are skipped; a row with too few or
    too many fields is rejected."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = tuple(next(reader, ()))
        if len(names) != len(expected) or set(names) != set(expected):
            raise DataError(f"{path}: header {names!r} does not match expected columns {expected!r}")
        in_expected_order = itemgetter(*map(names.index, expected))
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(names):
                raise DataError(f"{path}:{reader.line_num}: malformed row (expected "
                                f"{len(names)} fields, got {len(cells)})")
            yield reader.line_num, in_expected_order(cells)


def _row_error(where: str, numbers: Iterable[tuple[str, str]], err: Exception) -> DataError:
    """The error for a rejected row: its first bad (column, cell) in ``numbers``, else ``err``."""
    for what, cell in numbers:
        try:
            value = float(cell)
        except ValueError:
            return DataError(f"{where}: malformed {what} value {cell!r}")
        if not math.isfinite(value):
            return DataError(f"{where}: {what} must be finite, got {cell!r}")
        if what in INTEGER_COLUMNS and value != int(value):
            return DataError(f"{where}: {what} must be an integer, got {cell.strip()!r}")
    return DataError(f"{where}: {err}")


def load_raw_dataset(path: str | Path, options: ParseOptions | None = None) -> ReplicationSet:
    """Load and validate a long-format raw dataset.

    Missing outcomes (empty cells) are preserved as missing, never dropped.
    """
    options = options or ParseOptions()
    path = Path(path)
    label_map = {options.control_label: CONTROL, options.treatment_label: TREATMENT}
    by_experiment: dict[str, list[Observation]] = {}
    for line, (exp, pid, label, cell) in _read_rows(path, RAW_COLUMNS):
        exp, pid = exp.strip(), pid.strip()
        if not exp or not pid:
            raise DataError(f"{path}:{line}: empty experiment or participant id")
        if (exp, pid) in options.exclude:
            continue
        label = label.strip()
        if label not in label_map:
            raise DataError(f"{path}:{line}: unknown treatment label {label!r} "
                            f"(expected {options.control_label!r} or {options.treatment_label!r})")
        try:  # Observation rejects a non-finite outcome
            obs = Observation(exp, pid, label_map[label], float(cell) if cell.strip() else None)
        except ValueError as err:
            raise _row_error(f"{path}:{line}", [("outcome", cell.strip())], err) from None
        by_experiment.setdefault(exp, []).append(obs)
    if not by_experiment:
        raise DataError(f"{path}: no data rows")
    # these checks span rows, so only the file can be named
    try:
        replications = tuple(Replication(exp, options.design_of(exp), tuple(obs_list))
                             for exp, obs_list in by_experiment.items())
        return ReplicationSet(replications)
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
        writer.writerows([o.experiment_id, o.participant_id, labels[o.treatment],
                          "" if o.outcome is None else repr(o.outcome)]
                         for rep in dataset.replications for o in rep.observations)


def load_summary_dataset(path: str | Path) -> list[SummaryRow]:
    """Load per-replication summary statistics (one row per experiment)."""
    path = Path(path)
    rows: list[SummaryRow] = []
    seen: set[str] = set()
    for line, cells in _read_rows(path, SUMMARY_COLUMNS):
        exp, n_c, n_t, m_c, s_c, m_t, s_t, corr, design = cells
        exp = exp.strip()
        if exp in seen:
            raise DataError(f"{path}:{line}: duplicate summary row for {exp!r}")
        seen.add(exp)
        try:  # SummaryRow rejects non-finite moments and corr; int() a non-finite count
            n_c, n_t = float(n_c), float(n_t)
            row = SummaryRow(exp, int(n_c), int(n_t), float(m_c), float(s_c), float(m_t),
                             float(s_t), float(corr) if corr.strip() else None, design.strip())
            if row.n_control != n_c or row.n_treatment != n_t:
                raise ValueError("fractional count")
        except (ValueError, OverflowError) as err:
            numbers = [("corr", corr.strip())] if corr.strip() else []
            numbers += zip(SUMMARY_COLUMNS[1:7], cells[1:7])
            raise _row_error(f"{path}:{line}", numbers, err) from None
        rows.append(row)
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
    # participant ids per experiment: no tuple per participant for the collector to walk
    known = None if dataset is None else {r.experiment_id: set(r.participants)
                                          for r in dataset.replications}
    rows: list[CovariateRow] = []
    seen: set[tuple[str, str]] = set()
    for line, (exp, pid, subject_type, *ordinals) in _read_rows(path, COVARIATE_COLUMNS):
        exp, pid = exp.strip(), pid.strip()
        key = (exp, pid)
        if key in seen:
            raise DataError(f"{path}:{line}: duplicate covariate row for {key}")
        seen.add(key)
        if known is not None and pid not in known.get(exp, ()):
            raise DataError(f"{path}:{line}: participant {pid!r} of experiment {exp!r} "
                            f"is not present in the raw data")
        try:  # CovariateRow rejects values outside 1..4; int() a non-finite one
            floats = list(map(float, ordinals))
            ints = list(map(int, floats))
            if ints != floats:
                raise ValueError("fractional ordinal")
            row = CovariateRow(exp, pid, subject_type.strip(), dict(zip(ORDINAL_COVARIATES, ints)))
        except (ValueError, OverflowError) as err:
            raise _row_error(f"{path}:{line}", zip(ORDINAL_COVARIATES, ordinals), err) from None
        rows.append(row)
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
    control, treatment = replication.paired_values()
    return PairedSample(replication.experiment_id, tuple((treatment - control).tolist()))
