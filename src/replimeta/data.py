"""Loading, validation, and indexing of participant-level replication data.

Raw data travel in a long-format CSV (one row per observation); summary
statistics and participant covariates have their own documented schemas.
A Replication is laid out once, by ``__post_init__`` from its observations,
however it was built: by hand, by the loader, or by ``copy``, ``deepcopy`` or
``pickle``. Arms, pairs and lookups read that layout, as descriptives read a
CovariateTable's columns, grouped on construction. Per-row records are frozen,
slotted dataclasses; the loaders fill them as drafts from cells they have checked (see
the comment above the drafts). All structures are immutable.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from pathlib import Path
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
# a valid subject type and four cells spelled "1".."4" -> the ints, one tuple shared by such rows
_VALID_ROWS = {(kind, *cells): ints for cells, ints in ((c, tuple(map(int, c)))
               for c in product("1234", repeat=4)) for kind in SUBJECT_TYPES}


class DataError(ValueError):
    """Input data failed validation; message carries file/line context."""


@dataclass(frozen=True, slots=True)
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
    """One experiment's observations, laid out once by ``__post_init__``, the one path
    of every construction: ``copy``, ``deepcopy`` and ``pickle`` rebuild from the fields.

    ``participants`` holds the sorted participant ids; ``control`` and ``treatment``
    align with it, NaN where an outcome is missing or absent; ``observed`` holds each
    arm's non-missing outcomes, ``pairs`` both arms of the participants with both: all
    attributes, not fields, and views of read-only float64 arrays that stay read-only.
    """

    experiment_id: str
    design: str  # "within" or "between"
    observations: tuple[Observation, ...]

    def __post_init__(self):
        experiment_id, observations = self.experiment_id, self.observations
        if self.design not in DESIGNS:
            raise DataError(f"unknown design {self.design!r} for {experiment_id}")
        arms = control, treatment = {}, {}  # each arm's outcome (None if missing) by participant
        for o in observations:
            if o.experiment_id != experiment_id:
                raise DataError(f"observation for {o.experiment_id!r} filed under "
                                f"replication {experiment_id!r}")
            arms[o.treatment == TREATMENT][o.participant_id] = o.outcome
        if len(control) + len(treatment) < len(observations):  # a row repeats: name the first
            seen = set()
            for o in observations:
                if (key := (o.participant_id, o.treatment)) in seen:
                    raise DataError(f"duplicate observation for {(experiment_id, *key)}")
                seen.add(key)
        participants = sorted(control | treatment)
        grid = np.array([list(map(control.get, participants)),  # None -> NaN
                         list(map(treatment.get, participants))], dtype=np.float64)
        present = grid == grid
        observed, pairs = grid[present], grid.compress(present[0] & present[1], axis=1)
        if observed.size - pairs.shape[1] < 2:  # participants with a non-missing outcome
            raise DataError(f"replication {experiment_id!r} needs at least 2 "
                            f"participants with a non-missing outcome")
        grid.flags.writeable = observed.flags.writeable = pairs.flags.writeable = False
        n = np.count_nonzero(present[0])
        self.__dict__.update(participants=tuple(participants), control=grid[0], treatment=grid[1],
                             observed=(observed[:n], observed[n:]), pairs=(pairs[0], pairs[1]))

    def __reduce__(self):
        return type(self), (self.experiment_id, self.design, self.observations)

    def participant_ids(self) -> list[str]:
        return list(self.participants)

    def arm_values(self, treatment: str) -> list[float]:
        """Non-missing outcomes of one arm, ordered by participant id."""
        if treatment not in (CONTROL, TREATMENT):
            raise ValueError(f"unknown arm {treatment!r} (expected {CONTROL!r} or {TREATMENT!r})")
        return self.observed[treatment == TREATMENT].tolist()


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


@dataclass(frozen=True, slots=True)
class SummaryRow:
    """Per-replication summary statistics.

    Medians are optional extras carried when the row was computed from raw
    data; the summary CSV interchange schema does not include them.

    A within-subjects row's corr is None only when the paired correlation is
    undefined; no repeated-measures d can then be computed from the row.
    A between-subjects row never carries corr."""

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
        experiment_id, corr = self.experiment_id, self.corr
        if self.design not in DESIGNS:
            raise DataError(f"unknown design {self.design!r} for {experiment_id}")
        if not (self.n_control >= 2 and self.n_treatment >= 2
                and self.n_control % 1 == self.n_treatment % 1 == 0):
            raise DataError(f"{experiment_id}: each arm needs n >= 2")
        if self.sd_control < 0 or self.sd_treatment < 0:
            raise DataError(f"{experiment_id}: standard deviations must be >= 0")
        if not (math.isfinite(self.mean_control) and math.isfinite(self.sd_control)
                and math.isfinite(self.mean_treatment) and math.isfinite(self.sd_treatment)):
            raise DataError(f"{experiment_id}: means and standard deviations must be finite")
        if corr is not None and self.design == "between":
            raise DataError(f"{experiment_id}: between-subjects rows must not carry corr")
        if corr is not None and not -1.0 <= corr <= 1.0:
            raise DataError(f"{experiment_id}: corr {corr} outside [-1, 1]")


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
    values: tuple[int, ...]  # one ordinal in 1..4 per name in ORDINAL_COVARIATES, in that order

    def __post_init__(self):
        where = f"({self.experiment_id}/{self.participant_id})"
        if self.subject_type not in SUBJECT_TYPES:
            raise DataError(f"unknown subject_type {self.subject_type!r} {where}")
        values = tuple(self.values)
        if len(values) != len(ORDINAL_COVARIATES):
            raise DataError(f"expected one value for each of {ORDINAL_COVARIATES}, "
                            f"got {values!r} {where}")
        for name, v in zip(ORDINAL_COVARIATES, values):
            if type(v) is not int or not 1 <= v <= 4:
                raise DataError(f"{name} must be an integer in 1..4, got {v!r} {where}")
        object.__setattr__(self, "values", values)


# A draft is a plain class with its record's slots: CPython specializes plain stores to a
# draft's slots but not the frozen record's, and the equal slot layouts let a filled,
# checked draft become its record by __class__ assignment. The loaders fill drafts from
# cells they have checked; the summary loader runs SummaryRow.__post_init__ on its draft.
# Only effects.EffectSize hand-writes an __init__ that fills self as a draft: pooling
# 2 000 summary rows builds 6 000 effect sizes, 2 000 of them through the constructor.
# Every record here keeps the generated __init__ and checks in __post_init__.
_ObservationDraft, _SummaryRowDraft, _CovariateRowDraft = (
    type(f"_{cls.__name__}Draft", (), {"__slots__": cls.__slots__})
    for cls in (Observation, SummaryRow, CovariateRow))


@dataclass(frozen=True)
class CovariateTable:
    """``columns`` pairs each experiment, by first appearance, with its ordinal columns."""

    rows: tuple[CovariateRow, ...]

    def __post_init__(self):
        groups: dict[str, list[tuple[int, ...]]] = {}
        for r in self.rows:
            groups.setdefault(r.experiment_id, []).append(r.values)
        self.__dict__["columns"] = tuple(  # zip(*rows) would make an iterator per row
            (exp, tuple(tuple(map(itemgetter(i), rows)) for i in range(len(ORDINAL_COVARIATES))))
            for exp, rows in groups.items())


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

    def __post_init__(self):
        if self.control_label == self.treatment_label:
            raise DataError(f"control and treatment labels must differ, both are {self.control_label!r}")

    def design_of(self, experiment_id: str) -> str:
        if isinstance(self.design, str):
            return self.design
        try:
            return self.design[experiment_id]
        except KeyError:
            raise DataError(f"no design declared for experiment {experiment_id!r}") from None


def _read_rows(path: Path, expected: tuple[str, ...]) -> Iterator:
    """Yield the csv reader, whose ``line_num`` names each row (read only on error, so
    no tuple is built per row), then the cells of each data row of a CSV file whose
    header names each expected column once, in any order, in the order of ``expected``.
    Blank lines are skipped; a row with too few or too many fields is rejected. A UTF-8
    byte-order mark, as spreadsheet exports write, is dropped."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        names = tuple(next(reader, ()))
        if len(names) != len(expected) or set(names) != set(expected):
            raise DataError(f"{path}: header {names!r} does not match expected columns {expected!r}")
        yield reader
        width = len(names)
        reorder = None if names == expected else itemgetter(*map(names.index, expected))
        for cells in reader:
            if len(cells) != width:
                if not cells:
                    continue
                raise DataError(f"{path}:{reader.line_num}: malformed row (expected "
                                f"{width} fields, got {len(cells)})")
            yield cells if reorder is None else reorder(cells)


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
    by_experiment = defaultdict(list)
    reader = next(lines := _read_rows(path, RAW_COLUMNS))
    for exp, pid, label, cell in lines:
        exp, pid = exp.strip(), pid.strip()
        if not exp or not pid:
            raise DataError(f"{path}:{reader.line_num}: empty experiment or participant id")
        if options.exclude and (exp, pid) in options.exclude:
            continue
        arm = label_map.get(label := label.strip())
        if arm is None:
            raise DataError(f"{path}:{reader.line_num}: unknown treatment label {label!r} "
                            f"(expected {options.control_label!r} or {options.treatment_label!r})")
        try:
            outcome = float(cell) if (cell := cell.strip()) else None
            if outcome is not None and not math.isfinite(outcome):
                raise ValueError("non-finite outcome")
        except ValueError as err:
            raise _row_error(f"{path}:{reader.line_num}", [("outcome", cell)], err) from None
        by_experiment[exp].append(obs := _ObservationDraft())  # checked above: fill and retype
        obs.experiment_id = exp
        obs.participant_id = pid
        obs.treatment = arm
        obs.outcome = outcome
        obs.__class__ = Observation
    if not by_experiment:
        raise DataError(f"{path}: no data rows")
    # these checks span rows, so only the file can be named
    try:
        replications = tuple(Replication(exp, options.design_of(exp), tuple(records))
                             for exp, records in by_experiment.items())
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
    reader = next(lines := _read_rows(path, SUMMARY_COLUMNS))
    for cells in lines:
        exp, n_c, n_t, m_c, s_c, m_t, s_t, corr, design = cells
        exp = exp.strip()
        if not exp:
            raise DataError(f"{path}:{reader.line_num}: empty experiment id")
        if exp in seen:
            raise DataError(f"{path}:{reader.line_num}: duplicate summary row for {exp!r}")
        seen.add(exp)
        row = _SummaryRowDraft()
        try:  # SummaryRow rejects non-finite moments and corr; int() a non-finite count
            n_c, n_t = float(n_c), float(n_t)
            row.experiment_id, row.design = exp, design.strip()
            row.n_control, row.n_treatment = int(n_c), int(n_t)
            row.mean_control, row.sd_control = float(m_c), float(s_c)
            row.mean_treatment, row.sd_treatment = float(m_t), float(s_t)
            row.corr = float(corr) if corr.strip() else None
            row.median_control = row.median_treatment = None
            SummaryRow.__post_init__(row)
            if row.n_control != n_c or row.n_treatment != n_t:
                raise ValueError("fractional count")
        except (ValueError, OverflowError) as err:
            numbers = [("corr", corr.strip())] if corr.strip() else []
            numbers += zip(SUMMARY_COLUMNS[1:7], cells[1:7])
            raise _row_error(f"{path}:{reader.line_num}", numbers, err) from None
        row.__class__ = SummaryRow
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
    raw dataset is supplied (orphan participant references are errors).

    Each row's ``values`` is a tuple of four ints in 1..4, one per name in
    ``ORDINAL_COVARIATES`` and in that order, whatever the column order of
    the file."""
    path = Path(path)
    # participant ids per experiment: no tuple per participant for the collector to walk
    known = None if dataset is None else {r.experiment_id: set(r.participants)
                                          for r in dataset.replications}
    rows: list[CovariateRow] = []
    seen = defaultdict(dict)  # participant ids per experiment: a dict is a quarter of a set's size
    reader = next(lines := _read_rows(path, COVARIATE_COLUMNS))
    for exp, pid, subject_type, o1, o2, o3, o4 in lines:
        exp, pid, cells = exp.strip(), pid.strip(), (o1, o2, o3, o4)  # ORDINAL_COVARIATES order
        if not exp or not pid:
            raise DataError(f"{path}:{reader.line_num}: empty experiment or participant id")
        if pid in (ids := seen[exp]):
            raise DataError(f"{path}:{reader.line_num}: duplicate covariate row for {(exp, pid)}")
        ids[pid] = None
        if known is not None and pid not in known.get(exp, ()):
            raise DataError(f"{path}:{reader.line_num}: participant {pid!r} of experiment {exp!r} "
                            f"is not present in the raw data")
        try:  # any other row: float -> int (int() rejects a non-finite cell), CovariateRow's checks
            if (ints := _VALID_ROWS.get((subject_type, o1, o2, o3, o4))) is None:
                floats = tuple(map(float, cells))
                if (ints := tuple(map(int, floats))) != floats:
                    raise ValueError("fractional ordinal")
                rows.append(CovariateRow(exp, pid, subject_type.strip(), ints))
                continue
        except (ValueError, OverflowError) as err:
            raise _row_error(f"{path}:{reader.line_num}", zip(ORDINAL_COVARIATES, cells), err) from None
        rows.append(row := _CovariateRowDraft())  # a _VALID_ROWS row: fill and retype
        row.experiment_id = exp
        row.participant_id = pid
        row.subject_type = subject_type
        row.values = ints
        row.__class__ = CovariateRow
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
    control, treatment = replication.pairs
    return PairedSample(replication.experiment_id, tuple((treatment - control).tolist()))
