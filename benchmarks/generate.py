"""Seeded inputs for the replimeta benchmark.

Every input is drawn from a ``numpy.random.Generator`` keyed by the seed and
a stream tag, and rendered to CSV text with fixed formatting, so one seed
always gives identical bytes. No family is filtered or drawn again: an input
that trips a defect of the program is kept and shows up as a failed op.

The generator keeps the values it wrote (``Family``, ``SummaryTable``), so
the oracles compare the program's outputs with the inputs themselves, never
with anything the program computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RAW_HEADER = "experiment_id,participant_id,treatment,outcome\n"
COVARIATE_HEADER = ("experiment_id,participant_id,subject_type,"
                    "programming,java,unit_testing,junit\n")
SUMMARY_HEADER = ("experiment_id,n_control,n_treatment,mean_control,sd_control,"
                  "mean_treatment,sd_treatment,corr,design\n")

MISSING_RATE = 0.05      # outcome cells left empty
INCOMPLETE_RATE = 0.05   # within-subjects participants lacking one arm's row
PROFESSIONAL_SHARE = 1 / 3
EXCLUDED_SHARE = 0.01    # participants export-large drops through ParseOptions.exclude

# Stream tags: family-large and export-large share a tag, so both read the
# same family and differ only in how it is spelled on disk.
STREAM_PAPER, STREAM_LARGE, STREAM_POOL, STREAM_EXCLUDE = 1, 2, 3, 4


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


@dataclass(frozen=True)
class Replication:
    experiment_id: str
    design: str            # "within" or "between"
    subject_type: str      # "professional" or "student"
    participant_ids: tuple[str, ...]
    control: np.ndarray    # outcome per participant; NaN if no row or an empty cell
    treatment: np.ndarray
    control_row: np.ndarray    # bool: the participant has a control row
    treatment_row: np.ndarray
    covariates: np.ndarray     # (n, 4) ordinal items in 1..4

    def rows(self) -> int:
        return int(self.control_row.sum() + self.treatment_row.sum())


@dataclass(frozen=True)
class Family:
    replications: tuple[Replication, ...]

    def designs(self) -> dict[str, str]:
        return {r.experiment_id: r.design for r in self.replications}

    def raw_rows(self) -> int:
        return sum(r.rows() for r in self.replications)

    def covariate_rows(self) -> int:
        return sum(len(r.participant_ids) for r in self.replications)

    def raw_csv(self, control_label: str = "control",
                treatment_label: str = "treatment") -> str:
        lines = [RAW_HEADER]
        for rep in self.replications:
            exp = rep.experiment_id
            for pid, c, t, has_c, has_t in zip(rep.participant_ids, rep.control.tolist(),
                                               rep.treatment.tolist(), rep.control_row.tolist(),
                                               rep.treatment_row.tolist()):
                if has_c:
                    lines.append(f"{exp},{pid},{control_label},{_cell(c)}\n")
                if has_t:
                    lines.append(f"{exp},{pid},{treatment_label},{_cell(t)}\n")
        return "".join(lines)

    def covariate_csv(self) -> str:
        lines = [COVARIATE_HEADER]
        for rep in self.replications:
            head = f"{rep.experiment_id},"
            tail = f",{rep.subject_type},"
            for pid, items in zip(rep.participant_ids, rep.covariates.tolist()):
                lines.append(f"{head}{pid}{tail}{items[0]},{items[1]},{items[2]},{items[3]}\n")
        return "".join(lines)


def _cell(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.2f}"


def _hundredths(x: np.ndarray) -> np.ndarray:
    """Round to two decimals so that the CSV text parses back to the same float."""
    return np.rint(x * 100.0) / 100.0


def make_family(rng: np.random.Generator, n_replications: int, n_participants: int,
                n_between: int) -> Family:
    """A family of replications of a two-arm experiment on a 0-100 score.

    Each participant has a skill offset shared by both arms, so within-subjects
    arms are correlated. Between-subjects replications split participants
    evenly between the arms.
    """
    designs = rng.permutation(["between"] * n_between
                              + ["within"] * (n_replications - n_between)).tolist()
    n_prof = round(n_replications * PROFESSIONAL_SHARE)
    subject_types = rng.permutation(["professional"] * n_prof
                                    + ["student"] * (n_replications - n_prof)).tolist()
    reps = []
    for j in range(n_replications):
        exp = f"E{j + 1:02d}"
        n = n_participants
        base = rng.normal(60.0, 6.0)
        effect = rng.normal(6.0, 4.0)
        skill = rng.normal(0.0, 10.0, n)
        control = _hundredths(base + skill + rng.normal(0.0, 8.0, n))
        treatment = _hundredths(base + effect + skill + rng.normal(0.0, 8.0, n))
        if designs[j] == "within":
            control_row = np.ones(n, dtype=bool)
            treatment_row = np.ones(n, dtype=bool)
            incomplete = rng.random(n) < INCOMPLETE_RATE
            drop_control = incomplete & (rng.random(n) < 0.5)
            control_row[drop_control] = False
            treatment_row[incomplete & ~drop_control] = False
        else:
            control_row = rng.permutation(n) < n // 2
            treatment_row = ~control_row
        control[~control_row | (rng.random(n) < MISSING_RATE)] = np.nan
        treatment[~treatment_row | (rng.random(n) < MISSING_RATE)] = np.nan
        level = 3.0 if subject_types[j] == "professional" else 2.2
        level += rng.normal(0.0, 0.3)
        items = np.clip(np.rint(rng.normal(level, 0.9, (n, 4))), 1, 4).astype(np.int64)
        pids = tuple(f"{exp}-P{i:05d}" for i in range(n))
        reps.append(Replication(exp, designs[j], subject_types[j], pids, control, treatment,
                                control_row, treatment_row, items))
    return Family(tuple(reps))


@dataclass(frozen=True)
class SummaryTable:
    """k aggregated studies plus the benchmark's side table (subgroup label,
    moderator, one-sided p-value and Stouffer weight per study)."""

    experiment_ids: tuple[str, ...]
    design: np.ndarray          # "within" / "between"
    n_control: np.ndarray
    n_treatment: np.ndarray
    mean_control: np.ndarray
    sd_control: np.ndarray
    mean_treatment: np.ndarray
    sd_treatment: np.ndarray
    corr: np.ndarray            # NaN for between-subjects rows
    label: tuple[str, ...]
    moderator: np.ndarray
    p_one_sided: np.ndarray
    weight: np.ndarray

    def csv(self) -> str:
        lines = [SUMMARY_HEADER]
        for i, exp in enumerate(self.experiment_ids):
            corr = "" if math.isnan(self.corr[i]) else f"{self.corr[i]:.4f}"
            lines.append(f"{exp},{self.n_control[i]},{self.n_treatment[i]},"
                         f"{self.mean_control[i]:.4f},{self.sd_control[i]:.4f},"
                         f"{self.mean_treatment[i]:.4f},{self.sd_treatment[i]:.4f},"
                         f"{corr},{self.design[i]}\n")
        return "".join(lines)

    def side_table(self) -> dict[str, list]:
        return {"experiment_id": list(self.experiment_ids), "label": list(self.label),
                "moderator": self.moderator.tolist(), "p": self.p_one_sided.tolist(),
                "weight": self.weight.tolist()}


def _decimals(x: np.ndarray, places: int) -> np.ndarray:
    """The floats that the fixed-point CSV text parses back to."""
    return np.array([float(f"{v:.{places}f}") for v in x.tolist()])


def make_summary_table(rng: np.random.Generator, k: int) -> SummaryTable:
    """Summary statistics of k small two-arm studies of mixed design.

    The true standardized effect grows with the moderator (mean experience on
    the 1..4 scale) and varies between studies (tau = 0.2).
    """
    within = rng.random(k) < 0.6
    n = rng.integers(8, 61, k)
    n_control = n.copy()
    n_treatment = np.where(within, n, np.maximum(4, n + rng.integers(-3, 4, k)))
    moderator = np.round(rng.uniform(1.5, 3.5, k), 4)
    label = tuple(np.where(rng.random(k) < 0.4, "professional", "student").tolist())
    delta = 0.3 + 0.2 * (moderator - 2.5) + rng.normal(0.0, 0.2, k)
    sigma = rng.uniform(5.0, 15.0, k)
    corr = np.where(within, np.clip(rng.normal(0.5, 0.15, k), -0.9, 0.9), np.nan)
    sd_control = sigma * np.sqrt(rng.chisquare(n_control - 1) / (n_control - 1))
    sd_treatment = sigma * np.sqrt(rng.chisquare(n_treatment - 1) / (n_treatment - 1))
    mean_control = rng.normal(50.0, 5.0, k)
    noise = sigma * np.sqrt(1.0 / n_control + 1.0 / n_treatment)
    mean_treatment = mean_control + delta * sigma + rng.normal(0.0, 1.0, k) * noise
    z = (mean_treatment - mean_control) / noise
    p = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in z.tolist()])
    return SummaryTable(
        experiment_ids=tuple(f"S{i + 1:05d}" for i in range(k)),
        design=np.where(within, "within", "between"),
        n_control=n_control, n_treatment=n_treatment,
        mean_control=_decimals(mean_control, 4), sd_control=_decimals(sd_control, 4),
        mean_treatment=_decimals(mean_treatment, 4), sd_treatment=_decimals(sd_treatment, 4),
        corr=np.where(within, _decimals(np.nan_to_num(corr), 4), np.nan),
        label=label, moderator=moderator, p_one_sided=p,
        weight=np.sqrt(n_control + n_treatment).astype(float),
    )


def exclusions(family: Family, seed: int) -> list[tuple[str, str]]:
    """About EXCLUDED_SHARE of the family's participants, chosen at random."""
    rng = rng_for(seed, STREAM_EXCLUDE)
    return [(rep.experiment_id, pid)
            for rep in family.replications
            for pid, drop in zip(rep.participant_ids,
                                 rng.random(len(rep.participant_ids)) < EXCLUDED_SHARE)
            if drop]
