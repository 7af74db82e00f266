"""The layout a loaded table gets once: loader-built records and replications
against the hand-built reference path, and the covariate columns against a
direct regroup of the rows."""

import dataclasses
import random

import numpy as np
import pytest

from replimeta import data as rd

LAYOUT = ("control", "treatment", "observed_control", "observed_treatment",
          "paired_control", "paired_treatment")


def arrays(rep):
    return dict(zip(LAYOUT, (rep.control, rep.treatment, *rep.observed, *rep.pairs)))


def masked_reference(rep):
    """The observed arms and complete pairs by NaN masks over the aligned arms."""
    c, t = np.array(rep.control), np.array(rep.treatment)
    both = ~(np.isnan(c) | np.isnan(t))
    return dict(zip(LAYOUT, (c, t, c[~np.isnan(c)], t[~np.isnan(t)], c[both], t[both])))


def same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_family(seed):
    """A raw CSV (permuted header, relabelled arms, interleaved experiments, padded
    ids, missing outcomes, absent rows, exclusions) and its parse options."""
    rng = random.Random(seed)
    labels = ("ITL", "TDD")
    rows, exclude = [], set()
    for e in range(rng.randint(1, 4)):
        exp = f"E{e}"
        for p in rng.sample(range(100), rng.randint(3, 12)):
            pid = f"p{p:02d}"
            if rng.random() < 0.1:
                exclude.add((exp, pid))
            arms = [a for a in (0, 1) if rng.random() < 0.85] or [rng.randint(0, 1)]
            for a in arms:
                cell = "" if rng.random() < 0.15 else repr(rng.uniform(-50.0, 50.0))
                rows.append([exp, f" {pid} " if rng.random() < 0.2 else pid, labels[a], cell])
    rng.shuffle(rows)
    order = [3, 1, 0, 2]
    names = ["experiment_id", "participant_id", "treatment", "outcome"]
    text = ",".join(names[i] for i in order) + "\n"
    text += "".join(",".join(row[i] for i in order) + "\n" for row in rows)
    designs = {f"E{e}": rng.choice(rd.DESIGNS) for e in range(4)}
    options = rd.ParseOptions(control_label=labels[0], treatment_label=labels[1],
                              design=designs, exclude=frozenset(exclude))
    return text, options


def load_random_family(tmp_path, seed):
    text, options = random_family(seed)
    path = tmp_path / f"raw{seed}.csv"
    path.write_text(text, encoding="utf-8")
    try:
        return rd.load_raw_dataset(path, options)
    except rd.DataError as err:  # too few participants left in some replication
        assert "needs at least 2 participants" in str(err)
        return None


@pytest.mark.parametrize("seed", range(40))
def test_loaded_records_and_layout_match_the_hand_built_reference(tmp_path, seed):
    dataset = load_random_family(tmp_path, seed)
    if dataset is None:
        return
    for rep in dataset.replications:
        for o in rep.observations:
            assert type(o) is rd.Observation and o == rd.Observation(*dataclasses.astuple(o))
        hand = rd.Replication(rep.experiment_id, rep.design, rep.observations)
        assert hand == rep and repr(hand) == repr(rep)
        assert hand.participants == rep.participants == tuple(sorted(rep.participants))
        loaded, built, reference = arrays(rep), arrays(hand), masked_reference(hand)
        for name in LAYOUT:
            assert same_bits(loaded[name], built[name]), name
            assert same_bits(built[name], reference[name]), name
            assert not loaded[name].flags.writeable
            with pytest.raises(ValueError):
                loaded[name].flags.writeable = True
        assert rep.arm_values(rd.CONTROL) == reference["observed_control"].tolist()
        assert rep.arm_values(rd.TREATMENT) == reference["observed_treatment"].tolist()


def test_loader_keeps_missing_outcomes_as_none_and_skips_excluded_rows(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("outcome,treatment,participant_id,experiment_id\n"
                    "1.5,B,p2,E1\n,A,p2,E1\n2.5,A,p1,E1\n9.0,A,p3,E1\n3.5,B,p1,E1\n",
                    encoding="utf-8")
    options = rd.ParseOptions(control_label="A", treatment_label="B",
                              exclude=frozenset({("E1", "p3")}))
    rep = rd.load_raw_dataset(path, options).replication("E1")
    assert rep.observations == (rd.Observation("E1", "p2", rd.TREATMENT, 1.5),
                                rd.Observation("E1", "p2", rd.CONTROL, None),
                                rd.Observation("E1", "p1", rd.CONTROL, 2.5),
                                rd.Observation("E1", "p1", rd.TREATMENT, 3.5))
    assert rep.participants == ("p1", "p2")
    assert [a.tolist() for a in rep.observed] == [[2.5], [3.5, 1.5]]
    assert [a.tolist() for a in rep.pairs] == [[2.5], [3.5]]


def test_layout_attributes_are_not_fields_and_replace_lays_out_again():
    obs = (rd.Observation("E1", "p1", rd.CONTROL, 1.0), rd.Observation("E1", "p1", rd.TREATMENT, 2.0),
           rd.Observation("E1", "p2", rd.CONTROL, 3.0))
    rep = rd.Replication("E1", "within", obs)
    assert [f.name for f in dataclasses.fields(rep)] == ["experiment_id", "design", "observations"]
    moved = dataclasses.replace(rep, design="between")
    assert moved.design == "between" and moved.observations == obs
    assert same_bits(moved.observed[0], rep.observed[0]) and moved.pairs[0].tolist() == [1.0]


def test_a_misfiled_observation_is_rejected_by_the_hand_built_path():
    obs = (rd.Observation("E1", "p1", rd.CONTROL, 1.0), rd.Observation("E2", "p2", rd.CONTROL, 2.0))
    with pytest.raises(rd.DataError, match="observation for 'E2' filed under replication 'E1'"):
        rd.Replication("E1", "within", obs)


def regroup(rows):
    groups = {}
    for r in rows:
        groups.setdefault(r.experiment_id, []).append(r.values)
    return tuple((exp, tuple(tuple(v[i] for v in values) for i in range(len(rd.ORDINAL_COVARIATES))))
                 for exp, values in groups.items())


@pytest.mark.parametrize("seed", range(10))
def test_covariate_columns_equal_a_direct_regroup_of_the_rows(seed):
    rng = random.Random(seed)
    rows = tuple(rd.CovariateRow(f"E{rng.randint(0, 4)}", f"p{i}", "student",
                                 tuple(rng.randint(1, 4) for _ in rd.ORDINAL_COVARIATES))
                 for i in range(rng.randint(0, 60)))
    table = rd.CovariateTable(rows)
    assert table.columns == regroup(rows)
    assert all(type(v) is int for _, columns in table.columns for c in columns for v in c)
    assert table == rd.CovariateTable(rows) and repr(table) == f"CovariateTable(rows={rows!r})"
    assert dataclasses.replace(table, rows=rows[:1]).columns == regroup(rows[:1])


def test_loaded_covariate_columns_follow_the_file(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("experiment_id,participant_id,treatment,outcome\n"
                   "E1,p1,control,1\nE1,p2,control,2\nE2,q1,treatment,3\nE2,q2,treatment,4\n",
                   encoding="utf-8")
    cov = tmp_path / "cov.csv"
    cov.write_text("junit,experiment_id,participant_id,subject_type,programming,java,unit_testing\n"
                   "1,E2,q2,student,4,3,2\n2,E1,p1, student ,1,1,1\n3.0,E1,p2,professional, 2 ,3,4\n",
                   encoding="utf-8")
    table = rd.load_covariates(cov, rd.load_raw_dataset(raw))
    assert [r.subject_type for r in table.rows] == ["student", "student", "professional"]
    assert table.columns == regroup(table.rows) == (
        ("E2", ((4,), (3,), (2,), (1,))), ("E1", ((1, 2), (1, 3), (1, 4), (2, 3))))
