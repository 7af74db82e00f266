import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from replimeta import data as rd


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


RAW_MINIMAL = """experiment_id,participant_id,treatment,outcome
E1,p1,control,10
E1,p1,treatment,20
E1,p2,control,12
E1,p2,treatment,18
"""


def test_load_minimal_raw(tmp_path):
    ds = rd.load_raw_dataset(write(tmp_path / "raw.csv", RAW_MINIMAL))
    assert ds.experiment_ids() == ["E1"]
    rep = ds.replication("E1")
    assert len(rep.observations) == 4
    assert rep.arm_values("control") == [10.0, 12.0]


def test_arm_values_rejects_an_unknown_arm(tmp_path):
    rep = rd.load_raw_dataset(write(tmp_path / "raw.csv", RAW_MINIMAL)).replication("E1")
    with pytest.raises(ValueError, match=r"^unknown arm 'banana' \(expected 'control' or 'treatment'\)$"):
        rep.arm_values("banana")
    assert rep.arm_values(rd.TREATMENT) == [20.0, 18.0]


def test_building_observations_allocates_no_instance_dict():
    # a slotted Observation is 64 bytes with its GC header, plus 8 for the list's pointer;
    # with an instance dict it took 112 bytes per row
    n = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = [rd.Observation("E1", "p1", rd.CONTROL, 1.5) for _ in range(n)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == n
    assert used < 96 * n


@pytest.mark.parametrize("arguments, message", [
    (("E1", "p1", "banana", 1.5), r"unknown treatment level 'banana'"),
    (("E1", "p1", rd.CONTROL, math.inf), r"outcome must be finite, got inf \(E1/p1\)"),
    (("E1", "p2", rd.TREATMENT, math.nan), r"outcome must be finite, got nan \(E1/p2\)"),
])
def test_observation_rejects_an_unknown_arm_and_a_non_finite_outcome(arguments, message):
    with pytest.raises(rd.DataError, match=f"^{message}$"):
        rd.Observation(*arguments)
    with pytest.raises(rd.DataError, match=f"^{message}$"):  # replace runs the same checks
        dataclasses.replace(rd.Observation("E1", arguments[1], rd.CONTROL, 1.5),
                            treatment=arguments[2], outcome=arguments[3])


def test_load_single_participant_both_arms_rejected(tmp_path):
    # one participant with two observations is still < 2 informative participants
    text = "experiment_id,participant_id,treatment,outcome\nE1,p1,control,1\nE1,p1,treatment,2\n"
    with pytest.raises(rd.DataError, match="at least 2"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", text))


def test_two_participants_one_observation_each_ok(tmp_path):
    text = ("experiment_id,participant_id,treatment,outcome\n"
            "E1,p1,control,1\nE1,p2,treatment,2\n")
    ds = rd.load_raw_dataset(write(tmp_path / "raw.csv", text))
    assert len(ds.replication("E1").observations) == 2


def test_empty_file_errors(tmp_path):
    with pytest.raises(rd.DataError, match="no data rows"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", "experiment_id,participant_id,treatment,outcome\n"))


def test_duplicate_triple_errors(tmp_path):
    text = RAW_MINIMAL + "E1,p1,control,11\n"
    with pytest.raises(rd.DataError, match="duplicate"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", text))


def test_unknown_treatment_label_reports_line(tmp_path):
    text = RAW_MINIMAL + "E1,p3,banana,11\n"
    with pytest.raises(rd.DataError, match=r"raw\.csv:6.*banana"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", text))


def test_nonfinite_outcome_rejected(tmp_path):
    text = RAW_MINIMAL + "E1,p3,control,inf\n"
    with pytest.raises(rd.DataError, match="finite"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", text))


def test_missing_outcomes_preserved(tmp_path):
    text = RAW_MINIMAL + "E1,p3,control,\nE1,p3,treatment,30\n"
    ds = rd.load_raw_dataset(write(tmp_path / "raw.csv", text))
    rep = ds.replication("E1")
    i = rep.participants.index("p3")
    assert math.isnan(rep.control[i])
    assert rep.treatment[i] == 30.0


def test_treatment_label_mapping(tmp_path):
    text = ("experiment_id,participant_id,treatment,outcome\n"
            "E1,p1,ITL,1\nE1,p1,TDD,2\nE1,p2,ITL,3\nE1,p2,TDD,4\n")
    opts = rd.ParseOptions(control_label="ITL", treatment_label="TDD")
    ds = rd.load_raw_dataset(write(tmp_path / "raw.csv", text), opts)
    assert ds.replication("E1").arm_values(rd.TREATMENT) == [2.0, 4.0]


def test_exclusion_list(tmp_path):
    opts = rd.ParseOptions(exclude=frozenset({("E1", "p1")}))
    text = RAW_MINIMAL + "E1,p3,control,5\nE1,p3,treatment,6\n"
    ds = rd.load_raw_dataset(write(tmp_path / "raw.csv", text), opts)
    assert ds.replication("E1").participant_ids() == ["p2", "p3"]


def test_round_trip(tmp_path):
    text = RAW_MINIMAL + "E1,p3,control,\nE1,p3,treatment,30.25\n"
    ds = rd.load_raw_dataset(write(tmp_path / "raw.csv", text))
    out = tmp_path / "out.csv"
    rd.save_raw_dataset(ds, out)
    again = rd.load_raw_dataset(out)
    assert again == ds


def test_bad_header(tmp_path):
    with pytest.raises(rd.DataError, match="header"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", "a,b,c,d\n1,2,3,4\n"))


def test_repeated_header_column_rejected(tmp_path):
    text = ("experiment_id,participant_id,treatment,outcome,outcome\n"
            "E1,p1,control,10,11\nE1,p2,control,12,13\n")
    with pytest.raises(rd.DataError, match=r"raw\.csv: header"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", text))


def test_raw_row_with_extra_field_rejected(tmp_path):
    text = RAW_MINIMAL + "E1,p3,control,5,6\n"
    with pytest.raises(rd.DataError, match=r"raw\.csv:6: malformed row \(expected 4 fields, got 5\)"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", text))


def test_row_error_counts_blank_lines(tmp_path):
    text = RAW_MINIMAL + "\nE1,p3,banana,11\n"
    with pytest.raises(rd.DataError, match=r"raw\.csv:7: unknown treatment label"):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", text))


@pytest.mark.parametrize("text, message", [
    (RAW_MINIMAL + "E1,p1,control,11\n", r"duplicate observation for \('E1', 'p1', 'control'\)"),
    ("experiment_id,participant_id,treatment,outcome\nE1,p1,control,1\nE1,p2,control,\n",
     "replication 'E1' needs at least 2 participants"),
    (RAW_MINIMAL + "E2,p1,control,1\nE2,p2,control,2\n", "no design declared for experiment 'E2'"),
], ids=["duplicate", "one-informative", "no-design"])
def test_set_level_errors_name_the_file(tmp_path, text, message):
    opts = rd.ParseOptions(design={"E1": "within"})
    with pytest.raises(rd.DataError, match=r"raw\.csv: " + message):
        rd.load_raw_dataset(write(tmp_path / "raw.csv", text), opts)


# ---------------------------------------------------------------------------
# summary CSV
# ---------------------------------------------------------------------------

SUMMARY_HEADER = ("experiment_id,n_control,n_treatment,mean_control,sd_control,"
                  "mean_treatment,sd_treatment,corr,design\n")


def test_load_summary_row(tmp_path):
    text = SUMMARY_HEADER + "F-Secure O,7,7,16.05,20.81,68.97,31.53,0.52,within\n"
    rows = rd.load_summary_dataset(write(tmp_path / "s.csv", text))
    row = rows[0]
    assert row.experiment_id == "F-Secure O"
    assert row.n_control == 7 and row.n_treatment == 7
    assert row.mean_control == 16.05 and row.mean_treatment == 68.97
    assert row.sd_control == 20.81 and row.sd_treatment == 31.53
    assert row.corr == 0.52 and row.design == "within"


def test_summary_corr_out_of_range(tmp_path):
    text = SUMMARY_HEADER + "E1,5,5,1,1,2,1,1.5,within\n"
    with pytest.raises(rd.DataError, match=r"\[-1, 1\]"):
        rd.load_summary_dataset(write(tmp_path / "s.csv", text))


def test_summary_negative_sd(tmp_path):
    text = SUMMARY_HEADER + "E1,5,5,1,-1,2,1,0.5,within\n"
    with pytest.raises(rd.DataError, match=">= 0"):
        rd.load_summary_dataset(write(tmp_path / "s.csv", text))


def test_summary_small_n(tmp_path):
    text = SUMMARY_HEADER + "E1,1,5,1,1,2,1,0.5,within\n"
    with pytest.raises(rd.DataError, match="n >= 2"):
        rd.load_summary_dataset(write(tmp_path / "s.csv", text))


def test_summary_non_integer_count_rejected(tmp_path):
    text = SUMMARY_HEADER + "E1,5,5,1,1,2,1,0.5,within\nE2,2.7,5,1,1,2,1,0.5,within\n"
    path = write(tmp_path / "s.csv", text)
    with pytest.raises(rd.DataError, match=r"s\.csv:3: n_control must be an integer, got '2\.7'$"):
        rd.load_summary_dataset(path)


def test_summary_short_row_rejected(tmp_path):
    text = SUMMARY_HEADER + "E1,5,5,1,1,2,1\n"
    with pytest.raises(rd.DataError, match=r"s\.csv:2: malformed row \(expected 9 fields, got 7\)"):
        rd.load_summary_dataset(write(tmp_path / "s.csv", text))


def test_summary_row_with_extra_field_rejected(tmp_path):
    text = SUMMARY_HEADER + "E1,5,5,1,1,2,1,0.5,within,extra\n"
    with pytest.raises(rd.DataError, match=r"s\.csv:2: malformed row \(expected 9 fields, got 10\)"):
        rd.load_summary_dataset(write(tmp_path / "s.csv", text))


def test_summary_between_without_corr(tmp_path):
    text = SUMMARY_HEADER + "E1,5,6,1,1,2,1,,between\n"
    row = rd.load_summary_dataset(write(tmp_path / "s.csv", text))[0]
    assert row.corr is None and row.design == "between"


def test_summary_between_with_corr_rejected(tmp_path):
    text = SUMMARY_HEADER + "E1,5,6,1,1,2,1,0.5,between\n"
    with pytest.raises(rd.DataError, match="must not carry corr"):
        rd.load_summary_dataset(write(tmp_path / "s.csv", text))


def test_summary_within_without_corr(tmp_path):
    text = SUMMARY_HEADER + "E1,3,3,5.0,0.0,7.0,0.0,,within\n"
    rows = rd.load_summary_dataset(write(tmp_path / "s.csv", text))
    assert rows[0].corr is None and rows[0].design == "within"
    out = tmp_path / "out.csv"
    rd.save_summary_dataset(rows, out)
    assert rd.load_summary_dataset(out) == rows


def test_summary_round_trip(tmp_path):
    text = (SUMMARY_HEADER
            + "E1,5,5,1.5,1.25,2.5,1.75,0.52,within\n"
            + "E2,5,6,1.0,1.0,2.0,1.0,,between\n")
    rows = rd.load_summary_dataset(write(tmp_path / "s.csv", text))
    out = tmp_path / "out.csv"
    rd.save_summary_dataset(rows, out)
    assert rd.load_summary_dataset(out) == rows


# ---------------------------------------------------------------------------
# covariates
# ---------------------------------------------------------------------------

COV_HEADER = "experiment_id,participant_id,subject_type,programming,java,unit_testing,junit\n"


def make_dataset():
    obs = []
    for pid, (c, t) in {"p1": (10, 20), "p2": (12, 18), "p3": (8, 40)}.items():
        obs.append(rd.Observation("E1", pid, rd.CONTROL, float(c)))
        obs.append(rd.Observation("E1", pid, rd.TREATMENT, float(t)))
    return rd.ReplicationSet((rd.Replication("E1", "within", tuple(obs)),))


def test_load_covariates_ok(tmp_path):
    text = COV_HEADER + "E1,p1,professional,3,2,2,1\nE1,p2,student,4,3,2,2\n"
    table = rd.load_covariates(write(tmp_path / "c.csv", text), make_dataset())
    assert len(table.rows) == 2
    assert table.rows[0].values[0] == 3  # programming


def test_covariate_range_error(tmp_path):
    text = COV_HEADER + "E1,p1,professional,5,2,2,1\n"
    with pytest.raises(rd.DataError, match="1..4"):
        rd.load_covariates(write(tmp_path / "c.csv", text), make_dataset())


def test_covariate_non_integer_rejected(tmp_path):
    text = COV_HEADER + "E1,p1,professional,2.5,2,2,1\n"
    with pytest.raises(rd.DataError, match=r"c\.csv:2: programming must be an integer"):
        rd.load_covariates(write(tmp_path / "c.csv", text), make_dataset())


def test_covariate_short_row_rejected(tmp_path):
    text = COV_HEADER + "E1,p1,professional,3,2\n"
    with pytest.raises(rd.DataError, match=r"c\.csv:2: malformed row \(expected 7 fields, got 5\)"):
        rd.load_covariates(write(tmp_path / "c.csv", text), make_dataset())


def test_covariate_orphan_participant(tmp_path):
    text = COV_HEADER + "E1,ghost,professional,3,2,2,1\n"
    with pytest.raises(rd.DataError, match="'ghost'"):
        rd.load_covariates(write(tmp_path / "c.csv", text), make_dataset())


# ---------------------------------------------------------------------------
# complete pairs
# ---------------------------------------------------------------------------

def test_complete_pairs_excludes_missing():
    obs = [
        rd.Observation("E1", "p1", rd.CONTROL, 10.0),
        rd.Observation("E1", "p1", rd.TREATMENT, 20.0),
        rd.Observation("E1", "p2", rd.CONTROL, 12.0),
        rd.Observation("E1", "p2", rd.TREATMENT, None),
        rd.Observation("E1", "p3", rd.CONTROL, 1.0),
        rd.Observation("E1", "p3", rd.TREATMENT, 4.0),
    ]
    pairs = rd.complete_pairs(rd.Replication("E1", "within", tuple(obs)))
    assert pairs.n_pairs == 2
    assert pairs.differences == (10.0, 3.0)  # sorted by participant id


def test_complete_pairs_full_data():
    pairs = rd.complete_pairs(make_dataset().replication("E1"))
    assert pairs.n_pairs == 3


def test_complete_pairs_all_missing_one_arm():
    obs = [
        rd.Observation("E1", "p1", rd.CONTROL, 10.0),
        rd.Observation("E1", "p2", rd.CONTROL, 12.0),
        rd.Observation("E1", "p1", rd.TREATMENT, None),
    ]
    with pytest.raises(rd.DataError, match="fewer than 2 complete pairs"):
        rd.complete_pairs(rd.Replication("E1", "within", tuple(obs)))


def test_complete_pairs_requires_within():
    rep = rd.Replication("E1", "between", make_dataset().replication("E1").observations)
    with pytest.raises(rd.DataError, match="within"):
        rd.complete_pairs(rep)


def test_complete_pairs_bounded_by_arm_counts():
    rep = make_dataset().replication("E1")
    pairs = rd.complete_pairs(rep)
    assert pairs.n_pairs <= min(len(rep.arm_values(rd.CONTROL)), len(rep.arm_values(rd.TREATMENT)))


# ---------------------------------------------------------------------------
# the aligned arm layout
# ---------------------------------------------------------------------------

def test_layout_aligns_arms_with_missing_and_absent_as_nan():
    obs = (
        rd.Observation("E1", "p2", rd.TREATMENT, 4.0),
        rd.Observation("E1", "p1", rd.CONTROL, 1.0),
        rd.Observation("E1", "p1", rd.TREATMENT, None),
        rd.Observation("E1", "p3", rd.CONTROL, 3.0),
    )
    rep = rd.Replication("E1", "within", obs)
    assert rep.participants == ("p1", "p2", "p3")
    assert [None if math.isnan(v) else v for v in rep.control] == [1.0, None, 3.0]
    assert [None if math.isnan(v) else v for v in rep.treatment] == [None, 4.0, None]
    assert math.isnan(rep.control[rep.participants.index("p2")])
    assert "p9" not in rep.participants
    assert rep.observations == obs


def test_layout_arrays_are_read_only():
    rep = make_dataset().replication("E1")
    for arm in (rep.control, rep.treatment):
        with pytest.raises(ValueError, match="read-only"):
            arm[0] = 0.0


CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
def test_copies_and_pickles_lay_out_again_with_read_only_arrays(tmp_path, clone):
    # each rebuilds a Replication from its fields, through the one layout of __init__
    text = RAW_MINIMAL + "E1,p3,control,\nE1,p3,treatment,9\nE2,q1,control,1\nE2,q2,treatment,2\n" \
                         "E2,q3,control,3\n"
    dataset = rd.load_raw_dataset(write(tmp_path / "raw.csv", text),
                                  rd.ParseOptions(design={"E1": "within", "E2": "between"}))
    twins = clone(dataset)
    assert twins == dataset and twins.experiment_ids() == ["E1", "E2"]
    assert [twins.replication(e) for e in ("E1", "E2")] == list(twins.replications)
    for rep, twin in [*zip(dataset.replications, twins.replications),
                      (dataset.replications[0], clone(dataset.replications[0]))]:
        assert twin == rep and twin.participants == rep.participants
        for got, want in zip((twin.control, twin.treatment, *twin.observed, *twin.pairs),
                             (rep.control, rep.treatment, *rep.observed, *rep.pairs)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.float64 and not got.flags.writeable


def test_replication_rejects_duplicate_participant_arm():
    obs = (
        rd.Observation("E1", "p1", rd.CONTROL, 1.0),
        rd.Observation("E1", "p1", rd.TREATMENT, 2.0),
        rd.Observation("E1", "p2", rd.CONTROL, 3.0),
        rd.Observation("E1", "p2", rd.TREATMENT, 4.0),
        rd.Observation("E1", "p1", rd.CONTROL, 9.0),
    )
    with pytest.raises(rd.DataError, match=r"duplicate observation for \('E1', 'p1', 'control'\)"):
        rd.Replication("E1", "within", obs)


def test_replication_set_rejects_repeated_experiment_id():
    rep = make_dataset().replication("E1")
    with pytest.raises(rd.DataError, match="duplicate replication 'E1'"):
        rd.ReplicationSet((rep, rd.Replication("E1", "between", rep.observations)))


# ---------------------------------------------------------------------------
# the SummaryRow record
# ---------------------------------------------------------------------------

ROW = rd.SummaryRow("E1", 5, 6, 1.5, 1.25, 2.5, 1.75, 0.5, "within", 1.0, 2.0)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(rd.SummaryRow)])
def test_summary_row_fields_are_frozen(field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(ROW, field, getattr(ROW, field))


def test_summary_row_replace_still_validates():
    with pytest.raises(rd.DataError, match="E1: standard deviations must be >= 0"):
        dataclasses.replace(ROW, sd_control=-1.0)
    assert dataclasses.replace(ROW, n_control=7).n_control == 7


def test_summary_row_equality_hash_and_repr_match_keyword_construction():
    keywords = rd.SummaryRow(experiment_id="E1", n_control=5, n_treatment=6, mean_control=1.5,
                             sd_control=1.25, mean_treatment=2.5, sd_treatment=1.75, corr=0.5,
                             design="within", median_control=1.0, median_treatment=2.0)
    assert ROW == keywords and hash(ROW) == hash(keywords)
    assert repr(ROW) == repr(keywords) == (
        "SummaryRow(experiment_id='E1', n_control=5, n_treatment=6, mean_control=1.5, "
        "sd_control=1.25, mean_treatment=2.5, sd_treatment=1.75, corr=0.5, design='within', "
        "median_control=1.0, median_treatment=2.0)")
    no_medians = rd.SummaryRow("E1", 5, 6, 1.5, 1.25, 2.5, 1.75, 0.5, "within")
    assert no_medians == dataclasses.replace(ROW, median_control=None, median_treatment=None)


@pytest.mark.parametrize("field", ["mean_control", "sd_control", "mean_treatment", "sd_treatment"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_summary_row_rejects_non_finite_moments(field, value):
    if field.startswith("sd") and value == -math.inf:
        message = "E1: standard deviations must be >= 0"
    else:
        message = "E1: means and standard deviations must be finite"
    with pytest.raises(rd.DataError, match=f"^{message}$"):
        dataclasses.replace(ROW, **{field: value})


@pytest.mark.parametrize("field", ["n_control", "n_treatment"])
def test_summary_row_rejects_a_nan_count(field):
    for value in (math.nan, math.inf, 2.5):
        with pytest.raises(rd.DataError, match="^E1: each arm needs n >= 2$"):
            dataclasses.replace(ROW, **{field: value})


# ---------------------------------------------------------------------------
# headers in any column order
# ---------------------------------------------------------------------------

def permuted_csv(text, order):
    """The same CSV with its columns rearranged as `order` (indices)."""
    lines = [line.split(",") for line in text.strip().split("\n")]
    return "\n".join(",".join(cells[i] for i in order) for cells in lines) + "\n"


RAW_TWO_EXPERIMENTS = RAW_MINIMAL + "E2,q1,control,1\nE2,q1,treatment,\nE2,q2,control,3\n"


@pytest.mark.parametrize("order", [(3, 1, 0, 2), (2, 3, 1, 0)])
def test_raw_loader_reads_header_in_any_order(tmp_path, order):
    expected = rd.load_raw_dataset(write(tmp_path / "a.csv", RAW_TWO_EXPERIMENTS))
    permuted = write(tmp_path / "b.csv", permuted_csv(RAW_TWO_EXPERIMENTS, order))
    assert rd.load_raw_dataset(permuted) == expected


@pytest.mark.parametrize("order", [(8, 7, 6, 5, 4, 3, 2, 1, 0), (4, 0, 8, 2, 6, 1, 7, 3, 5)])
def test_summary_loader_reads_header_in_any_order(tmp_path, order):
    text = (SUMMARY_HEADER + "E1,5,5,1.5,1.25,2.5,1.75,0.52,within\n"
            + "E2,5,6,1.0,1.0,2.0,1.0,,between\n")
    expected = rd.load_summary_dataset(write(tmp_path / "a.csv", text))
    permuted = write(tmp_path / "b.csv", permuted_csv(text, order))
    assert rd.load_summary_dataset(permuted) == expected
    assert [r.corr for r in expected] == [0.52, None]


@pytest.mark.parametrize("order", [(6, 5, 4, 3, 2, 1, 0), (2, 0, 5, 1, 3, 6, 4)])
def test_covariate_loader_reads_header_in_any_order(tmp_path, order):
    text = COV_HEADER + "E1,p1,professional,3,2,2,1\nE1,p2,student,4,3,1,2\n"
    expected = rd.load_covariates(write(tmp_path / "a.csv", text), make_dataset())
    permuted = write(tmp_path / "b.csv", permuted_csv(text, order))
    assert rd.load_covariates(permuted, make_dataset()) == expected
    assert expected.rows[1].values == (4, 3, 1, 2)


def test_permuted_header_keeps_line_numbers_in_messages(tmp_path):
    text = permuted_csv(SUMMARY_HEADER + "E1,5,5,1,1,2,1,0.5,within\nE2,2.7,5,1,1,2,1,0.5,within\n",
                        (8, 7, 6, 5, 4, 3, 2, 1, 0))
    with pytest.raises(rd.DataError, match=r"s\.csv:3: n_control must be an integer, got '2\.7'$"):
        rd.load_summary_dataset(write(tmp_path / "s.csv", text))


# ---------------------------------------------------------------------------
# validated records cannot change under a summary computed from them
# ---------------------------------------------------------------------------

def test_covariate_values_are_a_read_only_copy():
    values = [4, 2, 2, 1]
    row = rd.CovariateRow("E1", "p1", "student", values)
    with pytest.raises(TypeError):
        row.values[1] = 9
    values[1] = 9  # the caller's list is not the row's
    assert row.values == (4, 2, 2, 1)
    assert dataclasses.replace(row, subject_type="professional").values == row.values
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.values = values


@pytest.mark.parametrize("values, message", [
    ({"programming": 4, "java": 2, "unit_testing": 2, "junit": 1},
     "programming must be an integer in 1..4, got 'programming'"),
    ((4, 2, 2), r"expected one value for each of .*, got \(4, 2, 2\)"),
    ((4, 2.5, 2, 1), "java must be an integer in 1..4, got 2.5"),
    ((4, 2, 2, 5), "junit must be an integer in 1..4, got 5"),
])
def test_covariate_row_rejects_values_that_are_not_four_ordinals(values, message):
    with pytest.raises(rd.DataError, match=message + r" \(E1/p1\)$"):
        rd.CovariateRow("E1", "p1", "student", values)


def test_loaded_covariates_cannot_be_edited_after_validation(tmp_path):
    text = COV_HEADER + "E1,p1,professional,3,2,2,1\nE1,p2,student,4,3,1,2\n"
    table = rd.load_covariates(write(tmp_path / "c.csv", text), make_dataset())
    with pytest.raises(TypeError):
        table.rows[0].values[1] = 9
    from replimeta.descriptives import summarize_covariates
    assert summarize_covariates(table)[0].mean("java") == 2.5


def test_layout_arrays_cannot_be_made_writeable():
    rep = make_dataset().replication("E1")
    for arm in (rep.control, rep.treatment):
        with pytest.raises(ValueError):
            arm.flags.writeable = True
        assert arm.dtype == np.float64 and not arm.flags.writeable


@pytest.mark.parametrize("labels", [("B", "B"), (rd.CONTROL, rd.CONTROL)])
def test_parse_options_reject_equal_control_and_treatment_labels(labels):
    with pytest.raises(rd.DataError, match=f"control and treatment labels must differ, "
                                           f"both are '{labels[0]}'"):
        rd.ParseOptions(control_label=labels[0], treatment_label=labels[1])
    with pytest.raises(rd.DataError, match="labels must differ"):
        rd.ParseOptions(control_label=rd.TREATMENT)


def test_replication_rejects_an_unknown_design():
    obs = make_dataset().replication("E1").observations
    with pytest.raises(rd.DataError, match="^unknown design 'sideways' for E1$"):
        rd.Replication("E1", "sideways", obs)


def test_replication_set_rejects_an_empty_set():
    with pytest.raises(rd.DataError, match="^a replication set needs at least one replication$"):
        rd.ReplicationSet(())
