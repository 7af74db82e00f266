"""Every check of the three CSV loaders, with its exact ``file:line`` message.

The loaders convert each cell once on a fast path and word an error only
when a row fails; these tests pin the messages, the rule that the first
faulty line (and within it the first faulty cell) is reported, and the
objects a valid file loads to.
"""

import re

import pytest

from replimeta import data as rd

RAW_HEADER = "experiment_id,participant_id,treatment,outcome\n"
RAW_OK = "E1,p1,control,10\nE1,p1,treatment,20\nE1,p2,control,12\nE1,p2,treatment,18\n"
SUMMARY_HEADER = ("experiment_id,n_control,n_treatment,mean_control,sd_control,"
                  "mean_treatment,sd_treatment,corr,design\n")
SUMMARY_OK = "E1,5,5,1.5,1.25,2.5,1.75,0.5,within\n"
COV_HEADER = "experiment_id,participant_id,subject_type,programming,java,unit_testing,junit\n"
COV_OK = "E1,p1,professional,3,2,2,1\n"


def write(tmp_path, text, name="f.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def raw_dataset():
    return rd.ReplicationSet((rd.Replication("E1", "within", (
        rd.Observation("E1", "p1", rd.CONTROL, 10.0), rd.Observation("E1", "p1", rd.TREATMENT, 20.0),
        rd.Observation("E1", "p2", rd.CONTROL, 12.0), rd.Observation("E1", "p2", rd.TREATMENT, 18.0),
    )),))


def load(kind, path):
    if kind == "raw":
        return rd.load_raw_dataset(path)
    if kind == "summary":
        return rd.load_summary_dataset(path)
    return rd.load_covariates(path, raw_dataset())


HEADERS = {"raw": RAW_HEADER, "summary": SUMMARY_HEADER, "covariates": COV_HEADER}
GOOD = {"raw": RAW_OK, "summary": SUMMARY_OK, "covariates": COV_OK}

# (loader, faulty row, message after "f.csv:<line>: "); the faulty row is line 3
ROW_ERRORS = [
    ("raw", "E1,p3,control,abc", "malformed outcome value 'abc'"),
    ("raw", "E1,p3,control, 1e999 ", "outcome must be finite, got '1e999'"),
    ("raw", "E1,p3,control,nan", "outcome must be finite, got 'nan'"),
    ("raw", "E1,p3,banana,1", "unknown treatment label 'banana' (expected 'control' or 'treatment')"),
    ("raw", " ,p3,control,1", "empty experiment or participant id"),
    ("raw", "E1, ,control,1", "empty experiment or participant id"),
    ("raw", "E1,p3,control", "malformed row (expected 4 fields, got 3)"),
    ("raw", "E1,p3,control,1,2", "malformed row (expected 4 fields, got 5)"),
    ("raw", "E1,p3,banana,abc", "unknown treatment label 'banana' (expected 'control' or 'treatment')"),
    ("summary", "E2,x,5,1,1,2,1,0.5,within", "malformed n_control value 'x'"),
    ("summary", "E2,5,inf,1,1,2,1,0.5,within", "n_treatment must be finite, got 'inf'"),
    ("summary", "E2,2.7,5,1,1,2,1,0.5,within", "n_control must be an integer, got '2.7'"),
    ("summary", "E2,5, 3.5 ,1,1,2,1,0.5,within", "n_treatment must be an integer, got '3.5'"),
    ("summary", "E2,5,5,one,1,2,1,0.5,within", "malformed mean_control value 'one'"),
    ("summary", "E2,5,5,1,-inf,2,1,0.5,within", "sd_control must be finite, got '-inf'"),
    ("summary", "E2,5,5,1,1,nan,1,0.5,within", "mean_treatment must be finite, got 'nan'"),
    ("summary", "E2,5,5,1,1,2,?,0.5,within", "malformed sd_treatment value '?'"),
    ("summary", "E2,5,5,1,1,2,1,inf,within", "corr must be finite, got 'inf'"),
    ("summary", "E2,5,5,1,1,2,1,r,within", "malformed corr value 'r'"),
    ("summary", "E2,2.5,5,x,1,2,1,nan,within", "corr must be finite, got 'nan'"),
    ("summary", "E2,2.5,5,x,1,2,1,0.5,within", "n_control must be an integer, got '2.5'"),
    ("summary", "E2,5,5,1,1,2,1,0.5,between", "E2: between-subjects rows must not carry corr"),
    ("summary", "E2,5,5,1,1,2,1,1.5,within", "E2: corr 1.5 outside [-1, 1]"),
    ("summary", "E2,1,5,1,1,2,1,0.5,within", "E2: each arm needs n >= 2"),
    ("summary", "E2,5,5,1,-1,2,1,0.5,within", "E2: standard deviations must be >= 0"),
    ("summary", "E2,5,5,1,1,2,1,0.5,crossover", "unknown design 'crossover' for E2"),
    ("summary", "E1,5,5,1,1,2,1,0.5,within", "duplicate summary row for 'E1'"),
    ("summary", "E2,5,5,1,1,2,1,0.5", "malformed row (expected 9 fields, got 8)"),
    ("summary", "E2,5,5,1,1,2,1,0.5,within,x", "malformed row (expected 9 fields, got 10)"),
    ("summary", " ,5,5,1,1,2,1,0.5,within", "empty experiment id"),
    ("covariates", "E1,p2,student,3,x,2,1", "malformed java value 'x'"),
    ("covariates", "E1,p2,student,3,2,inf,1", "unit_testing must be finite, got 'inf'"),
    ("covariates", "E1,p2,student,3,2,2,2.5", "junit must be an integer, got '2.5'"),
    ("covariates", "E1,p2,student,5,2,2,1", "programming must be an integer in 1..4, got 5 (E1/p2)"),
    ("covariates", "E1,p2,student,3,0,2,1", "java must be an integer in 1..4, got 0 (E1/p2)"),
    ("covariates", "E1,p2,student,0.5,2,2,x", "programming must be an integer, got '0.5'"),
    ("covariates", "E1,p2,student,9,2,2,nan", "junit must be finite, got 'nan'"),
    ("covariates", "E1,p2,teacher,3,2,2,1", "unknown subject_type 'teacher' (E1/p2)"),
    ("covariates", "E1,p1,student,3,2,2,1", "duplicate covariate row for ('E1', 'p1')"),
    ("covariates", "E1,p9,student,3,2,2,1",
     "participant 'p9' of experiment 'E1' is not present in the raw data"),
    ("covariates", "E9,p1,student,3,2,2,1",
     "participant 'p1' of experiment 'E9' is not present in the raw data"),
    ("covariates", " ,p2,student,3,2,2,1", "empty experiment or participant id"),
    ("covariates", "E1, ,student,3,2,2,1", "empty experiment or participant id"),
    ("covariates", "E1,p2,student,3,2,2", "malformed row (expected 7 fields, got 6)"),
    ("covariates", "E1,p2,student,3,2,2,1,1", "malformed row (expected 7 fields, got 8)"),
]


@pytest.mark.parametrize("kind, row, message", ROW_ERRORS)
def test_each_check_keeps_its_file_and_line_message(tmp_path, kind, row, message):
    path = write(tmp_path, HEADERS[kind] + GOOD[kind].split("\n")[0] + "\n" + row + "\n")
    with pytest.raises(rd.DataError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
        load(kind, path)


@pytest.mark.parametrize("kind, row, message", ROW_ERRORS)
def test_the_earlier_of_two_faulty_lines_is_named(tmp_path, kind, row, message):
    # the same fault on line 3 and, after a blank line, on line 5
    first = GOOD[kind].split("\n")[0]
    later = {"raw": "E1,p4,control,zzz", "summary": "E3,5,5,1,1,2,1,0.5,sideways",
             "covariates": "E1,p2,student,3,2,2,7"}[kind]
    path = write(tmp_path, HEADERS[kind] + first + "\n" + row + "\n\n" + later + "\n")
    with pytest.raises(rd.DataError, match=f"^{re.escape(str(path))}:3: "):
        load(kind, path)


def test_good_rows_after_a_fault_are_never_reached(tmp_path):
    path = write(tmp_path, RAW_HEADER + "E1,p1,control,x\n" + RAW_OK)
    with pytest.raises(rd.DataError, match=r"f\.csv:2: malformed outcome value 'x'$"):
        rd.load_raw_dataset(path)


def test_raw_file_with_permuted_header_blank_lines_and_exclusions(tmp_path):
    text = ("outcome,treatment,experiment_id,participant_id\n\n"
            "10,control,E1,p1\n 20 ,treatment,E1,p1\n\n12,control,E1,p2\n"
            ",treatment,E1,p2\n7,control,E1,p3\n1.5e1,treatment,E2,q1\n"
            "9,control,E2,q1\n3,control,E2,q2\n")
    options = rd.ParseOptions(exclude=frozenset({("E1", "p3")}))
    expected = rd.ReplicationSet((
        rd.Replication("E1", "within", (
            rd.Observation("E1", "p1", rd.CONTROL, 10.0),
            rd.Observation("E1", "p1", rd.TREATMENT, 20.0),
            rd.Observation("E1", "p2", rd.CONTROL, 12.0),
            rd.Observation("E1", "p2", rd.TREATMENT, None))),
        rd.Replication("E2", "within", (
            rd.Observation("E2", "q1", rd.TREATMENT, 15.0),
            rd.Observation("E2", "q1", rd.CONTROL, 9.0),
            rd.Observation("E2", "q2", rd.CONTROL, 3.0))),
    ))
    loaded = rd.load_raw_dataset(write(tmp_path, text), options)
    assert loaded == expected
    assert [r.participants for r in loaded.replications] == [("p1", "p2"), ("q1", "q2")]


def test_summary_file_with_permuted_header_and_blank_lines(tmp_path):
    text = ("design,corr,sd_treatment,mean_treatment,sd_control,mean_control,"
            "n_treatment,n_control,experiment_id\n\n"
            "within,0.52,1.75,2.5,1.25,1.5,5,5,E1\n\n"
            "between, ,1,2,1,1, 6.0 ,5e0,E2\n"
            "within,,1,2,1,1,4,4, E3 \n")
    assert rd.load_summary_dataset(write(tmp_path, text)) == [
        rd.SummaryRow("E1", 5, 5, 1.5, 1.25, 2.5, 1.75, 0.52, "within"),
        rd.SummaryRow("E2", 5, 6, 1.0, 1.0, 2.0, 1.0, None, "between"),
        rd.SummaryRow("E3", 4, 4, 1.0, 1.0, 2.0, 1.0, None, "within"),
    ]
    rows = rd.load_summary_dataset(write(tmp_path, text))
    assert [type(r.n_control) for r in rows] == [int] * 3


def test_covariate_file_with_permuted_header_and_blank_lines(tmp_path):
    text = ("junit,unit_testing,java,programming,subject_type,participant_id,experiment_id\n"
            "1,2,2,3,professional,p1,E1\n\n 2 ,1.0,3,4e0, student ,p2,E1\n")
    table = rd.load_covariates(write(tmp_path, text), raw_dataset())
    assert table == rd.CovariateTable((
        rd.CovariateRow("E1", "p1", "professional", (3, 2, 2, 1)),
        rd.CovariateRow("E1", "p2", "student", (4, 3, 1, 2)),
    ))
    assert [type(v) for row in table.rows for v in row.values] == [int] * 8


@pytest.mark.parametrize("kind", ["raw", "summary", "covariates"])
def test_a_utf8_byte_order_mark_is_dropped(tmp_path, kind):
    # spreadsheet "CSV UTF-8" exports begin the file with U+FEFF
    text = HEADERS[kind] + GOOD[kind]
    plain, marked = write(tmp_path, text, "plain.csv"), write(tmp_path, "\ufeff" + text, "bom.csv")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load(kind, marked) == load(kind, plain)
    # line numbers are unchanged: a short row after the good ones is named by its own line
    faulty = write(tmp_path, "\ufeff" + text + "E1\n", "faulty.csv")
    line, width = text.count("\n") + 1, HEADERS[kind].count(",") + 1
    with pytest.raises(rd.DataError, match=re.escape(
            f"{faulty}:{line}: malformed row (expected {width} fields, got 1)") + "$"):
        load(kind, faulty)


def test_the_writers_write_no_byte_order_mark(tmp_path):
    rd.save_raw_dataset(raw_dataset(), raw := tmp_path / "raw.csv")
    rd.save_summary_dataset(rd.load_summary_dataset(write(tmp_path, SUMMARY_HEADER + SUMMARY_OK)),
                            summary := tmp_path / "summary.csv")
    assert raw.read_bytes().startswith(b"experiment_id,")
    assert summary.read_bytes().startswith(b"experiment_id,")


@pytest.mark.parametrize("cell", ["3", " 3 ", "3.0", "3e0", "+3"])
def test_every_spelling_of_an_ordinal_loads_to_the_same_int(tmp_path, cell):
    # "1".."4" take a dict lookup, any other spelling the float -> int path
    text = COV_HEADER + f"E1,p1,professional,{cell},2,{cell},1\nE1,p2,student,4,{cell},1,{cell}\n"
    table = rd.load_covariates(write(tmp_path, text), raw_dataset())
    assert [row.values for row in table.rows] == [(3, 2, 3, 1), (4, 3, 1, 3)]
    assert [type(v) for row in table.rows for v in row.values] == [int] * 8


def test_covariates_spelled_as_floats_and_padded_load_like_plain_digits(tmp_path):
    from replimeta import descriptives as dsc
    raw = rd.ReplicationSet(tuple(rd.Replication(exp, "within", tuple(
        rd.Observation(exp, pid, arm, 1.0 + i) for i, pid in enumerate(("p1", "p2", "p3"))
        for arm in (rd.CONTROL, rd.TREATMENT))) for exp in ("E1", "E2")))
    plain = ("E1,p1,professional,3,2,2,1\nE2,p1,student,4,4,1,1\nE1,p2,student,1,3,4,2\n"
             "E2,p3,student,2,1,3,4\nE1,p3,professional,4,4,4,4\n")
    spelled = ("E1,p1,professional,3.0, 2 , 2 ,1.0\nE2,p1,student,4e0,4, 1.0 ,1\n"
               "E1,p2,student,1, 3 ,4.00,2e0\nE2,p3,student, 2 ,1.0,3,4\n"
               "E1,p3,professional,4,4.0,4,+4\n")
    tables = [rd.load_covariates(write(tmp_path, COV_HEADER + text, name), raw)
              for text, name in ((plain, "plain.csv"), (spelled, "spelled.csv"))]
    assert tables[0] == tables[1]
    assert [type(v) for t in tables for row in t.rows for v in row.values] == [int] * 40
    assert dsc.summarize_covariates(tables[0]) == dsc.summarize_covariates(tables[1])
    assert dsc.profile_series_covariates(tables[0]) == dsc.profile_series_covariates(tables[1])


@pytest.mark.parametrize("dataset", [None, "raw"])
def test_duplicate_covariate_rows_are_found_within_each_experiment(tmp_path, dataset):
    raw = None if dataset is None else rd.ReplicationSet(tuple(rd.Replication(exp, "within", tuple(
        rd.Observation(exp, pid, rd.CONTROL, float(i)) for i, pid in enumerate(("p1", "p2"))))
        for exp in ("E1", "E2")))
    ok = "E1,p1,student,1,2,3,4\nE2,p1,student,1,2,3,4\nE2,p2,student,1,2,3,4\n"
    assert len(rd.load_covariates(write(tmp_path, COV_HEADER + ok), raw).rows) == 3
    path = write(tmp_path, COV_HEADER + ok + "E1,p2,student,1,2,3,4\nE2,p1,student,4,4,4,4\n")
    with pytest.raises(rd.DataError, match=re.escape(
            f"{path}:6: duplicate covariate row for ('E2', 'p1')") + "$"):
        rd.load_covariates(path, raw)


@pytest.mark.parametrize("row", [" ,p2,student,3,2,2,1", "E1,  ,student,3,2,2,1", ",,student,3,2,2,1"])
def test_covariates_without_a_dataset_reject_an_empty_id(tmp_path, row):
    path = write(tmp_path, COV_HEADER + COV_OK + row + "\n")
    with pytest.raises(rd.DataError, match=f"^{re.escape(f'{path}:3: empty experiment or participant id')}$"):
        rd.load_covariates(path)


def test_loaded_rows_share_the_canonical_value_tuples_and_others_are_checked(tmp_path):
    text = COV_HEADER + "E1,p1,professional,3,2,2,1\nE1,p2,student,3,2,2,1\n"
    first, second = rd.load_covariates(write(tmp_path, text), raw_dataset()).rows
    assert first.values is second.values == (3, 2, 2, 1)
    assert rd.CovariateRow("E1", "p1", "student", first.values).values is first.values
    assert rd.CovariateRow("E1", "p1", "student", [3, 2, 2, 1]).values == (3, 2, 2, 1)
    with pytest.raises(rd.DataError, match=re.escape("programming must be an integer in 1..4, "
                                                     "got True (E1/p1)")):
        rd.CovariateRow("E1", "p1", "student", (True, 2, 2, 1))  # equal to a canonical tuple
    with pytest.raises(rd.DataError, match=re.escape("unknown subject_type 'x' (E1/p1)")):
        rd.CovariateRow("E1", "p1", "x", first.values)


@pytest.mark.parametrize("kind", ["raw", "summary", "covariates"])
def test_a_header_without_rows_is_rejected(tmp_path, kind):
    path = write(tmp_path, HEADERS[kind])
    with pytest.raises(rd.DataError, match=f"^{re.escape(f'{path}: no data rows')}$"):
        load(kind, path)
