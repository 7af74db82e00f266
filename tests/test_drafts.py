"""Records that the loaders and the effect-size functions build as drafts.

Every record an internal path returns must be a real instance of its frozen
class, equal (and hash-equal) to the record its public ``__init__`` builds from
the same fields, and must survive ``pickle`` and ``deepcopy``.
"""

import copy
import dataclasses
import pickle

import pytest

from replimeta import data as rd
from replimeta import effects as ef

RAW = ("experiment_id,participant_id,treatment,outcome\n"
       "E1,p1,control,10\nE1,p1,treatment,\nE1,p2,control,12.5\nE1,p2,treatment,18\n"
       "E2,q1,control,3\nE2,q2,treatment,4\n")
# the first row takes the covariate loader's fast path, the second its checked one
COVARIATES = ("experiment_id,participant_id,subject_type,programming,java,unit_testing,junit\n"
              "E1,p1,professional,3,2,2,1\nE1,p2, student , 4 ,1,1.0,2\n")
SUMMARY = ("experiment_id,n_control,n_treatment,mean_control,sd_control,"
           "mean_treatment,sd_treatment,corr,design\n"
           "W,5,6,1.5,1.25,2.5,1.75,0.5,within\nB,8,7,3,1,4.25,2,,between\n")

CLASSES = {
    "load_raw_dataset": rd.Observation,
    "load_covariates": rd.CovariateRow,
    "load_summary_dataset": rd.SummaryRow,
    "repeated_measures_d": ef.EffectSize,
    "between_subjects_d": ef.EffectSize,
    "hedges_correction": ef.EffectSize,
}


def built(tmp_path):
    """The records that each internal path returns, by the path's name."""
    files = {}
    for name, text in (("raw", RAW), ("covariates", COVARIATES), ("summary", SUMMARY)):
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text(text, encoding="utf-8")
    dataset = rd.load_raw_dataset(files["raw"], rd.ParseOptions(design={"E1": "within",
                                                                        "E2": "between"}))
    within, between = rows = rd.load_summary_dataset(files["summary"])
    d_w, d_b = ef.repeated_measures_d(within), ef.between_subjects_d(between)
    return {
        "load_raw_dataset": [o for rep in dataset.replications for o in rep.observations],
        "load_covariates": list(rd.load_covariates(files["covariates"], dataset).rows),
        "load_summary_dataset": rows,
        "repeated_measures_d": [d_w],
        "between_subjects_d": [d_b],
        "hedges_correction": [ef.hedges_correction(d_w, 4.0), ef.hedges_correction(d_b, 13)],
    }


@pytest.mark.parametrize("path", CLASSES)
def test_each_built_record_keeps_the_dataclass_contract(tmp_path, path):
    cls, records = CLASSES[path], built(tmp_path)[path]
    assert records
    for record in records:
        assert type(record) is cls
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
        twin = cls(*dataclasses.astuple(record))
        assert record == twin and hash(record) == hash(twin) and repr(record) == repr(twin)
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is cls and copied == record and hash(copied) == hash(record)


@pytest.mark.parametrize("cls, draft", [
    (rd.Observation, rd._ObservationDraft), (rd.SummaryRow, rd._SummaryRowDraft),
    (rd.CovariateRow, rd._CovariateRowDraft), (ef.EffectSize, ef._EffectSizeDraft),
], ids=lambda c: c.__name__)
def test_each_draft_has_its_record_slots(cls, draft):
    assert draft.__slots__ == cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
    assert draft.__bases__ == (object,) and not hasattr(draft(), "__dict__")


def test_a_rejected_public_construction_leaves_a_record_untouched():
    # the checks run before the instance is retyped as a draft
    record = ef.EffectSize("E1", 0.4, 0.1, 20)
    with pytest.raises(ValueError, match="effective n must be >= 2"):
        record.__init__("E1", 0.5, 0.1, 1)
    assert type(record) is ef.EffectSize and record == ef.EffectSize("E1", 0.4, 0.1, 20)
