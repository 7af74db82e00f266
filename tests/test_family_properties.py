"""Property tests of the per-replication reductions on random families.

Families carry missing outcomes, absent rows, incomplete pairs and constant
arms made of values such as 0.1 and 0.7, whose floating-point mean is not
exact. Every reduction is checked against the standard library's exact
``statistics`` routines and against scipy.
"""

import statistics
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replimeta import data as rd
from replimeta import descriptives as dsc
from replimeta.individual import independent_t_test, paired_t_test

scipy_stats = pytest.importorskip("scipy.stats")

TIGHT = {"rel": 1e-12, "abs": 1e-12}  # outcomes are O(1), so abs is relative to their scale
ABSENT, MISSING = "absent", "missing"
tenths = st.integers(-50, 50).map(lambda i: i / 10)
cell = st.one_of(st.just(ABSENT), st.just(MISSING), tenths, tenths, tenths)


@st.composite
def replications(draw, experiment_id):
    n = draw(st.integers(2, 10))
    arms = {}
    for arm in (rd.CONTROL, rd.TREATMENT):
        cells = draw(st.lists(cell, min_size=n, max_size=n))
        if draw(st.booleans()):  # a constant arm
            level = draw(st.sampled_from([0.1, 0.7, 1.3]))
            cells = [c if c in (ABSENT, MISSING) else level for c in cells]
        arms[arm] = cells
    obs = [rd.Observation(experiment_id, f"p{i:02d}", arm, None if c == MISSING else c)
           for i in draw(st.permutations(range(n)))
           for arm, cells in arms.items() if (c := cells[i]) != ABSENT]
    informative = [i for i in range(n)
                   if any(cells[i] not in (ABSENT, MISSING) for cells in arms.values())]
    if len(informative) < 2:  # give the replication its 2 informative participants
        obs += [rd.Observation(experiment_id, f"q{i}", rd.CONTROL, 2.0 + i) for i in range(2)]
    return rd.Replication(experiment_id, draw(st.sampled_from(rd.DESIGNS)), tuple(obs))


@st.composite
def families(draw):
    k = draw(st.integers(1, 4))
    return rd.ReplicationSet(tuple(draw(replications(f"E{i + 1}")) for i in range(k)))


def oracle_pairs(rep):
    """(control, treatment) lists of complete pairs, by participant id, from
    the observation rows alone."""
    cells = {(o.participant_id, o.treatment): o.outcome for o in rep.observations}
    pids = sorted({pid for pid, _ in cells})
    both = [(cells.get((p, rd.CONTROL)), cells.get((p, rd.TREATMENT))) for p in pids]
    both = [(c, t) for c, t in both if c is not None and t is not None]
    return [c for c, _ in both], [t for _, t in both]


def oracle_arm(rep, arm):
    return [o.outcome for o in sorted(rep.observations, key=lambda o: o.participant_id)
            if o.treatment == arm and o.outcome is not None]


def check_summary(rep):
    control, treatment = oracle_arm(rep, rd.CONTROL), oracle_arm(rep, rd.TREATMENT)
    assert rep.arm_values(rd.CONTROL) == control
    assert rep.arm_values(rd.TREATMENT) == treatment
    if len(control) < 2 or len(treatment) < 2:
        with pytest.raises(ValueError, match="at least 2"):
            dsc.summarize_replication(rep)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = dsc.summarize_replication(rep)
    for values, n, mean, sd, median in (
            (control, s.n_control, s.mean_control, s.sd_control, s.median_control),
            (treatment, s.n_treatment, s.mean_treatment, s.sd_treatment, s.median_treatment)):
        assert n == len(values)
        assert mean == pytest.approx(statistics.fmean(values), **TIGHT)
        assert median == pytest.approx(statistics.median(values), **TIGHT)
        assert sd == pytest.approx(statistics.stdev(values), **TIGHT)
        assert (sd == 0.0) == (len(set(values)) == 1)
    undefined_warnings = [w for w in caught if issubclass(w.category, dsc.AnalysisWarning)
                          and "paired correlation undefined" in str(w.message)]
    if rep.design == "between":
        assert s.corr is None and undefined_warnings == []
        return
    pc, pt = oracle_pairs(rep)
    undefined = len(pc) < 2 or len(set(pc)) == 1 or len(set(pt)) == 1
    assert (s.corr is None) == undefined
    assert len(undefined_warnings) == int(undefined)
    if not undefined:
        assert s.corr == pytest.approx(scipy_stats.pearsonr(pc, pt).statistic, abs=1e-12)


def check_t_tests(rep):
    control, treatment = rep.arm_values(rd.CONTROL), rep.arm_values(rd.TREATMENT)
    if len(control) >= 2 and len(treatment) >= 2:
        if len(set(control)) == 1 and len(set(treatment)) == 1:
            with pytest.raises(ValueError, match="zero variance"):
                independent_t_test(control, treatment)
        else:
            res = independent_t_test(control, treatment)
            check_test(res, scipy_oracle(scipy_stats.ttest_ind, treatment, control,
                                         equal_var=False))
    pc, pt = oracle_pairs(rep)
    if rep.design != "within" or len(pc) < 2:
        return
    sample = rd.complete_pairs(rep)
    assert sample.differences == tuple(t - c for c, t in zip(pc, pt))
    if len(set(sample.differences)) == 1:
        with pytest.raises(ValueError, match="zero variance"):
            paired_t_test(sample)
    else:
        check_test(paired_t_test(sample), scipy_oracle(scipy_stats.ttest_rel, pt, pc))


def check_profile(family):
    """The outcome profile holds the summaries' arm means, bit for bit."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dsc.AnalysisWarning)
            summaries = [dsc.summarize_replication(rep) for rep in family.replications]
    except ValueError:
        with pytest.raises(ValueError, match="at least 2"):
            dsc.profile_series_outcomes(family)
        return
    assert dsc.profile_series_outcomes(family).rows == tuple(
        (s.experiment_id, (s.mean_control, s.mean_treatment)) for s in summaries)


def scipy_oracle(test, *args, **kwargs):
    # scipy reports "precision loss" for a constant arm of values such as 0.1,
    # whose mean is inexact, and then uses a variance of order 1e-32 where the
    # program uses exactly 0; the tolerances below absorb that difference
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return test(*args, **kwargs)


def check_test(res, oracle):
    assert res.p_value == pytest.approx(max(oracle.pvalue, 1e-300), abs=1e-10)
    assert res.df == pytest.approx(oracle.df, rel=1e-12)
    lo, hi = oracle.confidence_interval(0.95)
    assert res.ci_low == pytest.approx(lo, abs=1e-9)
    assert res.ci_high == pytest.approx(hi, abs=1e-9)


@given(families())
@settings(max_examples=200, deadline=None)
def test_reductions_match_statistics_and_scipy(family):
    for rep in family.replications:
        check_summary(rep)
        check_t_tests(rep)
    check_profile(family)
