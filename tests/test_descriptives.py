import dataclasses
import math
import random
import statistics
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replimeta import data as rd
from replimeta import descriptives as dsc


def within_replication(control, treatment, experiment_id="E1"):
    obs = []
    for i, (c, t) in enumerate(zip(control, treatment)):
        pid = f"p{i:02d}"
        obs.append(rd.Observation(experiment_id, pid, rd.CONTROL, c))
        obs.append(rd.Observation(experiment_id, pid, rd.TREATMENT, t))
    return rd.Replication(experiment_id, "within", tuple(obs))


def test_summarize_replication_basic():
    rep = within_replication([10.0, 12.0, 8.0, 14.0], [20.0, 18.0, 16.0, 30.0])
    s = dsc.summarize_replication(rep)
    assert s.n_control == 4 and s.n_treatment == 4
    assert s.mean_control == pytest.approx(11.0)
    assert s.mean_treatment == pytest.approx(21.0)
    assert s.sd_control == pytest.approx(statistics.stdev([10, 12, 8, 14]))
    assert s.median_control == pytest.approx(11.0)
    assert s.median_treatment == pytest.approx(19.0)


def test_summarize_uses_complete_pairs_for_corr():
    rep = within_replication([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
    # perfectly correlated pairs
    assert dsc.summarize_replication(rep).corr == pytest.approx(1.0)


def test_perfect_pairing_two_points():
    rep = within_replication([0.0, 100.0], [0.0, 100.0])
    assert dsc.summarize_replication(rep).corr == pytest.approx(1.0)


def test_constant_arms_corr_missing_with_warning():
    rep = within_replication([5.0, 5.0, 5.0], [7.0, 7.0, 7.0])
    with pytest.warns(dsc.AnalysisWarning, match="undefined"):
        s = dsc.summarize_replication(rep)
    assert s.corr is None
    assert s.sd_control == 0.0


def test_constant_paired_arms_with_varying_unpaired_outcome():
    # p1 and p2 are paired and constant; p3 (control only) and p4 (treatment
    # only) widen the whole-arm spread without entering the correlation
    obs = (
        rd.Observation("E1", "p1", rd.CONTROL, 5.0),
        rd.Observation("E1", "p1", rd.TREATMENT, 7.0),
        rd.Observation("E1", "p2", rd.CONTROL, 5.0),
        rd.Observation("E1", "p2", rd.TREATMENT, 7.0),
        rd.Observation("E1", "p3", rd.CONTROL, 9.0),
        rd.Observation("E1", "p4", rd.TREATMENT, 8.0),
    )
    with pytest.warns(dsc.AnalysisWarning, match="undefined.*constant paired arm"):
        s = dsc.summarize_replication(rd.Replication("E1", "within", obs))
    assert s.corr is None
    assert s.sd_control == pytest.approx(statistics.stdev([5.0, 5.0, 9.0]))
    assert s.sd_control > 0


def test_fewer_than_two_pairs_corr_missing_with_warning():
    obs = (
        rd.Observation("E1", "p1", rd.CONTROL, 1.0),
        rd.Observation("E1", "p1", rd.TREATMENT, 2.0),
        rd.Observation("E1", "p2", rd.CONTROL, 3.0),
        rd.Observation("E1", "p3", rd.TREATMENT, 5.0),
    )
    with pytest.warns(dsc.AnalysisWarning, match="undefined.*fewer than 2 complete pairs"):
        s = dsc.summarize_replication(rd.Replication("E1", "within", obs))
    assert s.corr is None
    assert s.n_control == 2 and s.n_treatment == 2


def test_insufficient_arm_errors():
    obs = (
        rd.Observation("E1", "p1", rd.CONTROL, 1.0),
        rd.Observation("E1", "p2", rd.CONTROL, 2.0),
        rd.Observation("E1", "p1", rd.TREATMENT, 3.0),
    )
    with pytest.raises(ValueError, match="at least 2"):
        dsc.summarize_replication(rd.Replication("E1", "within", obs))


def test_means_match_naive_recomputation():
    control = [3.5, 9.25, 1.0, 7.75, 2.0]
    treatment = [4.0, 11.0, 0.5, 9.0, 6.25]
    s = dsc.summarize_replication(within_replication(control, treatment))
    assert s.mean_control == pytest.approx(sum(control) / len(control), abs=1e-12)
    assert s.mean_treatment == pytest.approx(sum(treatment) / len(treatment), abs=1e-12)


@given(st.floats(-50, 50))
@settings(max_examples=30)
def test_shift_invariance(c):
    control = [10.0, 12.0, 8.0, 14.0]
    treatment = [20.0, 18.0, 16.0, 30.0]
    base = dsc.summarize_replication(within_replication(control, treatment))
    shifted = dsc.summarize_replication(
        within_replication([x + c for x in control], [x + c for x in treatment]))
    assert shifted.mean_control == pytest.approx(base.mean_control + c, abs=1e-9)
    assert shifted.median_treatment == pytest.approx(base.median_treatment + c, abs=1e-9)
    assert shifted.sd_control == pytest.approx(base.sd_control, abs=1e-9)
    assert shifted.corr == pytest.approx(base.corr, abs=1e-9)


@given(st.floats(0.1, 20), st.floats(-30, 30))
@settings(max_examples=30)
def test_corr_affine_invariance(a, b):
    control = [10.0, 12.0, 8.0, 14.0]
    treatment = [20.0, 18.0, 16.0, 30.0]
    base = dsc.summarize_replication(within_replication(control, treatment))
    scaled = dsc.summarize_replication(
        within_replication([a * x + b for x in control], treatment))
    assert scaled.corr == pytest.approx(base.corr, abs=1e-9)


# ---------------------------------------------------------------------------
# covariate summaries
# ---------------------------------------------------------------------------

def cov_table():
    rows = [
        rd.CovariateRow("E1", "p1", "professional", (4, 2, 2, 1)),
        rd.CovariateRow("E1", "p2", "professional", (3, 3, 2, 2)),
        rd.CovariateRow("E2", "q1", "student", (2, 2, 2, 2)),
        rd.CovariateRow("E2", "q2", "student", (2, 2, 2, 2)),
    ]
    return rd.CovariateTable(tuple(rows))


def test_summarize_covariates():
    summaries = dsc.summarize_covariates(cov_table())
    by_id = {s.experiment_id: s for s in summaries}
    assert by_id["E1"].mean("programming") == pytest.approx(3.5)
    assert by_id["E1"].sd("programming") == pytest.approx(statistics.stdev([4, 3]))
    assert by_id["E2"].mean("java") == pytest.approx(2.0)
    assert by_id["E2"].sd("java") == 0.0


def test_single_participant_warns():
    table = rd.CovariateTable((cov_table().rows[0],))
    with pytest.warns(dsc.AnalysisWarning, match="single"):
        summaries = dsc.summarize_covariates(table)
    assert summaries[0].sd("java") == 0.0


def test_profile_series_covariates_order():
    series = dsc.profile_series_covariates(cov_table())
    assert series.categories == ("programming", "java", "unit_testing", "junit")
    assert series.rows[0][0] == "E1"
    assert series.rows[0][1] == pytest.approx((3.5, 2.5, 2.0, 1.5))


def test_profile_series_outcomes():
    reps = (
        within_replication([10.0, 12.0], [20.0, 22.0], "E1"),
        within_replication([5.0, 7.0], [9.0, 11.0], "E2"),
    )
    series = dsc.profile_series_outcomes(rd.ReplicationSet(reps))
    assert series.categories == (rd.CONTROL, rd.TREATMENT)
    assert dict((e, v) for e, v in series.rows) == {
        "E1": pytest.approx((11.0, 21.0)),
        "E2": pytest.approx((6.0, 10.0)),
    }
    # one polyline per experiment, one y per category
    assert all(len(v) == 2 for _, v in series.rows)


def test_profile_series_outcomes_keeps_constant_arm_replication():
    reps = (
        within_replication([10.0, 12.0], [20.0, 22.0], "E1"),
        within_replication([5.0, 5.0, 5.0], [7.0, 7.0, 7.0], "E2"),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = dsc.profile_series_outcomes(rd.ReplicationSet(reps))
    assert caught == []  # the profile computes no correlation, so none is undefined
    assert dict(series.rows) == {
        "E1": pytest.approx((11.0, 21.0)),
        "E2": pytest.approx((5.0, 7.0)),
    }


def random_covariate_table(rng):
    """Groups of 1 to 40 rows of ordinals in 1..4; about a third of the columns
    are held constant, and about one group in five has a single row."""
    rows = []
    for g in range(rng.randint(1, 6)):
        n = 1 if rng.random() < 0.2 else rng.randint(2, 40)
        constant = [rng.randint(1, 4) if rng.random() < 0.3 else None
                    for _ in rd.ORDINAL_COVARIATES]
        for i in range(n):
            values = tuple(c or rng.randint(1, 4) for c in constant)
            rows.append(rd.CovariateRow(f"E{g}", f"p{i}", "student", values))
    return rd.CovariateTable(tuple(rows))


@pytest.mark.parametrize("seed", range(40))
def test_covariate_summaries_equal_statistics_bit_for_bit(seed):
    table = random_covariate_table(random.Random(seed))
    columns = {}
    for r in table.rows:
        for name, v in zip(rd.ORDINAL_COVARIATES, r.values):
            columns.setdefault(r.experiment_id, {}).setdefault(name, []).append(v)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summaries = dsc.summarize_covariates(table)
        profile = dsc.profile_series_covariates(table)
    singles = [exp for exp, cols in columns.items() if len(cols["java"]) == 1]
    assert [str(w.message) for w in caught] == [f"{exp}: single covariate row; sd reported as 0"
                                                for exp in singles] * 2
    assert [s.experiment_id for s in summaries] == list(columns)
    for s in summaries:
        for name, xs in columns[s.experiment_id].items():
            assert s.mean(name) == statistics.fmean(xs)
            assert s.sd(name) == (statistics.stdev(xs) if len(xs) > 1 else 0.0)
    assert profile.rows == tuple(
        (s.experiment_id, tuple(s.mean(name) for name in rd.ORDINAL_COVARIATES)) for s in summaries)


# ---------------------------------------------------------------------------
# summaries computed on every call, from records they leave unchanged
# ---------------------------------------------------------------------------

def warned(call, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [(w.category, str(w.message)) for w in caught]


def test_repeated_summaries_are_equal_and_warn_every_time():
    rep = within_replication([5.0, 5.0, 5.0], [7.0, 8.0, 9.0], "E2")
    first, first_warnings = warned(dsc.summarize_replication, rep)
    again, again_warnings = warned(dsc.summarize_replication, rep)
    assert again == first
    assert first_warnings == again_warnings == [
        (dsc.AnalysisWarning, "E2: paired correlation undefined (constant paired arm); "
                              "reported as missing")]
    table = rd.CovariateTable((cov_table().rows[0], *cov_table().rows[2:]))
    first, first_warnings = warned(dsc.summarize_covariates, table)
    again, again_warnings = warned(dsc.summarize_covariates, table)
    assert again == first
    assert first_warnings == again_warnings == [
        (dsc.AnalysisWarning, "E1: single covariate row; sd reported as 0")]


def test_warnings_as_errors_raise_on_every_call():
    rep = within_replication([5.0, 5.0], [7.0, 8.0])
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", dsc.AnalysisWarning)
            with pytest.raises(dsc.AnalysisWarning, match="paired correlation undefined"):
                dsc.summarize_replication(rep)


def test_profiles_reuse_the_summaries():
    reps = rd.ReplicationSet((within_replication([10.0, 12.0], [20.0, 23.0], "E1"),))
    row = dsc.summarize_replication(reps.replications[0])
    table = cov_table()
    summaries = dsc.summarize_covariates(table)
    assert dsc.profile_series_outcomes(reps).rows == (("E1", (row.mean_control, row.mean_treatment)),)
    assert dsc.profile_series_covariates(table).rows[1] == (
        "E2", tuple(summaries[1].mean(name) for name in rd.ORDINAL_COVARIATES))


def test_a_raised_error_is_not_kept():
    observations = (rd.Observation("E1", "p1", rd.CONTROL, 1.0),
                    rd.Observation("E1", "p2", rd.CONTROL, 2.0),
                    rd.Observation("E1", "p3", rd.TREATMENT, 3.0))
    rep = rd.Replication("E1", "between", observations)
    for _ in range(2):
        with pytest.raises(ValueError, match="E1: need at least 2 non-missing outcomes per arm"):
            dsc.summarize_replication(rep)
    with pytest.raises(ValueError, match="covariate table is empty"):
        dsc.summarize_covariates(rd.CovariateTable(()))


def test_summarizing_leaves_equality_hash_repr_and_replace_unchanged():
    rep, twin = (within_replication([1.0, 3.0, 2.0], [2.0, 5.0, 4.0]) for _ in range(2))
    table, table_twin = cov_table(), cov_table()
    before = (hash(rep), repr(rep), repr(table))
    dsc.summarize_replication(rep)
    dsc.summarize_covariates(table)
    assert (hash(rep), repr(rep), repr(table)) == before
    assert rep == twin and hash(rep) == hash(twin) and table == table_twin
    assert hash(table) == hash(table_twin)  # tuple values make the table hashable
    replaced = dataclasses.replace(rep, experiment_id="E9", observations=tuple(
        dataclasses.replace(o, experiment_id="E9") for o in rep.observations))
    assert dsc.summarize_replication(replaced).experiment_id == "E9"
    assert dataclasses.replace(table) == table


def test_summarizing_and_profiling_leave_the_records_unchanged():
    reps = (within_replication([5.0, 5.0, 5.0], [7.0, 8.0, 9.0], "E1"),
            within_replication([1.0, 3.0, 2.0], [2.0, 5.0, 4.0], "E2"))
    dataset, table = rd.ReplicationSet(reps), rd.CovariateTable((cov_table().rows[0],))
    records = (*reps, table)
    before = [dict(vars(record)) for record in records]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dsc.AnalysisWarning)
        for rep in reps:
            dsc.summarize_replication(rep)
        dsc.profile_series_outcomes(dataset)
        dsc.summarize_covariates(table)
        dsc.profile_series_covariates(table)
    for record, attributes in zip(records, before):
        assert vars(record).keys() == attributes.keys()
        assert all(vars(record)[name] is value for name, value in attributes.items())


def test_returned_summaries_cannot_change_the_kept_ones():
    # no summary is kept: editing a returned one changes neither the table nor the next call
    table = cov_table()
    summaries = dsc.summarize_covariates(table)
    summaries.clear()
    with pytest.raises(TypeError):
        dsc.summarize_covariates(table)[0].stats["java"] = (9.0, 0.0)
    assert dsc.summarize_covariates(table)[0].mean("java") == 2.5


# ---------------------------------------------------------------------------
# moments without numpy's Python wrappers
# ---------------------------------------------------------------------------

floats = st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: round(x, 3))


@given(st.lists(floats, min_size=2, max_size=60), st.sampled_from([list, tuple, np.array]))
@settings(max_examples=400, deadline=None)
def test_sample_variance_is_np_var_bit_for_bit(values, kind):
    expected = 0.0 if max(values) == min(values) else float(np.var(values, ddof=1))
    assert dsc.sample_variance(kind(values)) == expected  # == compares every bit but the sign of 0


@given(floats, st.integers(1, 40), st.sampled_from([list, tuple, np.array]))
@settings(max_examples=200, deadline=None)
def test_sample_variance_of_equal_values_is_exactly_zero(value, n, kind):
    assert dsc.sample_variance(kind([value] * n)) == 0.0


def test_sample_variance_on_long_arrays_matches_np_var():
    rng = np.random.default_rng(9)
    for n in (2, 7, 8, 9, 127, 128, 129, 1000, 30000):
        x = rng.normal(3.0, 2.0, n)
        assert dsc.sample_variance(x) == float(np.var(x, ddof=1))
        assert dsc.sample_variance(tuple(x.tolist())) == float(np.var(x, ddof=1))


@given(st.lists(st.tuples(floats, floats), min_size=2, max_size=40))
@settings(max_examples=200, deadline=None)
def test_pearson_corr_matches_centring_by_np_mean(pairs):
    x, y = (np.array(v) for v in zip(*pairs))
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        assert dsc.pearson_corr(x, y) is None
        return
    dx, dy = x - x.mean(), y - y.mean()
    expected = max(-1.0, min(1.0, float(dx @ dy) / math.sqrt(dx @ dx) / math.sqrt(dy @ dy)))
    assert dsc.pearson_corr(x.tolist(), tuple(y)) == expected


def exact_corr(x, y):
    """Pearson's r from exact rational sums."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    dx, dy = [v - sum(x) / len(x) for v in x], [v - sum(y) / len(y) for v in y]
    sxy = sum(a * b for a, b in zip(dx, dy))
    return math.copysign(math.sqrt(sxy * sxy / (sum(a * a for a in dx) * sum(b * b for b in dy))), sxy)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1e200, 5.0], [1.0, 2.0, 4.0]),  # the squares overflow
    ([-1e308, 1e308, 0.0], [1.0, 2.0, 4.0]),  # the range overflows
    ([1e-200, 2e-200, 4e-200], [1.0, 2.0, 3.0]),  # the squares underflow
    ([1.0, 2.0, 4.0], [3e-170, -1e-170, 2e-170]),
    ([1e300, 1e300 + 1e285, 1e300 - 1e285, 1e300], [1e-300, 0.0, 5e-301, -1e-300]),
    ([1e308, 1.5e308, 1.25e308], [1.0, 4.0, 2.0]),  # the sum overflows
])
def test_pearson_corr_outside_the_float_range_needs_no_warning(x, y):
    # no np.errstate: the suite's filterwarnings = error would raise numpy's overflow warning
    for a, b in ((x, y), (y, x)):
        assert dsc.pearson_corr(a, b) == pytest.approx(exact_corr(a, b), rel=1e-14)


@pytest.mark.parametrize("x", [[1.0, math.nan, 2.0], [1.0, math.inf, 2.0], [-math.inf, 1.0, 2.0],
                               [math.inf, math.inf, math.inf], [math.nan, math.nan, math.nan]])
def test_pearson_corr_of_a_non_finite_input_is_nan_without_a_warning(x):
    # a NaN r must not reach min(1.0, r), which returns 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((x, [1.0, 2.0, 4.0]), ([1.0, 2.0, 4.0], x), (x, [5.0, 5.0, 5.0])):
            assert math.isnan(dsc.pearson_corr(a, b))
            assert math.isnan(dsc.pearson_corr(np.array(a), b))


def test_sample_variance_of_tiny_values_scales_exactly():
    # k 2^-530: the squared deviations are subnormal unless the sample is first scaled
    values = [0.3, 0.1, 0.4, 0.1, 0.5, 0.9, 0.2, 0.6]
    tiny = [math.ldexp(v, -530) for v in values]
    assert dsc.sample_variance(tiny) == math.ldexp(dsc.sample_variance(values), -1060) > 0.0


def test_summarize_replication_of_tiny_outcomes_scales_the_correlation_exactly():
    # outcomes k 2^-565, about 1e-170 k: divided by a power of two, the bits of r stay
    control, treatment = [3.0, 1.0, 4.0, 1.0, 5.0], [9.0, 2.0, 6.0, 5.0, 3.0]
    tiny = within_replication([math.ldexp(v, -565) for v in control],
                              [math.ldexp(v, -565) for v in treatment])
    assert dsc.summarize_replication(tiny).corr == dsc.pearson_corr(control, treatment)


# ---------------------------------------------------------------------------
# covariate profiles from exact integer sums; moments of arrays by fsum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_covariate_profile_means_are_exact_fractions_rounded_once(seed):
    rng = random.Random(1000 + seed)
    table = random_covariate_table(rng)
    single = rd.CovariateRow("S1", "p0", "professional", tuple(rng.randint(1, 4) for _ in range(4)))
    table = rd.CovariateTable(table.rows + (single,))
    columns = {}
    for r in table.rows:
        columns.setdefault(r.experiment_id, []).append(r.values)
    expected = tuple((exp, tuple(float(Fraction(sum(c), len(c))) for c in zip(*values)))
                     for exp, values in columns.items())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        profile = dsc.profile_series_covariates(table)
    assert profile.rows == expected
    assert profile.categories == rd.ORDINAL_COVARIATES and profile.label == "mean experience"
    assert [str(w.message) for w in caught] == [
        f"{exp}: single covariate row; sd reported as 0"
        for exp, values in columns.items() if len(values) == 1]


def test_covariate_profile_of_an_empty_table_is_an_error():
    with pytest.raises(ValueError, match="covariate table is empty"):
        dsc.profile_series_covariates(rd.CovariateTable(()))


@pytest.mark.parametrize("n", [1, 2, 3, 20, 1000])
def test_sample_mean_of_an_array_is_the_fsum_of_its_floats(n):
    x = np.random.default_rng(n).normal(1e3, 5.0, n)
    assert dsc.sample_mean(x) == math.fsum(x.tolist()) / n == dsc.sample_mean(tuple(x.tolist()))
    assert type(dsc.sample_mean(x)) is float


def test_covariate_summaries_of_a_large_table_make_no_object_per_row():
    # an object per row (zip(*rows) makes one iterator each) would run the cyclic
    # collector many times per call on a table this size
    import gc
    canonical = [(1, 2, 3, 4), (4, 4, 1, 2), (2, 3, 3, 1)]
    table = rd.CovariateTable(tuple(rd.CovariateRow(f"E{i % 3}", f"p{i}", "student", canonical[i % 3])
                                    for i in range(30000)))
    collections = []

    def callback(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(callback)
    try:
        summaries = dsc.summarize_covariates(table)
        profile = dsc.profile_series_covariates(table)
    finally:
        gc.callbacks.remove(callback)
    assert len(collections) <= 1
    assert [s.mean("java") for s in summaries] == [2.0, 4.0, 3.0]
    assert profile.rows == (("E0", (1.0, 2.0, 3.0, 4.0)), ("E1", (4.0, 4.0, 1.0, 2.0)),
                            ("E2", (2.0, 3.0, 3.0, 1.0)))


@pytest.mark.parametrize("values", [[1.0, math.inf], [math.inf, math.inf], [-math.inf, 2.0, 3.0],
                                    [1.0, math.nan, 2.0], [math.nan, math.nan], [-1e308, 1e308]])
def test_sample_variance_of_a_non_finite_sample_is_non_finite_without_a_warning(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not math.isfinite(dsc.sample_variance(values))
        assert not math.isfinite(dsc.sample_variance(np.array(values)))


@pytest.mark.parametrize("values, variance", [
    ([1e308, 1.5e308], math.inf),  # the sum overflows
    ([0.0, 1e200], math.inf),  # the squares overflow
    ([-1e154, 0.0, 1e154], 1e308),  # the sum of squares overflows, the variance does not
    ([0.0, 1e154] * 500, float(np.var([0.0, 1.0] * 500, ddof=1)) * 1e154 * 1e154),  # n spread^2 does
    ([0.0, 1e308], math.inf),  # a range of 2^1023 or more, up to the float maximum
    ([-1e308, 0.0], math.inf),
    ([-5e307, 5e307], math.inf),
    ([0.0, sys.float_info.max], math.inf),
], ids=["sum", "squares", "sum-of-squares", "n-spread-squared", "range-1e308", "range-minus-1e308",
        "range-about-2^1023", "range-float-max"])
def test_sample_variance_of_huge_values_needs_no_warning(values, variance):
    # no np.errstate: the suite's filterwarnings = error would raise numpy's overflow warning
    for kind in (list, tuple, np.array):
        assert dsc.sample_variance(kind(values)) == pytest.approx(variance, rel=1e-15)


# ---------------------------------------------------------------------------
# sds of samples whose variance is below the float range; shapes at the boundary
# ---------------------------------------------------------------------------

def exact_sd(values):
    """The sample sd from exact rational sums, scaled by 2^600 so that its square root
    is taken on a normal double."""
    x = [Fraction(v) for v in values]
    mean = sum(x) / len(x)
    var = sum((v - mean) ** 2 for v in x) / (len(x) - 1)
    return math.sqrt(float(var * 2 ** 1200)) * 2.0 ** -600


def test_summarize_replication_of_outcomes_near_1e_170_keeps_the_sds():
    # the variances, about 1e-340, lie below the float range; the sds do not
    control, treatment = [3.0, 1.0, 4.0, 1.0, 5.0], [9.0, 2.0, 6.0, 5.0, 3.0]
    tiny_c, tiny_t = [k * 1e-170 for k in control], [k * 1e-170 for k in treatment]
    s = dsc.summarize_replication(within_replication(tiny_c, tiny_t))
    for sd, values, near in ((s.sd_control, tiny_c, 1.79e-170), (s.sd_treatment, tiny_t, 2.74e-170)):
        assert abs(sd - exact_sd(values)) <= math.ulp(sd)
        assert sd == pytest.approx(near, rel=1e-2)
    # scaled by 2^565 into the middle of the range, the sds are the same bits scaled back
    big = dsc.summarize_replication(within_replication([math.ldexp(v, 565) for v in tiny_c],
                                                       [math.ldexp(v, 565) for v in tiny_t]))
    assert (s.sd_control, s.sd_treatment) == (math.ldexp(big.sd_control, -565),
                                              math.ldexp(big.sd_treatment, -565))


def test_scaled_variance_is_the_variance_at_scale_one():
    rng = np.random.default_rng(20)
    for n in (2, 5, 20, 129):
        x = rng.normal(3.0, 2.0, n)
        v, scale = dsc.scaled_variance(x)
        assert scale == 1.0 and v == dsc.sample_variance(x) == float(np.var(x, ddof=1))


@pytest.mark.parametrize("x, y", [([1.0, 2.0, 3.0], [1.0, 2.0]), ([1.0, 2.0], [1.0, 2.0, 3.0]),
                                  ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 5.0]]),
                                  ([[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0]), (2.0, 3.0)])
def test_pearson_corr_rejects_inputs_that_are_not_1d_of_one_length(x, y):
    with pytest.raises(ValueError) as raised:
        dsc.pearson_corr(x, y)
    assert str(raised.value) == (f"pearson_corr needs two 1-D inputs of equal length, "
                                 f"got shapes {np.shape(x)} and {np.shape(y)}")


@pytest.mark.parametrize("values", [[[1.0, 2.0], [3.0, 5.0]], np.ones((3, 1)), 4.0])
def test_sample_variance_rejects_a_sample_that_is_not_1d(values):
    for f in (dsc.sample_variance, dsc.scaled_variance):
        with pytest.raises(ValueError) as raised:
            f(values)
        assert str(raised.value) == f"a sample must be 1-D, got shape {np.shape(values)}"


def test_profile_series_rejects_a_row_of_the_wrong_length():
    with pytest.raises(ValueError, match="^E2: expected one value per category$"):
        dsc.ProfileSeries("outcome", ("control", "treatment"),
                          (("E1", (1.0, 2.0)), ("E2", (1.0,))))


# a mean or median of finite values is finite, even where their sum passes the float maximum

@pytest.mark.parametrize("values, mean", [
    ([1e308, 1.5e308], 1.25e308),
    ([-1.7e308] * 5, -1.7e308),
    ([1.7e308, 1.7e308, -1.7e308, 1e-300], 1.7e308 / 4.0 + 1e-300 / 4.0),
    ([sys.float_info.max] * 3, sys.float_info.max),
])
def test_sample_mean_of_finite_values_past_the_float_maximum_is_finite(values, mean):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dsc.sample_mean(values) == mean
        assert dsc.sample_mean(np.array(values)) == mean


@pytest.mark.parametrize("values, median", [
    ([1e308, 1.5e308], 1e308 / 2.0 + 1.5e308 / 2.0),
    ([1.5e308, 1e308, 3.0, 1.0], (3.0 + 1e308) / 2.0),  # the middle pair's sum is finite
    ([-1.7e308, -1.6e308], -1.7e308 / 2.0 - 1.6e308 / 2.0),
    ([sys.float_info.max, 3.0, sys.float_info.max], sys.float_info.max),
])
def test_median_of_finite_values_past_the_float_maximum_is_finite(values, median):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dsc._median(np.array(values)) == median


def test_summary_of_a_between_subjects_arm_near_the_float_maximum_is_finite():
    obs = (rd.Observation("E1", "c1", rd.CONTROL, 1e308), rd.Observation("E1", "c2", rd.CONTROL, 1.5e308),
           rd.Observation("E1", "t1", rd.TREATMENT, 1.0), rd.Observation("E1", "t2", rd.TREATMENT, 3.0))
    rep = rd.Replication("E1", "between", obs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = dsc.summarize_replication(rep)
        profile = dsc.profile_series_outcomes(rd.ReplicationSet((rep,)))
    assert (s.mean_control, s.median_control, s.mean_treatment, s.median_treatment) == (
        1.25e308, 1.25e308, 2.0, 2.0)
    assert s.sd_control == pytest.approx(math.sqrt(0.125) * 1e308, rel=1e-15)
    assert profile.rows == (("E1", (1.25e308, 2.0)),)
