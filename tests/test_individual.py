import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replimeta.data import PairedSample
from replimeta.individual import (
    ONE_SIDED_GREATER,
    TWO_SIDED,
    independent_t_test,
    paired_t_test,
)

scipy_stats = pytest.importorskip("scipy.stats")


def test_paired_t_matches_scipy():
    diffs = (4.0, -1.0, 3.5, 2.0, 5.5, 0.5)
    res = paired_t_test(PairedSample("E1", diffs))
    oracle = scipy_stats.ttest_1samp(diffs, 0.0)
    assert res.estimate == pytest.approx(statistics.fmean(diffs))
    assert res.df == len(diffs) - 1
    assert res.p_value == pytest.approx(oracle.pvalue, abs=1e-10)
    lo, hi = scipy_stats.t.interval(0.95, len(diffs) - 1,
                                    loc=res.estimate,
                                    scale=statistics.stdev(diffs) / math.sqrt(len(diffs)))
    assert res.ci_low == pytest.approx(lo, abs=1e-9)
    assert res.ci_high == pytest.approx(hi, abs=1e-9)


def test_paired_t_zero_estimate_p_one():
    res = paired_t_test(PairedSample("E1", (-2.0, -1.0, 1.0, 2.0)))
    assert res.estimate == 0.0
    assert res.p_value == pytest.approx(1.0)


def test_paired_t_zero_variance_errors():
    with pytest.raises(ValueError, match="zero variance"):
        paired_t_test(PairedSample("E1", (3.0, 3.0, 3.0)))


def test_one_sided_halves_positive_two_sided():
    diffs = (4.0, 1.0, 3.5, 2.0)
    two = paired_t_test(PairedSample("E1", diffs), TWO_SIDED)
    one = paired_t_test(PairedSample("E1", diffs), ONE_SIDED_GREATER)
    assert one.p_value == pytest.approx(two.p_value / 2.0, abs=1e-12)


def test_one_sided_negative_estimate():
    diffs = (-4.0, -1.0, -3.5, -2.0)
    two = paired_t_test(PairedSample("E1", diffs), TWO_SIDED)
    one = paired_t_test(PairedSample("E1", diffs), ONE_SIDED_GREATER)
    assert one.p_value == pytest.approx(1.0 - two.p_value / 2.0, abs=1e-12)


def test_independent_pooled_hand_values():
    # hand computation: mean diff 3, pooled sd 1, se = sqrt(2/3), t = 3.674, df 4
    res = independent_t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], welch=False)
    assert res.estimate == pytest.approx(3.0)
    assert res.df == 4
    assert res.estimate / ((res.ci_high - res.ci_low) / 2.0) != 0  # CI symmetric
    assert res.p_value == pytest.approx(0.021312, abs=5e-5)


def test_independent_welch_matches_scipy():
    a = [12.1, 9.3, 15.2, 10.8, 11.0]
    b = [14.9, 18.2, 16.4, 21.0, 15.5, 17.7]
    res = independent_t_test(a, b, welch=True)
    oracle = scipy_stats.ttest_ind(b, a, equal_var=False)
    assert res.p_value == pytest.approx(oracle.pvalue, abs=1e-10)
    assert res.df == pytest.approx(oracle.df, abs=1e-9)


def test_identical_arms_p_one():
    res = independent_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], welch=False)
    assert res.estimate == 0.0
    assert res.p_value == pytest.approx(1.0)


def test_shifted_normal_recovers_shift():
    rng = np.random.default_rng(42)
    a = rng.standard_normal(4000)
    b = rng.standard_normal(4000) + 1.0
    res = independent_t_test(list(a), list(b))
    assert res.estimate == pytest.approx(1.0, abs=0.1)
    assert res.ci_low < 1.0 < res.ci_high


def test_both_arms_zero_variance_errors():
    with pytest.raises(ValueError, match="zero variance"):
        independent_t_test([1.0, 1.0], [2.0, 2.0])


def test_independent_t_test_errors_name_the_experiment():
    with pytest.raises(ValueError, match="^E7: each arm needs at least 2 observations$"):
        independent_t_test([1.0], [2.0, 3.0], experiment_id="E7")
    with pytest.raises(ValueError, match="^E7: both arms have zero variance$"):
        independent_t_test([1.0, 1.0], [2.0, 2.0], experiment_id="E7")


@given(st.floats(0.01, 100))
@settings(max_examples=30)
def test_scale_invariance(c):
    diffs = (4.0, -1.0, 3.5, 2.0, 5.5)
    base = paired_t_test(PairedSample("E1", diffs))
    scaled = paired_t_test(PairedSample("E1", tuple(c * d for d in diffs)))
    assert scaled.estimate == pytest.approx(c * base.estimate, rel=1e-9)
    assert scaled.ci_low == pytest.approx(c * base.ci_low, rel=1e-9)
    assert scaled.ci_high == pytest.approx(c * base.ci_high, rel=1e-9)
    assert scaled.p_value == pytest.approx(base.p_value, abs=1e-10)
    assert scaled.df == base.df


def test_paired_equals_one_sample_on_differences():
    diffs = (4.0, -1.0, 3.5, 2.0, 5.5, 0.5, -2.25)
    res = paired_t_test(PairedSample("E1", diffs))
    oracle = scipy_stats.ttest_1samp(diffs, 0.0)
    assert res.p_value == pytest.approx(oracle.pvalue, abs=1e-12)


# ---------------------------------------------------------------------------
# alpha outside (0, 1) and non-finite sample values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, math.nan])
def test_t_tests_reject_alpha_outside_the_unit_interval(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got "):
        paired_t_test(PairedSample("E1", (1.0, 2.0, 4.0)), alpha=alpha)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got "):
        independent_t_test([1.0, 2.0], [3.0, 5.0], alpha=alpha, experiment_id="E2")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_t_tests_reject_non_finite_sample_values_naming_the_experiment(bad):
    with np.errstate(all="ignore"):  # numpy's own warning on inf - inf precedes the error
        with pytest.raises(ValueError, match="^E1: differences and their variance must be finite$"):
            paired_t_test(PairedSample("E1", (1.0, bad, 4.0)))
        for control, treatment in (([1.0, bad], [3.0, 5.0]), ([1.0, 2.0], [3.0, 5.0, bad])):
            with pytest.raises(ValueError,
                               match="^E2: sample values and their variances must be finite$"):
                independent_t_test(control, treatment, experiment_id="E2")


@pytest.mark.parametrize("bad", [(1.0, math.nan, 4.0), (1.0, math.inf, 4.0), (math.inf, math.inf, 4.0),
                                 (-math.inf, 0.0, 4.0), (-1e308, 0.0, 1e308)])
def test_t_tests_reject_a_non_finite_sample_before_numpy_can_warn(bad):
    # no np.errstate: a numpy RuntimeWarning would be raised here in place of the ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^E1: differences and their variance must be finite$"):
            paired_t_test(PairedSample("E1", bad))
        with pytest.raises(ValueError, match="^E2: sample values and their variances must be finite$"):
            independent_t_test([1.0, 2.0], list(bad), experiment_id="E2")


@pytest.mark.parametrize("bad", [(1e308, 1.5e308), (0.0, 1e200), (-1e200, 0.0, 1e200), (0.0, 1e308),
                                 (-1e308, 0.0), (-5e307, 5e307)])
def test_t_tests_reject_a_variance_past_the_float_range_naming_the_experiment(bad):
    # finite values whose sum or squares overflow: the suite's filterwarnings = error turns
    # a numpy overflow warning into an error, so this passes only if none is raised
    with pytest.raises(ValueError, match="^E1: differences and their variance must be finite$"):
        paired_t_test(PairedSample("E1", bad))
    with pytest.raises(ValueError, match="^E2: sample values and their variances must be finite$"):
        independent_t_test([1.0, 2.0], list(bad), experiment_id="E2")
