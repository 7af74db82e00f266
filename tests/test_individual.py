import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replimeta import individual
from replimeta.data import PairedSample
from replimeta.descriptives import scaled_variance
from replimeta.individual import (
    ONE_SIDED_GREATER,
    TWO_SIDED,
    independent_t_test,
    paired_t_test,
)
from replimeta.numerics import t_quantile

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


# ---------------------------------------------------------------------------
# samples whose variance is below the float range
# ---------------------------------------------------------------------------

def test_t_tests_of_outcomes_near_1e_170_equal_those_of_the_sample_scaled_by_2_565():
    # the variances, about 1e-340, underflow; t, df and p do not depend on the scale
    control = [k * 1e-170 for k in (3.0, 1.0, 4.0, 1.0, 5.0)]
    treatment = [k * 1e-170 for k in (9.0, 2.0, 6.0, 5.0, 3.0)]
    big_c, big_t = ([math.ldexp(v, 565) for v in arm] for arm in (control, treatment))
    diffs = tuple(t - c for c, t in zip(control, treatment))
    big_diffs = tuple(t - c for c, t in zip(big_c, big_t))
    assert big_diffs == tuple(math.ldexp(d, 565) for d in diffs)
    for sidedness in (TWO_SIDED, ONE_SIDED_GREATER):
        pairs = [(paired_t_test(PairedSample("E1", diffs), sidedness),
                  paired_t_test(PairedSample("E1", big_diffs), sidedness))]
        pairs += [(independent_t_test(control, treatment, welch, sidedness),
                   independent_t_test(big_c, big_t, welch, sidedness)) for welch in (True, False)]
        for tiny, big in pairs:
            assert (tiny.p_value, tiny.df, tiny.n) == (big.p_value, big.df, big.n)
            assert (tiny.estimate, tiny.ci_low, tiny.ci_high) == tuple(
                math.ldexp(v, -565) for v in (big.estimate, big.ci_low, big.ci_high))
            assert 0.0 < tiny.ci_high - tiny.ci_low and 0.0 < tiny.p_value < 1.0


def test_welch_t_test_of_arms_on_different_scales_matches_exact_moments():
    # one arm near 1e-170, one near 1: the tiny arm's variance counts for nothing
    control, treatment = [k * 1e-170 for k in (3.0, 1.0, 4.0)], [1.0, 2.5, 4.0, 3.0]
    res = independent_t_test(control, treatment)
    assert res.df == pytest.approx(len(treatment) - 1, rel=1e-15)
    assert res.estimate == statistics.fmean(treatment) - statistics.fmean(control)
    assert res.p_value == pytest.approx(scipy_stats.ttest_1samp(treatment, 0.0).pvalue, rel=1e-12)


@pytest.mark.parametrize("welch", [True, False])
def test_independent_t_test_of_a_constant_arm_and_an_arm_far_below_its_scale_is_defined(
        welch, monkeypatch):
    # the tiny arm's variance, about 5e-601, underflows; its sd, 7.1e-301, does not. The
    # common scale is the tiny arm's, and the constant arm's zero variance stays 0
    var, scale = scaled_variance([1e-300, 2e-300])
    se = (math.sqrt(var / 2) if welch else math.sqrt(var / 3 * (1 / 3 + 1 / 2))) * scale
    result, ses = individual._result, []  # the SE each test passes on
    monkeypatch.setattr(individual, "_result", lambda *args: ses.append(args[2]) or result(*args))
    for control, treatment in (([1.0, 1.0, 1.0], [1e-300, 2e-300]),
                               ([1e-300, 2e-300], [1.0, 1.0, 1.0])):
        res = independent_t_test(control, treatment, welch, experiment_id="E3")
        assert res.df == (1.0 if welch else 3) and res.n == 5
        assert all(map(math.isfinite, (res.estimate, res.ci_low, res.ci_high, res.p_value)))
    assert ses == [pytest.approx(se, rel=1e-15)] * 2


def test_independent_t_test_of_a_constant_arm_and_an_arm_of_tiny_values_keeps_its_interval():
    # zeros beside 1e-300 and 2e-300: t = 3 on 1 df, and the interval is t_quantile(0.975, 1) SEs
    var, scale = scaled_variance([1e-300, 2e-300])
    res = independent_t_test([0.0, 0.0, 0.0], [1e-300, 2e-300])
    half = t_quantile(0.975, 1.0) * math.sqrt(var / 2) * scale
    assert res.estimate == 1.5e-300 and res.df == 1.0
    assert res.ci_high - res.estimate == pytest.approx(half, rel=1e-12)
    assert res.estimate - res.ci_low == pytest.approx(half, rel=1e-12)
    assert res.p_value == pytest.approx(scipy_stats.t.sf(3.0, 1) * 2, rel=1e-12)


@pytest.mark.parametrize("welch", [True, False])
def test_independent_t_test_of_two_constant_arms_still_has_zero_variance(welch):
    for control, treatment in (([1.0, 1.0, 1.0], [2.0, 2.0]), ([0.0, 0.0], [1e-300, 1e-300])):
        with pytest.raises(ValueError, match="^E3: both arms have zero variance$"):
            independent_t_test(control, treatment, welch, experiment_id="E3")


@pytest.mark.parametrize("control, treatment, message", [
    ([1.0], [2.0, 3.0], "each arm needs at least 2 observations"),
    ([1.0, 1.0], [2.0, 2.0], "both arms have zero variance"),
    ([1.0, math.inf], [2.0, 3.0], "sample values and their variances must be finite"),
])
def test_independent_t_test_errors_carry_an_id_prefix_only_with_an_id(control, treatment, message):
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=f"^{message}$"):
            independent_t_test(control, treatment)
        with pytest.raises(ValueError, match=f"^E9: {message}$"):
            independent_t_test(control, treatment, experiment_id="E9")
