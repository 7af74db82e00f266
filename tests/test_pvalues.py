import itertools
import math

import pytest

from replimeta import individual as ind
from replimeta.data import PairedSample
from replimeta import numerics as nm
from replimeta.pvalues import POOLING_WARNING, fisher_pool, stouffer_pool, vote_count

scipy_stats = pytest.importorskip("scipy.stats")

PS = [0.03, 0.2, 0.0004, 0.61, 0.9999]
TINY = [1e-20, 0.04, 0.3]


# ---------------------------------------------------------------------------
# Fisher and Stouffer against scipy.stats.combine_pvalues
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ps", [PS, TINY, [0.5]])
def test_fisher_against_scipy(ps):
    res = fisher_pool(ps)
    ref = scipy_stats.combine_pvalues(ps, method="fisher")
    assert res.method == "fisher" and res.df == 2 * len(ps)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=0)
    assert res.warning == POOLING_WARNING


def test_fisher_of_fifteen_thousand_p_values_at_the_mean_of_its_chi_square():
    # the statistic equals its df, 30 000, where the tail needs about 950 steps
    res = fisher_pool([math.exp(-1.0)] * 15000)
    assert res.df == 30000 and res.statistic == pytest.approx(30000.0, rel=1e-12)
    assert res.p_value == pytest.approx(scipy_stats.chi2.sf(res.statistic, 30000), rel=1e-12,
                                        abs=0)


@pytest.mark.parametrize("ps", [PS, TINY, [1e-20, 1e-30]])
def test_stouffer_unweighted_against_scipy(ps):
    res = stouffer_pool(ps)
    ref = scipy_stats.combine_pvalues(ps, method="stouffer")
    assert res.method == "stouffer" and res.df is None
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-9)
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=0)


@pytest.mark.parametrize("ps, weights", [(PS, [3.0, 1.0, 0.5, 2.0, 0.0]),
                                         (TINY, [20.0, 31.0, 12.0])])
def test_stouffer_weighted_against_scipy(ps, weights):
    res = stouffer_pool(ps, weights)
    ref = scipy_stats.combine_pvalues(ps, method="stouffer", weights=weights)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-9)
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=0)


def test_stouffer_keeps_digits_of_tiny_inputs():
    # z_i = -Phi^-1(p_i): 9.26 and 11.46, so z = 14.66 rather than a clamped 11.61
    res = stouffer_pool([1e-20, 1e-30])
    expected = -(scipy_stats.norm.ppf(1e-20) + scipy_stats.norm.ppf(1e-30)) / math.sqrt(2.0)
    assert res.statistic == pytest.approx(expected, rel=1e-12)
    assert res.statistic == pytest.approx(14.66, abs=0.01)
    assert res.p_value == pytest.approx(scipy_stats.norm.sf(expected), rel=1e-9, abs=0)


def test_stouffer_p_of_one_uses_floor_quantile():
    res = stouffer_pool([1.0, 0.5])
    assert res.statistic == pytest.approx(nm.normal_quantile(1e-16) / math.sqrt(2.0), rel=1e-12)


def test_pooling_input_errors():
    for pool in (fisher_pool, stouffer_pool):
        with pytest.raises(ValueError):
            pool([])
        with pytest.raises(ValueError):
            pool([0.0, 0.5])
        with pytest.raises(ValueError):
            pool([0.5, 1.2])
    with pytest.raises(ValueError, match="one to one"):
        stouffer_pool([0.1, 0.2], [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        stouffer_pool([0.1, 0.2], [1.0, -1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        stouffer_pool([0.1, 0.2], [0.0, 0.0])


# ---------------------------------------------------------------------------
# vote counting
# ---------------------------------------------------------------------------

def result(estimate, p):
    return ind.TestResult("E", estimate, estimate - 1.0, estimate + 1.0, p, 10.0, ind.TWO_SIDED, 11)


POS, NEG, NS = result(2.0, 0.01), result(-2.0, 0.01), result(0.5, 0.4)


@pytest.mark.parametrize("results, verdict", [
    ([POS, POS], "positive"),
    ([NEG, NEG, NEG], "negative"),
    ([NS, NS], "non-significant"),
    ([POS, NS], "inconclusive"),
    ([POS, POS, NS], "mostly positive"),
    ([POS, NS, NS], "mostly non-significant"),
    ([POS, NEG, NS, NS], "mostly non-significant"),
    ([NEG, NEG, POS], "mostly negative"),
    ([POS, POS, NEG, NEG, NS], "inconclusive"),
])
def test_vote_count_verdicts(results, verdict):
    vc = vote_count(results)
    assert vc.verdict == verdict
    assert vc.significant_positive + vc.significant_negative + vc.non_significant == len(results)
    assert vc.warning == POOLING_WARNING


def ladder_verdict(pos, neg, ns):
    """The verdict as an eight-branch ladder, kept as the reference for the short rule."""
    if pos > 0 and neg == 0 and ns == 0:
        verdict = "positive"
    elif neg > 0 and pos == 0 and ns == 0:
        verdict = "negative"
    elif pos == 0 and neg == 0:
        verdict = "non-significant"
    elif pos == ns and neg == 0:
        verdict = "inconclusive"
    elif pos > max(neg, ns):
        verdict = "mostly positive"
    elif ns >= max(pos, neg):
        verdict = "mostly non-significant"
    elif neg > max(pos, ns):
        verdict = "mostly negative"
    else:
        verdict = "inconclusive"
    return verdict


def test_vote_count_verdict_matches_the_ladder_for_every_tally_up_to_twenty_of_each():
    counts = [c for c in itertools.product(range(21), repeat=3) if any(c)]
    assert len(counts) == 9260
    for pos, neg, ns in counts:
        vc = vote_count([POS] * pos + [NEG] * neg + [NS] * ns)
        tallies = (vc.significant_positive, vc.significant_negative, vc.non_significant)
        assert tallies == (pos, neg, ns) and all(type(t) is int for t in tallies)
        assert vc.verdict == ladder_verdict(pos, neg, ns), (pos, neg, ns)


def test_vote_count_tallies_and_alpha():
    borderline = ind.TestResult("E", 1.0, 0.1, 1.9, 0.03, 8.0, ind.ONE_SIDED_GREATER, 9)
    vc = vote_count([POS, NEG, NS, borderline], alpha=0.02)
    assert (vc.significant_positive, vc.significant_negative, vc.non_significant) == (1, 1, 2)
    assert vc.alpha == 0.02
    # a non-positive estimate with a small p-value is not counted positive
    assert vote_count([result(0.0, 0.001)]).verdict == "non-significant"
    with pytest.raises(ValueError):
        vote_count([])


# ---------------------------------------------------------------------------
# non-finite weights and alpha outside (0, 1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf],
                                     [0.0, math.nan]])
def test_stouffer_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="weights must be finite, nonnegative and not all zero"):
        stouffer_pool([0.1, 0.2], weights)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05, math.nan])
def test_vote_count_rejects_alpha_outside_the_unit_interval(alpha):
    result = ind.paired_t_test(PairedSample("E1", (1.0, 2.0, 4.0)))
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got "):
        vote_count([result], alpha)
