import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replimeta import data as rd
from replimeta import descriptives as dsc
from replimeta.data import SummaryRow
from replimeta.effects import EffectSize, between_subjects_d, hedges_correction, repeated_measures_d

# summary rows as printed for the illustrative four-replication group
ROW_H = SummaryRow("F-Secure H", 6, 6, 30.71, 36.58, 40.23, 33.43, 0.59, "within")
ROW_K = SummaryRow("F-Secure K", 11, 11, 22.17, 20.44, 35.42, 35.40, 0.42, "within")
ROW_O = SummaryRow("F-Secure O", 7, 7, 16.05, 20.81, 68.97, 31.53, 0.52, "within")
ROW_UPV = SummaryRow("UPV", 31, 29, 33.38, 39.79, 77.16, 21.04, 0.47, "within")


def test_repeated_measures_d_hand_derivation_largest_site():
    # frozen from a hand evaluation of the stated formulas on the printed row
    e = repeated_measures_d(ROW_O)
    assert e.d == pytest.approx(1.8999, abs=1e-3)
    assert e.variance == pytest.approx(0.3847, abs=5e-4)
    assert e.n_effective == 7


def test_repeated_measures_d_unbalanced_row_uses_complete_pairs():
    e = repeated_measures_d(ROW_UPV)
    assert e.n_effective == 29  # min of the two arm counts
    assert e.d == pytest.approx(1.2806, abs=1e-3)
    assert e.variance == pytest.approx(0.06652, abs=1e-4)


def test_equal_means_give_zero_d():
    row = SummaryRow("E1", 10, 10, 25.0, 5.0, 25.0, 6.0, 0.5, "within")
    assert repeated_measures_d(row).d == 0.0


def test_corr_one_rejected():
    row = SummaryRow("E1", 10, 10, 20.0, 5.0, 25.0, 5.0, 1.0, "within")
    with pytest.raises(ValueError, match="< 1"):
        repeated_measures_d(row)


def test_missing_corr_rejected():
    row = SummaryRow("E1", 3, 3, 5.0, 0.0, 7.0, 0.0, None, "within")
    with pytest.raises(ValueError, match="paired correlation is required"):
        repeated_measures_d(row)


def test_explicit_pair_count_override():
    e = repeated_measures_d(ROW_UPV, n_pairs=20)
    assert e.n_effective == 20
    assert e.variance > repeated_measures_d(ROW_UPV, n_pairs=29).variance


@pytest.mark.parametrize("n_pairs", [1, 0, -3, math.nan, math.inf, 2.5])
def test_explicit_pair_count_below_two_is_rejected(n_pairs):
    with pytest.raises(ValueError, match="^UPV: need at least 2 complete pairs$"):
        repeated_measures_d(ROW_UPV, n_pairs=n_pairs)


def test_between_subjects_equal_arms():
    row = SummaryRow("E1", 8, 12, 30.0, 10.0, 30.0, 10.0, None, "between")
    e = between_subjects_d(row)
    assert e.d == 0.0
    assert e.variance == pytest.approx((8 + 12) / (8 * 12))


def test_between_subjects_unbalanced_population_values():
    # population cells mean 20/30, sd 10/10, n 90/10: pooled sd 10, d = 1
    row = SummaryRow("Exp1", 90, 10, 20.0, 10.0, 30.0, 10.0, None, "between")
    e = between_subjects_d(row)
    assert e.d == pytest.approx(1.0)
    assert e.variance == pytest.approx(100.0 / 900.0 + 1.0 / 200.0)


def test_between_subjects_scale_invariance():
    row = SummaryRow("E1", 10, 12, 20.0, 5.0, 26.0, 6.0, None, "between")
    doubled = SummaryRow("E1", 10, 12, 40.0, 10.0, 52.0, 12.0, None, "between")
    assert between_subjects_d(doubled).d == pytest.approx(between_subjects_d(row).d, rel=1e-12)


def test_hedges_correction_value():
    e = repeated_measures_d(ROW_UPV)
    g = hedges_correction(e, df=28)
    j = 1.0 - 3.0 / (4 * 28 - 1)
    assert g.d == pytest.approx(e.d * j, rel=1e-12)
    assert g.d == pytest.approx(1.246, abs=1e-3)
    assert g.variance == pytest.approx(e.variance * j * j, rel=1e-12)
    assert g.corrected


def test_hedges_asymptotically_neutral():
    e = repeated_measures_d(ROW_O)
    g = hedges_correction(e, df=1e9)
    assert g.d == pytest.approx(e.d, rel=1e-8)


def test_hedges_rejects_double_application():
    g = hedges_correction(repeated_measures_d(ROW_O), df=6)
    with pytest.raises(ValueError, match="already corrected"):
        hedges_correction(g, df=6)


def test_hedges_rejects_tiny_df():
    with pytest.raises(ValueError, match="exceed 1"):
        hedges_correction(repeated_measures_d(ROW_O), df=1.0)
    with pytest.raises(ValueError, match="^F-Secure O: degrees of freedom must exceed 1, got nan$"):
        hedges_correction(repeated_measures_d(ROW_O), df=math.nan)


@given(st.floats(0.05, 20), st.floats(-100, 100))
@settings(max_examples=40)
def test_d_affine_invariance(a, b):
    def transformed(row, a, b):
        return SummaryRow(row.experiment_id, row.n_control, row.n_treatment,
                          a * row.mean_control + b, a * row.sd_control,
                          a * row.mean_treatment + b, a * row.sd_treatment,
                          row.corr, row.design)

    base = repeated_measures_d(ROW_K)
    moved = repeated_measures_d(transformed(ROW_K, a, b))
    assert moved.d == pytest.approx(base.d, rel=1e-9, abs=1e-12)
    assert moved.variance == pytest.approx(base.variance, rel=1e-9)


@given(st.integers(2, 500))
@settings(max_examples=40)
def test_variance_strictly_decreasing_in_n(n):
    e_n = repeated_measures_d(ROW_O, n_pairs=n)
    e_n1 = repeated_measures_d(ROW_O, n_pairs=n + 1)
    assert e_n1.variance < e_n.variance


def test_summary_then_d_matches_brute_force():
    control = [12.0, 30.5, 7.75, 22.0, 41.0, 16.25]
    treatment = [20.0, 38.0, 15.5, 36.25, 44.5, 30.0]
    obs = []
    for i, (c, t) in enumerate(zip(control, treatment)):
        obs.append(rd.Observation("E1", f"p{i}", rd.CONTROL, c))
        obs.append(rd.Observation("E1", f"p{i}", rd.TREATMENT, t))
    rep = rd.Replication("E1", "within", tuple(obs))
    via_summary = repeated_measures_d(dsc.summarize_replication(rep))

    # brute-force recomputation of every summary statistic
    n = len(control)
    mc = sum(control) / n
    mt = sum(treatment) / n
    sc = math.sqrt(sum((x - mc) ** 2 for x in control) / (n - 1))
    st_ = math.sqrt(sum((x - mt) ** 2 for x in treatment) / (n - 1))
    r = (sum((c - mc) * (t - mt) for c, t in zip(control, treatment))
         / math.sqrt(sum((c - mc) ** 2 for c in control) * sum((t - mt) ** 2 for t in treatment)))
    s_within = math.sqrt(sc * sc + st_ * st_ - 2 * r * sc * st_) / math.sqrt(2 * (1 - r))
    d = (mt - mc) / s_within
    v = (1 / n + d * d / (2 * n)) * 2 * (1 - r)
    assert via_summary.d == pytest.approx(d, rel=1e-12)
    assert via_summary.variance == pytest.approx(v, rel=1e-12)


# ---------------------------------------------------------------------------
# the EffectSize record
# ---------------------------------------------------------------------------

LABELLED = EffectSize("E1", 0.4, 0.1, 20, corrected=True, subgroup_label="student",
                      moderator_x=2.5)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EffectSize)])
def test_effect_size_fields_are_frozen(field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(LABELLED, field, getattr(LABELLED, field))


def test_effect_size_replace_still_validates():
    with pytest.raises(ValueError, match="variance must be positive"):
        dataclasses.replace(LABELLED, variance=-1.0)
    moved = EffectSize("E1", 0.5, 0.1, 20, True, "student", 2.5)
    assert dataclasses.replace(LABELLED, d=0.5) == moved


def test_effect_size_equality_hash_and_repr_match_keyword_construction():
    keywords = EffectSize(experiment_id="E1", d=0.4, variance=0.1, n_effective=20,
                          corrected=True, subgroup_label="student", moderator_x=2.5)
    positional = EffectSize("E1", 0.4, 0.1, 20, True, "student", 2.5)
    assert positional == keywords == LABELLED
    assert hash(positional) == hash(keywords)
    assert repr(positional) == repr(keywords) == (
        "EffectSize(experiment_id='E1', d=0.4, variance=0.1, n_effective=20, corrected=True, "
        "subgroup_label='student', moderator_x=2.5)")
    assert EffectSize("E1", 0.4, 0.1, 20) == EffectSize("E1", 0.4, 0.1, 20, False, None, None)
    assert EffectSize("E1", 0.4, 0.1, 20) != EffectSize("E1", 0.4, 0.1, 21)


@pytest.mark.parametrize("arguments", [
    ("E1", math.nan, 0.1, 20), ("E1", math.inf, 0.1, 20), ("E1", -math.inf, 0.1, 20),
    ("E1", 0.3, math.nan, 10), ("E1", 0.3, math.inf, 10),
    ("E1", 0.3, 0.1, 10, False, None, math.nan), ("E1", 0.3, 0.1, 10, False, "a", -math.inf),
])
def test_effect_size_rejects_non_finite_values(arguments):
    with pytest.raises(ValueError, match=r"^E1: d, variance and moderator must be finite"):
        EffectSize(*arguments)


def test_effect_size_still_rejects_bad_variance_and_n():
    with pytest.raises(ValueError, match="E1: effect-size variance must be positive"):
        EffectSize("E1", 0.3, 0.0, 10)
    with pytest.raises(ValueError, match="E1: effective n must be >= 2"):
        EffectSize("E1", 0.3, 0.1, 1)
    with pytest.raises(ValueError, match="E1: effective n must be >= 2"):
        EffectSize("E1", 0.3, 0.1, math.nan)
    with pytest.raises(ValueError, match="E1: effective n must be >= 2"):
        EffectSize("E1", 0.3, 0.1, math.inf)
    with pytest.raises(ValueError, match="E1: effective n must be >= 2"):
        EffectSize("E1", 0.3, 0.1, 2.5)


def test_hedges_correction_keeps_the_other_fields():
    g = hedges_correction(EffectSize("E7", 0.4, 0.1, 20, False, "student", 2.5), df=18)
    j = 1.0 - 3.0 / (4 * 18 - 1)
    assert g == EffectSize("E7", 0.4 * j, 0.1 * j * j, 20, True, "student", 2.5)
    kept = (g.experiment_id, g.n_effective, g.subgroup_label, g.moderator_x)
    assert kept == ("E7", 20, "student", 2.5)


def _row(design: str, scale: float = 1.0, means=(0.0, 0.5), sds=(1.0, 1.5)) -> SummaryRow:
    """A 10 + 12 row of the given design (corr 0.5 when within), its means and sds times scale."""
    return SummaryRow("E", 10, 12, means[0] * scale, sds[0] * scale, means[1] * scale,
                      sds[1] * scale, 0.5 if design == "within" else None, design)


D_OF = {"within": repeated_measures_d, "between": between_subjects_d}
UNIT_D = {"within": 0.5 / math.sqrt(1.75), "between": 0.5 / math.sqrt(33.75 / 20)}  # 0.3780, 0.3849


@pytest.mark.parametrize("exponent", [600, -600])
@pytest.mark.parametrize("design", ["within", "between"])
def test_d_and_its_variance_are_scale_free_bit_for_bit(design, exponent):
    # no sd is squared, so a power-of-two scale leaves every operation exact
    means, sds = (2.7, 3.1), (1.3, 0.7)
    unit = D_OF[design](_row(design, 1.0, means, sds))
    scaled = D_OF[design](_row(design, math.ldexp(1.0, exponent), means, sds))
    assert (scaled.d.hex(), scaled.variance.hex()) == (unit.d.hex(), unit.variance.hex())


@pytest.mark.parametrize("scale", [1e200, 1e-170])
@pytest.mark.parametrize("design", ["within", "between"])
def test_d_of_rows_whose_squared_sds_leave_the_float_range_is_the_unit_scale_d(design, scale):
    # at 1e200 the squares overflowed, at 1e-170 they underflowed to 0
    unit = D_OF[design](_row(design))
    assert unit.d == pytest.approx(UNIT_D[design], rel=1e-15)
    assert D_OF[design](_row(design, scale)).d == pytest.approx(unit.d, rel=1e-15)


def test_repeated_measures_d_keeps_its_digits_as_corr_nears_one():
    # equal sds: s_within is the sd whatever r is, which the difference-score
    # variance sd^2 + sd^2 - 2 r sd^2 kept only to about 1e-4 at r = 1 - 2^-40
    row = SummaryRow("E", 10, 10, 0.0, 1.1, 0.5, 1.1, 1.0 - 2.0 ** -40, "within")
    assert repeated_measures_d(row).d == pytest.approx(0.5 / 1.1, rel=1e-15)


def test_rows_whose_sds_are_zero_are_rejected_with_their_messages():
    with pytest.raises(ValueError, match="^E: difference-score variance is not positive$"):
        repeated_measures_d(_row("within", sds=(0.0, 0.0)))
    with pytest.raises(ValueError, match="^E: pooled standard deviation is zero$"):
        between_subjects_d(_row("between", sds=(0.0, 0.0)))


def test_each_d_builder_rejects_a_row_of_the_other_design():
    between = SummaryRow("B1", 10, 12, 20.0, 5.0, 25.0, 6.0, None, "between")
    with pytest.raises(ValueError, match="^B1: repeated-measures d requires a within-subjects row$"):
        repeated_measures_d(between)
    with pytest.raises(ValueError, match="^UPV: between-subjects d requires a between-subjects row$"):
        between_subjects_d(ROW_UPV)
