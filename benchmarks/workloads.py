"""What each workload's set-up does and what one op calls.

Runs inside the worker process. The program is called only through the
``api`` namespace from ``tracing.make_api``; everything else here is glue
(looking up subgroup labels and moderators, turning results into records).
A record is a plain, JSON-ready view of one op's outputs; the parent checks
it against the oracles.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from statistics import fmean

from replimeta.data import CONTROL, ORDINAL_COVARIATES, TREATMENT, ParseOptions
from replimeta.individual import ONE_SIDED_GREATER, TWO_SIDED


def labelled(api, effect, label, moderator):
    """The effect size with its subgroup label and moderator value."""
    return api.EffectSize(effect.experiment_id, effect.d, effect.variance, effect.n_effective,
                          corrected=effect.corrected, subgroup_label=label,
                          moderator_x=moderator)


def pool_effects(api, effects):
    """The joint and moderator analyses shared by the family and pool ops."""
    fixed = api.pool_fixed(effects)
    dl = api.pool_random_dl(effects)
    reml = api.pool_random_reml(effects)
    forest = api.forest_model(effects, dl)
    subgroups = api.subgroup_analysis(effects)
    regression = api.meta_regression(effects)
    return {"fixed": fixed, "dl": dl, "reml": reml, "forest": forest,
            "subgroups": subgroups, "regression": regression}


def analyse_family(api, raw_path, covariate_path, options):
    """The paper's five stages on one family read from disk."""
    dataset = api.load_raw_dataset(raw_path, options)
    covariates = api.load_covariates(covariate_path, dataset)
    summaries = [api.summarize_replication(rep) for rep in dataset.replications]
    covariate_summaries = api.summarize_covariates(covariates)
    outcome_profile = api.profile_series_outcomes(dataset)
    covariate_profile = api.profile_series_covariates(covariates)

    subject_type = {}
    for row in covariates.rows:
        subject_type.setdefault(row.experiment_id, row.subject_type)
    experience = {s.experiment_id: fmean(s.mean(name) for name in ORDINAL_COVARIATES)
                  for s in covariate_summaries}

    two_sided, one_sided, effects, pairs_complete = [], [], [], 0
    for rep, row in zip(dataset.replications, summaries):
        exp = rep.experiment_id
        if rep.design == "within":
            pairs = api.complete_pairs(rep)
            pairs_complete += pairs.n_pairs
            two_sided.append(api.paired_t_test(pairs, TWO_SIDED))
            one_sided.append(api.paired_t_test(pairs, ONE_SIDED_GREATER))
            effect = api.hedges_correction(api.repeated_measures_d(row, pairs.n_pairs),
                                           pairs.n_pairs - 1)
        else:
            control = api.arm_values(rep, CONTROL)
            treatment = api.arm_values(rep, TREATMENT)
            two_sided.append(api.independent_t_test(control, treatment, sidedness=TWO_SIDED,
                                                    experiment_id=exp))
            one_sided.append(api.independent_t_test(control, treatment,
                                                    sidedness=ONE_SIDED_GREATER,
                                                    experiment_id=exp))
            effect = api.hedges_correction(api.between_subjects_d(row),
                                           row.n_control + row.n_treatment - 2)
        effects.append(labelled(api, effect, subject_type[exp], experience[exp]))

    one_sided_ps = [t.p_value for t in one_sided]
    return {"p_values": one_sided_ps,
        "dataset": dataset, "covariates": covariates, "summaries": summaries,
        "covariate_summaries": covariate_summaries, "outcome_profile": outcome_profile,
        "covariate_profile": covariate_profile, "two_sided": two_sided, "one_sided": one_sided,
        "pairs_complete": pairs_complete, "effects": effects,
        **pool_effects(api, effects),
        "fisher": api.fisher_pool(one_sided_ps),
        "stouffer": api.stouffer_pool(one_sided_ps),
        "votes": api.vote_count(two_sided),
    }


def analyse_summaries(api, summary_path, side, p_values, weights):
    """Aggregated-data analysis of k studies. The benchmark's side table gives
    each study's (subgroup label, moderator) and the p-values and Stouffer
    weights to pool."""
    rows = api.load_summary_dataset(summary_path)
    effects = []
    for row in rows:
        if row.design == "within":
            effect = api.hedges_correction(api.repeated_measures_d(row),
                                           min(row.n_control, row.n_treatment) - 1)
        else:
            effect = api.hedges_correction(api.between_subjects_d(row),
                                           row.n_control + row.n_treatment - 2)
        effects.append(labelled(api, effect, *side[row.experiment_id]))
    return {
        "rows": rows, "effects": effects, "p_values": p_values,
        **pool_effects(api, effects),
        "stouffer": api.stouffer_pool(p_values, weights),
        "fisher": api.fisher_pool(p_values),
    }


def kernel_calls(result) -> dict[str, list[tuple]]:
    """Arguments of the numerics kernel calls one op makes, by kernel.

    Derived from the op's results and the structure of the callers: each
    t-test calls t_quantile(1 - alpha/2, df) and t_sf once; each pool calls
    normal_quantile(0.975) and, when Q has df > 0, chisq_sf(Q, df), which
    DerSimonian-Laird does twice; subgroup differences, meta_regression and
    forest_model call normal_quantile(0.975) once; Fisher calls chisq_sf on
    its statistic and Stouffer calls normal_quantile once per input.
    """
    from replimeta.numerics import t_quantile

    calls = {"t_quantile": [], "t_sf": [], "chisq_sf": [], "normal_quantile": []}
    for key, two_sided in (("two_sided", True), ("one_sided", False)):
        for test in result.get(key, []):
            se = (test.ci_high - test.ci_low) / (2.0 * t_quantile(0.975, test.df))
            t = test.estimate / se
            calls["t_quantile"].append((0.975, test.df))
            calls["t_sf"].append((abs(t) if two_sided else t, test.df))
    subgroups = result["subgroups"]
    pools = [result["fixed"], result["dl"], result["reml"], *subgroups.groups.values()]
    calls["chisq_sf"] += [(m.q, m.q_df) for m in pools + [result["dl"]] if m.q_df > 0]
    z_calls = len(pools) + 2 + (subgroups.difference is not None)
    calls["normal_quantile"] += [(0.975,)] * z_calls
    fisher = result["fisher"]
    calls["chisq_sf"].append((fisher.statistic, fisher.df))
    calls["normal_quantile"] += [(min(1.0 - 1e-16, 1.0 - p),) if p < 1.0 else (1e-16,)
                                 for p in result["p_values"]]
    return calls


# ---------------------------------------------------------------------------
# records: plain views of results for the oracles and the digest
# ---------------------------------------------------------------------------

def _meta_record(m) -> dict:
    return {"pooled": m.pooled, "se": m.se, "ci": [m.ci_low, m.ci_high], "p": m.p_value,
            "tau2": m.tau2, "q": m.q, "q_df": m.q_df, "q_p": m.q_p, "i2": m.i2,
            "weights": list(m.weights), "labels": list(m.labels)}


def _test_record(t) -> list:
    return [t.estimate, t.ci_low, t.ci_high, t.p_value, t.df, t.n]


def pooled_record(result) -> dict:
    forest, sub, reg = result["forest"], result["subgroups"], result["regression"]
    return {
        "effects": [[e.experiment_id, e.d, e.variance, e.n_effective, e.subgroup_label,
                     e.moderator_x] for e in result["effects"]],
        "fixed": _meta_record(result["fixed"]),
        "dl": _meta_record(result["dl"]),
        "reml": _meta_record(result["reml"]),
        "forest": {"rows": [list(r) for r in forest.rows], "diamond": list(forest.diamond),
                   "q": forest.q, "q_df": forest.q_df, "q_p": forest.q_p, "i2": forest.i2,
                   "tau2": forest.tau2},
        "subgroups": {"order": list(sub.group_order),
                      "groups": {k: _meta_record(v) for k, v in sub.groups.items()},
                      "difference": sub.difference,
                      "ci": None if sub.difference_ci is None else list(sub.difference_ci),
                      "p": sub.difference_p},
        "regression": [reg.intercept, reg.intercept_se, *reg.intercept_ci, reg.intercept_p,
                       reg.slope, reg.slope_se, *reg.slope_ci, reg.slope_p, reg.tau2],
        "stouffer": [result["stouffer"].statistic, result["stouffer"].p_value],
        "fisher": [result["fisher"].statistic, result["fisher"].df, result["fisher"].p_value],
    }


def family_record(result, rows_in_file: int) -> dict:
    dataset, covariates = result["dataset"], result["covariates"]
    loaded = sum(len(rep.observations) for rep in dataset.replications)
    participants = sum(len(rep.participant_ids()) for rep in dataset.replications)
    within = sum(len(rep.participant_ids()) for rep in dataset.replications
                 if rep.design == "within")
    votes = result["votes"]
    return {
        "counts": {"rows_read": rows_in_file + len(covariates.rows),
                   "rows_excluded": rows_in_file - loaded, "rows_written": 0,
                   "participants": participants, "within_participants": within,
                   "pairs_complete": result["pairs_complete"], "k": len(result["effects"])},
        "summaries": [[s.experiment_id, s.design, s.n_control, s.n_treatment, s.mean_control,
                       s.sd_control, s.mean_treatment, s.sd_treatment, s.corr,
                       s.median_control, s.median_treatment] for s in result["summaries"]],
        "covariates": [[s.experiment_id, *(v for name in ORDINAL_COVARIATES for v in s.stats[name])]
                       for s in result["covariate_summaries"]],
        "outcome_profile": [[exp, *ys] for exp, ys in result["outcome_profile"].rows],
        "covariate_profile": [[exp, *ys] for exp, ys in result["covariate_profile"].rows],
        "two_sided": [_test_record(t) for t in result["two_sided"]],
        "one_sided": [_test_record(t) for t in result["one_sided"]],
        "votes": [votes.significant_positive, votes.significant_negative, votes.non_significant],
        **pooled_record(result),
    }


def summary_record(result) -> dict:
    k = len(result["rows"])
    return {"counts": {"rows_read": k, "rows_excluded": 0, "rows_written": 0,
                       "participants": 0, "within_participants": 0, "pairs_complete": 0,
                       "k": len(result["effects"])},
            **pooled_record(result)}


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: set-up in the constructor, then op(i) / record(result) / rows(i)
# ---------------------------------------------------------------------------

class FamilyWorkload:
    """family-paper and family-large: the whole procedure per op, cycling
    through the plan's pool of families."""

    def __init__(self, plan, api):
        self.api = api
        self.families = plan["families"]
        self.options = [ParseOptions(design=f["designs"]) for f in self.families]

    def key(self, i: int) -> int:
        return i % len(self.families)

    def rows(self, i: int) -> int:
        return self.families[self.key(i)]["raw_rows"]

    def op(self, i: int):
        f = self.families[self.key(i)]
        return analyse_family(self.api, f["raw"], f["covariates"], self.options[self.key(i)])

    def record(self, i: int, result) -> dict:
        return family_record(result, self.rows(i))


class PoolWorkload:
    """pool-many: aggregated data of k studies."""

    def __init__(self, plan, api):
        self.api = api
        self.path = plan["summary"]
        side = plan["side"]
        self.side = {exp: (label, x) for exp, label, x in
                     zip(side["experiment_id"], side["label"], side["moderator"])}
        self.p_values, self.weights = side["p"], side["weight"]
        self.k = len(self.side)

    def key(self, i: int) -> int:
        return 0

    def rows(self, i: int) -> int:
        return self.k

    def op(self, i: int):
        return analyse_summaries(self.api, self.path, self.side, self.p_values, self.weights)

    def record(self, i: int, result) -> dict:
        return summary_record(result)


class ExportWorkload:
    """export-large: set-up loads (relabelling, excluding) and summarizes;
    each op writes the raw and summary CSVs."""

    def __init__(self, plan, api):
        self.api = api
        self.options = ParseOptions(control_label=plan["labels"][0],
                                    treatment_label=plan["labels"][1], design="within",
                                    exclude=frozenset(tuple(p) for p in plan["exclude"]))
        self.dataset = api.load_raw_dataset(plan["raw"], self.options)
        self.summaries = [api.summarize_replication(rep) for rep in self.dataset.replications]
        self.out_raw, self.out_summary = plan["out_raw"], plan["out_summary"]
        loaded = sum(len(rep.observations) for rep in self.dataset.replications)
        self.counts = {"rows_read": plan["raw_rows"], "rows_excluded": plan["raw_rows"] - loaded,
                       "rows_written": loaded + len(self.summaries),
                       "participants": sum(len(rep.participant_ids())
                                           for rep in self.dataset.replications),
                       "within_participants": 0, "pairs_complete": 0, "k": 0}

    def key(self, i: int) -> int:
        return 0

    def rows(self, i: int) -> int:
        return self.counts["rows_written"]

    def op(self, i: int):
        self.api.save_raw_dataset(self.dataset, self.out_raw, self.options)
        self.api.save_summary_dataset(self.summaries, self.out_summary)

    def record(self, i: int, result) -> dict:
        return {"counts": self.counts, "raw_sha256": file_sha256(self.out_raw),
                "summary_sha256": file_sha256(self.out_summary)}


WORKLOADS = {
    "family-paper": FamilyWorkload,
    "family-large": FamilyWorkload,
    "pool-many": PoolWorkload,
    "export-large": ExportWorkload,
}
