"""Independent reference values for the benchmark's outputs, and the digest.

Expected values come from the generator's own inputs, computed with scipy
and numpy, never with replimeta:

- descriptives and effect sizes: numpy reductions and the closed forms;
- t-tests: ``scipy.stats.ttest_rel`` and Welch ``ttest_ind`` (estimate, CI,
  p-value, df);
- fixed effect, DerSimonian-Laird, Q and I^2: numpy closed forms;
- REML: the restricted log-likelihood, grid-bracketed and minimised with
  ``scipy.optimize.minimize_scalar``;
- meta-regression: dense weighted least squares with ``numpy.linalg``;
- Fisher and Stouffer: ``scipy.stats.combine_pvalues``.

Every float must agree within ``atol + rtol * |expected|``: rtol 1e-6 and
atol 1e-12 by default, rtol 1e-5 for REML results (a flat likelihood fixes
tau^2 less tightly). Pooled estimates, subgroup differences and interval
bounds take for |expected| the larger bound of their interval (``compare``).
Integers and labels must match exactly. The atol means that p-values below
1e-12 are checked only absolutely.

The program floors t-test p-values at 1e-300, the smallest it represents,
and the references do the same. Nothing else of the program is mirrored:
Stouffer's z_i is the exact upper-tail normal quantile of p_i. The program
takes it as the quantile of 1 - p_i in double precision, clamped to
[1e-16, 1 - 1e-16], which loses digits for p_i within 1e-8 of 0 or 1 and
is wrong below 1.1e-16. An op fails where that error exceeds the tolerance;
``stouffer_inexact_inputs`` counts the inputs at risk.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize, stats

from generate import Family, SummaryTable

DEFAULT = (1e-6, 1e-12)   # (rtol, atol)
REML = (1e-5, 1e-9)
P_FLOOR = 1e-300
Z975 = float(stats.norm.ppf(0.975))
ORDINAL_ITEMS = 4


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

# Keys of a result dict that locate an estimate: compared at the scale of the
# result's confidence interval (see compare).
LOCATION_KEYS = ("pooled", "difference", "ci")


def _interval_scale(result: dict) -> float:
    ci = result.get("ci")
    if isinstance(ci, list) and len(ci) == 2 and all(isinstance(b, float) for b in ci):
        return max(abs(ci[0]), abs(ci[1]))
    return 0.0


def compare(got, want, path: str, tol=DEFAULT, problems: list[str] | None = None,
            scale: float = 0.0) -> list[str]:
    """Walk two JSON-shaped values; return a message for every mismatch.

    A float must agree within ``atol + rtol * max(|want|, scale)``. In a
    result dict with a ``ci``, the estimate and the interval bounds are
    compared at the scale of the interval's larger bound: a bound, pooled
    estimate or difference near 0 is a difference of larger terms and keeps
    only their absolute precision.
    """
    problems = [] if problems is None else problems
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                            f"!= {sorted(want)}")
            return problems
        interval = _interval_scale(want)
        for key in want:
            compare(got[key], want[key], f"{path}.{key}", tol, problems,
                    interval if key in LOCATION_KEYS else scale)
    elif isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            problems.append(f"{path}: length {len(got) if isinstance(got, (list, tuple)) else got!r}"
                            f" != {len(want)}")
            return problems
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{path}[{i}]", tol, problems, scale)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        rtol, atol = tol
        if not abs(got - want) <= atol + rtol * max(abs(want), scale):
            problems.append(f"{path}: got {got!r}, expected {want!r}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{path}: got {got!r}, expected {want!r}")
    return problems


# ---------------------------------------------------------------------------
# pooling references
# ---------------------------------------------------------------------------

def _two_sided_p(z: float) -> float:
    return float(2.0 * stats.norm.sf(abs(z)))


def pooled_reference(d: np.ndarray, v: np.ndarray, tau2: float, labels: list[str]) -> dict:
    k = len(d)
    w_fixed = 1.0 / v
    mu_fixed = float(w_fixed @ d / w_fixed.sum())
    q = float(w_fixed @ (d - mu_fixed) ** 2)
    df = k - 1
    q_p = float(stats.chi2.sf(q, df)) if df > 0 else 1.0
    i2 = max(0.0, (q - df) / q * 100.0) if df > 0 and q > 0 else 0.0
    w = 1.0 / (v + tau2)
    pooled = float(w @ d / w.sum())
    se = 1.0 / math.sqrt(w.sum())
    return {"pooled": pooled, "se": se, "ci": [pooled - Z975 * se, pooled + Z975 * se],
            "p": _two_sided_p(pooled / se), "tau2": float(tau2), "q": q, "q_df": df,
            "q_p": q_p, "i2": i2, "weights": (w / w.sum()).tolist(), "labels": list(labels)}


def tau2_dl(d: np.ndarray, v: np.ndarray) -> float:
    if len(d) < 2:
        return 0.0
    w = 1.0 / v
    mu = w @ d / w.sum()
    q = w @ (d - mu) ** 2
    c = w.sum() - (w @ w) / w.sum()
    return max(0.0, float((q - (len(d) - 1)) / c)) if c > 0 else 0.0


def reml_criterion(tau2: float, d: np.ndarray, v: np.ndarray) -> float:
    """-2 x restricted log-likelihood of the random-effects model, up to a constant."""
    w = 1.0 / (v + tau2)
    mu = w @ d / w.sum()
    return float(np.log(v + tau2).sum() + math.log(w.sum()) + w @ (d - mu) ** 2)


def tau2_reml(d: np.ndarray, v: np.ndarray) -> float:
    """REML tau^2 on the program's search range [0, max(10 var d, 10 max v, 1)],
    keeping the boundary 0 when it is at least as likely."""
    if len(d) < 2:
        return 0.0
    hi = max(10.0 * float(np.var(d, ddof=1)), 10.0 * float(v.max()), 1.0)
    grid = np.linspace(0.0, hi, 257)
    values = [reml_criterion(g, d, v) for g in grid]
    j = int(np.argmin(values))
    res = optimize.minimize_scalar(reml_criterion, args=(d, v), method="bounded",
                                   bounds=(grid[max(j - 1, 0)], grid[min(j + 1, 256)]),
                                   options={"xatol": 1e-14 * hi})
    best = float(res.x) if res.fun < values[j] else float(grid[j])
    return 0.0 if reml_criterion(0.0, d, v) <= reml_criterion(best, d, v) else best


def regression_reference(d: np.ndarray, v: np.ndarray, x: np.ndarray) -> list[float]:
    design = np.column_stack([np.ones(len(d)), x])

    def wls(w):
        xtwx = design.T @ (design * w[:, None])
        return np.linalg.solve(xtwx, design.T @ (w * d)), np.linalg.inv(xtwx)

    w = 1.0 / v
    beta_fixed, cov_fixed = wls(w)
    q_e = float(w @ (d - design @ beta_fixed) ** 2)
    trace = float(np.trace(cov_fixed @ (design.T @ (design * (w * w)[:, None]))))
    c = float(w.sum()) - trace
    tau2 = max(0.0, (q_e - (len(d) - 2)) / c) if c > 0 else 0.0
    beta, cov = wls(1.0 / (v + tau2))
    out = []
    for i in range(2):
        est, se = float(beta[i]), math.sqrt(cov[i, i])
        out += [est, se, est - Z975 * se, est + Z975 * se, _two_sided_p(est / se)]
    return out + [tau2]


def stouffer_reference(ps: np.ndarray, weights=None) -> list[float]:
    """Stouffer's z = sum(w_i z_i) / |w|, z_i = Phi^-1(1 - p_i) taken as the
    upper-tail quantile of p_i, and its upper-tail p-value."""
    res = stats.combine_pvalues(ps, method="stouffer", weights=weights)
    return [float(res.statistic), float(res.pvalue)]


def pooling_reference(ids, d, v, n_eff, labels, x, one_sided_ps, weights=None) -> dict:
    """Reference for everything pool_effects computes, plus Fisher and Stouffer."""
    d, v, x = np.asarray(d), np.asarray(v), np.asarray(x)
    ids, labels = list(ids), list(labels)
    dl = pooled_reference(d, v, tau2_dl(d, v), ids)
    order = list(dict.fromkeys(labels))
    groups = {}
    for label in order:
        mask = np.array([lab == label for lab in labels])
        gd, gv = d[mask], v[mask]
        groups[label] = pooled_reference(gd, gv, tau2_reml(gd, gv),
                                         [i for i, m in zip(ids, mask) if m])
    difference = ci = p = None
    if len(order) == 2:
        a, b = groups[order[0]], groups[order[1]]
        difference = b["pooled"] - a["pooled"]
        se = math.hypot(a["se"], b["se"])
        ci = [difference - Z975 * se, difference + Z975 * se]
        p = _two_sided_p(difference / se)
    ps = np.maximum(np.asarray(one_sided_ps, dtype=float), P_FLOOR)
    fisher = stats.combine_pvalues(ps, method="fisher")
    return {
        "effects": [[i, float(di), float(vi), int(n), lab, float(xi)]
                    for i, di, vi, n, lab, xi in zip(ids, d, v, n_eff, labels, x)],
        "fixed": pooled_reference(d, v, 0.0, ids),
        "dl": dl,
        "reml": pooled_reference(d, v, tau2_reml(d, v), ids),
        "forest": {"rows": [[i, float(di), float(di - Z975 * math.sqrt(vi)),
                             float(di + Z975 * math.sqrt(vi)), 100.0 * wt]
                            for i, di, vi, wt in zip(ids, d, v, dl["weights"])],
                   "diamond": [dl["pooled"], *dl["ci"]], "q": dl["q"], "q_df": dl["q_df"],
                   "q_p": dl["q_p"], "i2": dl["i2"], "tau2": dl["tau2"]},
        "subgroups": {"order": order, "groups": groups, "difference": difference, "ci": ci,
                      "p": p},
        "regression": regression_reference(d, v, x),
        "stouffer": stouffer_reference(ps, weights),
        "fisher": [float(fisher.statistic), 2 * len(ps), float(fisher.pvalue)],
    }


def stouffer_inexact_inputs(ps) -> int:
    """Inputs within 1e-8 of 0 or 1, where the program's Phi^-1(1 - p) in
    double precision loses digits (and below 1.1e-16 or at 1, clamps)."""
    ps = np.asarray(ps, dtype=float)
    return int(np.sum((ps < 1e-8) | (ps > 1.0 - 1e-8)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _hedges(d: float, v: float, df: float) -> tuple[float, float]:
    j = 1.0 - 3.0 / (4.0 * df - 1.0)
    return d * j, v * j * j


def _sd(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1))


def family_reference(family: Family, alpha: float = 0.05) -> dict:
    """What one op on ``family`` must return, in the worker's record layout."""
    summaries, covariates, two, one, votes = [], [], [], [], [0, 0, 0]
    ids, d, v, n_eff, labels, x = [], [], [], [], [], []
    participants = within_participants = pairs_complete = 0
    for rep in family.replications:
        c = rep.control[~np.isnan(rep.control)]
        t = rep.treatment[~np.isnan(rep.treatment)]
        mc, mt, sc, st = float(c.mean()), float(t.mean()), _sd(c), _sd(t)
        n = len(rep.participant_ids)
        participants += n
        if rep.design == "within":
            within_participants += n
            both = ~np.isnan(rep.control) & ~np.isnan(rep.treatment)
            pc, pt = rep.control[both], rep.treatment[both]
            n_pairs = int(both.sum())
            pairs_complete += n_pairs
            r = float(np.corrcoef(pc, pt)[0, 1])
            res2 = stats.ttest_rel(pt, pc)
            res1 = stats.ttest_rel(pt, pc, alternative="greater")
            estimate, df, n_test = float(np.mean(pt - pc)), n_pairs - 1, n_pairs
            s_within = math.sqrt(sc * sc + st * st - 2.0 * r * sc * st) / math.sqrt(2.0 * (1.0 - r))
            es = (mt - mc) / s_within
            ev = (1.0 / n_pairs + es * es / (2.0 * n_pairs)) * 2.0 * (1.0 - r)
            es, ev = _hedges(es, ev, n_pairs - 1)
            n_eff.append(n_pairs)
        else:
            r = None
            res2 = stats.ttest_ind(t, c, equal_var=False)
            res1 = stats.ttest_ind(t, c, equal_var=False, alternative="greater")
            estimate, df, n_test = mt - mc, float(res2.df), len(c) + len(t)
            pooled_var = ((len(c) - 1) * sc * sc + (len(t) - 1) * st * st) / (len(c) + len(t) - 2)
            es = (mt - mc) / math.sqrt(pooled_var)
            ev = (len(c) + len(t)) / (len(c) * len(t)) + es * es / (2.0 * (len(c) + len(t)))
            es, ev = _hedges(es, ev, len(c) + len(t) - 2)
            n_eff.append(len(c) + len(t))
        ci = res2.confidence_interval(1.0 - alpha)
        p2, p1 = max(float(res2.pvalue), P_FLOOR), max(float(res1.pvalue), P_FLOOR)
        two.append([estimate, float(ci.low), float(ci.high), p2, df, n_test])
        one.append([estimate, float(ci.low), float(ci.high), p1, df, n_test])
        votes[0 if p2 < alpha and estimate > 0 else 1 if p2 < alpha and estimate < 0 else 2] += 1
        summaries.append([rep.experiment_id, rep.design, len(c), len(t), mc, sc, mt, st, r,
                          float(np.median(c)), float(np.median(t))])
        items = rep.covariates.astype(float)
        covariates.append([rep.experiment_id, *(float(f(items[:, i]))
                                                 for i in range(ORDINAL_ITEMS)
                                                 for f in (np.mean, _sd))])
        ids.append(rep.experiment_id)
        d.append(es)
        v.append(ev)
        labels.append(rep.subject_type)
        x.append(float(items.mean(axis=0).mean()))
    return {
        "counts": {"rows_read": family.raw_rows() + family.covariate_rows(), "rows_excluded": 0,
                   "rows_written": 0, "participants": participants,
                   "within_participants": within_participants,
                   "pairs_complete": pairs_complete, "k": len(family.replications)},
        "summaries": summaries,
        "covariates": covariates,
        "outcome_profile": [[s[0], s[4], s[6]] for s in summaries],
        "covariate_profile": [[row[0], *row[1::2]] for row in covariates],
        "two_sided": two,
        "one_sided": one,
        "votes": votes,
        **pooling_reference(ids, d, v, n_eff, labels, x, [row[3] for row in one]),
    }


def summary_reference(table: SummaryTable) -> dict:
    ids, d, v, n_eff = [], [], [], []
    for i, exp in enumerate(table.experiment_ids):
        n_c, n_t = int(table.n_control[i]), int(table.n_treatment[i])
        mc, sc = table.mean_control[i], table.sd_control[i]
        mt, st = table.mean_treatment[i], table.sd_treatment[i]
        if table.design[i] == "within":
            r, n = table.corr[i], min(n_c, n_t)
            s_within = math.sqrt(sc * sc + st * st - 2.0 * r * sc * st) / math.sqrt(2.0 * (1.0 - r))
            es = (mt - mc) / s_within
            ev = (1.0 / n + es * es / (2.0 * n)) * 2.0 * (1.0 - r)
            es, ev = _hedges(es, ev, n - 1)
        else:
            n = n_c + n_t
            pooled_var = ((n_c - 1) * sc * sc + (n_t - 1) * st * st) / (n - 2)
            es = (mt - mc) / math.sqrt(pooled_var)
            ev = n / (n_c * n_t) + es * es / (2.0 * n)
            es, ev = _hedges(es, ev, n - 2)
        ids.append(exp)
        d.append(float(es))
        v.append(float(ev))
        n_eff.append(n)
    k = len(ids)
    return {"counts": {"rows_read": k, "rows_excluded": 0, "rows_written": 0,
                       "participants": 0, "within_participants": 0, "pairs_complete": 0,
                       "k": k},
            **pooling_reference(ids, d, v, n_eff, table.label, table.moderator,
                                table.p_one_sided, table.weight)}


def check_record(record: dict, want: dict) -> list[str]:
    problems: list[str] = []
    if set(record) != set(want):
        problems.append(f"record keys {sorted(record)} != {sorted(want)}")
    for key, value in want.items():
        tol = REML if key in ("reml", "subgroups") else DEFAULT
        compare(record.get(key), value, key, tol, problems)
    return problems


def export_reference(family: Family, labels: tuple[str, str],
                     excluded: set[tuple[str, str]]):
    """Rows the raw export must hold, in order, and the summary rows."""
    raw, summaries = [], []
    for rep in family.replications:
        keep = np.array([(rep.experiment_id, pid) not in excluded for pid in rep.participant_ids])
        for pid, c, t, has_c, has_t in zip(rep.participant_ids, rep.control.tolist(),
                                           rep.treatment.tolist(), rep.control_row.tolist(),
                                           rep.treatment_row.tolist()):
            if (rep.experiment_id, pid) in excluded:
                continue
            if has_c:
                raw.append((rep.experiment_id, pid, labels[0], c))
            if has_t:
                raw.append((rep.experiment_id, pid, labels[1], t))
        c, t = rep.control[keep], rep.treatment[keep]
        both = ~np.isnan(c) & ~np.isnan(t)
        c_ok, t_ok = c[~np.isnan(c)], t[~np.isnan(t)]
        summaries.append([rep.experiment_id, len(c_ok), len(t_ok), float(c_ok.mean()), _sd(c_ok),
                          float(t_ok.mean()), _sd(t_ok),
                          float(np.corrcoef(c[both], t[both])[0, 1]), "within"])
    return raw, summaries


def check_export(record: dict, raw_path, summary_path, family: Family,
                 labels: tuple[str, str], excluded: set[tuple[str, str]]) -> tuple[list[str], str]:
    """Re-read the exported CSVs independently and check them and the op's
    record (file hashes, counts); return (problems, digest)."""
    want_raw, want_summaries = export_reference(family, labels, excluded)
    problems: list[str] = []
    digest = hashlib.sha256()
    with open(raw_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["experiment_id", "participant_id", "treatment", "outcome"]:
            problems.append(f"raw export header {header!r}")
        n = 0
        for n, (want, row) in enumerate(zip(want_raw, reader), start=1):
            ok = len(row) == 4 and tuple(row[:3]) == want[:3]
            value = (math.nan if row[3] == "" else float(row[3])) if ok else math.nan
            if not ok or not (value == want[3] or (math.isnan(value) and math.isnan(want[3]))):
                problems.append(f"raw export row {n}: {row!r}, expected {want!r}")
                break
            exp, pid, label = row[:3]
            digest.update(f"{exp},{pid},{label},{value!r}\n".encode())
        else:
            if n != len(want_raw) or next(reader, None) is not None:
                problems.append(f"raw export holds {n}+ rows, expected {len(want_raw)}")
    with open(summary_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    got = [[r[0], int(r[1]), int(r[2]), *map(float, r[3:8]), r[8]] for r in rows]
    compare(got, want_summaries, "summary_export", DEFAULT, problems)
    digest.update(json.dumps(rounded(got)).encode())
    for key, path in (("raw_sha256", raw_path), ("summary_sha256", summary_path)):
        if record[key] != hashlib.sha256(Path(path).read_bytes()).hexdigest():
            problems.append(f"{key}: the files on disk are not the ones the op wrote")
    written = len(want_raw) + len(want_summaries)
    compare(record["counts"], {"rows_read": family.raw_rows(),
                               "rows_excluded": family.raw_rows() - len(want_raw),
                               "rows_written": written,
                               "participants": family.covariate_rows() - len(excluded),
                               "within_participants": 0, "pairs_complete": 0, "k": 0},
            "counts", DEFAULT, problems)
    return problems, digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------

DIGEST_DIGITS = 6


def rounded(value):
    """Floats rounded to DIGEST_DIGITS significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(v) for v in value]
    return value


def digest(records: list[dict]) -> str:
    """Hash of the records with floats rounded to DIGEST_DIGITS significant digits."""
    text = json.dumps(rounded(records), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
