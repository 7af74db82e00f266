"""Spans around the benchmark's calls into replimeta.

The ops call the program only through the namespace that ``make_api``
returns. Untraced, its attributes are the program's own functions; traced,
each call records a span ``(name, op, start, end, failed)`` in memory, where
``op`` is the index of the enclosing op span (-1 during set-up). The worker
writes the spans out when the run ends. Spans are taken at the program's
public boundary only; calls inside the program are not seen.
"""

from __future__ import annotations

from functools import partial
from statistics import median
from time import perf_counter
from types import SimpleNamespace

# Span names, "<module>.<function>". pool_random is split by tau^2 method,
# data.arm_values is the Replication.arm_values method, and
# effects.EffectSize builds the labelled effect sizes the pools take.
SPAN_NAMES = (
    "data.load_raw_dataset",
    "data.load_covariates",
    "data.load_summary_dataset",
    "data.complete_pairs",
    "data.arm_values",
    "data.save_raw_dataset",
    "data.save_summary_dataset",
    "descriptives.summarize_replication",
    "descriptives.summarize_covariates",
    "descriptives.profile_series_outcomes",
    "descriptives.profile_series_covariates",
    "individual.paired_t_test",
    "individual.independent_t_test",
    "effects.repeated_measures_d",
    "effects.between_subjects_d",
    "effects.hedges_correction",
    "effects.EffectSize",
    "meta.pool_fixed",
    "meta.pool_random.dl",
    "meta.pool_random.reml",
    "meta.forest_model",
    "meta.subgroup_analysis",
    "meta.meta_regression",
    "pvalues.fisher_pool",
    "pvalues.stouffer_pool",
    "pvalues.vote_count",
)
MODULES = ("data", "descriptives", "individual", "effects", "meta", "pvalues")
OP = "op"


def attribute(span_name: str) -> str:
    """The api attribute for a span name: "meta.pool_random.dl" -> "pool_random_dl"."""
    return span_name.split(".", 1)[1].replace(".", "_")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, bool]] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                spans.append((name, self.op, start, perf_counter(), failed))

        return traced


def make_api(tracer: Tracer | None = None) -> SimpleNamespace:
    from replimeta import data, descriptives, effects, individual, meta, pvalues

    modules = {"data": data, "descriptives": descriptives, "effects": effects,
               "individual": individual, "meta": meta, "pvalues": pvalues}
    special = {
        "data.arm_values": lambda replication, arm: replication.arm_values(arm),
        "meta.pool_random.dl": partial(meta.pool_random, tau2_method="dl"),
        "meta.pool_random.reml": partial(meta.pool_random, tau2_method="reml"),
    }
    api = SimpleNamespace()
    for name in SPAN_NAMES:
        module, function = name.split(".", 1)
        fn = special.get(name) or getattr(modules[module], function)
        setattr(api, attribute(name), fn if tracer is None else tracer.wrap(name, fn))
    return api


KERNELS = ("t_quantile", "t_sf", "chisq_sf", "normal_quantile")


def probe_kernels(calls: dict[str, list[tuple]], repeats: int = 5) -> dict[str, dict]:
    """Time each numerics kernel directly on the arguments one op passes it.

    Returns per kernel the median over ``repeats`` passes of the time per
    call in microseconds, and the number of calls one op makes. A kernel the
    op never calls reads 0 for both.
    """
    from replimeta import numerics

    out = {}
    for name in KERNELS:
        args = calls.get(name, [])
        fn = getattr(numerics, name)
        per_call = []
        for _ in range(repeats if args else 0):
            start = perf_counter()
            for a in args:
                fn(*a)
            per_call.append((perf_counter() - start) / len(args))
        out[name] = {"us": median(per_call) * 1e6 if per_call else 0.0,
                     "calls_per_op": len(args)}
    return out
