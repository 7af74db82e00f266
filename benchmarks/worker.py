"""One workload's set-up and timed ops, in a process that runs nothing else.

    python3 worker.py PLAN OUT SPAWNED MODE BUDGET

PLAN is the JSON plan that run.py wrote, OUT the JSON file this process
writes, SPAWNED the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so set-up time includes
interpreter start), MODE is "plain" or "traced" and BUDGET the seconds of ops
to run. At least one op always runs; another starts only while the elapsed
time plus the median op so far fits in the budget.

Each op's record is hashed; the first record of each pool member is kept in
full for the oracles, and every later op must reproduce its hash. A traced
run also times the numerics kernels on the last op's arguments.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This process image's peak resident set (VmHWM). ru_maxrss is not used
    because Linux carries the spawning parent's peak across exec into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def record_sha256(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> int:
    plan_path, out_path, spawned, mode, budget = argv[1:6]
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import replimeta

    if src not in Path(replimeta.__file__).resolve().parents:
        print(f"replimeta imported from {replimeta.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = tracing.Tracer() if mode == "traced" else None
    workload = workloads.WORKLOADS[plan["workload"]](plan, tracing.make_api(tracer))

    setup_s = time.monotonic() - float(spawned)
    budget_s = float(budget)
    ops, records, last_result = [], {}, None
    start = time.perf_counter()
    while True:
        i = len(ops)
        if tracer is not None:
            tracer.op = i
        error = result = None  # free the previous op's outputs before timing the next
        t0 = time.perf_counter()
        try:
            result = workload.op(i)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.spans.append((tracing.OP, i, t0, t1, error is not None))
        key = workload.key(i)
        digest = None
        if error is None:
            record = workload.record(i, result)
            digest = record_sha256(record)
            records.setdefault(str(key), record)
            if tracer is not None:
                last_result = result
        ops.append({"key": key, "s": t1 - t0, "rows": workload.rows(i), "sha256": digest,
                    "error": error})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(op["s"] for op in ops) > budget_s:
            break

    peak_mb = peak_rss_mb()
    kernels = {}
    if tracer is not None:
        calls = workloads.kernel_calls(last_result) if last_result is not None else {}
        kernels = tracing.probe_kernels(calls)
    out = {"setup_s": setup_s, "peak_rss_mb": peak_mb, "mode": mode, "ops": ops,
           "records": records, "spans": tracer.spans if tracer is not None else [],
           "kernels": kernels}
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
