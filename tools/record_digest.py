"""Print one SHA-256 per gated workload and seed over the full-precision records of
every pool member, to back a claim that a change keeps every bit of the results.

    python3 tools/record_digest.py SEED [SEED ...]

Each member is run once through the benchmark's own workloads, and its record, with the
vote verdict added, is hashed by `worker.record_sha256`, which writes floats by repr.
Run it in both trees; the digests agree only if every float of every record does.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
import run, tracing, workloads  # noqa: E402
from worker import record_sha256  # noqa: E402

for seed in map(int, sys.argv[1:]):
    for name in ("family-paper", "pool-many"):
        with tempfile.TemporaryDirectory() as work:
            inputs = run.Inputs(name, run.SPECS[name], seed, Path(work))
            workload = workloads.WORKLOADS[name](inputs.plan, tracing.make_api())
            digest = hashlib.sha256()
            for i in range(inputs.pool):
                record = workload.record(i, result := workload.op(i))
                record["verdict"] = result["votes"].verdict if "votes" in result else None
                digest.update(record_sha256(record).encode())
        print(f"{name} seed {seed}: {inputs.pool} members, {digest.hexdigest()}")
