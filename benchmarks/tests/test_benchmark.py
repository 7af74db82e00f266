"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import generate
import oracles
import run

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "family-paper": {**run.SPECS["family-paper"], "pool": 2},
    "family-large": {**run.SPECS["family-large"], "participants": 60},
    "pool-many": {**run.SPECS["pool-many"], "k": 40},
    "export-large": {**run.SPECS["export-large"], "participants": 60},
}


def test_generator_is_deterministic():
    def render(seed):
        family = generate.make_family(generate.rng_for(seed, generate.STREAM_PAPER), 12, 20, 4)
        table = generate.make_summary_table(generate.rng_for(seed, generate.STREAM_POOL), 50)
        return (family.raw_csv(), family.covariate_csv(), family.raw_csv("ITL", "TDD"),
                table.csv(), json.dumps(table.side_table()),
                generate.exclusions(family, seed))

    assert render(7) == render(7)
    assert render(7) != render(8)


def test_generator_keeps_missing_cells_and_incomplete_pairs():
    family = generate.make_family(generate.rng_for(3, generate.STREAM_LARGE), 12, 2000, 0)
    rows = family.raw_csv().splitlines()[1:]
    empty = sum(row.endswith(",") for row in rows)
    assert 0.03 < empty / len(rows) < 0.07
    assert 0.015 < 1 - len(rows) / (2 * 12 * 2000) < 0.035   # ~5 % of participants lack a row


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_every_workload(name, trace, tmp_path):
    result, lines = run.run(name, seed=5, seconds=0.3, trace=trace, spec=TINY[name],
                            out_dir=tmp_path)
    assert result["correct"], lines
    assert result["attempted"] >= 2 and result["failed"] == 0
    listed = BENCHMARK_JSON["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    assert (tmp_path / f"{name}-seed5-trace{int(trace)}.json").is_file()


def test_perturbed_pooled_estimate_fails_the_oracle(tmp_path):
    spec = TINY["family-paper"]
    inputs = run.Inputs("family-paper", spec, 5, tmp_path)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(inputs.plan))
    worker = run.run_worker(plan, tmp_path / "out.json", "plain", 0.3)
    attempted, failed, problems, _ = run.verify(inputs, [worker])
    assert failed == 0 and not problems

    worker["records"]["0"]["dl"]["pooled"] *= 1.001
    attempted, failed, problems, _ = run.verify(inputs, [worker])
    zero_ops = sum(op["key"] == 0 for op in worker["ops"])
    assert failed == zero_ops > 0
    assert any("dl.pooled" in p for p in problems)


def test_oracle_compare_tolerances():
    assert oracles.compare(1.0 + 1e-9, 1.0, "x") == []
    assert oracles.compare(1.0 + 1e-5, 1.0, "x") != []
    assert oracles.compare(1e-14, 3e-14, "p") == []        # below the absolute floor
    assert oracles.compare([1, "a"], [1, "b"], "row") != []
    assert oracles.compare({"a": 1}, {"a": 1, "b": 2}, "d") != []
    # a bound near 0 is checked at the scale of the interval, other keys are not
    near_zero = {"pooled": 0.25, "ci": [-3.6e-6, 0.5], "p": 0.05}
    assert oracles.compare({**near_zero, "ci": [-3.6e-6 + 1e-9, 0.5]}, near_zero, "r") == []
    assert oracles.compare({**near_zero, "ci": [-3.6e-6 + 1e-6, 0.5]}, near_zero, "r") != []
    assert oracles.compare({**near_zero, "p": 0.05 + 1e-9}, near_zero, "r") == []
    assert oracles.compare({**near_zero, "p": 0.05 + 1e-6}, near_zero, "r") != []


def test_stouffer_reference_is_exact_in_the_tail():
    # z_i for p_i = 1e-20 is about 9.26; a clamp of 1 - p_i to 1 - 1e-16 would give 8.21
    z, p = oracles.stouffer_reference(np.array([1e-20]))
    assert z == pytest.approx(9.262340, rel=1e-6)
    assert p == pytest.approx(1e-20, rel=1e-6)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pool-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
