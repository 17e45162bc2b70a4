"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q perfbench/test_selftest.py

Asserts that each run prints every metric BENCHMARK.json names, with its
unit, that every check passes, that the trace counts repeat exactly from
run to run, and that the benchmark refuses to run without the package.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")
COUNTS = ("tensor.tape_nodes", "data.prepare_calls", "cli.fits", "train.ckpt_bytes")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, seed=3, cwd=ROOT):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_every_check_passes(workload, trace):
    proc = bench(workload, trace)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in out["metrics"].items()}
    for name, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        assert f"metric {name} = " in proc.stdout
    assert "fingerprint " in proc.stdout
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_trace_counts_repeat_exactly():
    first, second = (result(bench("sweep_small", 1))["metrics"] for _ in range(2))
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_package():
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("train_paper", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
