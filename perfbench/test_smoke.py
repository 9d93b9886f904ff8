"""Smoke test of the benchmark: every workload at tiny size with all its checks.

    python3 -m pytest perfbench/test_smoke.py

It is not part of the library's test suite (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    done = run(ROOT, workload, trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the only failing operation is the N = 9 trace, once per round
    if workload == "traces":
        assert 0 < result["failed"] < result["attempted"]
        assert "modulus 9" in done.stderr
    else:
        assert result["failed"] == 0
    if trace:
        spans = [json.loads(line) for line in
                 (HERE / "out" / f"trace-{workload}-3.jsonl").read_text().splitlines()]
        assert spans and all({"name", "start", "end", "parent", "sys_s", "minflt"} <= set(s)
                             for s in spans)


def test_refuses_without_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, WORKLOADS[0], 0)
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
