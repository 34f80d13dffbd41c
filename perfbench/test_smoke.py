"""Smoke tests of the benchmark itself, at the smallest instance sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs for one second per mode; the tests check that every
metric BENCHMARK.json names is emitted with its unit, that the correctness
gate passes, and that the benchmark refuses to run without the library.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    done = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if trace == "0":
            assert emitted["value"] > 0


def test_same_seed_same_reports():
    hashes = set()
    for _ in range(2):
        done = run("--workload", "lifted-restricted", "--seed", "5", "--seconds", "0",
                   "--smoke")
        record = json.loads(done.stdout.splitlines()[-2])["record"]
        hashes.add(record["reports_sha256"])
    assert len(hashes) == 1


def test_refuses_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run("--workload", "orders-wide", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
