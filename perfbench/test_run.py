"""Checks of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream_light", "c4_saturated", "exact_micro")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(script: Path, workload: str, seed: int, trace: int, cwd: Path):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@cache
def quick_run(workload: str, seed: int, trace: int, attempt: int = 0):
    proc = _run(HERE / "run.py", workload, seed, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    fingerprints = [line for line in lines if line.startswith("fp ")]
    assert fingerprints
    return result, fingerprints


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_fingerprints(workload):
    _, first = quick_run(workload, 3, 0)
    _, second = quick_run(workload, 3, 0, attempt=1)
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_unchanged(workload):
    traced = quick_run(workload, 3, 1)[1]
    assert traced == quick_run(workload, 3, 0)[1][:len(traced)]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_metrics_are_the_declared_ones(workload, trace, section):
    metrics = quick_run(workload, 3, trace)[0]["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    if trace == 0:
        assert all(v["value"] > 0 for v in metrics.values())


def test_workloads_are_the_declared_ones():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


def test_every_probe_finds_its_call_site():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cranplace  # noqa: F401  (loads every module the probes patch)
        import probes
        for probe in probes.PROBES:
            assert probes._sites(probe), probe.name
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path / "perfbench" / "run.py", "stream_light", 7, 0,
                tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
