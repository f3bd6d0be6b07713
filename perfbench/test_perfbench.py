"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

Runs every workload at the tiny size: on two seeds untraced (both must
pass every output check), twice traced on one seed (exact counts must
repeat), and once in process to check the span tree.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_UNITS = ("count", "MB")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_declared_names_are_the_runners():
    for section, declared in (("end_to_end", workloads.END_TO_END),
                              ("per_layer", workloads.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in DECLARED[section]] == list(declared)
    names = [m["name"] for s in ("end_to_end", "per_layer") for m in DECLARED[s]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_passes_its_checks_on_two_seeds(workload, seed):
    out = result(workload, seed, trace=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(workload, 5, trace=1) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    for name, m in first["metrics"].items():
        if m["unit"] in EXACT_UNITS:
            assert m["value"] == second["metrics"][name]["value"], name
        elif name.endswith(".self_share"):
            assert 0 <= m["value"] <= 1, name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_span_tree(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](7, workloads.SIZES["tiny"], tmp_path)
    tracer = Tracer()
    with tracer.installed():
        wl.setup()
        wl.cycle()
    assert wl.failed == 0
    _, parents, starts, ends = tracer.arrays()
    assert len(parents) > 0
    assert (tracer.self_times() >= 0).all()
    child = parents >= 0
    assert (starts[child] >= starts[parents[child]]).all()
    assert (ends[child] <= ends[parents[child]]).all()
    dur = ends - starts
    assert np.isclose(tracer.self_times().sum(), dur[~child].sum())


def test_refuses_to_run_without_the_program():
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("closed_loop", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)
