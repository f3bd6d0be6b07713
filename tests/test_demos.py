"""Every demo script runs to completion and writes its out/ files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# Files each demo writes under out/, relative to its working directory.
OUTPUTS = {
    "demo_baseline_comparison.py": ["baseline_comparison.svg"],
    "demo_netlist_and_raster.py": ["npid_netlist.json", "npid_trace.csv",
                                   "npid_raster.csv"],
    "demo_precision_sweep.py": ["precision_sweep.csv"],
    "demo_quantization.py": [],
    "demo_spiking_adder.py": [],
    "demo_step_response.py": ["step_n151.csv", "step_n63.csv", "step_n15.csv",
                              "step_responses.svg"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(OUTPUTS)


@pytest.mark.parametrize("demo", sorted(OUTPUTS))
def test_demo_runs_and_writes_outputs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in OUTPUTS[demo]:
        assert (tmp_path / "out" / name).stat().st_size > 0, name
