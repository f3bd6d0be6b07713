"""Fly every (config, set-point) pair of the benchmark's closed_loop
lattice and compare each trace CSV's SHA-256 with the recorded digest
in perfbench/golden_closed_loop.json, which this script only reads.

    python3 tests/check_golden_traces.py

Prints the count of matching digests and each key that differs, and
exits 1 if any does.  Tier-1's TestGoldenTraces checks a 36-pair sample
of the same digests; this checks all of them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (needs the paths above)
from spikepid.harness import run_step_response, step_experiment  # noqa: E402


def main() -> int:
    golden = json.loads(workloads.GOLDEN_PATH.read_text())["digests"]
    flown, bad = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        for n, dist, quantized in workloads.CLOSED_LOOP_CONFIGS:
            for sp in workloads.SETPOINTS:
                trace, _ = run_step_response(step_experiment(
                    setpoint=sp, n=n, distribution=dist, quantized=quantized))
                key = workloads.golden_key(n, dist, quantized, sp)
                flown += 1
                if workloads.trace_digest(trace, path) != golden[key]:
                    bad.append(key)
    print(f"{flown - len(bad)}/{flown} closed-loop trace digests match "
          f"({len(golden)} recorded)")
    for key in bad:
        print(f"MISMATCH {key}")
    return 1 if bad or flown != len(golden) else 0


if __name__ == "__main__":
    sys.exit(main())
