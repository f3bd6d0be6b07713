"""Record the closed_loop golden trace digests.

    python3 perfbench/record_golden.py

Runs every closed_loop config at every set-point of the lattice once and
writes the SHA-256 of each trace CSV to golden_closed_loop.json.  The
digests are the reference the closed_loop workload checks every run
against, so record them only at a commit whose traces are known to be
right; re-recording after a change that moves a bin hides that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path above)
from run import WORKDIR, git_commit  # noqa: E402
from spikepid import harness  # noqa: E402


def main() -> None:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    csv_path = WORKDIR / "golden_trace.csv"
    digests = {}
    for n, dist, quantized in workloads.CLOSED_LOOP_CONFIGS:
        for sp in workloads.SETPOINTS:
            cfg = harness.step_experiment(setpoint=sp, n=n, distribution=dist,
                                          quantized=quantized)
            trace, _ = harness.run_step_response(cfg)
            digests[workloads.golden_key(n, dist, quantized, sp)] = \
                workloads.trace_digest(trace, csv_path)
    out = {"recorded_at_commit": git_commit(), "digests": digests}
    workloads.GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
