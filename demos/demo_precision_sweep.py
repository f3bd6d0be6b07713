#!/usr/bin/env python3
"""Sweep set-points x population sizes and tabulate the metrics.

The headline observation: shrinking the output population from 151 to 63
barely moves the dynamics, and even 15 quadratically-spaced neurons fly,
just with a steady offset inside their wide zero-error bin.
"""

import os

from spikepid import compare, step_experiment
from spikepid.harness import write_summary_csv

os.makedirs("out", exist_ok=True)

rows = compare([step_experiment(setpoint=sp, n=n, distribution=dist)
                for n, dist in ((151, "uniform"), (63, "uniform"), (15, "quadratic"))
                for sp in (1.0, 1.5, 2.0, 2.5, 3.0)])

print(f"{'N':>4} {'dist':>10} {'sp':>5} {'rise':>6} {'over%':>6} "
      f"{'settle':>7} {'sse_cm':>7}")
for r in rows:
    print(f"{r['n']:>4} {r['distribution']:>10} {r['setpoint']:>5.1f} "
          f"{r['rise_time']:>6.2f} {r['overshoot_pct']:>6.1f} "
          f"{r['settling_time']:>7.2f} {r['steady_state_error'] * 100:>7.2f}")

write_summary_csv(rows, "out/precision_sweep.csv")
print("\nwrote out/precision_sweep.csv")
