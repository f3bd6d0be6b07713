#!/usr/bin/env python3
"""Spiking controller vs the conventional discrete PID on the same
plant, same gains, same 70 Hz loop."""

import os

from spikepid import compare, step_experiment
from spikepid.harness import run_step_response, settle_band, write_svg

os.makedirs("out", exist_ok=True)

SETPOINT = 2.0
cfgs = [
    step_experiment(SETPOINT, n=151, controller="npid", label="spiking N=151"),
    step_experiment(SETPOINT, n=151, controller="baseline", label="conventional"),
]

rows = compare(cfgs)
print(f"step to {SETPOINT} m:")
for r in rows:
    print(f"  {r['label']:14s} rise {r['rise_time']:5.2f} s | overshoot "
          f"{r['overshoot_pct']:5.1f} % | settles {r['settling_time']:5.2f} s")

series = []
for cfg in cfgs:
    trace, _ = run_step_response(cfg)
    series.append((cfg.label, trace.t, trace.z))
# the band RunMetrics.settled judges both N=151 runs on
write_svg(series, "out/baseline_comparison.svg", setpoint=SETPOINT,
          band=settle_band(cfgs[0].npid.target_grid.build(), SETPOINT))
print("\nwrote out/baseline_comparison.svg")
print("the spiking loop trades a little smoothness for a network of "
      "909 threshold neurons; the baseline works on raw floats.")
