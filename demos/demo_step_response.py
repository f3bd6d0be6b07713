#!/usr/bin/env python3
"""Closed-loop altitude step responses at three population sizes.

Writes trace CSVs and an overlay SVG into ./out/.
"""

import os

from spikepid import run_step_response, step_experiment
from spikepid.harness import settle_band, write_svg

os.makedirs("out", exist_ok=True)

SETPOINT = 1.5
runs = [
    ("N=151 uniform", step_experiment(SETPOINT, n=151, distribution="uniform")),
    ("N=63 uniform", step_experiment(SETPOINT, n=63, distribution="uniform")),
    ("N=15 quadratic", step_experiment(SETPOINT, n=15, distribution="quadratic")),
]

series = []
print(f"step response to {SETPOINT} m from the ground, 70 Hz loop\n")
for label, cfg in runs:
    trace, m = run_step_response(cfg)
    series.append((label, trace.t, trace.z))
    slug = label.split()[0].lower().replace("=", "")
    trace.write_csv(f"out/step_{slug}.csv")
    print(f"{label:15s} rise {m.rise_time:5.2f} s | overshoot "
          f"{m.overshoot_pct:5.1f} % | settles {m.settling_time:5.2f} s | "
          f"steady error {m.steady_state_error * 100:5.2f} cm")

# the band RunMetrics.settled judges the N=151 run on
band = settle_band(runs[0][1].npid.target_grid.build(), SETPOINT)
write_svg(series, "out/step_responses.svg", setpoint=SETPOINT, band=band)
print("\nwrote out/step_*.csv and out/step_responses.svg")
print("note: the coarse quadratic controller holds a small steady offset; "
      "its zero-error bin is wide, so it hovers wherever the target bin "
      "stops producing an error spike.")
