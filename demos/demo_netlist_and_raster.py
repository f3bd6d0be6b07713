#!/usr/bin/env python3
"""Export the controller as a netlist, replay it from the file, and
record the spike raster of a short hover-approach run."""

import os

from spikepid import Netlist, NetlistRuntime, build_npid, default_config, encode

os.makedirs("out", exist_ok=True)

cfg = default_config(n=15, distribution="quadratic", decay=0.9, quantized=True)
net = build_npid(cfg)
unit_neurons, input_neurons = net.neuron_count()
netlist = net.export_netlist()
netlist.save("out/npid_netlist.npz")
print(f"exported out/npid_netlist.npz: {unit_neurons} unit neurons "
      f"(6N+3), {input_neurons} input neurons, {len(netlist.synapses)} synapses")

# Replay the serialized graph and confirm it matches the live network.
runtime = NetlistRuntime(Netlist.load("out/npid_netlist.npz"))
net.record_raster(True)  # bins + full raster
tm, dg = net.grids.target_measurement, net.grids.derivative

target = 1.5
altitude = 0.0
mismatches = 0
for k in range(140):  # two simulated seconds of approach
    u = net.step(target, altitude, 0.0)
    winners = runtime.step({
        "target": encode(tm, target),
        "measurement": encode(tm, altitude),
        "derivative": encode(dg, 0.0),
    })
    trace = net.fetch_trace()
    if winners["control"] != trace.output_bin[k]:
        mismatches += 1
    altitude = min(target, altitude + 0.015)  # scripted climb

print(f"replayed 140 ticks from the file: {mismatches} mismatches")

trace = net.fetch_trace()
trace.write_csv("out/npid_trace.csv")
trace.write_raster_csv("out/npid_raster.csv")
print(f"raster rows: {len(trace.raster)} "
      f"(sparse: about {len(trace.raster) / 140:.0f} spikes/tick out of "
      f"{unit_neurons + input_neurons} neurons)")
print("wrote out/npid_trace.csv and out/npid_raster.csv")
