"""Command-line front end: run, sweep, compare, verify-adder, bench,
export-netlist.

Exit status is nonzero when any verification reports a mismatch.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .controller import build_npid, default_config
from .harness import (
    ExperimentConfig,
    bench,
    compare,
    emit,
    load_config,
    run_step_response,
    step_experiment,
    sweep,
    verify_adder,
    write_summary_csv,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--setpoint", type=float, default=1.5, help="target altitude [m]")
    p.add_argument("--neurons", type=int, default=151, help="population resolution N")
    p.add_argument("--distribution", choices=["uniform", "quadratic"],
                   default="uniform")
    p.add_argument("--rate", type=float, default=70.0, help="control rate [Hz]")
    p.add_argument("--duration", type=float, default=20.0, help="run length [s]")
    p.add_argument("--decay", type=float, default=0.92,
                   help="integral decay factor in (0, 1]")
    p.add_argument("--mode", choices=["floor", "nearest"], default="nearest",
                   help="rounding mode of every unit")
    p.add_argument("--quantized", type=lambda s: s.lower() in ("1", "true", "yes"),
                   default=False, help="even-integer 8-bit weights")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None, help="output path prefix")


def _experiment_from_args(args, controller: str = "npid") -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
        return replace(cfg, controller=controller)
    return step_experiment(
        setpoint=args.setpoint, n=args.neurons, distribution=args.distribution,
        controller=controller, decay=args.decay, mode=args.mode,
        quantized=args.quantized, duration=args.duration, rate=args.rate,
    )


def cmd_run(args) -> int:
    cfg = _experiment_from_args(args, controller=args.controller)
    trace, metrics = run_step_response(cfg)
    print(f"{cfg.controller} step to {cfg.setpoint} m "
          f"(N={cfg.npid.output_grid.n}, {cfg.npid.output_grid.distribution}):")
    print(f"  rise 10-90%      : {metrics.rise_time:.3f} s")
    print(f"  overshoot        : {metrics.overshoot:.3f} m "
          f"({metrics.overshoot_pct:.1f} %)")
    print(f"  settling time    : {metrics.settling_time:.3f} s "
          f"(settled={metrics.settled})")
    print(f"  steady-state err : {metrics.steady_state_error:.4f} m")
    print(f"  saturation       : {metrics.saturation_fraction:.3f}")
    if args.out:
        emit(trace, "csv", args.out + ".csv")
        band = (cfg.npid.target_grid.hi - cfg.npid.target_grid.lo) / (
            cfg.npid.target_grid.n - 1)
        emit(trace, "svg", args.out + ".svg", setpoint=cfg.setpoint, band=band)
        print(f"wrote {args.out}.csv and {args.out}.svg")
    return 0


def cmd_sweep(args) -> int:
    setpoints = [float(s) for s in args.setpoints.split(",")]
    neurons = [int(s) for s in args.neuron_list.split(",")]
    dist = {n: ("quadratic" if n <= 15 else "uniform") if args.distribution == "auto"
            else args.distribution for n in neurons}
    rows = sweep(setpoints, neurons, distribution_for=dist, decay=args.decay,
                 mode=args.mode, quantized=args.quantized,
                 duration=args.duration, rate=args.rate)
    _print_rows(rows)
    if args.out:
        write_summary_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    cfgs = [
        _experiment_from_args(args, controller="npid"),
        _experiment_from_args(args, controller="baseline"),
    ]
    rows = compare(cfgs)
    _print_rows(rows)
    if args.out:
        write_summary_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def _print_rows(rows) -> None:
    if not rows:
        print("(no runs)")
        return
    cols = list(rows[0])
    print(" | ".join(f"{c:>18}" for c in cols))
    for r in rows:
        print(" | ".join(
            f"{r[c]:>18.4f}" if isinstance(r[c], float) else f"{str(r[c]):>18}"
            for c in cols))


def cmd_verify_adder(args) -> int:
    failures = 0
    for quantized in (False, True):
        rep = verify_adder(args.neurons, distribution=args.distribution,
                           mode=args.mode, quantized=quantized)
        print(rep.summary())
        if not rep.ok:
            failures += 1
            for m in rep.mismatches:
                print(f"  mismatch at bins {m[0]},{m[1]}: got {m[2]}, want {m[3]}")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    cfg = default_config(n=args.neurons, distribution=args.distribution,
                         decay=args.decay, mode=args.mode,
                         quantized=args.quantized, dt=1.0 / args.rate)
    rep = bench(cfg, ticks=args.ticks)
    print(rep.summary())
    return 0


def cmd_export_netlist(args) -> int:
    cfg = default_config(n=args.neurons, distribution=args.distribution,
                         decay=args.decay, mode=args.mode,
                         quantized=args.quantized, dt=1.0 / args.rate)
    net = build_npid(cfg)
    nl = net.export_netlist()
    path = args.out or "netlist.json"
    nl.save(path)
    unit, inputs = net.neuron_count()
    print(f"wrote {path}: {unit} unit neurons + {inputs} input neurons, "
          f"{len(nl.synapses)} synapses")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spikepid",
        description="Spiking PID controller: experiments and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single closed-loop step response")
    _add_common(p)
    p.add_argument("--controller", choices=["npid", "baseline"], default="npid")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="set-points x population sizes")
    _add_common(p)
    p.add_argument("--setpoints", default="1.0,1.5,2.0,2.5,3.0")
    p.add_argument("--neuron-list", dest="neuron_list", default="151,63,15")
    p.set_defaults(fn=cmd_sweep, distribution="auto")

    p = sub.add_parser("compare", help="spiking vs conventional controller")
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("verify-adder", help="exhaustive adder/oracle check")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_adder)

    p = sub.add_parser("bench", help="controller tick throughput")
    _add_common(p)
    p.add_argument("--ticks", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("export-netlist", help="write the netlist JSON")
    _add_common(p)
    p.set_defaults(fn=cmd_export_netlist)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
