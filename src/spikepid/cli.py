"""Command-line front end: run, sweep, compare, verify-adder, bench,
export-netlist.

run, compare, bench and export-netlist get their controller from one
path: --config, or else step_experiment on the step flags given (a flag
left out keeps its default there).  So bench times and export-netlist
writes the controller that run flies.  Each verb takes only the flags it
reads; any other flag, or a step flag given with --config, exits 2.
run --controller and compare take their controllers from CONTROLLERS.
A bad flag value, config value or --out path exits 2 with the verb's
usage line and a message that names it; an --out in a missing directory
does so before anything is built or run.  Exit status is 1 when a
verification reports a mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .controller import build_npid
from .harness import (
    CONTROLLERS,
    ExperimentConfig,
    bench,
    compare,
    load_config,
    run_step_response,
    settle_band,
    step_experiment,
    verify_adder,
    write_summary_csv,
    write_svg,
)


def _boolean(text):
    """argparse type for a yes/no value: true/false, 1/0 or yes/no, in
    any case; anything else is an error that names the flag."""
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(text)


_boolean.__name__ = "boolean"  # argparse's error names it


# The flags that set a step_experiment argument: flag -> (argument,
# argparse options).  Each defaults to SUPPRESS, so a flag left out is
# absent from the parsed args and step_experiment's default applies.
STEP_FLAGS = {
    "--setpoint": ("setpoint", dict(type=float, help="target altitude [m]")),
    "--neurons": ("n", dict(type=int, help="population resolution N")),
    "--distribution": ("distribution", dict(choices=["uniform", "quadratic"])),
    "--rate": ("rate", dict(type=float, help="control rate [Hz]")),
    "--duration": ("duration", dict(type=float, help="run length [s]")),
    "--decay": ("decay", dict(type=float, help="integral decay factor in (0, 1]")),
    "--mode": ("mode", dict(choices=["floor", "nearest"],
                            help="rounding mode of every unit")),
    "--quantized": ("quantized", dict(
        type=_boolean, help="even-integer 8-bit weights (true/false)")),
}
RUN = tuple(STEP_FLAGS)
CONTROLLER = tuple(f for f in RUN if f not in ("--setpoint", "--duration"))
GRID = ("--neurons", "--distribution", "--mode")


def _list_of(kind):
    """argparse type for comma-separated kind values."""
    def parse(text):
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's error names it
    return parse


def _step_args(args) -> dict:
    """The step_experiment arguments among the flags given."""
    names = {name for name, _ in STEP_FLAGS.values()} | {"controller"}
    return {k: v for k, v in vars(args).items() if k in names}


def _experiment_from_args(args, **override) -> ExperimentConfig:
    """The run the flags describe; main has rejected step flags given
    with --config, so only --controller can override the file."""
    kwargs = _step_args(args) | override
    if getattr(args, "config", None):
        return replace(load_config(args.config), **kwargs)
    return step_experiment(**kwargs)


def cmd_run(args) -> int:
    cfg = _experiment_from_args(args)
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
        trace.write_csv(args.out + ".csv")
        write_svg([("altitude", trace.t, trace.z)], args.out + ".svg", setpoint=cfg.setpoint,
                  band=settle_band(cfg.npid.target_grid.build(), cfg.setpoint))
        print(f"wrote {args.out}.csv and {args.out}.svg")
    return 0


def cmd_sweep(args) -> int:
    auto = args.distribution == "auto"
    return _report(compare([
        _experiment_from_args(args, setpoint=sp, n=n, distribution=(
            ("quadratic" if n <= 15 else "uniform") if auto else args.distribution))
        for n in args.neuron_list for sp in args.setpoints]), args.out)


def cmd_compare(args) -> int:
    return _report(compare([_experiment_from_args(args, controller=controller)
                            for controller in CONTROLLERS]), args.out)


def _report(rows, out) -> int:
    """Print summary rows as a table and, given a path, write them as CSV."""
    cols = list(rows[0])
    print(" | ".join(f"{c:>18}" for c in cols))
    for r in rows:
        print(" | ".join(
            f"{r[c]:>18.4f}" if isinstance(r[c], float) else f"{str(r[c]):>18}"
            for c in cols))
    if out:
        write_summary_csv(rows, out)
        print(f"wrote {out}")
    return 0


def cmd_verify_adder(args) -> int:
    # The experiment's output grid and mode carry the flags' defaults.
    cfg = _experiment_from_args(args).npid
    failures = 0
    for quantized in (False, True):
        rep = verify_adder(cfg.output_grid.n, mode=cfg.mode, quantized=quantized,
                           distribution=cfg.output_grid.distribution)
        print(rep.summary())
        if not rep.ok:
            failures += 1
            for m in rep.mismatches:
                print(f"  mismatch at bins {m[0]},{m[1]}: got {m[2]}, want {m[3]}")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    rep = bench(_experiment_from_args(args).npid, ticks=args.ticks)
    print(rep.summary())
    return 0


def cmd_export_netlist(args) -> int:
    net = build_npid(_experiment_from_args(args).npid)
    nl = net.export_netlist()
    nl.save(args.out)
    unit, inputs = net.neuron_count()
    print(f"wrote {args.out}: {unit} unit neurons + {inputs} input neurons, "
          f"{len(nl.synapses)} synapses")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spikepid",
        description="Spiking PID controller: experiments and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, fn, summary, flags, config=True, out=True):
        # No abbreviations: sweep must not take --setpoint for --setpoints.
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            dest, options = STEP_FLAGS[flag]
            p.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **options)
        if config:
            p.add_argument("--config", help="JSON config file, in place of the step flags")
        if out:
            p.add_argument("--out", help="output path (run: prefix)")
        p.set_defaults(fn=fn, parser=p)
        return p

    p = verb("run", cmd_run, "single closed-loop step response", RUN)
    p.add_argument("--controller", choices=CONTROLLERS, default=argparse.SUPPRESS)

    p = verb("sweep", cmd_sweep, "set-points x population sizes",
             [f for f in RUN if f not in ("--setpoint", "--neurons")], config=False)
    p.add_argument("--setpoints", type=_list_of(float), default="1.0,1.5,2.0,2.5,3.0")
    p.add_argument("--neuron-list", dest="neuron_list", type=_list_of(int),
                   default="151,63,15")
    p.set_defaults(distribution="auto")

    verb("compare", cmd_compare, "every controller on one run", RUN)
    verb("verify-adder", cmd_verify_adder, "exhaustive adder/oracle check", GRID,
         config=False, out=False)

    p = verb("bench", cmd_bench, "controller tick throughput", CONTROLLER, out=False)
    p.add_argument("--ticks", type=int, default=1_000_000)

    p = verb("export-netlist", cmd_export_netlist, "write the netlist file", CONTROLLER)
    p.set_defaults(out="netlist.npz")

    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        for flag, (dest, _) in STEP_FLAGS.items():
            if dest in args:
                args.parser.error(f"argument {flag}: not allowed with --config")
    out_dir = os.path.dirname(getattr(args, "out", None) or "")
    if out_dir and not os.path.isdir(out_dir):
        args.parser.error(f"argument --out: no directory {out_dir}")
    # The one exit-2 path for a bad value: the ValueError or OSError that
    # names a flag, config value or path, wherever the verb meets it.
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        args.parser.error(str(e))


if __name__ == "__main__":
    sys.exit(main())
