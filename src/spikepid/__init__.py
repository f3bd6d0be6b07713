"""spikepid: a PID controller computed by spiking winner-takes-all
populations, with a conventional discrete PID baseline and a 1-DOF
quadrotor altitude simulation around it.

The top level holds the entry points the demos and the README use; the
rest lives in the submodules (controller, grids, harness, netlist,
plant, reference, units)."""

from .controller import build_npid, default_config
from .grids import encode, make_grid
from .harness import (
    compare,
    run_step_response,
    step_experiment,
    verify_adder,
)
from .netlist import Netlist, NetlistRuntime
from .reference import PidOracle
from .units import build_adder, choose_scale, eval_unit, one_hot

__version__ = "0.1.0"

__all__ = [
    "Netlist",
    "NetlistRuntime",
    "PidOracle",
    "build_adder",
    "build_npid",
    "choose_scale",
    "compare",
    "default_config",
    "encode",
    "eval_unit",
    "make_grid",
    "one_hot",
    "run_step_response",
    "step_experiment",
    "verify_adder",
]
