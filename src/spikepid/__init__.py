"""spikepid: a PID controller computed by spiking winner-takes-all
populations, with a conventional discrete PID baseline and a 1-DOF
quadrotor altitude simulation around it."""

from .controller import (
    GridSpec,
    NpidConfig,
    NpidGrids,
    NpidNetwork,
    SpikeTrace,
    build_npid,
    default_config,
)
from .grids import ValueGrid, decode, encode, make_grid
from .harness import (
    AdderCheckReport,
    BenchReport,
    ExperimentConfig,
    RunMetrics,
    TraceRecord,
    bench,
    compare,
    emit,
    load_config,
    run_step_response,
    step_experiment,
    sweep,
    verify_adder,
)
from .netlist import Netlist, NetlistRuntime, export_netlist
from .plant import (
    PlantParams,
    PlantState,
    SensorModel,
    battery_sag,
    hover_thrust,
    plant_step,
    sense,
)
from .reference import (
    PidGains,
    PidOracle,
    PidState,
    QuantPidState,
    pid_step,
    round_to_grid,
)
from .units import (
    AdderUnit,
    InputSpec,
    build_adder,
    choose_scale,
    eval_unit,
    one_hot,
    quantize_weight,
)

__version__ = "0.1.0"

__all__ = [
    "AdderCheckReport",
    "AdderUnit",
    "BenchReport",
    "ExperimentConfig",
    "GridSpec",
    "InputSpec",
    "Netlist",
    "NetlistRuntime",
    "NpidConfig",
    "NpidGrids",
    "NpidNetwork",
    "PidGains",
    "PidOracle",
    "PidState",
    "PlantParams",
    "PlantState",
    "QuantPidState",
    "RunMetrics",
    "SensorModel",
    "SpikeTrace",
    "TraceRecord",
    "ValueGrid",
    "battery_sag",
    "bench",
    "build_adder",
    "build_npid",
    "choose_scale",
    "compare",
    "decode",
    "default_config",
    "emit",
    "encode",
    "eval_unit",
    "export_netlist",
    "hover_thrust",
    "load_config",
    "make_grid",
    "one_hot",
    "pid_step",
    "plant_step",
    "quantize_weight",
    "round_to_grid",
    "run_step_response",
    "sense",
    "step_experiment",
    "sweep",
    "verify_adder",
]
