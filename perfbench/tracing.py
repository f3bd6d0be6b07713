"""Span recording for the traced benchmark pass.

The tracer wraps the public names that the program looks up at call
time (module functions such as ``spikepid.harness.plant_step`` and
methods such as ``NpidNetwork.step``) with timing wrappers.  Every call
records one span: name, start, end and the index of the enclosing span.
Spans stay in memory; self time is computed from the tree afterwards.

The wrappers are installed only for the traced pass and removed after
it, so untraced passes run the program untouched.  Internals that the
roadmap plans to rename (``harness._eval_pairs_chunk``,
``harness._GridRounder``) are deliberately not wrapped.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from spikepid import controller, harness, units
from spikepid.controller import NpidNetwork
from spikepid.netlist import Netlist, NetlistRuntime
from spikepid.reference import PidOracle
from spikepid.units import AdderUnit

# (owner, attribute, span name).  A function imported into several
# modules is wrapped under each name the program calls it by.
WRAPPED = (
    (harness, "run_step_response", "harness.run_step_response"),
    (harness, "verify_adder", "harness.verify_adder"),
    (harness, "plant_step", "plant.plant_step"),
    (harness, "sense", "plant.sense"),
    (harness, "build_npid", "controller.build_npid"),
    (controller, "build_npid", "controller.build_npid"),
    (harness, "build_adder", "units.build_adder"),
    (controller, "build_adder", "units.build_adder"),
    (units, "build_adder", "units.build_adder"),
    (harness, "encode", "grids.encode"),
    (controller, "encode", "grids.encode"),
    (NpidNetwork, "step", "controller.step"),
    (NpidNetwork, "export_netlist", "controller.export_netlist"),
    (AdderUnit, "eval_bins", "units.eval_bins"),
    (PidOracle, "step_bins", "reference.step_bins"),
    (Netlist, "save", "netlist.save"),
    (Netlist, "load", "netlist.load"),
    (NetlistRuntime, "__init__", "netlist.runtime_init"),
    (NetlistRuntime, "step", "netlist.step"),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]

    def wrap(self, name, fn):
        """fn, recording one span named name per call.  name may be a
        callable that derives the span name from the call's first
        argument (used to tell the three adder units apart)."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_of(args[0]) if name_of else name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers on the program's public names; restore
        the originals on exit."""
        saved = []
        patches = list(WRAPPED) + [
            (AdderUnit, "winner_bin", lambda unit: f"units.winner_bin.{unit.name}")]
        try:
            for owner, attr, name in patches:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def arrays(self):
        """(names, parents, starts, ends) as numpy arrays."""
        return (np.array(self.names), np.array(self.parents, dtype=np.int64),
                np.array(self.starts), np.array(self.ends))

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its children.
        Calls are nested and sequential, so children never overlap."""
        _, parents, starts, ends = self.arrays()
        dur = ends - starts
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def program_seconds(self) -> float:
        """Time spent inside the program: the summed durations of the
        spans the benchmark's own code opened."""
        _, parents, starts, ends = self.arrays()
        top = parents < 0
        return float((ends[top] - starts[top]).sum())

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        out: dict[str, list] = {}
        for name, s in zip(self.names, self.self_times().tolist()):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += s
        return {k: (c, s) for k, (c, s) in out.items()}

    def save(self, path) -> None:
        """Write the spans as arrays: name codes index into names."""
        names, parents, starts, ends = self.arrays()
        table, codes = np.unique(names, return_inverse=True)
        np.savez(path, names=table, name_codes=codes.astype(np.int32),
                 parents=parents.astype(np.int32), starts=starts, ends=ends)
