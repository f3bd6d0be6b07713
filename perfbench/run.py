"""Benchmark runner for spikepid.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One workload runs in this process: single-threaded, closed loop, inputs
generated from --seed.  The human-readable report goes first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1).

--workload all runs every workload in its own subprocess, one at a time,
and prints one table of all their metrics.

The program is imported from the src/ directory next to this one; the
runner refuses to run without it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / "work"
WORKLOAD_NAMES = ("closed_loop", "controller_ticks", "adder_sweep", "netlist_replay")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smallest inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def keep_freed_memory() -> bool:
    """Make glibc keep freed blocks up to 32 MB in the heap instead of
    unmapping them.  Otherwise numpy's multi-megabyte temporaries are
    mapped and zeroed by the kernel on every call, a cost that swings
    with the load of the virtual machine's host.  False when the C
    library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20) and
                mallopt(M_TRIM_THRESHOLD, 1 << 30))


def environment(args, freed_memory_kept: bool) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "threads_pinned": {v: os.environ.get(v) for v in THREAD_VARS},
        "freed_memory_kept": freed_memory_kept,
    }


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "spikepid" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'spikepid'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    kept = keep_freed_memory()
    import workloads  # imports numpy and spikepid, after the thread pinning

    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size],
                                            WORKDIR)
    if args.trace:
        spans = WORKDIR / f"spans_{args.workload}.npz"
        result = workloads.measure_traced(wl, args.seconds, spans)
    else:
        result = workloads.measure(wl, args.seconds)

    detail = {"workload": args.workload, "env": environment(args, kept), **result}
    for section in ("metrics", "extras"):
        for name, m in result[section].items():
            print(f"{args.workload:<17} {name:<34} {m['value']:>16.6g} "
                  f"{m['unit']:<8} n={m['samples']}")
    print("# detail " + json.dumps(detail))
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own subprocess, one at a time."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        detail = next((json.loads(line[len("# detail "):]) for line in lines
                       if line.startswith("# detail ")), None)
        if proc.returncode != 0 or detail is None:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"# {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"env {json.dumps(detail['env'])}")
        for section in ("metrics", "extras"):
            for metric, m in detail[section].items():
                rows.append((name, metric, m["value"], m["unit"], m["samples"]))
    print(f"{'workload':<17} {'metric':<34} {'value':>16} {'unit':<8} samples")
    for name, metric, value, unit, samples in rows:
        print(f"{name:<17} {metric:<34} {value:>16.6g} {unit:<8} {samples}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
