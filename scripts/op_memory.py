#!/usr/bin/env python3
"""Peak memory of benchmark operations, as a whole and layer by layer.

    python3 scripts/op_memory.py --workload resolve-n200 --seed 4242 --ops 3

Each operation 0..OPS-1 of a perfbench workload runs in a fresh process,
through ``run_experiment`` with its artifacts written in the workload's
format, as the benchmark runs it. The process prints ``ru_maxrss`` (the
high-water mark of its resident memory, imports included) before the
operation, when it starts writing its artifacts and after it, so the output
shows which phase sets the high-water mark. It then runs the operation once
more under ``tracemalloc`` and prints, per layer, the traced heap peak
above the heap at the layer's start: resolution (the instances and their
intersections), each method's plan and run, and writing the artifacts.
Operations are generated by this checkout's ``perfbench/workloads.py``, so
two checkouts measure the same configs.
"""

import argparse
import dataclasses
import multiprocessing
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

from circumproj import bench, parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

MB = 1024.0 * 1024.0


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_layers(config, out_dir: Path, fmt: str) -> list:
    """(layer, traced peak in bytes above the layer's starting heap) for one
    run, in the order the layers ran."""
    peaks = []

    def layer(name, fn):
        def measured(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append((name, tracemalloc.get_traced_memory()[1] - start))
        return measured

    plan_method = bench._plan_method

    def plan_in_layers(spec, ctx):
        plan = layer(f"plan {spec.label}", plan_method)(spec, ctx)
        return dataclasses.replace(plan, run=layer(f"run {spec.label}", plan.run))

    originals = {name: getattr(bench, name)
                 for name in ("_resolve_instances", "_plan_method", "_write_report")}
    bench._resolve_instances = layer("resolution", originals["_resolve_instances"])
    bench._plan_method = plan_in_layers
    bench._write_report = layer("writing", originals["_write_report"])
    tracemalloc.start()
    try:
        run_experiment(config, out_dir=out_dir, fmt=fmt)
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(bench, name, fn)
    return peaks


def measure(workload_name: str, seed: int, index: int) -> dict:
    """Run one operation untraced, then traced, in this process."""
    workload = workloads.WORKLOADS[workload_name]
    config = parse_config(workloads.op_config(workload, seed, index))
    writing = []
    write_report = bench._write_report

    def noted(*args, **kwargs):
        writing.append(_maxrss_mb())
        return write_report(*args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        before = _maxrss_mb()
        bench._write_report = noted
        try:
            run_experiment(config, out_dir=Path(tmp) / "untraced", fmt=workload.fmt)
        finally:
            bench._write_report = write_report
        after = _maxrss_mb()
        layers = _traced_layers(config, Path(tmp) / "traced", workload.fmt)
    return {"before": before, "writing": writing[0], "after": after, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ru_maxrss and per-layer traced heap peaks of benchmark operations")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--ops", type=int, default=1, help="operations 0..OPS-1")
    args = parser.parse_args(argv)
    spawn = multiprocessing.get_context("spawn")
    for index in range(args.ops):
        with spawn.Pool(1) as pool:
            result = pool.apply(measure, (args.workload, args.seed, index))
        print(f"{args.workload} seed {args.seed} op {index}: ru_maxrss "
              f"{result['before']:.1f} MB before, {result['writing']:.1f} MB when "
              f"writing starts, {result['after']:.1f} MB after")
        for name, peak in result["layers"]:
            print(f"  {name:<32} {peak / MB:8.3f} MB traced peak")
    return 0


if __name__ == "__main__":
    sys.exit(main())
