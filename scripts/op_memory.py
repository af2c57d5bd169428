#!/usr/bin/env python3
"""Peak memory of benchmark operations, as a whole and layer by layer.

    python3 scripts/op_memory.py --workload resolve-n200 --seed 4242 --ops 3

Each operation 0..OPS-1 (OPS at least 1) of a perfbench workload (see
``pinned.py``) runs in a fresh process, through ``run_experiment`` with its
artifacts written in the workload's format, as the benchmark runs it. The
process prints ``ru_maxrss`` (the high-water mark of its resident memory,
imports included) before the operation, when it starts writing its
artifacts and after it, so the output shows which phase sets the
high-water mark. Next to it, it prints the minor page faults of the
operation, the ``ru_minflt`` delta of the process. A minor fault is the
first touch of a page newly mapped to the process: memory it grew, or
memory the allocator gave back to the system and took again. So the count
shows the cost of the allocator's trim-and-regrow cycle, which glibc's
``MALLOC_TOP_PAD_`` and ``MALLOC_TRIM_THRESHOLD_`` in the environment
change. It then runs the operation once more under ``tracemalloc`` and
prints, per layer, the traced heap peak above the heap at the layer's
start: resolution (the instances and their intersections), each method's
plan and run, and writing the artifacts.
"""

import argparse
import dataclasses
import resource
import sys
import tracemalloc

from circumproj import bench
from pinned import WORKLOADS, fresh, op_count, operation, written

MB = 1024.0 * 1024.0


def _maxrss_mb(usage) -> float:
    """``ru_maxrss`` of a ``getrusage`` result, in MB."""
    return usage.ru_maxrss / 1024.0


def _traced_layers(config, fmt: str) -> list:
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
        with written(config, fmt):
            pass
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(bench, name, fn)
    return peaks


def measure(workload_name: str, seed: int, index: int) -> dict:
    """Run one operation untraced, then traced, in this process."""
    label, config, fmt = operation(workload_name, seed, index)
    writing = []
    write_report = bench._write_report

    def noted(*args, **kwargs):
        writing.append(resource.getrusage(resource.RUSAGE_SELF))
        return write_report(*args, **kwargs)

    start = resource.getrusage(resource.RUSAGE_SELF)
    bench._write_report = noted
    try:
        with written(config, fmt):
            pass
    finally:
        bench._write_report = write_report
    end = resource.getrusage(resource.RUSAGE_SELF)
    return {"label": label, "before": _maxrss_mb(start), "writing": _maxrss_mb(writing[0]),
            "after": _maxrss_mb(end), "minor_faults": end.ru_minflt - start.ru_minflt,
            "layers": _traced_layers(config, fmt)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ru_maxrss, minor page faults and per-layer traced heap peaks "
                    "of benchmark operations")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--ops", type=op_count, default=1, help="operations 0..OPS-1")
    args = parser.parse_args(argv)
    for index in range(args.ops):
        result = fresh(measure, args.workload, args.seed, index)
        print(f"{result['label']}: ru_maxrss "
              f"{result['before']:.1f} MB before, {result['writing']:.1f} MB when "
              f"writing starts, {result['after']:.1f} MB after; "
              f"{result['minor_faults']} minor page faults")
        for name, peak in result["layers"]:
            print(f"  {name:<32} {peak / MB:8.3f} MB traced peak")
    return 0


if __name__ == "__main__":
    sys.exit(main())
