#!/usr/bin/env python3
"""Peak memory of benchmark operations, as a whole and layer by layer.

    python3 scripts/op_memory.py --workload resolve-n200 --seed 4242 --ops 3

Each operation 0..OPS-1 (OPS at least 1) of a perfbench workload (see
``pinned.py``) runs in a fresh process, through ``run_experiment`` with its
artifacts written in the workload's format, as the benchmark runs it. The
process prints ``ru_maxrss`` (the high-water mark of its resident memory,
imports included) before the operation, when it starts writing its
artifacts and after it. Next to it, it prints the minor page faults of the
operation, the ``ru_minflt`` delta of the process. A minor fault is the
first touch of a page newly mapped to the process: memory it grew, or
memory the allocator gave back to the system and took again. So the count
shows the cost of the allocator's trim-and-regrow cycle, which glibc's
``MALLOC_TOP_PAD_`` and ``MALLOC_TRIM_THRESHOLD_`` in the environment
change.

It then runs the operation once more under ``tracemalloc`` and prints one
line per layer: resolution (the instances and their intersections), each
method's plan and run, and writing the artifacts. A line holds the traced
heap held when the layer starts, the traced peak above it, and
``ru_maxrss`` after the layer in the untraced run. The last line names
the layer during which ``ru_maxrss`` reached its final value. tracemalloc
sees numpy's arrays but not LAPACK's workspaces, so the traced columns can
miss the layer that sets the high-water mark; the ``ru_maxrss`` column
does not.
"""

import argparse
import contextlib
import dataclasses
import resource
import sys
import tracemalloc

from circumproj import bench
from pinned import WORKLOADS, fresh, op_count, operation, written

MB = 1024.0 * 1024.0


def _maxrss_mb() -> float:
    """This process's ``ru_maxrss``, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def _layers(around):
    """Run each layer of ``run_experiment`` as ``around(name, fn, args,
    kwargs)`` while the block runs; ``around`` calls ``fn(*args, **kwargs)``
    and returns its result."""
    def layer(name, fn):
        return lambda *args, **kwargs: around(name, fn, args, kwargs)

    plan_method = bench._plan_method

    def plan_in_layers(spec, ctx):
        plan = layer(f"plan {spec.label}", plan_method)(spec, ctx)
        return dataclasses.replace(plan, run=layer(f"run {spec.label}", plan.run))

    originals = {name: getattr(bench, name)
                 for name in ("_resolve_instances", "_plan_method", "_write_report")}
    bench._resolve_instances = layer("resolution", originals["_resolve_instances"])
    bench._plan_method = plan_in_layers
    bench._write_report = layer("writing", originals["_write_report"])
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(bench, name, fn)


def _untraced_layers(config, fmt: str) -> list:
    """(layer, ``ru_maxrss`` in MB at its start, and after it) for one run,
    in the order the layers ran."""
    rows = []

    def around(name, fn, args, kwargs):
        start = _maxrss_mb()
        try:
            return fn(*args, **kwargs)
        finally:
            rows.append((name, start, _maxrss_mb()))

    with _layers(around), written(config, fmt):
        pass
    return rows


def _traced_layers(config, fmt: str) -> list:
    """(layer, traced heap in bytes held at its start, traced peak in bytes
    above that) for one run, in the order the layers ran."""
    rows = []

    def around(name, fn, args, kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            rows.append((name, start, tracemalloc.get_traced_memory()[1] - start))

    tracemalloc.start()
    try:
        with _layers(around), written(config, fmt):
            pass
    finally:
        tracemalloc.stop()
    return rows


def _high_water_layer(untraced: list, before: float, after: float) -> str:
    """The layer during which ``ru_maxrss`` rose to ``after``, or where else
    it got there."""
    if after <= before:
        return "before the operation"
    for name, start, end in untraced:
        if end >= after:
            return name if start < after else "between layers"
    return "after the last layer"


def measure(workload_name: str, seed: int, index: int) -> dict:
    """Run one operation untraced, then traced, in this process."""
    label, config, fmt = operation(workload_name, seed, index)
    start = resource.getrusage(resource.RUSAGE_SELF)
    untraced = _untraced_layers(config, fmt)
    end = resource.getrusage(resource.RUSAGE_SELF)
    before, after = start.ru_maxrss / 1024.0, end.ru_maxrss / 1024.0
    traced = _traced_layers(config, fmt)
    layers = [(name, held, peak, rss_after)
              for (name, held, peak), (_, _, rss_after) in zip(traced, untraced)]
    writing = next(rss for name, rss, _ in untraced if name == "writing")
    return {"label": label, "before": before, "writing": writing, "after": after,
            "minor_faults": end.ru_minflt - start.ru_minflt, "layers": layers,
            "high_water": _high_water_layer(untraced, before, after)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ru_maxrss, minor page faults, and per layer the traced heap "
                    "and ru_maxrss of benchmark operations")
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
        for name, held, peak, rss_after in result["layers"]:
            print(f"  {name:<32} {held / MB:8.3f} MB held, {peak / MB:8.3f} MB traced peak "
                  f"above it, ru_maxrss {rss_after:.1f} MB after")
        print(f"  ru_maxrss set in: {result['high_water']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
