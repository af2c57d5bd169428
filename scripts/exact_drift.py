#!/usr/bin/env python3
"""How far a benchmark operation's ``accel_map`` run departs from its exact run.

Operation I of a perfbench workload at seed S (see ``pinned.py``) defines, by
its float data, an exact problem: ``tests/exact.py`` computes its projectors,
its intersection M and its trajectory in rational arithmetic, each iterate
rounded to a 2^-200 grid. The script runs the operation's ``accel_map``
recipe in float, with early stopping off so that it takes every one of the
operation's max_iters steps, and the same number of exact steps. It prints
the float and exact dim M, e0 = ||x0 - P_M x0||, the first k at which
||x_k - exact x_k|| exceeds 1e-12 e0, and the largest departure and its k.
The exit status is 1 when the largest departure exceeds 1e-10 e0, or the two
dimensions of M differ:

    python3 scripts/exact_drift.py --workload iterate-long --seed 11 --op 1

The exact run of that operation (n = 30, three 21-dimensional subspaces,
500 steps) takes about half a minute.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import exact  # noqa: E402
from pinned import WORKLOADS, operation  # noqa: E402

# departures are reported above FIRST and fail the run above LIMIT, both times e0
FIRST, LIMIT = 1e-12, 1e-10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="iterate-long")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--op", type=int, default=1)
    args = parser.parse_args(argv)

    from circumproj import MethodConfig, bench, run_linear

    label, config, _ = operation(args.workload, args.seed, args.op)
    spec = next(m for m in config.methods if m.method == "accel_map")
    steps = spec.max_iters if spec.max_iters is not None else config.max_iters
    (_, subspaces, x0, inter, _), = bench._resolve_instances(config)
    ctx = bench._Instance(subspaces, x0, inter)
    started = time.perf_counter()
    trace = bench._plan_method(spec, ctx).run(MethodConfig("accel_map", max_iters=steps))
    problem = exact.Problem(subspaces)
    exact_run = exact.run(problem, "accel_map", x0, steps)
    seconds = time.perf_counter() - started
    target = problem.target(exact_run[0])
    e0 = exact.distance(exact_run[0], target)
    departures = np.array([exact.distance(exact.fractions(x), y)
                           for x, y in zip(trace.iterates, exact_run, strict=True)]) / e0
    above = np.flatnonzero(departures > FIRST)
    worst = int(np.argmax(departures))
    print(f"{label}: accel_map, {steps} steps, dim M {inter.subspace.dim} float, "
          f"{problem.dim} exact, e0 {e0:.6g}, {seconds:.1f} s")
    print(f"first k above {FIRST:g} e0: {above[0] if above.size else 'none'}")
    print(f"largest departure: {departures[worst]:.3e} e0 at k = {worst}, "
          f"final error {trace.errors[-1]:.3e} float, "
          f"{exact.distance(exact_run[-1], target):.3e} exact")
    return int(departures[worst] > LIMIT or inter.subspace.dim != problem.dim)


if __name__ == "__main__":
    sys.exit(main())
