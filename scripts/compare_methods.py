#!/usr/bin/env python3
"""Compare the projection methods on a batch of random subspace families.

Draws random linear subspaces, runs every audited method on each instance,
and prints one row per method with the median iteration count to reach an
error of 1e-10 and the worst bound slack seen in the batch, each read from
the per-method record that report.json holds. A negative
slack means an observed error exceeded its theoretical bound, which the
exit code then reports as 1. Arguments that make no valid config, such as
one subspace for the two that ``dr`` needs, exit 2 with the config error;
a run that fails, such as a draw with no room between start and
intersection in R^1, exits 1 with an ``error:`` line, as ``verify`` does.

    python3 scripts/compare_methods.py --count 12 --dim 10 --seed 3
"""

import argparse
import sys

import numpy as np

from circumproj import ConfigError, parse_config, run_experiment
from circumproj.bench import _method_record


def build_config(args) -> dict:
    return {
        "name": "compare",
        "ambient_dim": args.dim,
        "seed": args.seed,
        "max_iters": args.max_iters,
        "stop_tol": 1e-11,
        "x0": {"kind": "random_unit", "seed": args.seed},
        "instances": {
            "kind": "random",
            "count": args.count,
            "num_subspaces": args.subspaces,
            "dim_range": [1, max(1, args.dim // 2)],
            "seed": args.seed,
        },
        "methods": [
            {"method": "map"},
            {"method": "cim", "operator_set": "psi"},
            {"method": "cim", "operator_set": "psi", "symmetrized": True},
            {"method": "sym_map"},
            {"method": "accel_map"},
            {"method": "dr"},
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare projection methods on random subspace families")
    parser.add_argument("--count", type=int, default=8, help="instances to draw")
    parser.add_argument("--dim", type=int, default=8, help="ambient dimension")
    parser.add_argument("--subspaces", type=int, default=3, help="subspaces per instance")
    parser.add_argument("--max-iters", type=int, default=60)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", default=None,
                        help="artifact directory (default: write nothing)")
    args = parser.parse_args(argv)

    try:
        config = parse_config(build_config(args), source="compare")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config, out_dir=args.out)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    rows = {}
    for instance in report.instances:
        for outcome in instance.methods:
            summary = _method_record(outcome, False)
            entry = rows.setdefault(
                outcome.label, {"reach": [], "slack": [], "audits": 0, "ok": 0})
            if summary["iters_to_1e-10"] is not None:
                entry["reach"].append(summary["iters_to_1e-10"])
            rate = summary["rate"]
            if rate is not None:
                entry["audits"] += 1
                entry["ok"] += int(rate["all_satisfied"])
                entry["slack"].append(rate["slack_min"])

    print(f"{args.count} random instances in R^{args.dim}, "
          f"{args.subspaces} subspaces each, seed {args.seed}")
    header = (f"{'method':<24} {'reached 1e-10':>14} {'median k':>9} "
              f"{'audits ok':>10} {'worst slack':>12}")
    print(header)
    print("-" * len(header))
    for label, entry in rows.items():
        reached = f"{len(entry['reach'])}/{args.count}"
        median = "-"
        if entry["reach"]:  # the median of an even count of steps may end in .5
            median = f"{np.median(entry['reach']):.1f}".removesuffix(".0")
        audits = f"{entry['ok']}/{entry['audits']}"
        slack = "-" if not entry["slack"] else f"{min(entry['slack']):.3e}"
        print(f"{label:<24} {reached:>14} {median:>9} {audits:>10} {slack:>12}")
    print(f"all bounds hold: {report.all_ok}")
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
