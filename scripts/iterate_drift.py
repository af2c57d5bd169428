#!/usr/bin/env python3
"""How far the iterates of two source trees drift apart on benchmark operations.

Runs operations 0..OPS-1 (OPS at least 1) of each perfbench workload at
one seed (see ``pinned.py``) under two checkouts, each in its own spawned
process with that checkout's ``src`` first on the import path; the script
stops with exit status 1 when the circumproj that process imports does not
lie under that ``src``. It prints one row per workload: the largest
absolute differences between corresponding iterates, between corresponding
entries of the error columns and between the audited constants, how many
audit verdicts and stop steps changed, and on how many operations the
artifacts differ in a byte (``pinned.digest``). A change of fixed set
moves the errors and the constants but no iterate, so the iterates alone
would read 0 for it. The artifact count compares the two trees on one
machine, so it needs no recorded digest:

    python3 scripts/iterate_drift.py /path/to/parent /path/to/change --seed 4242

An operation that raises counts as one changed verdict when the other tree
does not raise the same error.
"""

import argparse
import json
import sys
from pathlib import Path

from pinned import WORKLOADS, digest, fresh, op_count, operation, written


def dump(workload_name: str, seed: int, ops: int) -> list:
    """Run the operations with the circumproj on the import path and list,
    per operation, the digest of its artifacts and each method's iterates,
    errors, stop step, audited constant and audit verdict. The last two are
    read from the report.json that the run writes in the workload's format,
    so trees that name the report's attributes differently still compare."""
    results = []
    for index in range(ops):
        _, config, fmt = operation(workload_name, seed, index)
        try:
            # an out_dir is the one way to place a run's artifacts that every
            # tree accepts; older trees write a default directory without it
            with written(config, fmt) as (report, out_dir):
                written_report = json.loads((out_dir / "report.json").read_text())
                artifacts = digest(out_dir)
        except (RuntimeError, ValueError) as error:
            results.append({"error": f"{type(error).__name__}: {error}"})
            continue
        methods = []
        for instance, instance_record in zip(report.instances, written_report["instances"],
                                             strict=True):
            for m, record in zip(instance.methods, instance_record["methods"], strict=True):
                rate = record["rate"]
                methods.append({
                    "label": f"{instance.label}/{m.label}",
                    "iterates": m.trace.iterates.tolist(),
                    "errors": m.trace.errors.tolist(),
                    "stopped_at": int(m.trace.stopped_at),
                    "constant": None if rate is None else rate["value"],
                    "verdict": None if rate is None else rate["all_satisfied"],
                })
        results.append({"artifacts": artifacts, "methods": methods})
    return results


def compare(first: list, second: list) -> dict:
    """Largest iterate, error and constant differences, changed verdicts,
    changed stop steps and operations with changed artifacts; iterates and
    errors are compared over the steps both runs took, constants where both
    runs audited one."""
    drift = {"methods": 0, "max_abs_diff": 0.0, "max_error_diff": 0.0,
             "max_constant_diff": 0.0, "changed_verdicts": 0, "changed_stops": 0,
             "changed_artifacts": 0}
    for op_first, op_second in zip(first, second):
        if "error" in op_first or "error" in op_second:
            drift["changed_verdicts"] += op_first.get("error") != op_second.get("error")
            continue
        drift["changed_artifacts"] += op_first["artifacts"] != op_second["artifacts"]
        for a, b in zip(op_first["methods"], op_second["methods"], strict=True):
            if a["label"] != b["label"]:
                raise ValueError(f"method {a['label']} against {b['label']}")
            drift["methods"] += 1
            steps = min(len(a["iterates"]), len(b["iterates"]))
            for row_a, row_b in zip(a["iterates"][:steps], b["iterates"][:steps]):
                diff = max(abs(x - y) for x, y in zip(row_a, row_b, strict=True))
                drift["max_abs_diff"] = max(drift["max_abs_diff"], diff)
            for x, y in zip(a["errors"][:steps], b["errors"][:steps]):
                drift["max_error_diff"] = max(drift["max_error_diff"], abs(x - y))
            if a["constant"] is not None and b["constant"] is not None:
                drift["max_constant_diff"] = max(drift["max_constant_diff"],
                                                 abs(a["constant"] - b["constant"]))
            drift["changed_verdicts"] += a["verdict"] != b["verdict"]
            drift["changed_stops"] += a["stopped_at"] != b["stopped_at"]
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="iterate drift between two source trees on benchmark operations")
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE",
                        help="the two checkouts to compare, each with a src/ directory")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; every workload when absent")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--ops", type=op_count, default=3, help="operations 0..OPS-1")
    args = parser.parse_args(argv)
    if len(args.trees) != 2:
        parser.error("give exactly two source trees")
    print(f"{'workload':<14}{'ops':>4}{'methods':>9}{'max_abs_diff':>14}"
          f"{'max_error_diff':>16}{'max_constant_diff':>19}"
          f"{'changed_verdicts':>18}{'changed_stops':>15}{'changed_artifacts':>19}")
    for name in args.workload or WORKLOADS:
        try:
            first, second = (fresh(dump, name, args.seed, args.ops, src=tree.resolve() / "src")
                             for tree in args.trees)
        except ImportError as error:
            parser.exit(1, f"{parser.prog}: {error}\n")
        drift = compare(first, second)
        print(f"{name:<14}{args.ops:>4}{drift['methods']:>9}{drift['max_abs_diff']:>14.3e}"
              f"{drift['max_error_diff']:>16.3e}{drift['max_constant_diff']:>19.3e}"
              f"{drift['changed_verdicts']:>18}{drift['changed_stops']:>15}"
              f"{drift['changed_artifacts']:>19}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
