"""Checks of one operation's artifacts, made without circumproj.

Each check reads only what the operation wrote to disk:

* every audit row is recomputed from its error and bound
  (satisfied iff error <= bound * (1 + audit_tol)) and compared with the
  reported ``satisfied`` and ``all_satisfied``; the row's error must equal
  the trace's error at that step, and the bound must follow
  rate^k * scale;
* ``final_error``, ``iterations`` and ``iters_to_1e-10`` in report.json
  must agree with the trace rows;
* with CSV artifacts, the trace and rate files must exist and the rate
  rows must equal the audit rows in report.json.

Byte-identical reruns are compared with :func:`digests`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REACH_TOL = 1e-10
BOUND_RTOL = 1e-9


@dataclass
class OpCheck:
    problems: list = field(default_factory=list)
    method_runs: int = 0
    converged: int = 0
    audits: int = 0
    audits_ok: int = 0

    def fail(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _trace_rows(out: Path, instance: dict, method: dict, fmt: str, check: OpCheck):
    """(k, error) pairs of one method's trace."""
    if fmt == "json":
        return [(int(row["k"]), float(row["error"])) for row in method["trace"]["rows"]]
    path = out / f"{instance['label']}__{method['label']}.trace.csv"
    if not path.is_file():
        check.fail(f"missing {path.name}")
        return []
    header, rows = _read_csv(path)
    if header != ["k", "x_norm", "error", "step_norm"]:
        check.fail(f"{path.name}: unexpected header {header}")
        return []
    return [(int(row[0]), row[2]) for row in rows]


def _check_audit(out: Path, instance: dict, method: dict, errors: list, fmt: str,
                 audit_tol: float, check: OpCheck) -> None:
    rate = method["rate"]
    where = f"{instance['label']}/{method['label']}"
    rows = rate["per_iteration"]
    if [row["k"] for row in rows] != list(range(len(errors))):
        check.fail(f"{where}: audit rows do not cover the trace")
        return
    ingredients = rate.get("ingredients", {})
    if "prefactor" in ingredients:
        scale = ingredients["prefactor"] * method["error_origin"]
    else:
        scale = errors[0]
    recomputed = []
    for row, error in zip(rows, errors):
        if row["error"] != error:
            check.fail(f"{where}: audit error at k={row['k']} differs from the trace")
        expected = rate["value"] ** row["k"] * scale
        if not math.isclose(row["bound"], expected, rel_tol=BOUND_RTOL, abs_tol=1e-300):
            check.fail(f"{where}: bound at k={row['k']} is {row['bound']!r}, "
                       f"rate^k * scale gives {expected!r}")
        satisfied = row["error"] <= row["bound"] * (1.0 + audit_tol)
        if satisfied != row["satisfied"]:
            check.fail(f"{where}: row k={row['k']} reported satisfied={row['satisfied']}")
        recomputed.append(satisfied)
    if rate["all_satisfied"] != all(recomputed):
        check.fail(f"{where}: all_satisfied={rate['all_satisfied']} but rows say {all(recomputed)}")
    check.audits += 1
    check.audits_ok += int(all(recomputed))
    if fmt == "csv":
        path = out / f"{instance['label']}__{method['label']}.rate.csv"
        if not path.is_file():
            check.fail(f"missing {path.name}")
            return
        header, csv_rows = _read_csv(path)
        if header[:3] != ["k", "error", "bound"]:
            check.fail(f"{path.name}: unexpected header {header}")
            return
        if [(int(r[0]), r[1], r[2]) for r in csv_rows] != \
                [(row["k"], row["error"], row["bound"]) for row in rows]:
            check.fail(f"{path.name}: rows differ from the audit in report.json")


def check_op(out: Path, fmt: str, audit_tol: float) -> OpCheck:
    check = OpCheck()
    report_path = out / "report.json"
    if not report_path.is_file():
        check.fail("missing report.json")
        return check
    report = json.loads(report_path.read_text())
    if not report.get("instances"):
        check.fail("report.json lists no instances")
    for instance in report.get("instances", []):
        for method in instance["methods"]:
            where = f"{instance['label']}/{method['label']}"
            check.method_runs += 1
            check.converged += int(method["iters_to_1e-10"] is not None)
            trace = _trace_rows(out, instance, method, fmt, check)
            if not trace:
                check.fail(f"{where}: empty trace")
                continue
            ks = [k for k, _ in trace]
            errors = [e for _, e in trace]
            if ks != list(range(len(trace))):
                check.fail(f"{where}: trace steps are not 0..{len(trace) - 1}")
            if method["final_error"] != errors[-1]:
                check.fail(f"{where}: final_error {method['final_error']!r} "
                           f"differs from the last trace row {errors[-1]!r}")
            if method["iterations"] != ks[-1]:
                check.fail(f"{where}: iterations {method['iterations']} but last row k={ks[-1]}")
            reach = next((k for k, e in trace if e <= REACH_TOL), None)
            if method["iters_to_1e-10"] != reach:
                check.fail(f"{where}: iters_to_1e-10 {method['iters_to_1e-10']} "
                           f"but the trace first reaches 1e-10 at {reach}")
            if method["rate"] is not None:
                _check_audit(out, instance, method, errors, fmt, audit_tol, check)
    return check


def digests(out: Path) -> dict:
    """SHA-256 of every file under an artifact directory, by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }
