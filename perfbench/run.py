#!/usr/bin/env python3
"""The circumproj benchmark.

    python3 perfbench/run.py --workload iterate-long --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client, one process. An operation is one
random instance, run through the calls the ``circumproj run`` verb makes
(``load_config``, then ``run_experiment(config, out_dir, fmt)`` with
artifacts written). The configs are generated from ``--seed`` and written
as JSON; the program receives only those.

``--trace 0`` measures the end-to-end metrics: set-up in fresh processes
(the first of which also runs the first operation once, for peak memory),
then one process that runs the run's operations in rounds, each round
running every operation once, with the reference kernel of reference.py
between operations. An operation's time is its median over the rounds,
and every later round's artifacts must equal round 0's byte for byte.
``--trace 1`` measures the per-layer metrics: a traced pass for a third of
``--seconds``, then the same operations untraced (the tracing overhead,
and a second byte-for-byte comparison) and once more with BLAS pinned to
one thread (the single-threaded baseline). BLAS threads are otherwise left
as the caller has them; the environment stamp records the setting.

Every operation's artifacts are checked (see checks.py). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0
SETUP_PROBES = 7
TRACED_SHARE = 1.0 / 3.0
ONE_THREAD = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_s.p50": "s",
    "peak_rss_mb": "MB",
    "audit_pass_frac": "ratio",
    "converged_frac": "ratio",
    "correct_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one benchmark run, all within one
    deadline, each waited for before the next starts."""

    def __init__(self, workload, work: Path, configs: list, deadline: float):
        self.workload = workload
        self.work = work
        self.configs = configs
        self.deadline = deadline
        self.count = 0

    def worker(self, extra_env=None, **spec) -> dict:
        self.count += 1
        tag = f"w{self.count:02d}"
        spec = {"src": str(SRC), "configs": self.configs, "fmt": self.workload.fmt,
                "result": str(self.work / f"{tag}.result.json"), **spec}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, **(extra_env or {}))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                  env=env, timeout=remaining, stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {tag} ran past the {RUN_LIMIT_S:.0f} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {tag} exited with {proc.returncode}")
        result = json.loads(Path(spec["result"]).read_text())
        if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported circumproj from {result['module']}, not from {SRC}")
        return result


def _tail(values: list):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _check(ops: list, fmt: str, audit_tol: float) -> list:
    return [None if op["error"] is not None
            else checks.check_op(Path(op["out"]), fmt, audit_tol) for op in ops]


def _compare(first: dict, again: dict) -> list:
    """Problems found comparing a rerun's artifacts with the first run's."""
    if again["error"] is not None:
        return [f"rerun raised {again['error']['type']}"]
    a, b = checks.digests(Path(first["out"])), checks.digests(Path(again["out"]))
    if a == b:
        return []
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    return [f"rerun artifacts differ: {', '.join(differ[:5])}"]


def _outcome(ops: list, results: list, reruns: dict) -> dict:
    """Counts over the completed operations of one pass."""
    completed = [i for i, op in enumerate(ops) if op["error"] is None]
    problems = {}
    for i in completed:
        found = list(results[i].problems) + reruns.get(i, [])
        if found:
            problems[i] = found
    errors = {}
    for op in ops:
        if op["error"] is not None:
            errors[op["error"]["type"]] = errors.get(op["error"]["type"], 0) + 1
    return {
        "completed": completed,
        "problems": problems,
        "errors": errors,
        "audits": sum(results[i].audits for i in completed),
        "audits_ok": sum(results[i].audits_ok for i in completed),
        "method_runs": sum(results[i].method_runs for i in completed),
        "converged": sum(results[i].converged for i in completed),
    }


def _round_problems(rounds: list, i: int) -> list:
    """Problems of operation ``i`` in the rounds after the first."""
    found = []
    for r, this in enumerate(rounds[1:], 1):
        again = this["ops"][i]
        if again["error"] is not None:
            found.append(f"round {r} raised {again['error']['type']}")
        elif again.get("differ"):
            found.append(f"round {r} artifacts differ from round 0: {', '.join(again['differ'][:5])}")
    return found


def untraced(runner: Runner, seconds: int) -> tuple:
    # The first set-up probe also runs the first operation once: its peak
    # RSS is that of one operation, free of the heap growth of a long run.
    probes = [runner.worker(mode="setup", first_op=str(runner.work / "probe"))]
    probes += [runner.worker(mode="setup") for _ in range(SETUP_PROBES - 1)]
    res = runner.worker(mode="run", rounds=runner.workload.rounds, seconds=seconds,
                        kernel=runner.workload.reference, out_root=str(runner.work / "ops"))
    rounds, ops = res["rounds"], res["ops"]
    results = _check(ops, runner.workload.fmt, res["audit_tol"])
    reruns = {i: _round_problems(rounds, i) for i in range(len(ops))}
    if ops[0]["error"] is None:
        reruns[0] += [f"first-operation probe: {p}" for p in _compare(ops[0], probes[0]["op"])]
    out = _outcome(ops, results, reruns)
    # The host's speed moves by up to 2x for tens of seconds at a time, so
    # each run of an operation is timed in reference seconds: its wall time
    # over the mean of the times, just before and just after it, of the
    # reference kernel whose speed follows the workload's (see reference.py).
    # An operation's time is the median over the rounds.
    nominal = reference.KERNELS[runner.workload.reference][1]

    def op_s(this, i):
        return this["ops"][i]["wall_s"] * nominal * 2.0 / (this["ref_s"][i] + this["ref_s"][i + 1])

    timed = [statistics.median(op_s(this, i) for this in rounds) for i in range(len(ops))]
    measured = [statistics.median(this["ops"][i]["wall_s"] for this in rounds)
                for i in range(len(ops))]
    setup_raw = [p["setup_s"] for p in probes]
    setup = [p["setup_s"] * reference.REFERENCE_S / statistics.median(p["ref_s"][1:])
             for p in probes]
    every = [op["wall_s"] for this in rounds for op in this["ops"]]
    raised = [op for this in rounds for op in this["ops"] if op["error"] is not None]
    n_done = len(out["completed"])
    done = out["completed"] or range(len(ops))
    units = f"reference seconds of the {runner.workload.reference} kernel"
    metrics = {
        "setup_s": statistics.median(setup),
        "instances_per_s": n_done / sum(timed),
        "instance_s.p50": statistics.median(timed[i] for i in done),
        "peak_rss_mb": probes[0]["peak_rss_mb"],
        "audit_pass_frac": out["audits_ok"] / max(out["audits"], 1),
        "converged_frac": out["converged"] / max(out["method_runs"], 1),
        "correct_frac": (n_done - len(out["problems"])) / max(n_done, 1),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, in reference seconds; "
                   f"{statistics.median(setup_raw):.4g} s of wall time",
        "instances_per_s": f"{n_done} of {len(ops)} operations completed, each timed at its median "
                           f"of {len(rounds)} rounds in {units}; {n_done / sum(measured):.4g}/s "
                           "of wall time",
        "instance_s.p50": f"median over {n_done} operations, in {units}; "
                          f"{statistics.median(measured[i] for i in done):.4g} s of wall time",
        "peak_rss_mb": f"ru_maxrss of a fresh process that ran the first operation once; "
                       f"{res['peak_rss_mb']:.1f} MB after all {len(every)} runs",
        "audit_pass_frac": f"{out['audits_ok']} of {out['audits']} audited bounds hold",
        "converged_frac": f"{out['converged']} of {out['method_runs']} method runs reach 1e-10",
        "correct_frac": f"{n_done - len(out['problems'])} of {n_done} operations pass the checks",
    }
    lines = [f"  {name:<18} {metrics[name]:<14.6g} {unit:<6} {notes[name]}"
             for name, unit in END_TO_END.items()]
    lines.append(f"  {'failed_frac':<18} {len(raised) / len(every):<14.6g} {'ratio':<6} "
                 f"{len(raised)} of {len(every)} runs of an operation raised")
    tail = _tail(every)
    if tail is not None:
        name = f"instance_s.p{tail[0]:.0f}"
        lines.append(f"  {name:<18} {tail[1]:<14.6g} {'s':<6} {len(every)} samples "
                     "(every round, wall time), 10 beyond")
    refs = sorted(t for this in rounds for t in this["ref_s"])
    lines.append(f"  {runner.workload.reference + ' kernel':<18} {statistics.median(refs):<14.6g} "
                 f"{'s':<6} median of {len(refs)} runs between operations, from {refs[0]:.4g} "
                 f"to {refs[-1]:.4g} s; {nominal:.4g} s on the tuning machine")
    lines.append(f"  plain throughput   {len(every) / res['wall_s']:<14.6g} {'1/s':<6} "
                 f"{len(every)} runs of an operation in {res['wall_s']:.2f} s, references included")
    errors = {}
    for op in raised:
        errors[op["error"]["type"]] = errors.get(op["error"]["type"], 0) + 1
    for type_name, count in sorted(errors.items()):
        lines.append(f"  methods.errors.{type_name} = {count}")
    return metrics, out, len(every), len(raised), res, lines


def traced(runner: Runner, seconds: int) -> tuple:
    spans_path = runner.work / "spans.json"
    res = runner.worker(mode="run", seconds=seconds * TRACED_SHARE, trace=True,
                        spans=str(spans_path), out_root=str(runner.work / "traced"))
    ops = res["ops"]
    n = len(ops)
    plain = runner.worker(mode="run", count=n, out_root=str(runner.work / "untraced"))
    single = runner.worker(ONE_THREAD, mode="run", count=n,
                           out_root=str(runner.work / "one_thread"))

    results = _check(ops, runner.workload.fmt, res["audit_tol"])
    single_results = _check(single["ops"], runner.workload.fmt, res["audit_tol"])
    reruns = {}
    for i, op in enumerate(ops):
        if op["error"] is None:
            found = _compare(op, plain["ops"][i])
            if single["ops"][i]["error"] is not None:
                found.append(f"one thread: raised {single['ops'][i]['error']['type']}")
            else:
                found += [f"one thread: {p}" for p in single_results[i].problems]
            reruns[i] = found
    out = _outcome(ops, results, reruns)

    trace = json.loads(spans_path.read_text())
    metrics, inclusive = layers.analyse(trace["spans"], trace["counts"], n, len(runner.configs))
    traced_wall = sum(op["wall_s"] for op in ops)
    plain_wall = sum(op["wall_s"] for op in plain["ops"])
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["numerics.blas_1thread_wall_s"] = statistics.median(op["wall_s"] for op in single["ops"])
    metrics["numerics.blas_default_wall_s"] = statistics.median(op["wall_s"] for op in plain["ops"])
    buckets = dict.fromkeys(layers.ERROR_TYPES, 0)
    for op in ops:
        if op["error"] is not None:
            buckets[layers.error_bucket(op["error"]["bases"])] += 1
    for bucket, count in buckets.items():
        metrics[f"methods.errors.{bucket}"] = count
    files = [p for i in out["completed"] for p in Path(ops[i]["out"]).rglob("*") if p.is_file()]
    metrics["bench.artifact_bytes"] = sum(p.stat().st_size for p in files) / max(n, 1)
    metrics["bench.artifact_files"] = len(files) / max(n, 1)

    total = sum(metrics[f"layer.{name}.s"] for name in layers.LAYER_RANK) or 1.0
    lines = [f"  traced {n} operations; tracing overhead {100 * metrics['trace.overhead_frac']:+.1f}% "
             f"({traced_wall:.2f} s traced, {plain_wall:.2f} s untraced, same operations)",
             f"  BLAS at one thread: median operation {metrics['numerics.blas_1thread_wall_s']:.4g} s, "
             f"default threads {metrics['numerics.blas_default_wall_s']:.4g} s",
             "  layer shares of run_experiment (self time, each span in the highest-ranked layer on its path):"]
    for name in layers.LAYER_RANK:
        value = metrics[f"layer.{name}.s"]
        lines.append(f"    {name:<18} {value:>10.4f} s/op  {100 * value / total:5.1f}%")
    lines.append("  inclusive time of the largest calls, share of run_experiment:")
    run_total = inclusive.get("bench.run_experiment", 0.0) or 1.0
    for name, value in sorted(inclusive.items(), key=lambda kv: -kv[1])[:12]:
        lines.append(f"    {name:<34} {value / max(n, 1):>10.4f} s/op  {100 * value / run_total:5.1f}%")
    if trace["missing"]:
        lines.append(f"  not traced (not found): {', '.join(trace['missing'])}")
    lines.append("  per-layer metrics:")
    for name, (unit, _) in layers.PER_LAYER.items():
        lines.append(f"    {name:<42} {metrics[name]:<14.6g} {unit}")
    return metrics, out, n, n - len(out["completed"]), res, lines


def commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = git / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "circumproj" / "__init__.py").is_file():
        print(f"error: no circumproj source tree under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs = workloads.write_configs(workload, args.seed, args.seconds, work / "configs")
    runner = Runner(workload, work, configs, deadline)
    try:
        if args.trace:
            metrics, out, attempted, failed, res, lines = traced(runner, args.seconds)
        else:
            metrics, out, attempted, failed, res, lines = untraced(runner, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        for name in ("ops", "probe", "traced", "untraced", "one_thread"):
            shutil.rmtree(work / name, ignore_errors=True)

    env = {**res["environment"], "commit": commit(), "src_sha256": src_digest()}
    mode = "traced" if args.trace else "untraced"
    print(f"circumproj benchmark: workload {workload.name}, seed {args.seed}, {mode}, "
          f"{args.seconds} s, closed loop, one client, one process")
    for line in lines:
        print(line)
    for i, found in sorted(out["problems"].items()):
        print(f"  operation {i}: {'; '.join(found)}")
    print("environment: " + json.dumps(env, sort_keys=True))

    units = END_TO_END if not args.trace else {n: u for n, (u, _) in layers.PER_LAYER.items()}
    summary = {
        "correct": not out["problems"] and len(out["completed"]) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {**summary, "environment": env, "problems": out["problems"],
         "errors": out["errors"], "rounds": res["rounds"]}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
