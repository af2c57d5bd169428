"""One measured process of the benchmark.

    python3 perfbench/worker.py SPEC.json

SPEC names the source tree, the config files and what to do with them.
``"mode": "setup"`` imports circumproj, loads the configs and runs the
small reference kernel of reference.py a few times; with ``"first_op"``
set, it then runs the first config once into that directory.
``"mode": "run"`` runs operations through ``run_experiment`` with
artifacts written. Either writes a result JSON.

With an integer ``"rounds"`` every config is run once per round, for that
many rounds, except that a round after the second starts only if it should
end within 1.25 ``seconds`` of the start; the reference kernel named by
``"kernel"`` runs before each operation and after the last of a round.
Round 0's artifacts stay for the checks; a later round's artifacts are
compared with round 0's byte for byte and deleted. Without ``"rounds"``
there is one round over the first ``count`` configs, or over as many as
start within ``seconds``. With ``"trace": true`` the public functions are
wrapped by :mod:`tracer` before the configs are loaded and the spans are
written next to the result.

A failing operation is recorded with its exception type and the run goes on
with the next one.
"""

import sys
from time import perf_counter

_T0 = perf_counter()

import json
import os
import platform
import resource
import shutil
import traceback
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# Reference kernel runs after set-up in a set-up probe; the first pays for
# numpy's lazy initialisation and the best of the rest is used.
REFERENCE_RUNS = 4


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_vars": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_op(circumproj, config, out_dir, fmt) -> dict:
    start = perf_counter()
    try:
        circumproj.run_experiment(config, out_dir=out_dir, fmt=fmt)
        error = None
    except Exception as exc:  # one failing operation must not end the run
        error = {"type": type(exc).__name__, "message": str(exc)[:300],
                 "bases": [cls.__name__ for cls in type(exc).__mro__],
                 "traceback": traceback.format_exc()[-4000:]}
    return {"out": out_dir, "wall_s": perf_counter() - start, "error": error}


def run_pass(circumproj, configs, out_root: Path, fmt, seconds=None, tracer=None,
             kernel=None) -> dict:
    """One round: the configs in order, each into ``out_root/op_NNNN``;
    with ``seconds``, no operation starts after that many seconds. A
    reference ``kernel`` runs once before each operation and once after the
    last, outside their timing."""
    ops, ref_s = [], []
    start = perf_counter()
    for index, config in enumerate(configs):
        if seconds is not None and perf_counter() - start >= seconds:
            break
        if kernel is not None:
            ref_s.append(kernel())
        if tracer is not None:
            tracer.op = index
        ops.append(run_op(circumproj, config, str(out_root / f"op_{index:04d}"), fmt))
    if kernel is not None:
        ref_s.append(kernel())
    if tracer is not None:
        tracer.op = -1
    return {"ops": ops, "ref_s": ref_s, "wall_s": perf_counter() - start}


def run_rounds(circumproj, configs, out_root: Path, fmt, rounds: int, seconds: float,
               kernel) -> list:
    """``rounds`` rounds over all configs, or fewer (but at least two) when
    the next one should end later than 1.25 ``seconds`` after the start.
    Each later operation's artifacts are compared with round 0's and then
    deleted."""
    from checks import digests

    start = perf_counter()
    done = [run_pass(circumproj, configs, out_root / "round_00", fmt, kernel=kernel)]
    first = [digests(Path(op["out"])) if op["error"] is None else None for op in done[0]["ops"]]
    while len(done) < rounds:
        elapsed = perf_counter() - start
        if len(done) >= 2 and elapsed * (len(done) + 1) / len(done) > 1.25 * seconds:
            break
        round_dir = out_root / f"round_{len(done):02d}"
        this = run_pass(circumproj, configs, round_dir, fmt, kernel=kernel)
        for op, want in zip(this["ops"], first):
            if op["error"] is None and want is not None:
                got = digests(Path(op["out"]))
                op["differ"] = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
        shutil.rmtree(round_dir, ignore_errors=True)
        done.append(this)
    return done


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import circumproj

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer().install()
    configs = [circumproj.load_config(path) for path in spec["configs"]]
    setup_s = perf_counter() - _T0

    result = {"setup_s": setup_s, "module": circumproj.__file__}
    if spec["mode"] == "setup":
        from reference import kernel_s

        result["ref_s"] = [kernel_s() for _ in range(REFERENCE_RUNS)]
    if spec.get("first_op"):
        result["op"] = run_op(circumproj, configs[0], spec["first_op"], spec["fmt"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["mode"] == "run":
        out_root = Path(spec["out_root"])
        if spec.get("rounds"):
            import reference

            kernel = reference.KERNELS[spec["kernel"]][0]
            rounds = run_rounds(circumproj, configs, out_root, spec["fmt"], spec["rounds"],
                                spec["seconds"], kernel)
        else:
            rounds = [run_pass(circumproj, configs[:spec.get("count")], out_root, spec["fmt"],
                               spec.get("seconds"), tracer)]
        result.update({
            "ops": rounds[0]["ops"],
            "rounds": rounds,
            "wall_s": sum(r["wall_s"] for r in rounds),
            "audit_tol": circumproj.AUDIT_TOL,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        })
        if tracer is not None:
            tracer.dump(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
