"""The pinned benchmark operations, as the scripts run them.

Operation I of a perfbench workload at seed S is the one-instance config
that this checkout's ``perfbench/workloads.py`` generates for it, in the
workload's artifact format. Every script takes its operations from here,
so two checkouts, or two source trees run from one checkout, run the same
configs. circumproj is imported where a run needs it, not at import, so
that :func:`fresh` can put another tree's ``src`` first before it is.
"""

import argparse
import contextlib
import hashlib
import multiprocessing
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# the workload names, in the order the benchmark lists them
WORKLOADS = tuple(workloads.WORKLOADS)


def operation(name: str, seed: int, index: int) -> tuple:
    """``(label, config, fmt)`` of operation ``index`` of a workload at a
    seed: its label ``"NAME seed S op I"``, its parsed config and the
    workload's artifact format."""
    from circumproj import parse_config

    workload = workloads.WORKLOADS[name]
    return (f"{name} seed {seed} op {index}",
            parse_config(workloads.op_config(workload, seed, index)), workload.fmt)


@contextlib.contextmanager
def written(config, fmt: str):
    """Run ``config`` with its artifacts written in ``fmt`` to a temporary
    directory, and yield the report and that directory, which is removed
    on exit."""
    from circumproj import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        yield run_experiment(config, out_dir=out_dir, fmt=fmt), out_dir


def digest(out_dir: Path) -> str:
    """sha256 over the sorted names and the bytes of every file under
    ``out_dir``, each part preceded by its length, so equal digests mean
    byte-identical artifacts."""
    total = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        for part in (path.relative_to(out_dir).as_posix().encode(), path.read_bytes()):
            total.update(len(part).to_bytes(8, "big"))
            total.update(part)
    return total.hexdigest()


def _call(fn, args: tuple, src):
    """``fn(*args)`` with ``src`` first on the import path, once the
    circumproj imported from there is known to lie under ``src``."""
    if src is not None:
        sys.path.insert(0, src)
        import circumproj

        where = Path(circumproj.__file__).resolve()
        if not where.is_relative_to(Path(src).resolve()):
            raise ImportError(f"{src} holds no circumproj: the run imported {where}")
    return fn(*args)


def fresh(fn, *args, src=None):
    """``fn(*args)`` in a new spawned process, which starts with this
    process's import path, ``src`` first when given. With ``src``, raises
    ImportError and runs nothing unless the circumproj that process imports
    lies under ``src``: it would otherwise fall back to this process's
    circumproj, or to an installed one."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as process:
        return process.submit(_call, fn, args, None if src is None else str(src)).result()


def op_count(text: str) -> int:
    """The ``--ops`` argument type: a count of operations, at least 1, so an
    empty run is a usage error (exit 2) and not a run that reads as passing."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count
