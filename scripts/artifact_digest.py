#!/usr/bin/env python3
"""Print one sha256 per run over the artifacts it writes.

Each config runs through ``run_experiment`` into a fresh temporary
directory. The digest covers the sorted file names and the bytes of every
file, so two checkouts that print the same digest for a config wrote
byte-identical artifacts for it:

    python3 scripts/artifact_digest.py configs/demo.json --format json

With ``--workload`` the runs are benchmark operations 0..OPS-1 of that
perfbench workload at one seed, each in the workload's artifact format
(see ``pinned.py``); OPS is at least 1:

    python3 scripts/artifact_digest.py --workload iterate-long --seed 4242 --ops 3

With ``--expect FILE`` the runs are those FILE records, each digest is
compared with the recorded one, and the exit status is 1 when one
differs. Digests depend on the numpy version and the SIMD extensions it
found on the CPU, on the BLAS build that numpy links, the kernel set that
BLAS chose for the CPU at run time, and on whether a run could pin that
BLAS to one thread, so FILE records those too; where one of them differs
here, the script prints "not comparable" and the reason, runs nothing and
exits 0. A pinned run's digests do not depend on OPENBLAS_NUM_THREADS:

    python3 scripts/artifact_digest.py --expect tests/golden/digests.json

To record new digests, print them with the two forms above under the
file's environment and copy them into the file.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from circumproj import load_config
from circumproj.numerics import _openblas
from pinned import WORKLOADS, digest, op_count, operation, written

ROOT = Path(__file__).resolve().parent.parent


def _digest(config, fmt: str) -> str:
    """sha256 over the names and bytes of the artifacts of one run."""
    with written(config, fmt) as (_, out_dir):
        return digest(out_dir)


def artifact_digest(config_path, fmt: str = "csv") -> str:
    """sha256 over the names and bytes of the artifacts of one run."""
    return _digest(load_config(config_path), fmt)


def workload_digests(name: str, seed: int = 4242, ops: int = 3) -> list:
    """``(label, digest)`` of each benchmark operation 0..ops-1 of a
    workload at one seed, in the workload's artifact format."""
    digests = []
    for index in range(ops):
        label, config, fmt = operation(name, seed, index)
        digests.append((label, _digest(config, fmt)))
    return digests


def _blas_core() -> str:
    """The kernel set that numpy's OpenBLAS chose for this CPU at run time,
    as its get_corename reports it; "unknown" where numpy links no OpenBLAS
    that circumproj can pin. A DYNAMIC_ARCH build names only its build
    target in its configuration string, not the kernels it runs."""
    blas = _openblas()
    return "unknown" if blas is None else blas.get_corename().decode()


def environment() -> dict:
    """What the digests depend on besides the source: the numpy version and
    the SIMD extensions it found on this CPU, the BLAS build that numpy
    links, the kernel set that BLAS chose for this CPU, and whether a run
    pins that BLAS to one thread."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    build = " ".join(str(blas.get(key, "")) for key in ("name", "version",
                                                        "openblas configuration"))
    return {"numpy": np.__version__,
            "numpy_simd": " ".join(config.get("SIMD Extensions", {}).get("found", [])),
            "blas": build.strip(), "blas_core": _blas_core(),
            "blas_pinned": _openblas() is not None}


def expect(path) -> int:
    """Compare the digests recorded in ``path`` with this checkout's: 0 when
    all are equal or the environment differs, 1 when a digest differs."""
    recorded = json.loads(Path(path).read_text())
    here = environment()
    differ = [f"{key} is {here.get(key)!r} here, {value!r} in {path}"
              for key, value in recorded["environment"].items() if here.get(key) != value]
    if differ:
        print("not comparable: " + "; ".join(differ))
        return 0
    failed = 0
    for run in recorded["runs"]:
        if "config" in run:
            digests = [(f"{run['config']} {run['format']}",
                        artifact_digest(ROOT / run["config"], run["format"]))]
        else:
            digests = workload_digests(run["workload"], run["seed"], len(run["digests"]))
        for (name, digest), wanted in zip(digests, run["digests"]):
            print(f"{digest}  {name}  " + ("ok" if digest == wanted else f"DIFFERS from {wanted}"))
            failed += digest != wanted
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sha256 of the artifacts each config's run writes")
    parser.add_argument("configs", nargs="*", metavar="CONFIG")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="artifact format of the CONFIG runs, csv when absent")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="digest benchmark operations of this workload instead")
    parser.add_argument("--seed", type=int, help="seed of the workload, 4242 when absent")
    parser.add_argument("--ops", type=op_count, help="operations 0..OPS-1, 3 when absent")
    parser.add_argument("--expect", metavar="FILE",
                        help="compare with the digests and environment recorded in FILE")
    args = parser.parse_args(argv)
    if args.expect:
        if args.configs or args.workload or args.format or (args.seed, args.ops) != (None, None):
            parser.error("--expect takes its runs from FILE")
        return expect(args.expect)
    if bool(args.configs) == bool(args.workload):
        parser.error("give CONFIG files, --workload or --expect")
    if args.workload:
        if args.format:
            parser.error("--format applies to CONFIG files; a workload has its own format")
        seed = 4242 if args.seed is None else args.seed
        ops = 3 if args.ops is None else args.ops
        for label, digest in workload_digests(args.workload, seed, ops):
            print(f"{digest}  {label}")
        return 0
    if (args.seed, args.ops) != (None, None):
        parser.error("--seed and --ops apply to --workload")
    for config_path in args.configs:
        print(f"{artifact_digest(config_path, args.format or 'csv')}  {config_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
