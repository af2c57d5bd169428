#!/usr/bin/env python3
"""Print one sha256 per run over the artifacts it writes.

Each config runs through ``run_experiment`` into a fresh temporary
directory. The digest covers the sorted file names and the bytes of every
file, so two checkouts that print the same digest for a config wrote
byte-identical artifacts for it:

    python3 scripts/artifact_digest.py configs/demo.json --format json

With ``--workload`` the runs are benchmark operations 0..OPS-1 of that
perfbench workload at one seed, each in the workload's artifact format.
Their configs come from this checkout's ``perfbench/workloads.py``, so two
checkouts digest the same operations:

    python3 scripts/artifact_digest.py --workload iterate-long --seed 4242 --ops 3
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from circumproj import load_config, parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def _digest(config, fmt: str) -> str:
    """sha256 over the names and bytes of the artifacts of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        run_experiment(config, out_dir=out_dir, fmt=fmt)
        digest = hashlib.sha256()
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            name = path.relative_to(out_dir).as_posix().encode()
            data = path.read_bytes()
            for part in (name, data):
                digest.update(len(part).to_bytes(8, "big"))
                digest.update(part)
    return digest.hexdigest()


def artifact_digest(config_path, fmt: str = "csv") -> str:
    """sha256 over the names and bytes of the artifacts of one run."""
    return _digest(load_config(config_path), fmt)


def workload_digests(name: str, seed: int = 4242, ops: int = 3) -> list:
    """The artifact digest of each benchmark operation 0..ops-1 of a
    workload at one seed, in the workload's artifact format."""
    workload = workloads.WORKLOADS[name]
    return [_digest(parse_config(workloads.op_config(workload, seed, index)), workload.fmt)
            for index in range(ops)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sha256 of the artifacts each config's run writes")
    parser.add_argument("configs", nargs="*", metavar="CONFIG")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="artifact format of the CONFIG runs, csv when absent")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="digest benchmark operations of this workload instead")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--ops", type=int, default=3, help="operations 0..OPS-1")
    args = parser.parse_args(argv)
    if bool(args.configs) == bool(args.workload):
        parser.error("give CONFIG files or --workload")
    if args.workload:
        if args.format:
            parser.error("--format applies to CONFIG files; a workload has its own format")
        for index, digest in enumerate(workload_digests(args.workload, args.seed, args.ops)):
            print(f"{digest}  {args.workload} seed {args.seed} op {index}")
        return 0
    for config_path in args.configs:
        print(f"{artifact_digest(config_path, args.format or 'csv')}  {config_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
