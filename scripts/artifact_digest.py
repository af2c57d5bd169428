#!/usr/bin/env python3
"""Print one sha256 per config over the artifacts its run writes.

Each config runs through ``run_experiment`` into a fresh temporary
directory. The digest covers the sorted file names and the bytes of every
file, so two checkouts that print the same digest for a config wrote
byte-identical artifacts for it:

    python3 scripts/artifact_digest.py configs/demo.json --format json
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from circumproj import load_config, run_experiment


def artifact_digest(config_path, fmt: str = "csv") -> str:
    """sha256 over the names and bytes of the artifacts of one run."""
    config = load_config(config_path)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sha256 of the artifacts each config's run writes")
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)
    for config_path in args.configs:
        print(f"{artifact_digest(config_path, args.format)}  {config_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
