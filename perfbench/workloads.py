"""Workload definitions and the configs the benchmark feeds to circumproj.

An operation is one instance: a one-instance config (``instances.kind =
"random"``, ``count = 1``) whose seed is derived from the workload seed and
the operation index. The program only ever sees these configs, written as
JSON files; the benchmark seed itself never reaches it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    ambient_dim: int
    num_subspaces: int
    dim_range: tuple
    max_iters: int
    stop_tol: float
    fmt: str
    methods: tuple
    # A run of --seconds 30 has ``ops`` distinct operations and runs each of
    # them once per round, for ``rounds`` rounds: about 25 s of work on the
    # 2-vCPU machine the benchmark was tuned on. Other lengths scale ``ops``.
    ops: int
    rounds: int
    # The reference kernel whose speed follows the workload's as the host's
    # speed moves, "small" or "dense" (see reference.py): operation times are
    # reported in its reference seconds.
    reference: str


# The six methods of scripts/compare_methods.py. The symmetrized family has
# 9 reflectors, so build_psi forms 512 dense products per instance.
FAMILY_PSI = Workload(
    name="family-psi",
    ambient_dim=60,
    num_subspaces=5,
    dim_range=(1, 30),
    max_iters=60,
    stop_tol=1e-11,
    fmt="json",
    methods=(
        {"method": "map"},
        {"method": "cim", "operator_set": "psi"},
        {"method": "cim", "operator_set": "psi", "symmetrized": True},
        {"method": "sym_map"},
        {"method": "accel_map"},
        {"method": "dr"},
    ),
    ops=3,
    rounds=3,
    reference="dense",
)

# All nine method variants on nearly parallel subspaces, so the drivers run
# hundreds of steps and families stay small (at most 8 operators). Three
# subspaces of dimension 21 in R^30 meet in dimension 3; with one dimension
# for all, instances differ little in cost, and in each the same one method
# run reaches 1e-10 within 500 steps.
ITERATE_LONG = Workload(
    name="iterate-long",
    ambient_dim=30,
    num_subspaces=3,
    dim_range=(21, 21),
    max_iters=500,
    stop_tol=1e-11,
    fmt="csv",
    methods=(
        {"method": "map"},
        {"method": "cim", "operator_set": "psi"},
        {"method": "cim", "operator_set": "identity_plus_reflectors"},
        {"method": "cim", "operator_set": "identity_plus_prefix_products"},
        {"method": "sym_map"},
        {"method": "accel_map"},
        {"method": "dr"},
        {"method": "averaged_iter", "builder": "sum"},
        {"method": "averaged_iter", "builder": "product"},
    ),
    ops=14,
    rounds=3,
    reference="small",
)

# No circumcentered family: the cost is instance resolution and the rate
# engine on 200x200 matrices, with a fixed 20 steps per method.
RESOLVE_N200 = Workload(
    name="resolve-n200",
    ambient_dim=200,
    num_subspaces=8,
    dim_range=(1, 100),
    max_iters=20,
    stop_tol=0.0,
    fmt="csv",
    methods=(
        {"method": "map"},
        {"method": "sym_map"},
        {"method": "accel_map"},
        {"method": "dr"},
        {"method": "averaged_iter", "builder": "sum"},
        {"method": "averaged_iter", "builder": "product"},
    ),
    ops=3,
    rounds=4,
    reference="dense",
)

WORKLOADS = {w.name: w for w in (FAMILY_PSI, ITERATE_LONG, RESOLVE_N200)}


def op_seed(workload: Workload, seed: int, index: int) -> int:
    """Instance seed of operation ``index``: a 32-bit digest of the
    workload name, the benchmark seed and the index."""
    digest = hashlib.sha256(f"{workload.name}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def op_config(workload: Workload, seed: int, index: int) -> dict:
    s = op_seed(workload, seed, index)
    return {
        "name": f"{workload.name}-{index:04d}",
        "ambient_dim": workload.ambient_dim,
        "seed": s,
        "max_iters": workload.max_iters,
        "stop_tol": workload.stop_tol,
        "x0": {"kind": "random_unit", "seed": s},
        "instances": {
            "kind": "random",
            "count": 1,
            "num_subspaces": workload.num_subspaces,
            "dim_range": list(workload.dim_range),
            "seed": s,
        },
        "methods": [dict(m) for m in workload.methods],
    }


def op_count(workload: Workload, seconds: float) -> int:
    return max(1, round(workload.ops * seconds / 30))


def write_configs(workload: Workload, seed: int, seconds: float, directory: Path) -> list:
    """Write the run's configs, one JSON file per operation, in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(op_count(workload, seconds)):
        path = directory / f"op_{index:04d}.json"
        path.write_text(json.dumps(op_config(workload, seed, index), indent=1) + "\n")
        paths.append(str(path))
    return paths
