"""The audits of the demo and of the pinned benchmark operations.

The pinned operations are ops 0-2 at seed 4242 of each perfbench workload
(``scripts/pinned.py``), the runs whose artifact digests are recorded. Every
audit of theirs must hold. And each linear constant is pinned from both
sides: from its operator's worst-case start, one step attains it.
"""

from pathlib import Path

import numpy as np
import pytest

from circumproj import (
    AUDIT_TOL,
    MethodConfig,
    bench,
    dr_operator,
    fixed_point_set,
    load_config,
    map_operator,
    run_experiment,
    tuple_angle_cos,
)
from helpers import load_script

ROOT = Path(__file__).resolve().parent.parent
PINNED_SEED = 4242
pinned = load_script("pinned")
OPERATIONS = [(name, index) for name in pinned.WORKLOADS for index in range(3)]

# How far below its constant one step from the worst-case start may land:
# the measured ratios read 1 to 12 digits.
SHARP_BELOW = 1e-9


def _configs() -> list:
    """The demo's config and the pinned operations', each with its label as its id."""
    configs = [pytest.param(load_config(ROOT / "configs" / "demo.json"), id="demo")]
    for name, index in OPERATIONS:
        label, config, _ = pinned.operation(name, PINNED_SEED, index)
        configs.append(pytest.param(config, id=label))
    return configs


def _bounding_operator(spec: bench.MethodSpec, ctx: bench._Instance):
    """The linear operator whose norm off its fixed set is the recipe's
    constant, and that set; None for ``accel_map`` and the prefixed ``cim``,
    whose constant eta no single step attains, and for ``cim custom``."""
    inter = ctx.inter.subspace
    psi = spec.method == "cim" and spec.variant == "psi" and spec.prefix == "none"
    if spec.method == "map" or (psi and not spec.symmetrized):
        return map_operator(ctx.subspaces), inter
    if spec.method == "sym_map" or (psi and spec.symmetrized):
        return ctx.sym_op, inter
    if spec.method == "dr":
        op = dr_operator(ctx.reflector(0), ctx.reflector(1))
        return op, fixed_point_set(op)
    if spec.method == "averaged_iter":
        return ctx.averaged(spec.variant, symmetrized=False), inter
    builder = {"identity_plus_reflectors": "sum", "identity_plus_prefix_products": "product"}
    if spec.method == "cim" and spec.variant in builder:
        return ctx.averaged(builder[spec.variant], spec.symmetrized), inter
    return None


def _worst_start(op, fixed) -> np.ndarray:
    """The top right singular vector of T (I - P_F)."""
    off_fixed = np.eye(op.ambient_dim) - fixed.projector_matrix()
    return np.linalg.svd(op.A @ off_fixed)[2][0]


@pytest.mark.parametrize("config", _configs())
def test_one_step_from_the_worst_start_attains_each_linear_constant(config):
    """e_1 / (c e0) lies in [1 - SHARP_BELOW, 1 + AUDIT_TOL] for every linear
    recipe, so a constant too large or too small fails; the map constant is
    checked as the harness computes it and as ``tuple_angle_cos`` does. A
    circumcentered family, which may beat its linear operator, gets the
    upper side only."""
    for instance_label, subspaces, _, inter, _ in bench._resolve_instances(config):
        for spec in config.methods:
            ctx = bench._Instance(subspaces, np.zeros(config.ambient_dim), inter)
            bounding = _bounding_operator(spec, ctx)
            if bounding is None:
                continue
            ctx.x0 = _worst_start(*bounding)
            plan = bench._plan_method(spec, ctx)
            trace = plan.run(MethodConfig(spec.method, max_iters=1))
            constants = [plan.constant.value]
            if spec.method == "map":
                constants.append(tuple_angle_cos(subspaces, inter.subspace))
            for c in constants:
                ratio = trace.errors[1] / (c * trace.errors[0])
                where = f"{instance_label}/{spec.label}: e1 / (c e0) = {ratio!r}"
                assert ratio <= 1.0 + AUDIT_TOL, where
                if spec.method != "cim":
                    assert ratio >= 1.0 - SHARP_BELOW, where


@pytest.mark.parametrize("name, index", OPERATIONS)
def test_every_audit_of_a_pinned_operation_holds(name, index):
    label, config, _ = pinned.operation(name, PINNED_SEED, index)
    report = run_experiment(config)
    failing = [f"{instance.label}/{m.label}" for instance in report.instances
               for m in instance.methods if m.report is not None and not m.report.all_satisfied]
    assert report.all_ok, f"{label}: failing audits {failing}"
