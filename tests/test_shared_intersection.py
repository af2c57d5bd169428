"""Each instance's intersection is computed once and shared.

The resolver computes ``intersect`` of an instance's subspaces; the cyclic
projection driver, the tuple rate and the report reuse it. The counting
tests rebind ``intersect`` in every circumproj module that imports it. The
sharing must not move a byte: ``run_map`` and ``tuple_angle_cos`` given the
intersection that ``generate_instance`` returns agree exactly with the
calls given one intersected afresh. No driver or rate function computes a
fixed set of its own: each takes it as a required argument and refuses
None, the subspace of an empty intersection, with a ValueError.
"""

import sys

import numpy as np
import pytest

from circumproj import (
    AffineSubspace,
    MethodConfig,
    accel_constants,
    compute_rates,
    generate_instance,
    intersect,
    parse_config,
    run_experiment,
    run_linear,
    run_map,
    subspace,
    symmetric_map_operator,
    tuple_angle_cos,
)
from helpers import json_text

LINEAR_METHODS = (
    {"method": "map"},
    {"method": "sym_map"},
    {"method": "accel_map"},
    {"method": "dr"},
    {"method": "averaged_iter", "builder": "sum"},
    {"method": "averaged_iter", "builder": "product"},
)


def _count_intersect(monkeypatch) -> list:
    """Rebind ``intersect`` wherever circumproj imported it; returns the
    log of the subspace lists it was called with."""
    calls = []
    original = subspace.intersect

    def counting(subspaces, *args, **kwargs):
        calls.append(list(subspaces))
        return original(subspaces, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name == "circumproj" or module_name.startswith("circumproj."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _random_config():
    return parse_config({
        "name": "shared",
        "ambient_dim": 8,
        "max_iters": 8,
        "instances": {"kind": "random", "count": 3, "num_subspaces": 3,
                      "dim_range": [4, 6], "seed": 31},
        "methods": [dict(m) for m in LINEAR_METHODS],
    })


def _explicit_config():
    return parse_config({
        "name": "shared_explicit",
        "ambient_dim": 3,
        "max_iters": 8,
        "x0": {"kind": "explicit", "point": [0.3, -1.0, 2.0]},
        "instances": {"kind": "explicit", "items": [
            {"label": "two_planes", "subspaces": [
                {"span": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
                {"span": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]},
            ]},
            {"label": "plane_and_line", "subspaces": [
                {"span": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
                {"span": [[1.0, 2.0, 0.0]]},
                {"span": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            ]},
        ]},
        "methods": [dict(m) for m in LINEAR_METHODS],
    })


@pytest.mark.parametrize("make_config", [_random_config, _explicit_config],
                         ids=["random", "explicit"])
def test_run_experiment_intersects_once_per_instance(monkeypatch, make_config):
    config = make_config()
    calls = _count_intersect(monkeypatch)
    report = run_experiment(config)
    assert len(report.instances) in (2, 3)
    assert len(calls) == len(report.instances), (
        f"{len(calls)} intersections for {len(report.instances)} instances")
    for instance, subspaces in zip(report.instances, calls):
        assert instance.intersection_dim == intersect(subspaces).subspace.dim


@pytest.mark.parametrize("make_config", [_random_config, _explicit_config],
                         ids=["random", "explicit"])
def test_compute_rates_intersects_once_per_instance(monkeypatch, make_config):
    config = make_config()
    calls = _count_intersect(monkeypatch)
    rows = compute_rates(config)
    instances = len({row["instance"] for row in rows})
    assert len(calls) == instances


@pytest.mark.parametrize("ambient_dim", [4, 7, 12, 20, 30])
def test_shared_intersection_changes_no_byte(ambient_dim):
    """The intersection ``generate_instance`` returns, which every recipe of
    the instance shares, gives the bytes of one intersected afresh."""
    rng = np.random.default_rng((ambient_dim, 17))
    config = MethodConfig(method="map", max_iters=25)
    for num_subspaces in (2, 3, 5):
        subspaces, x0, inter = generate_instance(ambient_dim, num_subspaces,
                                                 (ambient_dim // 2, ambient_dim - 1), rng)
        fresh = intersect(subspaces).subspace
        assert fresh is not inter.subspace
        assert tuple_angle_cos(subspaces, inter.subspace) == tuple_angle_cos(subspaces, fresh)
        shared = run_map(subspaces, x0, config, inter.subspace)
        assert json_text(shared) == json_text(run_map(subspaces, x0, config, fresh))


def test_run_map_without_intersection_still_raises():
    lines = [AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]]),
             AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])]
    inter = intersect(lines)
    assert inter.is_empty and inter.subspace is None
    with pytest.raises(ValueError, match="subspaces have empty intersection"):
        run_map(lines, [0.5, 2.0], MethodConfig(method="map", max_iters=3), inter.subspace)


LINE_X = AffineSubspace.linear([[1.0, 0.0]])
LINE_DIAG = AffineSubspace.linear([[1.0, 1.0]])
SYM_OP = symmetric_map_operator([LINE_X, LINE_DIAG])

# each function with every argument but the fixed set, which is None
WITHOUT_FIXED_SET = {
    "run_map": lambda: run_map([LINE_X, LINE_DIAG], [0.3, 0.9], MethodConfig("map"), None),
    "run_linear": lambda: run_linear(SYM_OP, [0.3, 0.9], MethodConfig("sym_map"), None),
    "tuple_angle_cos": lambda: tuple_angle_cos([LINE_X, LINE_DIAG], None),
    "accel_constants": lambda: accel_constants(SYM_OP, None),
}


@pytest.mark.parametrize("name", sorted(WITHOUT_FIXED_SET))
def test_a_fixed_set_of_none_raises_value_error(name):
    """None, the subspace of an empty intersection, is refused with a
    ValueError before any attribute of the fixed set is read."""
    with pytest.raises(ValueError, match="empty intersection|no fixed points"):
        WITHOUT_FIXED_SET[name]()

