"""A ladder of degenerate inputs for the circumcenter step.

Two lines through 0 in R^3 at angle theta from 1e-1 down to 1e-8, the same
start point scaled by 1e-6 and 1e6, duplicated subspaces and nested
subspaces, each under the increasing reflector products and their
palindrome. Every case must converge to the known projection onto the
intersection, with its first step checked against the independent oracle,
or raise NumericalPropernessError. None may stop short of the target
without saying so. The same two lines also run through the harness under
the linear recipes, whose fixed set must stay the intersection {0} (or,
for Douglas-Rachford, the line orthogonal to both) at every angle.
"""

import numpy as np
import pytest

from circumproj import (AffineSubspace, MethodConfig, build_psi, compute_rates,
                        parse_config, run_cim, run_experiment)
from helpers import reflectors_of
from oracles import oracle_circumcenter

X0 = np.array([0.3, 1.0, 0.5])
THETAS = [10.0**-e for e in range(1, 9)]
STEPS = 20


def _lines(theta):
    return [AffineSubspace.linear([[1.0, 0.0, 0.0]]),
            AffineSubspace.linear([[np.cos(theta), np.sin(theta), 0.0]])]


def _family(subspaces, symmetrized):
    reflectors = reflectors_of(subspaces)
    return build_psi(reflectors + reflectors[-2::-1] if symmetrized else reflectors)


def _assert_reaches(family, x0, projection):
    """The first center is the oracle's, and the iterates reach the known
    projection to 1e-6 of the starting error within STEPS steps."""
    oracle = oracle_circumcenter(family.images(x0))
    trace = run_cim(family, x0, MethodConfig(method="cim", max_iters=STEPS))
    start = float(np.linalg.norm(x0 - projection))
    assert oracle is not None
    assert np.linalg.norm(trace.iterates[1] - oracle) <= 1e-6 * start
    final = float(np.linalg.norm(trace.iterates[-1] - projection))
    assert final <= 1e-6 * start, f"stopped at {final / start:.3e} of the starting error"


# The driver runs a linear problem from its start divided by a power of two
# near its norm, so at every scale the step's thresholds act as at scale 1.
@pytest.mark.parametrize("symmetrized", [False, True], ids=["psi", "psi_sym"])
@pytest.mark.parametrize("scale, theta", [
    *[pytest.param(1e-6, theta, id=f"1e-6-{theta:.0e}") for theta in THETAS],
    *[pytest.param(1.0, theta, id=f"1-{theta:.0e}") for theta in THETAS],
    *[pytest.param(1e6, theta, id=f"1e6-{theta:.0e}") for theta in THETAS],
])
def test_two_lines_at_a_small_angle_reach_the_origin(scale, theta, symmetrized):
    _assert_reaches(_family(_lines(theta), symmetrized), scale * X0, np.zeros(3))


def test_lines_at_1e_8_do_not_freeze():
    """The first step moves from x0 to the origin: a candidate equal to x0
    has a spread of 8e-9 here, which the acceptance test would pass."""
    trace = run_cim(_family(_lines(1e-8), False), X0, MethodConfig(method="cim", max_iters=1))
    assert np.linalg.norm(trace.iterates[1] - X0) > 0.1
    assert trace.errors[1] < 1e-6


# Two planes in R^4 meeting in the first axis at angle theta, a start point
# and its projection onto that axis.
X0_4 = np.array([0.3, 1.0, 0.5, -0.7])
E1_PART = np.array([0.3, 0.0, 0.0, 0.0])


def _planes(theta):
    return [AffineSubspace.linear(np.eye(4)[:2]),
            AffineSubspace.linear([[1.0, 0.0, 0.0, 0.0],
                                   [0.0, np.cos(theta), np.sin(theta), 0.0]])]


@pytest.mark.parametrize("symmetrized", [False, True], ids=["psi", "psi_sym"])
@pytest.mark.parametrize("theta", [1e-2, 1e-8])
def test_duplicated_subspaces_reach_the_intersection(theta, symmetrized):
    """Equal subspaces with separate reflector objects give coinciding images."""
    plane, tilted = _planes(theta)
    family = _family([plane, plane, tilted, tilted], symmetrized)
    _assert_reaches(family, X0_4, E1_PART)


@pytest.mark.parametrize("symmetrized", [False, True], ids=["psi", "psi_sym"])
@pytest.mark.parametrize("theta", [1e-2, 1e-8])
def test_nested_subspaces_reach_the_innermost(theta, symmetrized):
    """A line inside two planes at angle theta inside a 3-space."""
    plane, tilted = _planes(theta)
    line = AffineSubspace.linear(np.eye(4)[:1])
    space = AffineSubspace.linear(np.eye(4)[:3])
    family = _family([space, plane, line, tilted], symmetrized)
    _assert_reaches(family, X0_4, E1_PART)


# The linear recipes and the prefixed circumcentered one on the same two
# lines, through run_experiment. Their fixed set is the intersection {0},
# except for Douglas-Rachford's (U ∩ V) ⊕ (U⊥ ∩ V⊥), the third axis.
FIXED_SET_RECIPES = {
    "sym_map": {"method": "sym_map"},
    "accel_map": {"method": "accel_map"},
    "averaged_sum": {"method": "averaged_iter", "builder": "sum"},
    "averaged_product": {"method": "averaged_iter", "builder": "product"},
    "cim_prefixed": {"method": "cim", "operator_set": "psi", "symmetrized": True,
                     "prefix": "sym_map_product"},
    "dr": {"method": "dr"},
}
# At 1e-8 the plain rate cT = 1 - theta^2 rounds to 1.0, so the acceleration
# constants' rate chain (cT < 1) raises for the recipes that audit eta.
CHAIN_LIMIT = {"accel_map", "cim_prefixed"}


def _lines_config(theta, entries):
    return parse_config({
        "name": "ladder", "ambient_dim": 3, "max_iters": 40,
        "x0": {"kind": "explicit", "point": X0.tolist()},
        "instances": {"kind": "explicit", "items": [{"label": "lines", "subspaces": [
            {"span": [[1.0, 0.0, 0.0]]},
            {"span": [[np.cos(theta), np.sin(theta), 0.0]]}]}]},
        "methods": entries,
    })


@pytest.mark.parametrize("recipe", sorted(FIXED_SET_RECIPES))
@pytest.mark.parametrize("theta", THETAS[3:], ids=lambda theta: f"{theta:.0e}")
def test_linear_recipes_target_the_intersection_at_small_angles(theta, recipe):
    config = _lines_config(theta, [FIXED_SET_RECIPES[recipe]])
    if theta < 1e-7 and recipe in CHAIN_LIMIT:
        with pytest.raises(RuntimeError, match="rate chain violated"):
            run_experiment(config)
        return
    (instance,) = run_experiment(config).instances
    (outcome,) = instance.methods
    wanted = [0.0, 0.0, X0[2]] if recipe == "dr" else [0.0, 0.0, 0.0]
    assert instance.intersection_dim == 0
    assert np.array_equal(outcome.trace.target, wanted)
    assert outcome.report.all_satisfied
    assert 1.0 - 3 * theta**2 <= outcome.report.constant.value <= 1.0


def _random_config(seed, entries):
    """Three subspaces of dimension 21 in R^30, which meet in a 3-space."""
    return parse_config({
        "name": "random", "ambient_dim": 30,
        "instances": {"kind": "random", "count": 1, "num_subspaces": 3,
                      "dim_range": [21, 21], "seed": seed},
        "methods": entries,
    })


@pytest.mark.parametrize("builder, operator_set", [
    ("sum", "identity_plus_reflectors"), ("product", "identity_plus_prefix_products")])
@pytest.mark.parametrize("make_config, arg", [
    *[pytest.param(_lines_config, theta, id=f"lines-{theta:.0e}") for theta in THETAS[3:7]],
    *[pytest.param(_random_config, seed, id=f"random-{seed}") for seed in (3, 4, 5)],
])
def test_averaged_map_and_its_family_report_one_constant(make_config, arg, builder,
                                                         operator_set):
    """``averaged_iter`` and the circumcentered family {Id, R1, ..} or
    {Id, R1, R2R1, ..} audit the rate of one averaged operator, bit for bit."""
    averaged, family = compute_rates(make_config(arg, [
        {"method": "averaged_iter", "builder": builder},
        {"method": "cim", "operator_set": operator_set}]))
    assert family["rate"]["constant_name"] == averaged["rate"]["constant_name"]
    assert family["rate"]["value"] == averaged["rate"]["value"]
