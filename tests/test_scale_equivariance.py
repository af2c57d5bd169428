"""Scale equivariance: a linear problem's run does not depend on the scale
of its start.

The best-approximation problem over linear subspaces is homogeneous, so a
start scaled by 2^j scales every iterate, error and step norm by 2^j and
leaves every verdict alone. ``methods._drive`` makes this exact: it runs a
homogeneous problem from x0 / s, s the power of two of ``_scale``, and
multiplies the trace back by s. These tests pin the choice of s, which
problems it applies to, and the bitwise equivariance of every built-in
recipe, including runs that aborted before the driver normalized. An
instance whose subspaces have anchors runs as the linear instance of its
direction spaces, shifted by a point of the intersection, so it is
equivariant too when its anchors are scaled with its start; offsets passed
straight to a driver still run at the data's scale.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    AffineMap,
    AffineSubspace,
    MethodConfig,
    OperatorSet,
    bench,
    build_psi,
    make_reflector,
    parse_config,
    run_cim,
    run_experiment,
    run_linear,
    run_map,
    symmetric_map_operator,
)
from circumproj import methods
from circumproj.methods import _scale
from helpers import demo_config, load_script

# 2^520 squares past the float range and 2^-520 below the normal one, so
# both ends run ``_drive``'s overflow-free scale and its unit-scale figures.
SCALES = [-520, -40, -20, 7, 20, 40, 520]
SQRT_TWO = math.sqrt(2.0)


# the choice of s


def test_a_zero_start_has_scale_one():
    assert _scale(np.zeros(3)) == 1.0


def test_a_unit_start_has_scale_one():
    x = np.random.default_rng(5).standard_normal(7)
    assert _scale(x / np.linalg.norm(x)) == 1.0


@pytest.mark.parametrize("x, norm, scale", [
    # exactly 1/sqrt 2, the lower end, is kept
    (np.array([0.5, 0.5]), math.sqrt(0.5), 1.0),
    # the largest norm below sqrt 2 is kept
    (np.array([np.nextafter(SQRT_TWO, 0.0)]), np.nextafter(SQRT_TWO, 0.0), 1.0),
    # exactly sqrt 2, the upper end, moves down a binade, to 1/sqrt 2
    (np.array([1.0, 1.0]), SQRT_TWO, 2.0),
    # just below 1/sqrt 2 moves up a binade
    (np.array([0.7]), 0.7, 0.5),
], ids=["sqrt_half", "below_sqrt_two", "sqrt_two", "below_sqrt_half"])
def test_the_ends_of_the_range_land_on_their_stated_side(x, norm, scale):
    assert methods._norm(x) == norm
    assert _scale(x) == scale


@pytest.mark.parametrize("x", [np.full(3, 1e200), np.ldexp(np.arange(1.0, 31.0), 520)],
                         ids=["1e200", "2^520"])
def test_a_norm_whose_squares_overflow_is_brought_into_range(x):
    with np.errstate(over="ignore"):
        assert methods._norm(x) == math.inf
    scale = _scale(x)
    assert math.frexp(scale)[0] == 0.5
    assert math.sqrt(0.5) <= methods._norm(x / scale) < SQRT_TWO


def test_the_largest_norms_take_the_largest_power_of_two_or_one():
    """A norm in [2^1023 sqrt 2, 2^1024) takes 2^1023, the largest power of
    two; a norm beyond the float range runs unnormalized, as before."""
    assert _scale(np.array([1.5e308])) == math.ldexp(1.0, 1023)
    assert _scale(np.full(2, 1.5e308)) == 1.0


@given(st.integers(0, 10**6), st.integers(-300, 300))
def test_the_scale_is_a_power_of_two_that_brings_the_norm_into_range(seed, exponent):
    x = np.random.default_rng(seed).standard_normal(4) * 2.0 ** exponent
    scale = _scale(x)
    assert math.frexp(scale)[0] == 0.5
    assert math.sqrt(0.5) <= methods._norm(x / scale) < SQRT_TWO


# which problems are normalized: the input of the driver's first step


def _first_step_input(monkeypatch, run) -> np.ndarray:
    seen = []
    drive = methods._drive

    def spy(method, step, *args, **kwargs):
        return drive(method, lambda x: seen.append(x.copy()) or step(x), *args, **kwargs)

    monkeypatch.setattr(methods, "_drive", spy)
    run()
    return seen[0]


X0 = np.array([8.0, -4.0])  # norm 8.94, so s = 8 when normalized
LINE_X = AffineSubspace.linear([[1.0, 0.0]])
LINE_DIAG = AffineSubspace.linear([[1.0, 1.0]])
ORIGIN = AffineSubspace.point(np.zeros(2))
# two lines through (1, 1)
ANCHORED = [AffineSubspace(np.array([1.0, 1.0]), np.array([[1.0, 0.0]])),
            AffineSubspace(np.array([1.0, 1.0]), np.array([[0.0, 1.0]]))]
POINT = AffineSubspace.point(np.array([1.0, 1.0]))


def test_linear_problems_run_from_the_normalized_start(monkeypatch):
    config = MethodConfig("map", max_iters=2)
    seen = _first_step_input(monkeypatch, lambda: run_map([LINE_X, LINE_DIAG], X0, config,
                                                          ORIGIN))
    assert np.array_equal(seen, X0 / 8.0)


def test_anchored_subspaces_run_unnormalized(monkeypatch):
    config = MethodConfig("map", max_iters=2)
    seen = _first_step_input(monkeypatch, lambda: run_map(ANCHORED, X0, config, POINT))
    assert np.array_equal(seen, X0)


def test_a_family_with_an_offset_runs_unnormalized(monkeypatch):
    family = OperatorSet([make_reflector(s) for s in ANCHORED], fixed=POINT)
    seen = _first_step_input(monkeypatch,
                             lambda: run_cim(family, X0, MethodConfig("cim", max_iters=2)))
    assert np.array_equal(seen, X0)


def test_an_affine_operator_runs_unnormalized(monkeypatch):
    op = AffineMap(0.5 * np.eye(2), np.array([0.5, 0.5]))
    seen = _first_step_input(monkeypatch, lambda: run_linear(
        op, X0, MethodConfig("dr", max_iters=2), POINT))
    assert np.array_equal(seen, X0)


def test_a_prefix_with_an_offset_leaves_a_linear_family_unnormalized(monkeypatch):
    family = build_psi([make_reflector(LINE_X), make_reflector(LINE_DIAG)])
    prefix = AffineMap(np.eye(2), np.array([0.0, 1.0]))
    config = MethodConfig("cim", max_iters=2, prefix=prefix)
    seen = _first_step_input(monkeypatch, lambda: run_cim(family, X0, config))
    assert np.array_equal(seen, X0 + [0.0, 1.0])


def test_a_linear_prefix_applies_to_the_normalized_start(monkeypatch):
    family = build_psi([make_reflector(LINE_X), make_reflector(LINE_DIAG)])
    prefix = symmetric_map_operator([LINE_X, LINE_DIAG])
    config = MethodConfig("cim", max_iters=2, prefix=prefix)
    seen = _first_step_input(monkeypatch, lambda: run_cim(family, X0, config))
    assert np.array_equal(seen, prefix.apply(X0 / 8.0))


# every built-in recipe, bit for bit


def _scaled(config, j: int):
    """``config`` with each instance given its resolved start times 2^j as
    an explicit start, its subspaces' anchors times 2^j, and ``stop_tol``
    times 2^j."""
    items = tuple(
        bench.InstanceItem(label, tuple(AffineSubspace(np.ldexp(s.anchor, j), s.basis)
                                        for s in subspaces),
                           bench.X0Spec("explicit", point=tuple(np.ldexp(x0, j).tolist())),
                           fixed_line)
        for label, subspaces, x0, _, fixed_line in bench._resolve_instances(config))
    return replace(config, instances=items, stop_tol=math.ldexp(config.stop_tol, j))


def _iterate_long(seed: int, index: int, extra=()):
    """Operation ``index`` of ``iterate-long`` at ``seed``, with the
    ``extra`` method entries after the workload's nine."""
    pinned = load_script("pinned")
    if not extra:
        return pinned.operation("iterate-long", seed, index)[1]
    workloads = pinned.workloads
    obj = workloads.op_config(workloads.WORKLOADS["iterate-long"], seed, index)
    obj["methods"] = [*obj["methods"], *extra]
    return parse_config(obj)


PSI_SYM = [{"method": "cim", "operator_set": "psi", "symmetrized": True},
           {"method": "cim", "operator_set": "psi", "symmetrized": True,
            "prefix": "sym_map_product"}]

# every built-in recipe on three hyperplanes of R^4 through (1, -2, 0.5, 3),
# each anchored at another of its points, which meet in a line
ANCHORED_CONFIG = {
    "name": "anchored", "ambient_dim": 4, "max_iters": 40, "stop_tol": 1e-14,
    "x0": {"kind": "explicit", "point": [0.3, 0.9, 0.7, -0.4]},
    "instances": {"kind": "explicit", "items": [{"label": "hyperplanes", "subspaces": [
        {"anchor": [2.0, -2.0, 0.5, 3.0],
         "span": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]]},
        {"anchor": [1.0, -2.0, 1.5, 2.0],
         "span": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0], [0.0, 1.0, 0.0, 1.0]]},
        {"anchor": [1.0, -1.0, 0.5, 3.0],
         "span": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]]},
    ]}]},
    "methods": [
        {"method": "cim", "operator_set": "psi"},
        *PSI_SYM,
        {"method": "cim", "operator_set": "identity_plus_reflectors"},
        {"method": "cim", "operator_set": "identity_plus_prefix_products"},
        {"method": "map"}, {"method": "sym_map"}, {"method": "accel_map"}, {"method": "dr"},
        {"method": "averaged_iter", "builder": "sum"},
        {"method": "averaged_iter", "builder": "product"},
    ],
}

CONFIGS = {
    "anchored": lambda: parse_config(ANCHORED_CONFIG),
    "demo": lambda: parse_config(demo_config()),
    "iterate-long": lambda: _iterate_long(11, 0, PSI_SYM),
}


def _bits(array) -> bytes:
    return np.asarray(array, dtype=float).tobytes()


def _assert_equivariant(unit, scaled, j: int):
    """Every trace of ``scaled`` is the unit trace times 2^j, bit for bit,
    its distance from the start to the target too, and every audit has the
    unit bounds times 2^j, and the unit verdicts and slacks."""
    assert len(scaled.instances) == len(unit.instances)
    for ours, theirs in zip(scaled.instances, unit.instances):
        assert [m.label for m in ours.methods] == [m.label for m in theirs.methods]
        for mine, base in zip(ours.methods, theirs.methods):
            where = f"{ours.label} {mine.label}"
            for column in ("iterates", "errors", "step_norms"):
                assert _bits(getattr(mine.trace, column)) == _bits(
                    np.ldexp(getattr(base.trace, column), j)), f"{where} {column}"
            assert mine.trace.error_origin == math.ldexp(base.trace.error_origin, j), where
            assert (mine.report is None) == (base.report is None), where
            if base.report is not None:
                assert _bits(mine.report.bounds) == _bits(np.ldexp(base.report.bounds, j)), where
                assert np.array_equal(mine.report.satisfied, base.report.satisfied), where
                assert _bits(mine.report.slacks) == _bits(base.report.slacks), where


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_recipe_is_scale_equivariant_bit_for_bit(name):
    config = CONFIGS[name]()
    unit = run_experiment(_scaled(config, 0))
    methods_run = {m.label for instance in unit.instances for m in instance.methods}
    assert len(methods_run) == len(config.methods)
    for j in SCALES:
        _assert_equivariant(unit, run_experiment(_scaled(config, j)), j)


# The first two aborted with NumericalPropernessError before the driver
# normalized: the step's absolute thresholds acted at the data's scale. At
# 2^-520 the squares of the error column underflow unless it is formed at
# unit scale.
@pytest.mark.parametrize("index, j", [(2, 10), (1, 20), (0, -520)],
                         ids=["op2-2^10", "op1-2^20", "op0-2^-520"])
def test_iterate_long_runs_to_the_end_at_scale(index, j):
    config = _iterate_long(11, index)
    _assert_equivariant(run_experiment(_scaled(config, 0)),
                        run_experiment(_scaled(config, j)), j)
