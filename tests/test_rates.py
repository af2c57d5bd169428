import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    AffineIsometry,
    AffineMap,
    AffineSubspace,
    IterationTrace,
    MethodConfig,
    RateConstant,
    accel_constants,
    audit_bound,
    fixed_point_set,
    intersect,
    operator_rate,
    run_map,
    symmetric_map_operator,
    tuple_angle_cos,
)
from helpers import json_text, random_family, random_linear_subspace
from oracles import oracle_friedrichs, oracle_operator_rate

LINE_X = AffineSubspace.linear([[1.0, 0.0]])
LINE_DIAG = AffineSubspace.linear([[1.0, 1.0]])
LINE_Y = AffineSubspace.linear([[0.0, 1.0]])
# {0}, the intersection of any two distinct lines of the plane through it
ORIGIN = AffineSubspace.point(np.zeros(2))


def _toy_trace(errors, x0=None, target=None):
    errors = np.asarray(errors, dtype=float)
    count = errors.shape[0]
    iterates = np.zeros((count, 2))
    iterates[:, 0] = errors
    return IterationTrace(
        method="map",
        iterates=iterates,
        errors=errors,
        stopped_at=count - 1,
        x0_original=np.array([1.0, 0.0]) if x0 is None else np.asarray(x0, dtype=float),
        target=np.zeros(2) if target is None else np.asarray(target, dtype=float),
    )


def test_friedrichs_frozen_values():
    assert abs(tuple_angle_cos([LINE_X, LINE_DIAG], ORIGIN) - np.sqrt(0.5)) < 1e-10
    assert tuple_angle_cos([LINE_X, LINE_Y], ORIGIN) < 1e-10
    assert tuple_angle_cos([LINE_X, LINE_X], LINE_X) < 1e-10


def test_tuple_angle_frozen_three_lines():
    gamma = tuple_angle_cos([LINE_X, LINE_DIAG, LINE_Y], ORIGIN)
    assert abs(gamma - 0.5) < 1e-10, f"three coordinate lines give 1/2, got {gamma}"


@given(st.integers(0, 10**6))
def test_friedrichs_matches_principal_angle_oracle(seed):
    rng = np.random.default_rng(seed)
    u = random_linear_subspace(rng, 6, int(rng.integers(1, 5)))
    v = random_linear_subspace(rng, 6, int(rng.integers(1, 5)))
    ours = tuple_angle_cos([u, v], intersect([u, v]).subspace)
    reference = oracle_friedrichs(u.basis, v.basis)
    assert abs(ours - reference) < 1e-8, f"{ours} vs principal angles {reference}"


@given(st.integers(0, 10**6))
def test_tuple_angle_is_strictly_below_one(seed):
    rng = np.random.default_rng(seed)
    family = random_family(rng, 6, int(rng.integers(2, 5)), 1, 5)
    gamma = tuple_angle_cos(family, intersect(family).subspace)
    assert 0.0 <= gamma < 1.0, f"tuple angle cosine must be in [0, 1), got {gamma}"


def test_operator_rate_frozen():
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    fixed = fixed_point_set(op)
    assert abs(operator_rate(op, fixed) - 0.5) < 1e-10
    # the identity has rate 0 on the complement of everything
    eye = AffineMap(A=np.eye(3), b=np.zeros(3))
    assert operator_rate(eye, AffineSubspace(np.zeros(3), np.eye(3))) < 1e-12


def test_operator_rate_rejects_unfixed_subspace():
    projector = AffineMap(A=LINE_X.projector_matrix(), b=np.zeros(2))
    with pytest.raises(ValueError):
        operator_rate(projector, LINE_DIAG)


@given(st.integers(0, 10**6))
def test_operator_rate_matches_power_iteration(seed):
    rng = np.random.default_rng(seed)
    family = random_family(rng, 5, 2, 1, 4)
    op = symmetric_map_operator(family)
    fixed = fixed_point_set(op)
    ours = operator_rate(op, fixed)
    reference = oracle_operator_rate(op.A, fixed.projector_matrix(), seed=seed)
    assert abs(ours - reference) < 1e-6, f"{ours} vs power iteration {reference}"


def test_accel_constants_frozen_45_degrees():
    consts = accel_constants(symmetric_map_operator([LINE_X, LINE_DIAG]), ORIGIN)
    assert abs(consts.c1 - 0.0) < 1e-10
    assert abs(consts.c2 - 0.5) < 1e-10
    assert abs(consts.eta - 1.0 / 3.0) < 1e-10
    assert abs(consts.cT - 0.5) < 1e-10


def test_accel_constants_frozen_three_lines():
    consts = accel_constants(symmetric_map_operator([LINE_X, LINE_DIAG, LINE_Y]), ORIGIN)
    assert abs(consts.c2 - 0.25) < 1e-10
    assert abs(consts.eta - 1.0 / 7.0) < 1e-10
    assert abs(consts.cT - 0.25) < 1e-10


def test_accel_constants_take_the_intersection_at_a_small_angle():
    """Two lines through 0 in R^3 at angle 1e-5 meet only at 0, and the
    symmetric product's rate is cos^2 = 1 - theta^2 off {0}. Its A - I has
    singular values of order theta^2, where a rank cut finds a line, so the
    fixed set comes from the subspaces and has no default."""
    theta = 1e-5
    lines = [AffineSubspace.linear([[1.0, 0.0, 0.0]]),
             AffineSubspace.linear([[np.cos(theta), np.sin(theta), 0.0]])]
    op = symmetric_map_operator(lines)
    with pytest.raises(TypeError):
        accel_constants(op)
    fixed = intersect(lines).subspace
    assert fixed.dim == 0
    consts = accel_constants(op, fixed)
    assert abs(consts.cT - (1.0 - theta ** 2)) < 1e-12, consts.cT


def test_accel_constants_reject_unsuitable_operators():
    rotation = AffineIsometry(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises((ValueError, RuntimeError)):
        accel_constants(AffineMap(A=rotation.Q, b=np.zeros(2)), ORIGIN)
    with pytest.raises((ValueError, RuntimeError)):
        accel_constants(AffineMap(A=2.0 * np.eye(2), b=np.zeros(2)), ORIGIN)
    with pytest.raises((ValueError, RuntimeError)):
        accel_constants(AffineMap(A=-np.eye(2), b=np.zeros(2)), ORIGIN)


@given(st.integers(0, 10**6))
def test_accel_constants_chain_inequality(seed):
    """0 <= eta <= cT / (2 - cT) <= cT < 1 for symmetric projection products."""
    rng = np.random.default_rng(seed)
    family = random_family(rng, 6, int(rng.integers(2, 4)), 1, 5)
    fixed = intersect(family).subspace
    consts = accel_constants(symmetric_map_operator(family), fixed)
    assert -1e-10 <= consts.eta
    assert consts.eta <= consts.cT / (2.0 - consts.cT) + 1e-10
    assert consts.cT / (2.0 - consts.cT) <= consts.cT + 1e-10
    assert consts.cT < 1.0
    gamma = tuple_angle_cos(family, fixed)
    assert abs(consts.cT - gamma * gamma) < 1e-8, (
        f"cT should equal the squared tuple angle: {consts.cT} vs {gamma ** 2}"
    )


def test_audit_bound_frozen_synthetic_pass():
    report = audit_bound(_toy_trace([1.0, 0.25, 0.0625]), RateConstant("linear_rate", 0.5, {}))
    assert report.all_satisfied
    bounds = [row[2] for row in report.per_iteration]
    assert np.allclose(bounds, [1.0, 0.5, 0.25], atol=1e-15)
    assert all(row[3] for row in report.per_iteration)
    # the k = 0 row is exactly tight, so the minimum slack is 0
    assert abs(report.slack_min - 0.0) < 1e-12


def test_audit_bound_frozen_synthetic_violation():
    report = audit_bound(_toy_trace([1.0, 0.6]), RateConstant("linear_rate", 0.5, {}))
    assert not report.all_satisfied
    assert report.slack_min < -0.19


def test_audit_bound_all_zero_trace():
    report = audit_bound(_toy_trace([0.0, 0.0, 0.0]), RateConstant("linear_rate", 0.0, {}))
    assert report.all_satisfied
    assert report.slack_min == 1.0


def test_audit_bound_prefixed_scale():
    # error origin is 2, prefactor 0.25, rate 0.5: bounds 0.5, 0.25, 0.125
    trace = _toy_trace([0.4, 0.2, 0.1], x0=[2.0, 0.0], target=[0.0, 0.0])
    report = audit_bound(trace, RateConstant("prefixed_rate", 0.5, {"prefactor": 0.25}))
    assert report.all_satisfied
    bounds = [row[2] for row in report.per_iteration]
    assert np.allclose(bounds, [0.5, 0.25, 0.125], atol=1e-12)
    assert report.constant.ingredients["prefactor"] == 0.25


def test_audit_bound_validates_inputs():
    with pytest.raises(ValueError):
        RateConstant("linear_rate", -0.1, {})


@pytest.mark.parametrize("prefactor", [None, 0.9], ids=["plain-None", "prefixed-0.9"])
def test_audit_bound_writes_a_numpy_scalar_rate_as_its_float(prefactor):
    """A numpy scalar rate or prefactor gives the bytes of the Python float,
    not ``np.float64(...)`` reprs in the bound and slack columns."""
    trace = run_map([LINE_X, LINE_DIAG], np.array([0.3, 0.9]), MethodConfig("map", max_iters=6),
                    ORIGIN)
    reports = [
        audit_bound(trace, RateConstant("linear_rate", to_scalar(0.7),
                                        {} if prefactor is None
                                        else {"prefactor": to_scalar(prefactor)}))
        for to_scalar in (float, np.float64)
    ]
    assert "np." not in reports[1].to_csv()
    assert reports[1].to_csv() == reports[0].to_csv()
    assert json_text(reports[1]) == json_text(reports[0])


def test_rate_report_serialization_round_trip():
    report = audit_bound(_toy_trace([1.0, 0.25]), RateConstant("demo_rate", 0.5, {"gamma": 0.5}))
    lines = report.to_csv().splitlines()
    assert lines[0] == "k,error,bound,slack"
    assert len(lines) == 3
    obj = json.loads(json_text(report))
    assert obj["constant_name"] == "demo_rate"
    assert obj["value"] == 0.5
    assert obj["all_satisfied"] is True
    assert obj["ingredients"]["gamma"] == 0.5
    assert json_text(report) == json_text(audit_bound(
        _toy_trace([1.0, 0.25]), RateConstant("demo_rate", 0.5, {"gamma": 0.5})
    ))
