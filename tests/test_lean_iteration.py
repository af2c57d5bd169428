"""The iteration hot path checks each datum once and keeps every bit.

Public entry points validate their inputs; the drivers validate the start
once per run and every new iterate as it is produced; the circumcenter step
and the projection sweep trust the driver's checked iterate. These tests pin
that nothing observable moved: the non-finite contract of the drivers, the
centers, spreads and residuals of the step, and the bytes of the writers.
"""

import importlib

import numpy as np
import pytest

from circumproj import (
    AffineIsometry,
    AffineMap,
    AffineSubspace,
    IterationTrace,
    MethodConfig,
    NumericalPropernessError,
    OperatorSet,
    RateConstant,
    audit_bound,
    build_psi,
    circumcenter,
    circumcenter_map,
    intersect,
    run_cim,
    run_linear,
    run_map,
)
from circumproj.methods import _drive
from circumproj.numerics import _norm
from helpers import random_family, reference_rate_csv, reference_trace_csv, reflectors_of


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


# the non-finite contract of the drivers


def _blowup_step(bad: float, at: int):
    """Halve the iterate, and return ``bad`` in every entry at step ``at``."""
    count = [0]

    def step(x):
        count[0] += 1
        return np.full_like(x, bad) if count[0] == at else 0.5 * x

    return step


@pytest.mark.parametrize("stop_tol", [0.0, 1e-12])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_step_raises_at_its_step(bad, stop_tol):
    config = MethodConfig("map", max_iters=10, stop_tol=stop_tol)
    x0 = np.array([1.0, -2.0, 3.0])
    with pytest.raises(RuntimeError) as info:
        _drive("map", _blowup_step(bad, 4), x0, config, np.zeros(3))
    assert str(info.value) == "map produced a non-finite iterate at step 4"


@pytest.mark.parametrize("stop_tol", [0.0, 1e-12])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_linear_run_that_overflows_raises_at_the_overflowing_step(stop_tol):
    # 1e200 * 1e200 overflows at step 2
    op = AffineMap(np.diag([1e200, 0.5]), np.zeros(2))
    config = MethodConfig("dr", max_iters=5, stop_tol=stop_tol)
    with pytest.raises(RuntimeError, match=r"^dr produced a non-finite iterate at step 2$"):
        run_linear(op, [1.0, 1.0], config, fixed=AffineSubspace.point(np.zeros(2)))


def test_only_one_entry_non_finite_is_still_caught():
    def step(x):
        out = 0.5 * x
        out[1] = np.nan
        return out

    config = MethodConfig("map", max_iters=3, stop_tol=1e-12)
    with pytest.raises(RuntimeError, match="at step 1$"):
        _drive("map", step, np.ones(4), config, np.zeros(4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_finite_iterate_whose_step_norm_overflows_does_not_raise():
    # x -> -x from 1e200: every iterate is finite, every step norm is inf
    op = AffineMap(-np.eye(3), np.zeros(3))
    x0 = np.full(3, 1e200)
    config = MethodConfig("dr", max_iters=6, stop_tol=1e-11)
    trace = run_linear(op, x0, config, fixed=AffineSubspace.point(np.zeros(3)))
    assert trace.stopped_at == 6
    assert np.isfinite(trace.iterates).all()
    assert _norm(trace.iterates[1] - trace.iterates[0]) == np.inf
    assert _bits(trace.iterates[::2]) == _bits(np.tile(x0, (4, 1)))


def test_run_map_checks_every_subspace_against_the_start_once():
    good = AffineSubspace.linear([[1.0, 0.0, 0.0]])
    other = AffineSubspace.linear([[1.0, 0.0]])
    config = MethodConfig("map", max_iters=3)
    with pytest.raises(ValueError, match="point has dimension 3, subspace lives in R\\^2"):
        run_map([good, other], np.ones(3), config, fixed=good)


# the circumcenter step: one solve core, the same bits as circumcenter()


def _iterate_long_families(seed: int):
    """The three circumcentered families of the iterate-long workload on one
    instance: three subspaces of dimension 21 in R^30."""
    rng = np.random.default_rng(seed)
    subspaces = random_family(rng, 30, 3, 21, 21)
    fixed = intersect(subspaces).subspace
    reflectors = reflectors_of(subspaces)
    count = len(reflectors)
    x0 = rng.standard_normal(30)
    return x0, {
        "psi": build_psi(reflectors, fixed=fixed),
        "identity_plus_reflectors": OperatorSet(
            reflectors, [()] + [(i,) for i in range(count)], fixed=fixed),
        "identity_plus_prefix_products": OperatorSet(
            reflectors, [()] + [tuple(range(i + 1)) for i in range(count)], fixed=fixed),
    }


@pytest.mark.parametrize("name", ["psi", "identity_plus_reflectors",
                                  "identity_plus_prefix_products"])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_step_returns_the_circumcenter_bit_for_bit(name, seed):
    x0, families = _iterate_long_families(seed)
    family = families[name]
    x = x0
    chain = [x0]
    for _ in range(50):
        center = circumcenter(family.images(x)).center
        step = circumcenter_map(family, x)
        assert _bits(step) == _bits(center)
        chain.append(step)
        x = step
    trace = run_cim(family, x0, MethodConfig("cim", max_iters=50))
    assert _bits(trace.iterates) == _bits(np.array(chain))


@pytest.mark.parametrize("name", ["psi", "identity_plus_reflectors",
                                  "identity_plus_prefix_products"])
def test_a_rejected_step_reports_the_spread_and_residual_of_circumcenter(name):
    """A rejected step raises with the spread and residual of its own one
    solve, the bits that ``circumcenter`` of the same images reports."""
    x0, families = _iterate_long_families(2)
    family = families[name]
    # the package binds the name circumcenter to the function
    module = importlib.import_module("circumproj.circumcenter")
    solve, solves = module._solve, []

    def spy(points):
        solves.append(points)
        return solve(points)

    x, rejected = x0, 0
    for _ in range(50):
        with pytest.MonkeyPatch.context() as strict:
            strict.setattr(module, "CONSISTENCY_TOL", 0.0)
            result = circumcenter(family.images(x))
            if result.center is not None:
                assert _bits(circumcenter_map(family, x)) == _bits(result.center)
            else:
                strict.setattr(module, "_solve", spy)
                solves.clear()
                with pytest.raises(NumericalPropernessError) as info:
                    circumcenter_map(family, x)
                assert len(solves) == 1
                assert _bits(info.value.spread) == _bits(result.equidistance_spread)
                assert _bits(info.value.residual) == _bits(result.equidistance_residual)
                rejected += 1
        x = circumcenter_map(family, x)
    assert rejected > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("words", [None, [(), (0,)]])
def test_images_that_overflow_fail_as_in_circumcenter(words):
    # a rotation by 45 degrees sends (1.5e308, 1.5e308) to (0, inf)
    c = np.sqrt(0.5)
    rotation = AffineIsometry(np.array([[c, -c], [c, c]]), np.zeros(2))
    family = OperatorSet([rotation], words)
    x0 = np.full(2, 1.5e308)
    assert not np.isfinite(family.images(x0)).all()
    with pytest.raises(ValueError, match="point entries must be finite"):
        circumcenter(family.images(x0))
    with pytest.raises(ValueError, match="point entries must be finite"):
        run_cim(family, x0, MethodConfig("cim", max_iters=3, stop_tol=1e-11))


# the writers: the bytes of the row-by-row writers


def _trace(errors) -> IterationTrace:
    """A trace with the given errors, on iterates at those distances from 0."""
    errors = np.asarray(errors, dtype=float)
    return IterationTrace("map", np.outer(errors, [0.6, -0.8]), errors, len(errors) - 1,
                          np.array([1.0, 2.0]), np.zeros(2))


def _audits():
    rng = np.random.default_rng(5)
    subspaces = random_family(rng, 12, 3, 4, 9)
    trace = run_map(subspaces, rng.standard_normal(12), MethodConfig("map", max_iters=40),
                    intersect(subspaces).subspace)
    falling = _trace([1.0, 0.5, 0.25, 1e-300, 0.0, 0.0])
    return [
        audit_bound(trace, RateConstant("linear_rate", 0.93, {})),
        audit_bound(trace, RateConstant("linear_rate", 0.71, {"prefactor": 1.7})),
        audit_bound(falling, RateConstant("linear_rate", 0.0, {})),
        audit_bound(falling, RateConstant("linear_rate", 0.5, {})),
        audit_bound(_trace([0.0, 0.0, 0.0]), RateConstant("linear_rate", 0.9, {})),
        audit_bound(_trace([0.0, 0.0]), RateConstant("linear_rate", 0.5, {"prefactor": 0.0})),
        audit_bound(_trace([3.0, 4.0, 2.0]), RateConstant("linear_rate", 0.5, {})),
    ]


def test_the_rate_csv_equals_the_row_by_row_writer():
    audits = _audits()
    assert any(row[2] == 0.0 for audit in audits for row in audit.per_iteration)
    assert any(row[1] == 0.0 < row[2] for audit in audits for row in audit.per_iteration)
    for audit in audits:
        assert audit.to_csv() == reference_rate_csv(audit)


def test_an_empty_audit_writes_the_header_only():
    audit = audit_bound(_trace([1.0]), RateConstant("linear_rate", 0.5, {}))
    empty = type(audit)(audit.constant, ())
    assert empty.to_csv() == reference_rate_csv(empty) == "k,error,bound,slack\n"


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 30, 60, 200])
def test_x_norms_have_the_bits_of_norm(dim):
    rng = np.random.default_rng(dim)
    scales = 10.0 ** rng.integers(-150, 150, size=(25, 1))
    iterates = rng.standard_normal((25, dim)) * scales
    trace = IterationTrace("map", iterates, np.linalg.norm(iterates, axis=1), 24,
                           iterates[0], np.zeros(dim))
    rows = trace.to_json_obj()["rows"]
    for k, row in enumerate(iterates):
        assert _bits(rows[k]["x_norm"]) == _bits(_norm(row))
    assert trace.to_csv() == reference_trace_csv(trace)
