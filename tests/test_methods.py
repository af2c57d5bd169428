import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    AffineMap,
    AffineSubspace,
    IterationTrace,
    MethodConfig,
    bench,
    build_psi,
    dr_operator,
    fixed_point_set,
    intersect,
    map_operator,
    run_cim,
    run_linear,
    run_map,
    symmetric_map_operator,
)
from circumproj.methods import _drive
from circumproj.numerics import _norm
from helpers import (
    json_text,
    one_method_report,
    random_family,
    reflectors_of,
    unit_vector,
    written_artifacts,
    written_record,
)

LINE_X = AffineSubspace.linear([[1.0, 0.0]])
LINE_DIAG = AffineSubspace.linear([[1.0, 1.0]])
LINE_Y = AffineSubspace.linear([[0.0, 1.0]])
X0 = np.array([0.3, 0.9])
# {0}, the intersection of any two of the lines and the fixed set of each
# operator made from them
ORIGIN = AffineSubspace.point(np.zeros(2))


def test_method_config_validation():
    with pytest.raises(ValueError):
        MethodConfig(method="gradient_descent")
    with pytest.raises(ValueError):
        MethodConfig(method="map", max_iters=-1)
    with pytest.raises(ValueError):
        MethodConfig(method="map", stop_tol=-0.5)


@pytest.mark.parametrize("field, value", [
    ("stop_tol", float("nan")),
    ("stop_tol", float("inf")),
    ("stop_tol", True),
    ("max_iters", True),
    ("max_iters", np.True_),
    ("max_iters", 2.5),
    ("max_iters", 30.0),
], ids=["stop_tol_nan", "stop_tol_inf", "stop_tol_bool", "max_iters_bool", "max_iters_numpy_bool",
        "max_iters_fraction", "max_iters_float"])
def test_method_config_refuses_what_the_config_parser_refuses(field, value):
    """A non-finite stop_tol never or always stops a run, a bool stop_tol
    is read as 1.0, and a bool or float max_iters runs one step or fails
    only when the run starts; each is refused at construction, as
    parse_config refuses it."""
    with pytest.raises(ValueError, match=field):
        MethodConfig(method="map", **{field: value})


@pytest.mark.parametrize("prefix", [np.eye(2), "sym_map_product"], ids=["array", "name"])
def test_method_config_refuses_a_prefix_that_is_not_an_affine_map(prefix):
    """A prefix of another type would fail only when a run reads it."""
    with pytest.raises(ValueError, match="^prefix must be an AffineMap, got "):
        MethodConfig(method="map", prefix=prefix)


def test_a_prefix_of_another_dimension_is_refused_with_the_library_message():
    prefix = AffineMap(np.eye(3), np.zeros(3))
    config = MethodConfig(method="map", max_iters=2, prefix=prefix)
    with pytest.raises(ValueError, match=r"^point has dimension 2, prefix lives in R\^3$"):
        run_map([LINE_X, LINE_DIAG], X0, config, ORIGIN)


def test_method_config_takes_numpy_integers():
    config = MethodConfig(method="map", max_iters=np.int64(3))
    trace = run_map([LINE_X, LINE_DIAG], X0, config, ORIGIN)
    assert trace.stopped_at == 3


def test_run_map_frozen_45_degree_sweeps():
    """First sweep lands on (0.15, 0.15); afterwards errors halve exactly."""
    trace = run_map([LINE_X, LINE_DIAG], X0, MethodConfig(method="map", max_iters=6), ORIGIN)
    assert np.allclose(trace.iterates[1], [0.15, 0.15], atol=1e-12)
    assert abs(trace.errors[0] - np.sqrt(0.9)) < 1e-12
    assert abs(trace.errors[1] - 0.15 * np.sqrt(2.0)) < 1e-12
    ratios = trace.errors[2:] / trace.errors[1:-1]
    assert np.allclose(ratios, 0.5, atol=1e-9), f"sweep ratios {ratios}"


def test_run_map_rejects_empty_intersection():
    up = AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])
    down = AffineSubspace.from_span([0.0, -1.0], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        run_map([up, down], X0, MethodConfig(method="map"), intersect([up, down]).subspace)


def test_map_operator_equals_reflector_average():
    """One sweep of projections is the average of the 2^m reflector products."""
    rng = np.random.default_rng(42)
    family = random_family(rng, 6, 3, 1, 4)
    sweep = map_operator(family)
    psi = build_psi(reflectors_of(family))
    average = np.array([psi.images(e).mean(axis=0) for e in np.eye(6)]).T
    assert np.allclose(sweep.A, average, atol=1e-10)


def test_run_cim_frozen_one_step_exact():
    family = build_psi(reflectors_of([LINE_X, LINE_DIAG]))
    trace = run_cim(family, X0, MethodConfig(method="cim", max_iters=4))
    assert trace.errors[0] > 0.9
    assert trace.errors[1] < 1e-12, (
        f"two lines through the origin should converge in one step, got {trace.errors[1]}"
    )


def test_run_sym_map_frozen_45_degrees():
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    assert np.allclose(op.A, [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)
    trace = run_linear(op, X0, MethodConfig(method="sym_map", max_iters=5), ORIGIN)
    assert np.allclose(trace.iterates[1], [0.15, 0.0], atol=1e-12)
    ratios = trace.errors[2:] / trace.errors[1:-1]
    assert np.allclose(ratios, 0.5, atol=1e-9)


def test_run_sym_map_rejects_asymmetric_operator():
    lopsided = AffineMap(A=np.array([[0.5, 0.2], [0.0, 0.1]]), b=np.zeros(2))
    with pytest.raises(ValueError):
        run_linear(lopsided, X0, MethodConfig(method="sym_map"), ORIGIN)


def test_run_accel_reaches_machine_floor():
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    trace = run_linear(op, X0, MethodConfig(method="accel_map", max_iters=16), ORIGIN)
    assert trace.errors[-1] < 1e-12
    # every step contracts at least as fast as the worst-case constant 1/3
    for k in range(len(trace.errors) - 1):
        if trace.errors[k] < 1e-12:
            break
        assert trace.errors[k + 1] <= (1.0 / 3.0) * trace.errors[k] * (1.0 + 1e-8)


def test_run_linear_refuses_a_fixed_set_its_operator_moves():
    """The accel_map step reads its fixed set, so a subspace that the operator
    moves would be a silent wrong answer: its run would converge onto that
    subspace. Every linear method refuses it, and takes the intersection."""
    rng = np.random.default_rng(3)
    subspaces = random_family(rng, 6, 3, 4, 4)
    op = symmetric_map_operator(subspaces)
    x0 = unit_vector(rng, 6)
    for method in ("sym_map", "accel_map"):
        with pytest.raises(ValueError, match="the operator moves the given fixed set"):
            run_linear(op, x0, MethodConfig(method=method), subspaces[0])
        run_linear(op, x0, MethodConfig(method=method), intersect(subspaces).subspace)


def test_run_linear_checks_the_operator_once_per_run(monkeypatch):
    """The self-adjoint check takes one eigen-solve per operator, not one
    per step, and a second run on the same operator takes none."""
    import circumproj.isometry as isometry

    calls = []
    kernel = isometry.sym_eigen_extremes
    monkeypatch.setattr(isometry, "sym_eigen_extremes",
                        lambda A: calls.append("sym_eigen_extremes") or kernel(A))
    op = symmetric_map_operator([LINE_X, LINE_DIAG, LINE_Y])
    trace = run_linear(op, X0, MethodConfig(method="accel_map", max_iters=40), ORIGIN)
    assert trace.stopped_at == 40
    assert calls == ["sym_eigen_extremes"], f"{calls} for one run of 40 steps"
    run_linear(op, X0, MethodConfig(method="sym_map", max_iters=40), ORIGIN)
    assert calls == ["sym_eigen_extremes"], f"{calls} after a second run"


def test_run_linear_rejects_methods_that_are_not_one_linear_map():
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    for method in ("map", "cim"):
        with pytest.raises(ValueError, match="run_linear iterates"):
            run_linear(op, X0, MethodConfig(method=method), ORIGIN)


def test_run_dr_frozen_orthogonal_axes_in_one_step():
    """For perpendicular lines the splitting operator is the zero map."""
    op = dr_operator(*reflectors_of([LINE_X, LINE_Y]))
    assert np.allclose(op.A, np.zeros((2, 2)), atol=1e-12)
    trace = run_linear(op, X0, MethodConfig(method="dr", max_iters=3), fixed_point_set(op))
    assert abs(trace.errors[0] - np.linalg.norm(X0)) < 1e-12
    assert trace.errors[1] < 1e-15


def test_run_dr_frozen_45_degrees_contracts_by_cos():
    op = dr_operator(*reflectors_of([LINE_X, LINE_DIAG]))
    trace = run_linear(op, X0, MethodConfig(method="dr", max_iters=8), fixed_point_set(op))
    ratios = trace.errors[1:] / trace.errors[:-1]
    assert np.allclose(ratios, np.sqrt(0.5), atol=1e-10), (
        f"the splitting on lines at 45 degrees scales by cos(45) each step, got {ratios}"
    )


def test_dr_operator_rejects_anchored_subspace():
    shifted = AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        dr_operator(*reflectors_of([shifted, LINE_DIAG]))


def test_run_averaged_iter_requires_certificate():
    """Only the averaged builders certify a map; a hand-built one, also an
    expansive one, carries no certificate and cannot be given one."""
    for scale in (0.5, 2.0):
        bare = AffineMap(A=scale * np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError, match="no averagedness certificate"):
            run_linear(bare, X0, MethodConfig(method="averaged_iter"), ORIGIN)


def test_stop_tol_halts_early():
    trace = run_map([LINE_X, LINE_DIAG], X0,
                    MethodConfig(method="map", max_iters=50, stop_tol=1e-3), ORIGIN)
    assert trace.stopped_at < 50
    assert trace.iterates.shape[0] == trace.stopped_at + 1
    assert trace.errors.shape[0] == trace.stopped_at + 1


def test_prefix_is_applied_before_the_first_iterate():
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    family = build_psi(reflectors_of([LINE_X, LINE_DIAG, LINE_X]))
    config = MethodConfig(method="cim", max_iters=3, prefix=op)
    trace = run_cim(family, X0, config)
    assert np.allclose(trace.x0_original, X0)
    assert np.allclose(trace.iterates[0], op.A @ X0, atol=1e-12)
    # the target is still the projection of the original start
    assert np.allclose(trace.target, [0.0, 0.0], atol=1e-12)


def test_trace_csv_round_trips_at_full_precision():
    trace = run_map([LINE_X, LINE_DIAG], X0, MethodConfig(method="map", max_iters=4), ORIGIN)
    lines = written_artifacts(one_method_report(trace))["one__m.trace.csv"].splitlines()
    assert lines[0] == "k,x_norm,error,step_norm"
    assert len(lines) == trace.errors.shape[0] + 1
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == k
        assert float(fields[2]) == trace.errors[k], (
            f"row {k} error does not round trip: {fields[2]} vs {trace.errors[k]!r}"
        )
        assert float(fields[1]) == np.linalg.norm(trace.iterates[k])


def test_trace_json_is_deterministic_and_time_free():
    trace = run_map([LINE_X, LINE_DIAG], X0, MethodConfig(method="map", max_iters=3), ORIGIN)
    blob = json_text(trace)
    again = json_text(run_map([LINE_X, LINE_DIAG], X0, MethodConfig(method="map", max_iters=3),
                              ORIGIN))
    assert blob == again
    assert "wall_time" not in blob
    obj = written_record(trace)["trace"]
    assert obj["method"] == "map"
    assert len(obj["rows"]) == 4
    assert set(obj["rows"][0]) == {"k", "x_norm", "error", "step_norm"}


def test_step_norms_start_at_zero():
    trace = run_map([LINE_X, LINE_DIAG], X0, MethodConfig(method="map", max_iters=2), ORIGIN)
    steps = trace.step_norms
    assert steps[0] == 0.0
    assert abs(steps[1] - np.linalg.norm(trace.iterates[1] - trace.iterates[0])) < 1e-15


def test_step_norms_are_the_norms_the_stop_rule_compares():
    rng = np.random.default_rng(7)
    subspaces = random_family(rng, 30, 3, 20, 24)
    trace = run_map(subspaces, unit_vector(rng, 30),
                    MethodConfig(method="map", max_iters=100, stop_tol=1e-12),
                    intersect(subspaces).subspace)
    steps = trace.step_norms
    assert (steps[1:-1] > 1e-12).all()
    for k in range(1, trace.iterates.shape[0]):
        assert steps[k] == _norm(trace.iterates[k] - trace.iterates[k - 1]), k


def test_a_zero_step_stops_a_run_only_when_stop_tol_is_positive():
    """The identity's steps are exactly 0: stop_tol 0 still runs to
    max_iters, any positive stop_tol stops at the first step."""
    identity_map = AffineMap(np.eye(3), np.zeros(3))
    for stop_tol, steps in ((0.0, 7), (1e-300, 1)):
        trace = run_linear(identity_map, [1.0, -2.0, 0.5],
                           MethodConfig(method="dr", max_iters=7, stop_tol=stop_tol),
                           fixed_point_set(identity_map))
        assert trace.stopped_at == steps
        assert not trace.step_norms.any()


@pytest.mark.parametrize("errors, steps", [(2, 3), (3, 2)], ids=["errors", "step_norms"])
def test_a_trace_holds_one_error_and_one_step_norm_per_iterate(errors, steps):
    with pytest.raises(ValueError, match="^errors and step_norms must have one entry per iterate$"):
        IterationTrace("map", np.zeros((3, 2)), np.zeros(errors), np.zeros(steps), np.zeros(2),
                       np.zeros(2), 0.0)


def _random_trace(rng, k: int, n: int) -> IterationTrace:
    """A trace of k random iterates at scales 1e-12 to 1e2, driven by a
    step that returns them one by one."""
    iterates = iter(rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-12, 2, size=(k, 1)))
    return _drive("map", lambda x: next(iterates), next(iterates),
                  MethodConfig(method="map", max_iters=k - 1), np.zeros(n))


@given(st.integers(0, 10**6), st.integers(1, 300), st.integers(1, 60))
def test_step_norms_equal_the_whole_difference_bit_for_bit(seed, k, n):
    """The driver's step norms have the bits of the norms of the whole
    difference of the trace, as the writer once took them."""
    trace = _random_trace(np.random.default_rng(seed), k, n)
    want = np.zeros(k)
    want[1:] = bench._row_norms(np.diff(trace.iterates, axis=0))
    assert trace.step_norms.tobytes() == want.tobytes()


@given(st.integers(0, 10**6), st.integers(1, 300), st.integers(1, 60))
def test_errors_equal_the_norms_of_the_difference_bit_for_bit(seed, k, n):
    """The driver forms the error column in one difference buffer, by the
    reductions of ``np.linalg.norm(axis=1)``, so with its bits."""
    rng = np.random.default_rng(seed)
    iterates = iter(rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-30, 30, size=(k, 1)))
    target = rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30)
    trace = _drive("map", lambda x: next(iterates), next(iterates),
                   MethodConfig(method="map", max_iters=k - 1), target)
    want = np.linalg.norm(trace.iterates - target, axis=1)
    assert trace.errors.tobytes() == want.tobytes()


def test_the_driver_holds_two_arrays_of_the_trace_at_its_peak():
    """The rows and their stack, then the stack and the error column's one
    difference buffer: never the four k x n arrays of the stack, the rows,
    ``stacked - target`` and its square."""
    k, n = 501, 200
    config = MethodConfig(method="map", max_iters=k - 1)
    tracemalloc.start()
    try:
        _drive("map", lambda x: 0.5 * x, np.ones(n), config, np.zeros(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * k * n * 8, peak


# a long trace, and the trace shapes of resolve-n200 (20 steps in R^200)
# and family-psi (up to 60 steps in R^60)
@pytest.mark.parametrize("k,n", [(501, 200), (21, 200), (61, 60)])
def test_step_norms_hold_less_than_one_difference_of_the_trace(k, n):
    """Writing a trace's CSV and its json rows forms no difference of its
    iterates: the writer formats the step norms the driver recorded."""
    trace = _random_trace(np.random.default_rng(3), k, n)
    error = bench._float_texts(trace.errors)
    tracemalloc.start()
    try:
        bench._trace_csv(trace)
        bench._trace_rows(trace, error)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole np.diff is (k - 1) x n floats
    assert peak < (k - 1) * n * 8, peak


def test_error_origin_uses_pre_prefix_start():
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    config = MethodConfig(method="cim", max_iters=2, prefix=op)
    family = build_psi(reflectors_of([LINE_X, LINE_DIAG]))
    trace = run_cim(family, X0, config)
    assert abs(trace.error_origin - np.sqrt(0.9)) < 1e-12


def _assert_cim_errors_never_increase(seed):
    rng = np.random.default_rng(seed)
    family = random_family(rng, 5, int(rng.integers(2, 4)), 1, 4)
    operator_set = build_psi(reflectors_of(family))
    trace = run_cim(operator_set, 2.0 * unit_vector(rng, 5),
                    MethodConfig(method="cim", max_iters=8))
    for k in range(len(trace.errors) - 1):
        assert trace.errors[k + 1] <= trace.errors[k] * (1.0 + 1e-9) + 1e-14


@given(st.integers(0, 10**6))
def test_cim_errors_never_increase(seed):
    """The circumcentered iteration is Fejer monotone toward the target."""
    _assert_cim_errors_never_increase(seed)


@pytest.mark.parametrize("seed", [8140, 8663, 11284, 13180, 19294])
def test_cim_stall_seeds_are_fejer_monotone(seed):
    """Three subspaces of dimensions 3, 4, 4 in R^5, the only seeds among
    0-19,999 of the Fejer test above whose error rose while the solve cut
    rank at RANK_TOL * s_1 alone: near an error of 1e-7 the offsets' last
    singular values sit at rounding level, and that cut kept them as rank
    (at seed 8140 the error rose from 2.1107e-7 to 2.1129e-7 at k = 8). The
    step's rounding floor cuts them."""
    _assert_cim_errors_never_increase(seed)


@given(st.integers(0, 10**6))
def test_map_obeys_its_tuple_rate_bound(seed):
    """Sweeps shrink the error at least as fast as the tuple angle predicts."""
    from circumproj import tuple_angle_cos

    rng = np.random.default_rng(seed)
    family = random_family(rng, 4, 2, 1, 3)
    x0 = 2.0 * unit_vector(rng, 4)
    fixed = intersect(family).subspace
    trace = run_map(family, x0, MethodConfig(method="map", max_iters=60), fixed)
    gamma = tuple_angle_cos(family, fixed)
    bound = gamma ** 60 * trace.errors[0] * (1.0 + 1e-6)
    floor = 1e-12 * (1.0 + trace.errors[0])
    assert trace.errors[-1] <= max(bound, floor), (
        f"final error {trace.errors[-1]} above rate bound {bound} and noise floor"
    )
