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
    symmetric_map_operator,
)
from circumproj.methods import _drive, _scale
from circumproj.numerics import _norm
from helpers import (
    one_method_report,
    random_family,
    reference_audit_rows,
    reference_circumcenter,
    reference_distinct,
    reference_rank,
    reference_rate_csv,
    reference_step_norms,
    reference_trace_csv,
    reflectors_of,
    unit_vector,
    written_artifacts,
    written_record,
)


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


def _assert_the_run_is_the_chain_of_circumcenters(family, x0, steps: int) -> int:
    """run_cim equals s times the chain of ``circumcenter(images)`` from
    x0 / s, the start the driver runs from, and each step the reference
    solve of ``helpers``, bit for bit; returns how many steps cut the rank of
    their offsets below their row count."""
    scale = _scale(x0)
    x = x0 / scale
    chain = [x]
    cut = 0
    for _ in range(steps):
        images = family.images(x)
        center = circumcenter(images).center
        step = circumcenter_map(family, x)
        assert _bits(step) == _bits(center) == _bits(reference_circumcenter(images).center)
        kept, _, largest = reference_distinct(images)
        offsets = images[kept[1:]] - images[kept[0]]
        if offsets.shape[0]:
            s = np.linalg.svd(offsets, compute_uv=False)
            cut += int(reference_rank(s, largest) < s.shape[0])
        chain.append(step)
        x = step
    trace = run_cim(family, x0, MethodConfig("cim", max_iters=steps))
    assert _bits(trace.iterates) == _bits(scale * np.array(chain))
    return cut


@pytest.mark.parametrize("name", ["psi", "identity_plus_reflectors",
                                  "identity_plus_prefix_products"])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_step_returns_the_circumcenter_bit_for_bit(name, seed):
    x0, families = _iterate_long_families(seed)
    _assert_the_run_is_the_chain_of_circumcenters(families[name], x0, 50)


@pytest.mark.parametrize("seed", [8140, 8663, 11284, 13180, 19294, 26415])
def test_rank_deficient_steps_keep_the_order_of_the_solve(seed):
    """The stall seeds of ``test_methods.py``: psi families in R^5 whose
    offsets lose rank, so the solve slices its SVD factors before
    ``u.T @ half`` and ``vt.T @ coords``. The run, the step and the
    reference agree bit for bit on the eight steps of the stall test."""
    rng = np.random.default_rng(seed)
    family = build_psi(reflectors_of(random_family(rng, 5, int(rng.integers(2, 4)), 1, 4)))
    x0 = 2.0 * unit_vector(rng, 5)
    assert _assert_the_run_is_the_chain_of_circumcenters(family, x0, 8) > 0


# the stepper: one image array per run, never returned, never shared


def _one_line_family():
    """Id and the reflectors of two planes in R^4 that meet in a line, and
    a start on that line and one off it."""
    rng = np.random.default_rng(17)
    line = unit_vector(rng, 4)
    planes = [AffineSubspace.linear([line, unit_vector(rng, 4)]) for _ in range(2)]
    reflectors = reflectors_of(planes)
    family = OperatorSet(reflectors, [(), (0,), (1,), (0, 1)])
    return family, 1.5 * line, unit_vector(rng, 4)


def test_no_iterate_shares_memory_with_the_image_array(monkeypatch):
    """A start on the common line has one distinct image, the start itself,
    so the step returns a copy of an image row; the run then goes on from
    there. No step returns the run's image array or a view of it, and no
    iterate changes when later steps refill it: each is s times its step's
    center, s the driver's power of two for the start."""
    family, on_line, off_line = _one_line_family()
    module = importlib.import_module("circumproj.circumcenter")
    arrays, centers = [], []
    images, center = module._Stepper.images, module._center
    monkeypatch.setattr(module._Stepper, "images",
                        lambda self, x: arrays.append(images(self, x)) or arrays[-1])
    monkeypatch.setattr(module, "_center",
                        lambda points: centers.append(center(points)) or centers[-1])
    for x0 in (on_line, off_line):
        arrays.clear()
        centers.clear()
        trace = run_cim(family, x0, MethodConfig("cim", max_iters=6))
        assert len(centers) == 6
        assert len({id(array) for array in arrays}) == 1
        for k, x in enumerate(centers, start=1):
            assert not np.shares_memory(x, arrays[0])
            assert _bits(_scale(x0) * x) == _bits(trace.iterates[k])
    assert _bits(trace.iterates[0]) == _bits(off_line)
    on_trace = run_cim(family, on_line, MethodConfig("cim", max_iters=6))
    assert np.all(on_trace.iterates == on_line)


def test_runs_interleaved_on_one_family_equal_sequential_runs():
    x0, families = _iterate_long_families(3)
    family = families["psi"]
    other = 0.5 * x0[::-1].copy()
    module = importlib.import_module("circumproj.circumcenter")
    first, second = module._Stepper(family, 30), module._Stepper(family, 30)
    xs, ys = [x0], [other]
    for _ in range(25):
        xs.append(first(xs[-1]))
        ys.append(second(ys[-1]))
    config = MethodConfig("cim", max_iters=25)
    assert _bits(np.array(xs)) == _bits(run_cim(family, x0, config).iterates)
    assert _bits(np.array(ys)) == _bits(run_cim(family, other, config).iterates)


def test_the_stepper_looks_up_the_solve_and_the_diameter_at_each_step():
    """Spies set after a run's stepper is built still see its calls: the
    stepper binds neither name when the run starts."""
    x0, families = _iterate_long_families(4)
    module = importlib.import_module("circumproj.circumcenter")
    step = module._Stepper(families["identity_plus_reflectors"], 30)
    x = step(x0)
    calls = []
    solve, diameter = module._solve, module._diameter
    with pytest.MonkeyPatch.context() as patch:
        # every spread exceeds a zero tolerance, so each step takes the diameter
        patch.setattr(module, "CONSISTENCY_TOL", 0.0)
        patch.setattr(module, "_solve", lambda points: calls.append("solve") or solve(points))
        patch.setattr(module, "_diameter",
                      lambda points: calls.append("diameter") or diameter(points))
        with pytest.raises(NumericalPropernessError):
            step(x)
    assert calls == ["solve", "diameter"]


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


# the linear sweeps: the projection and acceleration formulas, bit for bit


def _signed_zero_starts(rng, dim: int) -> list:
    """Starts with exact +0.0 and -0.0 entries, one of them all -0.0."""
    start = rng.standard_normal(dim)
    start[::3] = 0.0
    start[1::3] = -0.0
    return [start, np.full(dim, -0.0), -start]


def test_the_map_sweep_equals_a_loop_of_project():
    """Linear subspaces anchored at +0.0, at -0.0 entries and off the
    origin: each sweep is the projections in order, as ``project`` forms
    them, bit for bit, zero signs included."""
    rng = np.random.default_rng(23)
    linear = random_family(rng, 6, 3, 1, 5)
    signed = AffineSubspace(np.array([-0.0, 0.0, -0.0, 0.0, 0.0, -0.0]), linear[1].basis)
    shifted = AffineSubspace.from_span(rng.standard_normal(6), linear[2].basis)
    for subspaces in (linear, [linear[0], signed, linear[2]], [signed, shifted, signed],
                      [AffineSubspace.point(np.zeros(6)), linear[0]]):
        fixed = intersect(subspaces).subspace
        if fixed is None:
            continue
        for x0 in _signed_zero_starts(rng, 6):
            trace = run_map(subspaces, x0, MethodConfig("map", max_iters=12), fixed)
            chain = [x0]
            for _ in range(12):
                x = chain[-1]
                for s in subspaces:
                    x = s.project(x)
                chain.append(x)
            assert _bits(trace.iterates) == _bits(np.array(chain))


def _accelerated_reference(A, x, fixed):
    """The line-search acceleration step, formula by formula, from the part
    y = x - P_F x of x off the fixed set F."""
    y = x - fixed.project(x) if fixed.dim else x
    direction = y - A @ y
    if float(direction @ direction) == 0.0:
        return x
    t = float(y @ direction) / float(direction @ direction)
    return x - t * direction


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_accelerated_step_equals_its_formula(seed):
    """The symmetric MAP operator of three subspaces, from a generic start,
    from signed zeros and from a start in the intersection, which no step
    moves farther than its distance to the intersection."""
    rng = np.random.default_rng(seed)
    subspaces = random_family(rng, 7, 3, 3, 6)
    fixed = intersect(subspaces).subspace
    op = symmetric_map_operator(subspaces)
    starts = _signed_zero_starts(rng, 7) + [fixed.project(rng.standard_normal(7))]
    for x0 in starts:
        trace = run_linear(op, x0, MethodConfig("accel_map", max_iters=30), fixed)
        chain = [x0]
        for _ in range(30):
            chain.append(_accelerated_reference(op.A, chain[-1], fixed))
        assert _bits(trace.iterates) == _bits(np.array(chain))


# the writers: the bytes of the row-by-row writers


def _trace(errors) -> IterationTrace:
    """A trace with the given errors, on iterates at those distances from 0."""
    errors = np.asarray(errors, dtype=float)
    iterates = np.outer(errors, [0.6, -0.8])
    return IterationTrace("map", iterates, errors, reference_step_norms(iterates),
                          np.array([1.0, 2.0]), np.zeros(2), _norm(np.array([1.0, 2.0])))


def _audited():
    """(trace, constant) pairs, bound-0 and prefactor-0 rows among them."""
    rng = np.random.default_rng(5)
    subspaces = random_family(rng, 12, 3, 4, 9)
    trace = run_map(subspaces, rng.standard_normal(12), MethodConfig("map", max_iters=40),
                    intersect(subspaces).subspace)
    falling = _trace([1.0, 0.5, 0.25, 1e-300, 0.0, 0.0])
    return [
        (trace, RateConstant("linear_rate", 0.93, {})),
        (trace, RateConstant("linear_rate", 0.71, {"prefactor": 1.7})),
        (falling, RateConstant("linear_rate", 0.0, {})),
        (falling, RateConstant("linear_rate", 0.5, {})),
        (_trace([0.0, 0.0, 0.0]), RateConstant("linear_rate", 0.9, {})),
        (_trace([0.0, 0.0]), RateConstant("linear_rate", 0.5, {"prefactor": 0.0})),
        (_trace([3.0, 4.0, 2.0]), RateConstant("linear_rate", 0.5, {})),
    ]


def test_the_rate_csv_equals_the_row_by_row_writer():
    audited = [(trace, audit_bound(trace, constant)) for trace, constant in _audited()]
    assert any(row[2] == 0.0 for _, audit in audited for row in audit.per_iteration)
    assert any(row[1] == 0.0 < row[2] for _, audit in audited for row in audit.per_iteration)
    for trace, audit in audited:
        written = written_artifacts(one_method_report(trace, audit))["one__m.rate.csv"]
        assert written == reference_rate_csv(audit)


def _row_bits(rows) -> list:
    return [(type(k), k, o.hex(), b.hex(), type(s), s) for k, o, b, s in rows]


def test_an_audit_holds_the_trace_errors_and_one_bound_column():
    for trace, constant in _audited():
        audit = audit_bound(trace, constant)
        assert audit.errors is trace.errors
        assert audit.bounds.dtype == np.float64
        assert audit.bounds.shape == trace.errors.shape


def test_the_audit_rows_equal_the_row_by_row_loop_bit_for_bit():
    for trace, constant in _audited():
        audit = audit_bound(trace, constant)
        rows = audit.per_iteration
        assert _row_bits(rows) == _row_bits(reference_audit_rows(trace, constant))
        assert audit.all_satisfied == all(row[3] for row in rows)


def test_an_empty_audit_writes_the_header_only():
    trace = _trace([1.0])
    audit = audit_bound(trace, RateConstant("linear_rate", 0.5, {}))
    empty = type(audit)(audit.constant, np.zeros(0), np.zeros(0))
    written = written_artifacts(one_method_report(trace, empty))["one__m.rate.csv"]
    assert written == reference_rate_csv(empty) == "k,error,bound,slack\n"


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 30, 60, 200])
def test_x_norms_have_the_bits_of_norm(dim):
    rng = np.random.default_rng(dim)
    scales = 10.0 ** rng.integers(-150, 150, size=(25, 1))
    iterates = rng.standard_normal((25, dim)) * scales
    trace = IterationTrace("map", iterates, np.linalg.norm(iterates, axis=1),
                           reference_step_norms(iterates), iterates[0], np.zeros(dim),
                           _norm(iterates[0]))
    rows = written_record(trace)["trace"]["rows"]
    for k, row in enumerate(iterates):
        assert _bits(rows[k]["x_norm"]) == _bits(_norm(row))
    assert written_artifacts(one_method_report(trace))["one__m.trace.csv"] == \
        reference_trace_csv(trace)
