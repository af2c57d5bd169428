"""Each operator's spectral data is computed once per operator object.

The factorization budget of one planned run, the cached constants against
fresh ones bit for bit, and the guards that keep a cached value from going
stale or from hiding a failed check.
"""

import dataclasses

import numpy as np
import pytest

from circumproj import (
    AffineMap,
    AffineSubspace,
    bench,
    isometry,
    operator_rate,
    parse_config,
    rates,
    run_experiment,
    spectral_norm,
    sym_eigen_extremes,
    symmetric_map_operator,
    tuple_angle_cos,
)

# The six methods of the resolve-n200 benchmark workload, on a smaller draw.
RESOLVE_METHODS = [
    {"method": "map"},
    {"method": "sym_map"},
    {"method": "accel_map"},
    {"method": "dr"},
    {"method": "averaged_iter", "builder": "sum"},
    {"method": "averaged_iter", "builder": "product"},
]


def _count_calls(monkeypatch, name: str) -> list:
    """Count the calls of the numerics kernel ``name`` from the modules
    that take spectral data and import it; ``bench`` takes the norm of the
    tuple chain, the first half of sym_op's sweep."""
    calls = []
    for module in (bench, isometry, rates):
        kernel = getattr(module, name, None)
        if kernel is not None:
            monkeypatch.setattr(module, name,
                                lambda M, kernel=kernel: calls.append(1) or kernel(M))
    return calls


def _recording_contexts(monkeypatch) -> list:
    contexts = []
    run_methods = bench._run_methods

    def record(config, ctx):
        contexts.append(ctx)
        return run_methods(config, ctx)

    monkeypatch.setattr(bench, "_run_methods", record)
    return contexts


def test_resolve_methods_take_five_norms_and_one_eigen_solve(monkeypatch):
    config = parse_config({
        "name": "budget",
        "ambient_dim": 40,
        "max_iters": 5,
        "instances": {"kind": "random", "count": 1, "num_subspaces": 4,
                      "dim_range": [1, 20], "seed": 2024},
        "methods": RESOLVE_METHODS,
    })
    norms = _count_calls(monkeypatch, "spectral_norm")
    eigen = _count_calls(monkeypatch, "sym_eigen_extremes")
    contexts = _recording_contexts(monkeypatch)
    report = run_experiment(config)
    # tuple_cos, the shared rate of sym_op, dr, sum and product; the one
    # eigen-solve is A of sym_op, whose compression to the complement of
    # the trivial intersection is A itself
    assert (len(norms), len(eigen)) == (5, 1)

    (ctx,) = contexts
    assert ctx.inter.subspace.dim == 0
    outcomes = {o.trace.method: o for o in report.instances[0].methods}
    assert ctx.accel.cT == outcomes["sym_map"].report.constant.value
    op, fixed = ctx.sym_op, ctx.inter.subspace
    memoized = operator_rate(op, fixed)
    assert len(norms) == 5
    fresh = spectral_norm(op.A @ (np.eye(op.ambient_dim) - fixed.projector_matrix()))
    assert memoized == fresh


def _projector_calls(monkeypatch) -> list:
    calls = []
    projector = AffineSubspace.projector_matrix
    monkeypatch.setattr(AffineSubspace, "projector_matrix",
                        lambda self: calls.append(1) or projector(self))
    return calls


@pytest.mark.parametrize("ambient_dim, dims, shared", [(40, [1, 20], True),
                                                     (10, [8, 8], False)],
                         ids=["trivial_intersection", "nontrivial_intersection"])
def test_a_trivial_intersection_forms_the_projector_chain_once(monkeypatch, ambient_dim,
                                                               dims, shared):
    """tuple_cos is the norm of the first half of sym_op's palindromic
    sweep, applied to I - P_fixed where the intersection is not {0}: each
    projector is formed once, not twice, and both equal the functions that
    compute them apart bit for bit."""
    config = parse_config({
        "name": "chain",
        "ambient_dim": ambient_dim,
        "instances": {"kind": "random", "count": 1, "num_subspaces": 4,
                      "dim_range": dims, "seed": 2024},
        "methods": RESOLVE_METHODS,
    })
    ((_, subspaces, x0, inter, _),) = bench._resolve_instances(config)
    assert (inter.subspace.dim == 0) == shared
    calls = _projector_calls(monkeypatch)
    ctx = bench._Instance(subspaces, x0, inter)
    together = (ctx.tuple_cos, ctx.sym_op)
    together_calls = len(calls)
    apart = (tuple_angle_cos(subspaces, inter.subspace), symmetric_map_operator(subspaces))
    apart_calls = len(calls) - together_calls
    m = len(subspaces)
    # the nontrivial chain starts at I - P_fixed, one projector more
    assert apart_calls == 2 * m + (not shared)
    assert together_calls == apart_calls - m
    assert together[0] == apart[0]
    assert together[1].A.tobytes() == apart[1].A.tobytes()
    assert together[1].b.tobytes() == apart[1].b.tobytes()


def _trivial_instance(methods) -> tuple:
    """The config and the first resolved instance of a draw that meets in {0}."""
    config = parse_config({
        "name": "order",
        "ambient_dim": 40,
        "max_iters": 5,
        "instances": {"kind": "random", "count": 1, "num_subspaces": 4,
                      "dim_range": [1, 20], "seed": 2024},
        "methods": methods,
    })
    ((_, subspaces, x0, inter, _),) = bench._resolve_instances(config)
    assert inter.subspace.dim == 0
    return config, subspaces, x0, inter


def _nontrivial_instance() -> tuple:
    """The subspaces, start and intersection of a draw of three
    21-dimensional subspaces of R^30, which meet in dimension 3."""
    config = parse_config({
        "name": "order",
        "ambient_dim": 30,
        "instances": {"kind": "random", "count": 1, "num_subspaces": 3,
                      "dim_range": [21, 21], "seed": 4242},
        "methods": RESOLVE_METHODS,
    })
    ((_, subspaces, x0, inter, _),) = bench._resolve_instances(config)
    assert inter.subspace.dim == 3
    return subspaces, x0, inter


def _read_both(monkeypatch, first: str, subspaces, x0, inter, formed: int) -> None:
    """Read ``first`` of tuple_cos and sym_op, then both: ``formed``
    projectors in all, and both equal the functions that compute them
    apart bit for bit."""
    calls = _projector_calls(monkeypatch)
    ctx = bench._Instance(subspaces, x0, inter)
    getattr(ctx, first)
    cos, op = ctx.tuple_cos, ctx.sym_op
    assert len(calls) == formed
    assert cos == tuple_angle_cos(subspaces, inter.subspace)
    apart = symmetric_map_operator(subspaces)
    assert op.A.tobytes() == apart.A.tobytes()
    assert op.b.tobytes() == apart.b.tobytes()


@pytest.mark.parametrize("first", ["tuple_cos", "sym_op"])
def test_either_chain_product_read_first_forms_each_projector_once(monkeypatch, first):
    """On a {0} instance one sweep gives both tuple_cos and sym_op,
    whichever of them a recipe reads first, and both equal the functions
    that compute them apart bit for bit."""
    _, subspaces, x0, inter = _trivial_instance(RESOLVE_METHODS)
    _read_both(monkeypatch, first, subspaces, x0, inter, formed=len(subspaces))


@pytest.mark.parametrize("first", ["tuple_cos", "sym_op"])
def test_a_nontrivial_intersection_takes_both_chain_products_from_one_sweep(monkeypatch,
                                                                           first):
    """Off {0} the tuple chain starts at I - P_fixed and is still the first
    half of sym_op's sweep: whichever is read first, the m projectors and
    P_fixed are formed once each, m + 1 in all, and both equal the
    functions that compute them apart bit for bit."""
    subspaces, x0, inter = _nontrivial_instance()
    _read_both(monkeypatch, first, subspaces, x0, inter, formed=len(subspaces) + 1)


@pytest.mark.parametrize("method", ["map", "accel_map"])
def test_a_config_that_reads_one_chain_product_gets_the_separate_constants(method):
    """A config of ``map`` alone reads only tuple_cos, one of ``accel_map``
    alone only sym_op; each constant equals the one the separate functions
    give."""
    config, subspaces, _, inter = _trivial_instance([{"method": method}])
    (row,) = bench.compute_rates(config)
    fixed = inter.subspace
    if method == "map":
        gamma = tuple_angle_cos(subspaces, fixed)
        expected = ("cyclic_projection_tuple_rate", gamma, {"tuple_angle_cos": gamma})
    else:
        accel = rates.accel_constants(symmetric_map_operator(subspaces), fixed)
        expected = ("acceleration_rate", accel.eta, dataclasses.asdict(accel))
    rate = row["rate"]
    assert (rate["constant_name"], rate["value"], rate["ingredients"]) == expected


# The nine method variants of the iterate-long benchmark workload.
ITERATE_METHODS = [
    {"method": "map"},
    {"method": "cim", "operator_set": "psi"},
    {"method": "cim", "operator_set": "identity_plus_reflectors"},
    {"method": "cim", "operator_set": "identity_plus_prefix_products"},
    {"method": "sym_map"},
    {"method": "accel_map"},
    {"method": "dr"},
    {"method": "averaged_iter", "builder": "sum"},
    {"method": "averaged_iter", "builder": "product"},
]


def test_each_averaged_map_is_built_once_per_instance(monkeypatch):
    """The averaged cim recipes and averaged_iter share one map per builder,
    so its rate is one SVD: five norms, no value twice."""
    config = parse_config({
        "name": "iterate",
        "ambient_dim": 30,
        "max_iters": 5,
        "instances": {"kind": "random", "count": 1, "num_subspaces": 3,
                      "dim_range": [21, 21], "seed": 4242},
        "methods": ITERATE_METHODS,
    })
    values = []
    kernel = rates.spectral_norm
    for module in (bench, rates):
        monkeypatch.setattr(module, "spectral_norm",
                            lambda M: values.append(kernel(M)) or values[-1])
    contexts = _recording_contexts(monkeypatch)
    report = run_experiment(config)
    # tuple_cos, the shared rate of sym_op, dr, sum and product
    assert len(values) == len(set(values)) == 5

    (ctx,) = contexts
    assert ctx.averaged("sum", False) is ctx.averaged("sum", False)
    constants = {o.label: o.report.constant.value for o in report.instances[0].methods}
    assert constants["02_cim_identity_plus_reflectors"] == constants["07_averaged_iter_sum"]
    assert (constants["03_cim_identity_plus_prefix_products"]
            == constants["08_averaged_iter_product"])


def test_linear_part_is_a_read_only_view_of_the_input():
    matrix = np.diag([0.5, 0.25, 1.0])
    op = AffineMap(matrix, np.zeros(3))
    with pytest.raises(ValueError):
        op.A[0, 0] = 1.0
    assert np.shares_memory(op.A, matrix)
    assert matrix.flags.writeable
    matrix[1, 1] = 0.75
    assert op.A[1, 1] == 0.75


def test_accel_constants_on_a_trivial_fixed_set_equal_the_compression_bit_for_bit():
    """With the fixed set {0} the compression I A I is A, so (c1, c2) are
    the extremes of A that the monotonicity check already took."""
    rng = np.random.default_rng(7)
    for n in (2, 9, 40):
        config = parse_config({
            "name": "trivial",
            "ambient_dim": n,
            "max_iters": 2,
            "instances": {"kind": "random", "count": 1, "num_subspaces": 3,
                          "dim_range": [1, n // 2], "seed": int(rng.integers(10**6))},
            "methods": [{"method": "accel_map"}],
        })
        with pytest.MonkeyPatch.context() as patch:
            contexts = _recording_contexts(patch)
            run_experiment(config)
        (ctx,) = contexts
        fixed = ctx.inter.subspace
        assert fixed.dim == 0
        basis = fixed.orthogonal_complement().basis
        compressed = basis @ ctx.sym_op.A @ basis.T
        assert compressed.tobytes() == ctx.sym_op.A.tobytes()
        constants = rates.accel_constants(ctx.sym_op, fixed)
        c1, c2 = sym_eigen_extremes(compressed)
        assert (constants.c1, constants.c2) == (c1, c2)


def _symmetric(eigenvalues) -> AffineMap:
    return AffineMap(np.diag(eigenvalues), np.zeros(len(eigenvalues)))


def test_self_adjoint_check_sees_both_ends_of_the_spectrum():
    """An eigenvalue of -1.5 makes the norm 1.5 although lambda_max is 0.5."""
    with pytest.raises(ValueError, match="nonexpansive"):
        isometry._require_nonexpansive(_symmetric([-1.5, 0.5, 0.0]))


def test_self_adjoint_check_has_the_eq_tol_margin():
    with pytest.raises(ValueError, match="nonexpansive"):
        isometry._require_nonexpansive(_symmetric([1.0 + 1e-9, 0.5]))
    isometry._require_nonexpansive(_symmetric([1.0 + 1e-11, 0.5]))

