"""An instance whose subspaces have anchors runs as the linear instance of
their direction spaces, shifted by z, the minimum-norm point of the
intersection M.

``bench._instance`` shifts once, at resolution: every recipe runs on the
direction spaces from x0 - z, and each trace is mapped back by z. The
errors, step norms, stops and verdicts are therefore those of the linear
instance's run from x0 - z, bit for bit, and the iterates and the target are
that run's plus z. The target is the projection of x0 onto M for every
recipe but ``dr``, whose fixed set holds M and more. A ``custom`` family is
given in the data's coordinates, with its own fixed set, and runs from x0
itself.
"""

from dataclasses import replace

import numpy as np
import pytest

from circumproj import (
    AffineSubspace,
    Intersection,
    MethodConfig,
    bench,
    compute_rates,
    intersect,
    parse_config,
    run_cim,
    run_experiment,
)

# the 11 built-in recipes
RECIPES = [
    {"method": "cim", "operator_set": "psi"},
    {"method": "cim", "operator_set": "psi", "symmetrized": True},
    {"method": "cim", "operator_set": "psi", "symmetrized": True, "prefix": "sym_map_product"},
    {"method": "cim", "operator_set": "identity_plus_reflectors"},
    {"method": "cim", "operator_set": "identity_plus_prefix_products"},
    {"method": "map"},
    {"method": "sym_map"},
    {"method": "accel_map"},
    {"method": "dr"},
    {"method": "averaged_iter", "builder": "sum"},
    {"method": "averaged_iter", "builder": "product"},
]


def _config(subspaces, x0, methods=RECIPES):
    """A config of ``methods`` on the one instance ``subspaces``, started at
    ``x0``; the subspaces are used as built, not read back from literals."""
    n = len(x0)
    config = parse_config({
        "name": "affine", "ambient_dim": n, "max_iters": 200, "stop_tol": 1e-14,
        "instances": {"kind": "explicit", "items": [{"subspaces": [{"anchor": [0.0] * n}] * 2}]},
        "methods": [dict(m) for m in methods],
    })
    start = bench.X0Spec("explicit", point=tuple(np.asarray(x0).tolist()))
    return replace(config, instances=(bench.InstanceItem("one", tuple(subspaces), start),))


def _lines_through_1_1():
    return ([AffineSubspace.from_span([1.0, 1.0], [[1.0, 0.0]]),
             AffineSubspace.from_span([1.0, 1.0], [[1.0, 1.0]])], np.array([0.3, 0.9]))


def _r6_through(norm: float):
    """Three subspaces of R^6 of dimensions 4, 4 and 5 through one point of
    norm ``norm``, each anchored at another of its points; M is a line."""
    rng = np.random.default_rng(60)
    z = rng.standard_normal(6)
    z *= norm / np.linalg.norm(z)
    subspaces = []
    for dim in (4, 4, 5):
        basis = AffineSubspace.linear(rng.standard_normal((dim, 6))).basis
        subspaces.append(AffineSubspace(z + basis.T @ rng.standard_normal(dim), basis))
    return subspaces, rng.standard_normal(6)


def _planes_anchored_in_their_spans(j: int):
    """Two planes of R^3 through the origin, each anchored at 2^j times a
    point of its span: M is a line through the origin, and z is rounding."""
    spans = ([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    anchors = ([1.0, 2.0, 2.0], [1.0, 1.0, 3.0])
    return ([AffineSubspace.from_span(np.ldexp(a, j), span) for a, span in zip(anchors, spans)],
            np.array([0.3, 0.9, 0.7]))


INSTANCES = {
    "lines_through_1_1": _lines_through_1_1,
    **{f"r6_z_{norm:g}": (lambda norm=norm: _r6_through(norm)) for norm in (1.5, 1.8e3, 1.0e6)},
    **{f"planes_in_span_2^{j}": (lambda j=j: _planes_anchored_in_their_spans(j))
       for j in (0, 10, 20)},
}


def _bits(array) -> bytes:
    return np.asarray(array, dtype=float).tobytes()


def _linear_instance(subspaces, x0, inter) -> bench._Instance:
    """The linear instance: the direction spaces, planned with M's direction
    space as their intersection, from x0 - z."""
    zero = np.zeros(len(x0))
    return bench._Instance([AffineSubspace(zero, s.basis) for s in subspaces],
                           x0 - inter.subspace.anchor,
                           Intersection(AffineSubspace(zero, inter.subspace.basis), inter.residual))


@pytest.mark.parametrize("name", list(INSTANCES))
def test_an_affine_instance_runs_as_the_linear_one_shifted(name):
    subspaces, x0 = INSTANCES[name]()
    assert any(s.anchor.any() for s in subspaces)
    inter = intersect(subspaces)
    z = inter.subspace.anchor
    affine = _config(subspaces, x0)
    ours, = run_experiment(affine).instances
    linear = _linear_instance(subspaces, x0, inter)
    assert len(ours.methods) == len(RECIPES)
    for mine, base in zip(ours.methods, bench._run_methods(affine, linear)):
        where = mine.label
        for column in ("errors", "step_norms"):
            assert _bits(getattr(mine.trace, column)) == _bits(getattr(base.trace, column)), where
        assert mine.trace.stopped_at == base.trace.stopped_at, where
        assert mine.trace.error_origin == base.trace.error_origin, where
        assert _bits(mine.trace.iterates) == _bits(base.trace.iterates + z), where
        assert _bits(mine.trace.target) == _bits(base.trace.target + z), where
        assert _bits(mine.trace.x0_original) == _bits(x0), where
        assert _bits(mine.report.bounds) == _bits(base.report.bounds), where
        assert _bits(mine.report.slacks) == _bits(base.report.slacks), where
        assert np.array_equal(mine.report.satisfied, base.report.satisfied), where
        if mine.trace.method != "dr":
            assert _bits(mine.trace.target) == _bits(inter.subspace.project(x0)), where
    assert [row["rate"] for row in compute_rates(affine)] == [
        bench._constant_record(bench._plan_method(spec, linear).constant)
        for spec in affine.methods]


@pytest.mark.parametrize("name", list(INSTANCES))
def test_an_affine_instance_agrees_with_the_linear_config(name):
    """The linear instance as a config of its own intersects its direction
    spaces afresh. Its M can differ from M's direction space in the last
    bits: ``intersect`` solves a system with a zero right-hand side there,
    and LAPACK's QR skips a zero column. So the runs agree to 1e-12 of the
    start's error, with the same stops and verdicts, and the rate constants
    agree to 1e-12."""
    subspaces, x0 = INSTANCES[name]()
    z = intersect(subspaces).subspace.anchor
    directions = [AffineSubspace(np.zeros(len(x0)), s.basis) for s in subspaces]
    affine, linear = _config(subspaces, x0), _config(directions, x0 - z)
    ours, = run_experiment(affine).instances
    theirs, = run_experiment(linear).instances
    for mine, base in zip(ours.methods, theirs.methods):
        where = mine.label
        assert mine.trace.stopped_at == base.trace.stopped_at, where
        assert np.array_equal(mine.report.satisfied, base.report.satisfied), where
        assert np.max(np.abs(mine.trace.errors - base.trace.errors)) <= (
            1e-12 * mine.trace.error_origin), where
    for mine, base in zip(compute_rates(affine), compute_rates(linear)):
        assert mine["rate"]["constant_name"] == base["rate"]["constant_name"]
        assert abs(mine["rate"]["value"] - base["rate"]["value"]) <= 1e-12, mine["method"]


def test_a_custom_family_on_an_affine_instance_runs_from_the_data_start():
    subspaces, x0 = _lines_through_1_1()
    literals = [{"kind": "reflector", "subspace": {"anchor": [1.0, 1.0], "span": [[1.0, 0.0]]}},
                {"kind": "reflector", "subspace": {"anchor": [1.0, 1.0], "span": [[1.0, 1.0]]}}]
    config = _config(subspaces, x0, [{"method": "cim", "operator_set": "custom",
                                      "operators": literals}])
    (outcome,), = (instance.methods for instance in run_experiment(config).instances)
    alone = run_cim(config.methods[0].family, x0, MethodConfig("cim", max_iters=200,
                                                                stop_tol=1e-14))
    assert _bits(outcome.trace.iterates) == _bits(alone.iterates)
    assert _bits(outcome.trace.target) == _bits(alone.target)
    assert _bits(outcome.trace.iterates[0]) == _bits(x0)


def test_the_fixed_line_check_of_an_empty_instance_fails_without_an_error():
    """An empty intersection is not shifted, yet a ``custom`` family runs on
    it. The product of the reflectors through two parallel lines is a
    translation, with no fixed point: the check reads the fixed set of its
    linear part, the whole plane, and fails."""
    config = parse_config({
        "name": "parallel", "ambient_dim": 2, "max_iters": 3,
        "x0": {"kind": "explicit", "point": [0.3, 0.9]},
        "instances": {"kind": "explicit", "items": [{
            "label": "parallel", "product_fixed_line": [1.0, 0.0],
            "subspaces": [{"span": [[1.0, 0.0]]}, {"anchor": [0.0, 1.0], "span": [[1.0, 0.0]]}],
        }]},
        "methods": [{"method": "cim", "operator_set": "custom", "operators": [
            {"kind": "reflector", "subspace": {"span": [[0.0, 1.0]]}}]}],
    })
    instance, = run_experiment(config).instances
    assert instance.intersection_dim == -1
    assert instance.extra_checks == (
        ("product_fixed_line", False, "fixed set has dimension 2"),)
