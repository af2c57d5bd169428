"""Every row of the README method table, run through the harness.

Each case runs one method entry on one seeded instance (three linear
subspaces in R^4) through ``run_experiment`` and recomputes the same trace
and the same audited constant directly from the library calls. The two must
agree to 1e-12, and the constant name and default label are pinned. The
families of the circumcentered recipes are checked against dense products
composed here, and the symmetrized family's construction cost is pinned.
"""

import sys

import numpy as np
import pytest

from circumproj import bench, isometry, methods
from circumproj import (
    OperatorSet,
    MethodConfig,
    accel_constants,
    build_product_averaged,
    build_psi,
    build_sum_averaged,
    compose,
    dr_operator,
    fixed_point_set,
    generate_instance,
    identity,
    intersect,
    make_reflector,
    operator_from_literal,
    operator_rate,
    parse_config,
    run_cim,
    run_experiment,
    run_map,
    symmetric_map_operator,
    tuple_angle_cos,
)
from helpers import dense_product, subsets

SEED = 707
MAX_ITERS = 6
CUSTOM_OPERATORS = (
    {"kind": "orthogonal", "matrix": np.eye(4).tolist()},
    {"kind": "reflector", "subspace": {"span": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]}},
    {"kind": "reflector", "subspace": {"span": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]}},
)


def _config(entry, num_subspaces=3, ambient_dim=4):
    return parse_config({
        "name": "recipe",
        "ambient_dim": ambient_dim,
        "max_iters": MAX_ITERS,
        "instances": {"kind": "random", "count": 1, "num_subspaces": num_subspaces,
                      "dim_range": [1, 3], "seed": SEED},
        "methods": [entry],
    })


def _instance():
    return generate_instance(4, 3, (1, 3), np.random.default_rng((SEED, 0)))


def _iterate(step, x0, target):
    iterates = [x0]
    for _ in range(MAX_ITERS):
        iterates.append(step(iterates[-1]))
    iterates = np.array(iterates)
    return iterates, np.linalg.norm(iterates - target, axis=1)


def _fixed_target(op, x0):
    fixed = fixed_point_set(op)
    return fixed, fixed.project(x0)


def _cim(operator_set, x0, prefix=None):
    trace = run_cim(operator_set, x0, MethodConfig(method="cim", max_iters=MAX_ITERS,
                                                    prefix=prefix))
    return trace.iterates, trace.errors


def _family(subspaces, symmetrized):
    family = list(subspaces) + (list(subspaces[-2::-1]) if symmetrized else [])
    return [make_reflector(s) for s in family]


def _direct_map(subspaces, x0):
    fixed = intersect(subspaces).subspace
    trace = run_map(subspaces, x0, MethodConfig(method="map", max_iters=MAX_ITERS), fixed)
    gamma = tuple_angle_cos(subspaces, fixed)
    return (trace.iterates, trace.errors), gamma, {"tuple_angle_cos": gamma}


def _direct_cim_psi(subspaces, x0):
    gamma = tuple_angle_cos(subspaces, intersect(subspaces).subspace)
    return (_cim(build_psi(_family(subspaces, False)), x0), gamma,
            {"tuple_angle_cos": gamma})


def _direct_cim_psi_sym(subspaces, x0):
    half = tuple_angle_cos(subspaces, intersect(subspaces).subspace)
    return (_cim(build_psi(_family(subspaces, True)), x0), half * half,
            {"tuple_angle_cos_half": half})


def _direct_cim_psi_prefixed(subspaces, x0):
    op = symmetric_map_operator(subspaces)
    c = accel_constants(op, fixed_point_set(op))
    return (_cim(build_psi(_family(subspaces, True)), x0, prefix=op), c.eta,
            {"c1": c.c1, "c2": c.c2, "eta": c.eta, "cT": c.cT, "prefactor": c.cT})


def _direct_cim_identity_plus_reflectors(subspaces, x0):
    reflectors = _family(subspaces, False)
    operator_set = OperatorSet([identity(4)] + reflectors)
    avg = build_sum_averaged(reflectors)
    rate = operator_rate(avg, operator_set.common_fixed)
    return _cim(operator_set, x0), rate, {"operator_rate": rate}


def _direct_cim_identity_plus_prefix_products(subspaces, x0):
    reflectors = _family(subspaces, False)
    ops = [identity(4)]
    for reflector in reflectors:
        ops.append(compose(reflector, ops[-1]))
    operator_set = OperatorSet(ops)
    avg = build_product_averaged(reflectors)
    rate = operator_rate(avg, operator_set.common_fixed)
    return _cim(operator_set, x0), rate, {"operator_rate": rate}


def _direct_cim_custom(subspaces, x0):
    ops = [operator_from_literal(lit) for lit in CUSTOM_OPERATORS]
    return _cim(OperatorSet(ops), x0), None, None


def _direct_sym_map(subspaces, x0):
    op = symmetric_map_operator(subspaces)
    fixed, target = _fixed_target(op, x0)
    rate = operator_rate(op, fixed)
    return (_iterate(op.apply, x0, target), rate,
            {"operator_rate": rate,
             "tuple_angle_cos_half": tuple_angle_cos(subspaces, intersect(subspaces).subspace)})


def _direct_accel_map(subspaces, x0):
    op = symmetric_map_operator(subspaces)
    fixed, target = _fixed_target(op, x0)
    c = accel_constants(op, fixed)
    return (_iterate(lambda x: isometry._accelerated_step(op.A, x), x0, target), c.eta,
            {"c1": c.c1, "c2": c.c2, "eta": c.eta, "cT": c.cT})


def _direct_dr(subspaces, x0):
    op = dr_operator(make_reflector(subspaces[0]), make_reflector(subspaces[1]))
    fixed, target = _fixed_target(op, x0)
    rate = operator_rate(op, fixed)
    return _iterate(op.apply, x0, target), rate, {"operator_rate": rate}


def _direct_averaged(builder):
    def direct(subspaces, x0):
        reflectors = _family(subspaces, False)
        op = builder(reflectors)
        fixed, target = _fixed_target(op, x0)
        rate = operator_rate(op, fixed)
        return _iterate(op.apply, x0, target), rate, {"operator_rate": rate}
    return direct


# (method entry, default label, constant name, direct computation)
ROWS = [
    ({"method": "map"}, "00_map", "cyclic_projection_tuple_rate", _direct_map),
    ({"method": "cim", "operator_set": "psi"}, "00_cim_psi", "tuple_rate", _direct_cim_psi),
    ({"method": "cim", "operator_set": "psi", "symmetrized": True},
     "00_cim_psi_sym", "symmetric_tuple_rate", _direct_cim_psi_sym),
    ({"method": "cim", "operator_set": "psi", "symmetrized": True, "prefix": "sym_map_product"},
     "00_cim_psi_sym_prefixed", "accelerated_prefixed_rate", _direct_cim_psi_prefixed),
    ({"method": "cim", "operator_set": "identity_plus_reflectors"},
     "00_cim_identity_plus_reflectors", "sum_averaged_rate",
     _direct_cim_identity_plus_reflectors),
    ({"method": "cim", "operator_set": "identity_plus_prefix_products"},
     "00_cim_identity_plus_prefix_products", "product_averaged_rate",
     _direct_cim_identity_plus_prefix_products),
    ({"method": "cim", "operator_set": "custom", "operators": list(CUSTOM_OPERATORS)},
     "00_cim_custom", None, _direct_cim_custom),
    ({"method": "sym_map"}, "00_sym_map", "symmetric_product_rate", _direct_sym_map),
    ({"method": "accel_map"}, "00_accel_map", "acceleration_rate", _direct_accel_map),
    ({"method": "dr"}, "00_dr", "douglas_rachford_rate", _direct_dr),
    ({"method": "averaged_iter", "builder": "sum"}, "00_averaged_iter_sum",
     "sum_averaged_rate", _direct_averaged(build_sum_averaged)),
    ({"method": "averaged_iter", "builder": "product"}, "00_averaged_iter_product",
     "product_averaged_rate", _direct_averaged(build_product_averaged)),
]


@pytest.mark.parametrize("entry, label, constant_name, direct", ROWS,
                         ids=[row[1][3:] for row in ROWS])
def test_recipe_matches_direct_library_calls(entry, label, constant_name, direct):
    outcome = run_experiment(_config(entry), write=False).instances[0].methods[0]
    subspaces, x0, _ = _instance()
    (iterates, errors), rate, ingredients = direct(subspaces, x0)

    assert outcome.label == label
    assert np.allclose(outcome.trace.iterates, iterates, rtol=0.0, atol=1e-12)
    assert np.allclose(outcome.trace.errors, errors, rtol=0.0, atol=1e-12)
    if constant_name is None:
        assert outcome.report is None
        return
    constant = outcome.report.constant
    assert constant.name == constant_name
    assert abs(constant.value - rate) <= 1e-12
    assert sorted(constant.ingredients) == sorted(ingredients)
    for key, value in ingredients.items():
        assert abs(constant.ingredients[key] - value) <= 1e-12, key


def _distinct_subsets(reflectors):
    """The subsets whose dense products differ from every earlier kept one's:
    the palindrome's reflectors are involutions, so many subsets name one
    operator, and the family keeps the first of each."""
    kept, products = [], []
    for indices in subsets(len(reflectors)):
        product = dense_product(reflectors, indices)
        if not any(np.allclose(product.Q, other.Q, rtol=0.0, atol=1e-12) for other in products):
            kept.append(indices)
            products.append(product)
    return kept


# (methods entry, whether the reflectors run as a palindrome, the index lists
# of the reflector products the family holds, in order, first index acting
# first, as a function of the reflectors)
FAMILIES = [
    ({"method": "cim", "operator_set": "psi"}, False,
     lambda reflectors: subsets(len(reflectors))),
    ({"method": "cim", "operator_set": "psi", "symmetrized": True}, True, _distinct_subsets),
    ({"method": "cim", "operator_set": "identity_plus_reflectors"}, False,
     lambda reflectors: [()] + [(i,) for i in range(len(reflectors))]),
    ({"method": "cim", "operator_set": "identity_plus_prefix_products"}, False,
     lambda reflectors: [tuple(range(i)) for i in range(len(reflectors) + 1)]),
]


@pytest.mark.parametrize("entry, symmetrized, index_lists", FAMILIES,
                         ids=["psi", "psi_sym", "identity_plus_reflectors",
                              "identity_plus_prefix_products"])
def test_recipe_family_images_equal_dense_products(monkeypatch, entry, symmetrized,
                                                   index_lists):
    families = []

    def capture(operator_set, *args, **kwargs):
        families.append(operator_set)
        return run_cim(operator_set, *args, **kwargs)

    monkeypatch.setattr("circumproj.bench.run_cim", capture)
    run_experiment(_config(entry), write=False)
    subspaces, _, _ = _instance()
    reflectors = _family(subspaces, symmetrized)
    dense = [dense_product(reflectors, indices) for indices in index_lists(reflectors)]
    x = 2.0 * np.random.default_rng(SEED).standard_normal(4)
    assert np.allclose(families[0].images(x), [op.apply(x) for op in dense], rtol=0.0, atol=1e-12)


def _count_calls(monkeypatch, names) -> dict:
    """Rebind the named isometry functions wherever circumproj imported
    them; returns, per name, the log of their first arguments."""
    calls = {name: [] for name in names}
    for name, log in calls.items():
        original = getattr(isometry, name)

        def counting(*args, _original=original, _log=log, **kwargs):
            _log.append(args[0])
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "circumproj" or module_name.startswith("circumproj."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    return calls


def test_symmetrized_psi_recipe_forms_no_products(monkeypatch):
    """The symmetrized family of 5 subspaces has 2^9 members, yet its recipe
    computes no fixed point set, since the instance's intersection is the
    family's, and forms no composition."""
    calls = _count_calls(monkeypatch, ("fixed_point_set", "compose"))
    entry = {"method": "cim", "operator_set": "psi", "symmetrized": True}
    run_experiment(_config(entry, num_subspaces=5, ambient_dim=8), write=False)
    assert calls["fixed_point_set"] == []
    assert calls["compose"] == []


def test_only_dr_computes_a_fixed_point_set(monkeypatch):
    """Every recipe with an instance fixed set runs on the intersection,
    except dr, whose fixed set also holds the complements' intersection."""
    calls = _count_calls(monkeypatch, ("fixed_point_set",))
    entries = [{"method": method, bench._VARIANT_KEYS[method]: variant} if variant else
               {"method": method} for method, variant in bench._RECIPES if variant != "custom"]
    entries.append({"method": "cim", "operator_set": "psi", "symmetrized": True,
                    "prefix": "sym_map_product"})
    config = parse_config({
        "name": "full", "ambient_dim": 6, "max_iters": MAX_ITERS,
        "instances": {"kind": "random", "count": 2, "num_subspaces": 3,
                      "dim_range": [2, 4], "seed": SEED},
        "methods": entries,
    })
    report = run_experiment(config, write=False)
    ops = calls["fixed_point_set"]
    assert len(ops) == len(report.instances) == 2
    for index, op in enumerate(ops):
        subspaces, _, _ = generate_instance(6, 3, (2, 4), np.random.default_rng((SEED, index)))
        assert np.array_equal(op.A, dr_operator(*_family(subspaces[:2], False)).A)


def test_method_tags_have_one_source():
    """The parser's method tags are the drivers' tags, in the recipe table's order."""
    assert bench.METHOD_TAGS is methods.METHOD_TAGS
    assert tuple(dict.fromkeys(method for method, _ in bench._RECIPES)) == methods.METHOD_TAGS
