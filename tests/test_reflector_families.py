"""Reflector families without repeated work, and without a moved byte.

An instance computes the common fixed set of its reflectors once and hands
it to every reflector family through ``fixed=``. ``build_psi`` leaves out
the words whose products cancel down to an earlier word's, since reflectors
are involutions. Neither may change a result: a run over the reduced words
and the shared fixed set must agree byte for byte with a run over every
subset word and a self-computed set.
"""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    AffineIsometry,
    AffineSubspace,
    MethodConfig,
    OperatorSet,
    build_psi,
    generate_instance,
    isometry,
    parse_config,
    run_cim,
    run_experiment,
)
from helpers import dense_product, json_text, random_family, reflectors_of, subsets


def _palindrome(reflectors):
    return list(reflectors) + list(reflectors[-2::-1])


def test_psi_words_reduce_over_involutions():
    rng = np.random.default_rng(5)
    reflectors = reflectors_of(random_family(rng, 6, 5, 1, 4))
    plain = build_psi(reflectors)
    assert list(plain.words) == subsets(5)
    palindrome = _palindrome(reflectors)
    family = build_psi(palindrome)
    assert (len(family.words), len(subsets(9))) == (342, 512)
    kept = {word: dense_product(palindrome, word) for word in family.words}
    order = {word: i for i, word in enumerate(subsets(9))}
    for word in subsets(9):
        if word in kept:
            continue
        product = dense_product(palindrome, word)
        assert any(order[earlier] < order[word]
                   and np.allclose(product.A, other.A, rtol=0.0, atol=1e-12)
                   for earlier, other in kept.items()), word


@pytest.mark.parametrize("ambient_dim", [4, 7, 12, 20])
def test_reduced_words_and_shared_fixed_set_change_no_byte(ambient_dim):
    rng = np.random.default_rng((ambient_dim, 23))
    config = MethodConfig(method="cim", max_iters=12)
    for num_subspaces in (2, 3, 4):
        subspaces, x0, _ = generate_instance(ambient_dim, num_subspaces,
                                             (1, ambient_dim - 1), rng)
        reflectors = reflectors_of(subspaces)
        palindrome = _palindrome(reflectors)
        shared = OperatorSet(reflectors).common_fixed
        full = OperatorSet(palindrome, subsets(len(palindrome)))
        for reduced in (build_psi(palindrome), build_psi(palindrome, fixed=shared)):
            assert json_text(run_cim(reduced, x0, config)) == json_text(run_cim(full, x0, config))
        given_set = OperatorSet(palindrome, subsets(len(palindrome)), fixed=shared)
        for family in (full, build_psi(palindrome)):
            assert np.array_equal(given_set.common_fixed.anchor, family.common_fixed.anchor)
            assert np.array_equal(given_set.common_fixed.basis, family.common_fixed.basis)


def test_given_fixed_set_is_checked_against_every_generator():
    x_axis = AffineSubspace.linear([[1.0, 0.0, 0.0]])
    xy_plane = AffineSubspace.linear([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    reflectors = reflectors_of([x_axis, xy_plane])
    assert OperatorSet(reflectors, fixed=x_axis).common_fixed is x_axis
    with pytest.raises(ValueError, match="moves the given fixed set"):
        OperatorSet(reflectors, fixed=xy_plane)
    with pytest.raises(ValueError, match="moves the given fixed set"):
        OperatorSet(reflectors, fixed=AffineSubspace.point([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="moves the given fixed set"):
        build_psi(reflectors, fixed=xy_plane)
    with pytest.raises(ValueError, match="different dimensions"):
        OperatorSet(reflectors, fixed=AffineSubspace.linear([[1.0, 0.0]]))


def test_reflector_families_share_one_fixed_set_per_reflector(monkeypatch):
    """Four reflector families over 4 subspaces, two of them symmetrized,
    take one fixed point set per distinct reflector between them."""
    calls = []
    original = isometry.fixed_point_set

    def counting(op, *args, **kwargs):
        calls.append(op)
        return original(op, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name == "circumproj" or module_name.startswith("circumproj."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    methods = [
        {"method": "cim", "operator_set": "psi"},
        {"method": "cim", "operator_set": "psi", "symmetrized": True},
        {"method": "cim", "operator_set": "identity_plus_reflectors"},
        {"method": "cim", "operator_set": "identity_plus_prefix_products",
         "symmetrized": True},
    ]
    config = parse_config({
        "name": "families",
        "ambient_dim": 7,
        "max_iters": 5,
        "instances": {"kind": "random", "count": 2, "num_subspaces": 4,
                      "dim_range": [2, 5], "seed": 3},
        "methods": methods,
    })
    report = run_experiment(config)
    assert [len(instance.methods) for instance in report.instances] == [4, 4]
    assert len({id(op) for op in calls}) == len(calls) <= 2 * 4, (
        f"{len(calls)} fixed point sets for 2 instances of 4 reflectors")
    assert all(isinstance(op, AffineIsometry) for op in calls)
