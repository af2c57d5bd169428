"""Resolution and planning in O(n^2) transient memory, bit for bit.

``intersect`` certifies a trivial answer from a Gram matrix summed one
block at a time, ``build_product_averaged`` adds each relaxed prefix
product as it is formed, the projection products form each distinct
projector once, and the rates multiply by no identity. Every
result must equal the stacked, listed and identity-multiplied formulas of
``helpers.reference_*`` bit for bit, and the transient heap of resolution
and of the product builder must not grow with the number of subspaces.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from circumproj import (
    AffineIsometry,
    AffineSubspace,
    build_product_averaged,
    compute_rates,
    dr_operator,
    fixed_point_set,
    intersect,
    map_operator,
    operator_rate,
    parse_config,
    symmetric_map_operator,
    tuple_angle_cos,
)
from circumproj.isometry import _common_fixed_points
from helpers import (
    reference_build_product_averaged,
    reference_common_fixed_points,
    reference_intersect,
    reference_map_operator,
    reference_operator_rate,
    reference_symmetric_map_operator,
    reference_tuple_angle_cos,
    reflectors_of,
)

LINE_X = AffineSubspace.linear([[1.0, 0.0]])
LINE_DIAG = AffineSubspace.linear([[1.0, 1.0]])


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_subspace(got, want) -> None:
    assert (got is None) == (want is None)
    if want is not None:
        assert got.basis.shape == want.basis.shape
        assert _bits(got.anchor) == _bits(want.anchor)
        assert _bits(got.basis) == _bits(want.basis)


def _assert_same_map(got, want) -> None:
    assert _bits(got.A) == _bits(want.A)
    assert _bits(got.b) == _bits(want.b)


def _linear(rng, n: int, d: int) -> AffineSubspace:
    if d == 0:
        return AffineSubspace.point(np.zeros(n))
    return AffineSubspace.linear(rng.standard_normal((d, n)))


KINDS = ("trivial", "nontrivial", "near_parallel", "translated")


def _family(rng, m: int, n: int, kind: str) -> list:
    """m subspaces of R^n: meeting at 0 alone (codimensions summing to at
    least n), meeting in a nontrivial subspace, with two nearly parallel
    ones, or all translated off the origin, one of them maybe off the
    others' common point."""
    if kind == "trivial":
        dims = rng.integers(0, n - -(-n // m) + 1, size=m)
    elif kind == "nontrivial":
        dims = rng.integers(n - (n - 1) // m, n + 1, size=m)
    else:
        dims = rng.integers(1, n + 1, size=m)
    family = [_linear(rng, n, int(d)) for d in dims]
    if kind == "near_parallel":
        theta = 10.0 ** -int(rng.integers(1, 9))
        base = family[0].basis
        family[-1] = AffineSubspace.linear(base + theta * rng.standard_normal(base.shape))
    if kind == "translated":
        z = rng.standard_normal(n)
        family = [s.translate(z) for s in family]
        if rng.integers(2):
            family[0] = family[0].translate(rng.standard_normal(n))
    return [family[i] for i in rng.permutation(m)]


def _check_resolution(family) -> None:
    got, want = intersect(family), reference_intersect(family)
    assert _bits(got.residual) == _bits(want.residual)
    _assert_same_subspace(got.subspace, want.subspace)
    reflectors = reflectors_of(family)
    _assert_same_subspace(_common_fixed_points(reflectors),
                          reference_common_fixed_points(reflectors))


def _check_planning(family) -> None:
    _assert_same_map(map_operator(family), reference_map_operator(family))
    sym = symmetric_map_operator(family)
    _assert_same_map(sym, reference_symmetric_map_operator(family))
    if any(np.any(s.anchor) for s in family):
        return
    fixed = intersect(family).subspace
    assert _bits(tuple_angle_cos(family, fixed=fixed)) == _bits(
        reference_tuple_angle_cos(family, fixed))
    reflectors = reflectors_of(family)
    product = build_product_averaged(reflectors)
    want = reference_build_product_averaged(reflectors)
    _assert_same_map(product, want)
    assert product.averagedness == want.averagedness
    operators = [(sym, fixed), (product, fixed)]
    if len(family) > 1:
        dr = dr_operator(reflectors[0], reflectors[1])
        operators.append((dr, fixed_point_set(dr)))
    for op, op_fixed in operators:
        try:
            want_rate = reference_operator_rate(op, op_fixed)
        except ValueError:
            with pytest.raises(ValueError, match="not fixed"):
                operator_rate(op, op_fixed)
        else:
            assert _bits(operator_rate(op, op_fixed)) == _bits(want_rate)


@given(st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 40), st.sampled_from(KINDS))
@example(seed=0, m=8, n=40, kind="trivial")
@example(seed=1, m=3, n=30, kind="nontrivial")
@example(seed=2, m=4, n=12, kind="near_parallel")
@example(seed=3, m=5, n=20, kind="translated")
@example(seed=4, m=1, n=1, kind="trivial")
def test_resolution_and_planning_match_the_references_bit_for_bit(seed, m, n, kind):
    family = _family(np.random.default_rng(seed), m, n, kind)
    _check_resolution(family)
    _check_planning(family)


def test_the_kinds_reach_both_branches_of_the_certificate():
    rng = np.random.default_rng(0)
    assert intersect(_family(rng, 8, 40, "trivial")).subspace.dim == 0
    assert intersect(_family(rng, 3, 30, "nontrivial")).subspace.dim > 0
    assert not any(np.any(s.anchor) for s in _family(rng, 4, 12, "near_parallel"))
    assert all(np.any(s.anchor) for s in _family(rng, 5, 20, "translated"))


def test_operator_rate_rejects_a_fixed_set_the_operator_moves():
    # the symmetric product of two lines at 45 degrees halves e_x
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    with pytest.raises(ValueError, match=r"a basis direction of the subspace is not fixed, gap 5\.000e-01"):
        operator_rate(op, LINE_X)
    rng = np.random.default_rng(9)
    family = [_linear(rng, 30, 20) for _ in range(3)]
    moved = AffineSubspace.linear(np.vstack([intersect(family).subspace.basis,
                                             rng.standard_normal((1, 30))]))
    with pytest.raises(ValueError, match="not fixed, gap"):
        operator_rate(symmetric_map_operator(family), moved)


def test_the_symmetric_product_forms_each_projector_once(monkeypatch):
    calls = []
    original = AffineSubspace.projector_matrix
    monkeypatch.setattr(AffineSubspace, "projector_matrix",
                        lambda self: calls.append(self) or original(self))
    family = _family(np.random.default_rng(5), 6, 15, "trivial")
    symmetric_map_operator(family)
    assert sorted(map(id, calls)) == sorted(map(id, family))


def _count_isometries(monkeypatch) -> list:
    made = []
    original = AffineIsometry.__post_init__

    def counting(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(AffineIsometry, "__post_init__", counting)
    return made


def _rates_config(methods: list) -> dict:
    return {
        "name": "reflector-count", "ambient_dim": 12, "seed": 3, "max_iters": 5,
        "x0": {"kind": "random_unit", "seed": 3},
        "instances": {"kind": "random", "count": 1, "num_subspaces": 6,
                      "dim_range": [1, 6], "seed": 3},
        "methods": methods,
    }


def test_dr_makes_two_reflectors_and_shares_them(monkeypatch):
    # the reflectors are the only isometries a rates run makes
    made = _count_isometries(monkeypatch)
    compute_rates(parse_config(_rates_config([{"method": "dr"}])))
    assert len(made) == 2
    made.clear()
    compute_rates(parse_config(_rates_config(
        [{"method": "dr"}, {"method": "averaged_iter", "builder": "product"}])))
    assert len(made) == 6


def _traced_peak(fn, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _half_dim_family(m: int) -> list:
    """m linear subspaces of dimension 60 in R^120 meeting only at 0."""
    rng = np.random.default_rng(m)
    return [_linear(rng, 120, 60) for _ in range(m)]


def test_certified_intersection_holds_no_stack_of_blocks():
    few, many = _half_dim_family(4), _half_dim_family(16)
    assert intersect(few).subspace.dim == 0 and intersect(many).subspace.dim == 0
    peak_few, peak_many = _traced_peak(intersect, few), _traced_peak(intersect, many)
    # a stack of the 16 blocks alone is 16 * 120^2 * 8 bytes, 1.8 MB
    assert peak_many <= 1.1 * peak_few, (peak_few, peak_many)


def test_product_averaged_builder_holds_no_list_of_pieces():
    few, many = reflectors_of(_half_dim_family(4)), reflectors_of(_half_dim_family(16))
    peak_few = _traced_peak(build_product_averaged, few)
    peak_many = _traced_peak(build_product_averaged, many)
    assert peak_many <= 1.1 * peak_few, (peak_few, peak_many)
