import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    AffineSubspace,
    affine_hull,
    intersect,
    make_reflector,
)
from circumproj.bench import _subspace
from helpers import contains, random_family


def test_intersect_frozen_two_lines_meet_in_a_point():
    horizontal = AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])  # y = 1
    vertical = AffineSubspace.from_span([2.0, 0.0], [[0.0, 1.0]])  # x = 2
    result = intersect([horizontal, vertical])
    assert not result.is_empty
    assert result.subspace.dim == 0
    assert np.allclose(result.subspace.anchor, [2.0, 1.0], atol=1e-10), (
        f"expected the point (2, 1), got {result.subspace.anchor}"
    )


def test_intersect_frozen_parallel_lines_are_empty():
    low = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    high = AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])
    result = intersect([low, high])
    assert result.is_empty
    # least squares puts the phantom point midway, giving residual sqrt(1/2)
    assert abs(result.residual - np.sqrt(0.5)) < 1e-10


def test_intersect_of_duplicate_line_is_the_line():
    line = AffineSubspace.from_span([1.0, 2.0], [[3.0, 4.0]])
    result = intersect([line, line])
    assert not result.is_empty
    assert result.subspace.dim == 1
    assert contains(line, result.subspace.anchor)
    assert np.allclose(result.subspace.projector_matrix(), line.projector_matrix(), atol=1e-10)


def test_projector_frozen_diagonal_line():
    diag = AffineSubspace.linear([[1.0, 1.0]])
    assert np.allclose(diag.projector_matrix(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_construction_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        AffineSubspace(anchor=np.zeros(2), basis=np.array([[1.0, 1.0]]))


def test_from_span_orthonormalizes_and_keeps_rank():
    sub = AffineSubspace.from_span([0.0, 0.0, 0.0], [[2.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    assert sub.dim == 1
    assert np.allclose(np.abs(sub.basis), [[1.0, 0.0, 0.0]], atol=1e-12)


def test_point_and_full_constructors():
    pt = AffineSubspace.point([3.0, 4.0])
    assert pt.dim == 0 and np.allclose(pt.project([9.0, 9.0]), [3.0, 4.0])
    full = AffineSubspace(np.zeros(3), np.eye(3))
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(full.project(x), x)


def test_is_linear_distinguishes_anchored_subspaces():
    assert AffineSubspace.linear([[1.0, 2.0]]).is_linear()
    shifted = AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])
    assert not shifted.is_linear()
    # anchor off the origin but inside the span still counts as linear
    sneaky = AffineSubspace.from_span([2.0, 0.0], [[1.0, 0.0]])
    assert sneaky.is_linear()


def test_orthogonal_complement_sums_to_identity():
    sub = AffineSubspace.linear([[1.0, 1.0, 0.0]])
    comp = sub.orthogonal_complement()
    assert sub.dim + comp.dim == 3
    total = sub.projector_matrix() + comp.projector_matrix()
    assert np.allclose(total, np.eye(3), atol=1e-10)


def test_orthogonal_complement_requires_linear():
    shifted = AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        shifted.orthogonal_complement()


def test_affine_hull_frozen():
    plane = affine_hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert plane.dim == 2
    line = affine_hull(np.array([[1.0, 1.0], [3.0, 3.0]]))
    assert line.dim == 1
    assert contains(line, [2.0, 2.0])


def test_subspace_literal_branches():
    """The config reader of a subspace literal, in R^2."""
    pt = _subspace({"anchor": [1.0, 2.0]}, "s", 2)
    assert pt.dim == 0
    lin = _subspace({"span": [[1.0, 0.0]]}, "s", 2)
    assert lin.dim == 1 and lin.is_linear()
    both = _subspace({"anchor": [0.0, 1.0], "span": [[1.0, 0.0]]}, "s", 2)
    assert both.dim == 1 and not both.is_linear()
    with pytest.raises(ValueError):
        _subspace({}, "s", 2)
    with pytest.raises(ValueError):
        _subspace([1.0, 2.0], "s", 2)


@given(st.integers(0, 10**6))
def test_projection_is_idempotent_and_orthogonal(seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 7))
    dim = int(rng.integers(1, ambient))
    sub = AffineSubspace.from_span(rng.standard_normal(ambient),
                                   rng.standard_normal((dim, ambient)))
    x = rng.standard_normal(ambient) * 3.0
    proj = sub.project(x)
    assert contains(sub, proj), "projection must land in the subspace"
    assert np.allclose(sub.project(proj), proj, atol=1e-9)
    # the residual is orthogonal to every direction of the subspace
    residual = x - proj
    assert np.max(np.abs(sub.basis @ residual)) < 1e-9


@given(st.integers(0, 10**6))
def test_projection_is_the_nearest_point(seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 6))
    dim = int(rng.integers(1, ambient))
    sub = AffineSubspace.from_span(rng.standard_normal(ambient),
                                   rng.standard_normal((dim, ambient)))
    x = rng.standard_normal(ambient)
    best = np.linalg.norm(x - sub.project(x))
    for _ in range(5):
        other = sub.project(rng.standard_normal(ambient) * 2.0)
        assert best <= np.linalg.norm(x - other) + 1e-9


@given(st.integers(0, 10**6))
def test_reflection_is_an_involution_fixing_the_subspace(seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 6))
    dim = int(rng.integers(1, ambient))
    sub = AffineSubspace.from_span(rng.standard_normal(ambient),
                                   rng.standard_normal((dim, ambient)))
    reflect = make_reflector(sub).apply
    x = rng.standard_normal(ambient)
    assert np.allclose(reflect(reflect(x)), x, atol=1e-9)
    inside = sub.project(rng.standard_normal(ambient))
    assert np.allclose(reflect(inside), inside, atol=1e-9)
    # reflection preserves distance to the subspace
    d_before = np.linalg.norm(x - sub.project(x))
    r = reflect(x)
    d_after = np.linalg.norm(r - sub.project(r))
    assert abs(d_before - d_after) < 1e-9


@given(st.integers(0, 10**6))
def test_intersection_of_shifted_family_contains_the_shift(seed):
    """Families built around a common point must intersect there."""
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 7))
    z = rng.standard_normal(ambient)
    count = int(rng.integers(1, 4))
    subspaces = [
        AffineSubspace.from_span(z, rng.standard_normal((int(rng.integers(1, ambient)), ambient)))
        for _ in range(count)
    ]
    result = intersect(subspaces)
    assert not result.is_empty, f"family through {z} reported empty"
    assert contains(result.subspace, z)
    assert np.allclose(result.subspace.project(z), z, atol=1e-8)


@given(st.integers(0, 10**6))
def test_intersection_dimension_matches_rank_formula(seed):
    """dim(U1 cap U2) = dim U1 + dim U2 - dim(U1 + U2) for linear subspaces."""
    rng = np.random.default_rng(seed)
    family = random_family(rng, 5, 2, 1, 4)
    result = intersect(family)
    assert not result.is_empty
    stacked = np.vstack([family[0].basis, family[1].basis])
    expected_dim = family[0].dim + family[1].dim - np.linalg.matrix_rank(stacked, tol=1e-10)
    assert result.subspace.dim == expected_dim, (
        f"got dimension {result.subspace.dim}, rank formula says {expected_dim}"
    )
    # every direction of the intersection lies in both subspaces
    for v in result.subspace.basis:
        assert np.allclose(family[0].project(v), v, atol=1e-8)
        assert np.allclose(family[1].project(v), v, atol=1e-8)

