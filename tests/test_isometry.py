import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    AffineIsometry,
    AffineMap,
    AffineSubspace,
    MethodConfig,
    build_product_averaged,
    build_psi,
    build_sum_averaged,
    compose,
    fixed_point_set,
    identity,
    intersect,
    make_reflector,
    operator_from_literal,
    operator_rate,
    run_linear,
    symmetric_map_operator,
)
from circumproj.isometry import _is_self_adjoint
from helpers import random_family, random_linear_subspace, reflectors_of

LINE_X = AffineSubspace.linear([[1.0, 0.0]])
LINE_DIAG = AffineSubspace.linear([[1.0, 1.0]])
LINE_Y = AffineSubspace.linear([[0.0, 1.0]])


def test_make_reflector_frozen_horizontal_line():
    """Reflecting about the line y = 1 is x -> (x1, 2 - x2)."""
    line = AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])
    reflector = make_reflector(line)
    assert np.allclose(reflector.Q, np.diag([1.0, -1.0]), atol=1e-12)
    assert np.allclose(reflector.b, [0.0, 2.0], atol=1e-12)
    assert np.allclose(reflector.apply([3.0, 5.0]), [3.0, -3.0], atol=1e-12)


def test_compose_frozen_two_axis_reflectors_give_point_reflection():
    product = compose(make_reflector(LINE_Y), make_reflector(LINE_X))
    assert np.allclose(product.Q, -np.eye(2), atol=1e-12)
    assert np.allclose(product.b, 0.0, atol=1e-12)


def test_compose_applies_first_argument_last():
    shift = AffineIsometry(np.eye(2), np.array([1.0, 0.0]))
    flip = make_reflector(LINE_Y)
    # flip after shift: (0,0) -> (1,0) -> (-1,0)
    assert np.allclose(compose(flip, shift).apply([0.0, 0.0]), [-1.0, 0.0])
    # shift after flip: (0,0) -> (0,0) -> (1,0)
    assert np.allclose(compose(shift, flip).apply([0.0, 0.0]), [1.0, 0.0])


def test_affine_isometry_rejects_non_orthogonal_linear_part():
    with pytest.raises(ValueError):
        AffineIsometry(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), b=np.zeros(2))


def test_fixed_point_set_frozen_cases():
    rotation = AffineIsometry(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    fixed = fixed_point_set(rotation)
    assert fixed is not None and fixed.dim == 0
    assert np.allclose(fixed.anchor, [0.0, 0.0], atol=1e-10)

    assert fixed_point_set(AffineIsometry(np.eye(2), np.array([1.0, 0.0]))) is None

    everything = fixed_point_set(identity(3))
    assert everything.dim == 3


def test_fixed_point_set_of_reflector_is_the_subspace():
    rng = np.random.default_rng(7)
    sub = AffineSubspace.from_span(rng.standard_normal(4), rng.standard_normal((2, 4)))
    fixed = fixed_point_set(make_reflector(sub))
    assert fixed.dim == sub.dim
    assert np.allclose(fixed.projector_matrix(), sub.projector_matrix(), atol=1e-9)
    assert sub.contains(fixed.anchor)


@given(st.integers(0, 10**6))
def test_projector_is_half_identity_plus_reflector(seed):
    """P_U x = (x + R_U x) / 2 for every linear subspace."""
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 6))
    sub = random_linear_subspace(rng, ambient, int(rng.integers(1, ambient)))
    reflector = make_reflector(sub)
    x = rng.standard_normal(ambient) * 2.0
    assert np.allclose(0.5 * (x + reflector.apply(x)), sub.project(x), atol=1e-10)


@given(st.integers(0, 10**6))
def test_fixed_space_of_reflector_product_decomposes(seed):
    """Fix(R2 R1) is the orthogonal sum of U1 cap U2 and U1perp cap U2perp."""
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 6))
    u1 = random_linear_subspace(rng, ambient, int(rng.integers(1, ambient)))
    u2 = random_linear_subspace(rng, ambient, int(rng.integers(1, ambient)))
    product = compose(make_reflector(u2), make_reflector(u1))
    fixed = fixed_point_set(product)
    assert fixed is not None

    inner = intersect([u1, u2]).subspace
    outer = intersect([u1.orthogonal_complement(), u2.orthogonal_complement()]).subspace
    combined = inner.projector_matrix() + outer.projector_matrix()
    assert np.allclose(fixed.projector_matrix(), combined, atol=1e-8), (
        "fixed space of the reflector product should split into the"
        " intersection plus the intersection of complements"
    )


def test_build_sum_averaged_frozen_45_degrees():
    ops = reflectors_of([LINE_X, LINE_DIAG])
    avg = build_sum_averaged(ops)
    assert np.allclose(avg.A, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)
    assert abs(avg.averagedness - 0.5) < 1e-12
    fixed = fixed_point_set(avg)
    assert fixed.dim == 0 and np.allclose(fixed.anchor, 0.0, atol=1e-10)


def test_build_product_averaged_frozen_45_degrees():
    # By the documented recipe with uniform weights: the first piece is
    # (I + R_x) / 2 = P_x, the second is I/2 + ((I + R_diag)/2 @ R_x) / 2,
    # which is [[0.75, -0.25], [0.25, 0.25]], and their mean is the matrix
    # below.
    ops = reflectors_of([LINE_X, LINE_DIAG])
    avg = build_product_averaged(ops)
    assert np.allclose(avg.A, [[0.875, -0.125], [0.125, 0.125]], atol=1e-12)
    fixed = fixed_point_set(avg)
    assert fixed.dim == 0


@given(st.integers(0, 10**6))
def test_averaged_builders_fix_exactly_the_common_fixed_space(seed):
    rng = np.random.default_rng(seed)
    family = random_family(rng, 5, int(rng.integers(1, 4)), 1, 4)
    ops = reflectors_of(family)
    common = intersect(family).subspace
    for builder in (build_sum_averaged, build_product_averaged):
        avg = builder(ops)
        fixed = fixed_point_set(avg)
        assert fixed is not None
        assert np.allclose(fixed.projector_matrix(), common.projector_matrix(),
                           atol=1e-8), f"{builder.__name__} fixed space mismatch"
        assert np.linalg.norm(avg.A, 2) <= 1.0 + 1e-10, f"{builder.__name__} expands"


def _accel_step(op, x):
    """One ``accel_map`` step of ``run_linear``, behind its checks."""
    config = MethodConfig(method="accel_map", max_iters=1)
    return run_linear(op, x, config, fixed_point_set(op)).iterates[1]


def test_accelerated_apply_exact_after_one_product_step():
    """From a point of a single eigenline the accelerated step lands exactly."""
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    x0 = np.array([0.3, 0.9])
    y = op.A @ x0
    landed = _accel_step(op, y)
    assert np.linalg.norm(landed) < 1e-14, f"expected the origin, got {landed}"


def test_accelerated_apply_requires_linear_nonexpansive():
    with pytest.raises(ValueError):
        _accel_step(AffineMap(A=np.eye(2), b=np.array([1.0, 0.0])), np.zeros(2))
    with pytest.raises(ValueError):
        _accel_step(AffineMap(A=2.0 * np.eye(2), b=np.zeros(2)), np.ones(2))


def test_accelerated_apply_returns_fixed_points_unchanged():
    op = symmetric_map_operator([LINE_X, LINE_DIAG])
    assert np.allclose(_accel_step(op, np.zeros(2)), np.zeros(2))


def test_predicates():
    reflector = make_reflector(LINE_DIAG)
    assert _is_self_adjoint(reflector)
    rotation = AffineIsometry(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    assert not _is_self_adjoint(rotation)


def test_operator_from_literal_kinds():
    reflector = operator_from_literal(
        {"kind": "reflector", "subspace": {"anchor": [0.0, 1.0], "span": [[1.0, 0.0]]}}
    )
    assert np.allclose(reflector.Q, np.diag([1.0, -1.0]), atol=1e-12)
    assert np.allclose(reflector.b, [0.0, 2.0], atol=1e-12)

    shift = operator_from_literal({"kind": "translation", "offset": [1.0, 2.0]})
    assert np.allclose(shift.apply([0.0, 0.0]), [1.0, 2.0])

    rot = operator_from_literal({"kind": "orthogonal", "matrix": [[0.0, -1.0], [1.0, 0.0]]})
    assert np.allclose(rot.apply([1.0, 0.0]), [0.0, 1.0])

    # first factor acts first
    composed = operator_from_literal({
        "kind": "compose",
        "factors": [
            {"kind": "translation", "offset": [1.0, 0.0]},
            {"kind": "orthogonal", "matrix": [[-1.0, 0.0], [0.0, 1.0]]},
        ],
    })
    assert np.allclose(composed.apply([0.0, 0.0]), [-1.0, 0.0])

    with pytest.raises(ValueError):
        operator_from_literal({"kind": "mystery"})
    with pytest.raises(ValueError):
        operator_from_literal({"kind": "compose", "factors": []})


@given(st.integers(0, 10**6))
def test_isometries_preserve_distances(seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 6))
    sub = random_linear_subspace(rng, ambient, int(rng.integers(1, ambient)))
    shift = AffineIsometry(np.eye(ambient), rng.standard_normal(ambient))
    iso = compose(make_reflector(sub), shift)
    x = rng.standard_normal(ambient)
    y = rng.standard_normal(ambient)
    assert abs(np.linalg.norm(iso.apply(x) - iso.apply(y)) - np.linalg.norm(x - y)) < 1e-10



def _accepts(check) -> bool:
    try:
        check()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("offset, linear", [(1e-9, False), (1e-11, True)])
def test_one_linearity_verdict_for_every_check(offset, linear):
    """Every check that an operator is linear gives one verdict, also for an
    offset between EQ_TOL and CONSISTENCY_TOL."""
    reflector = AffineIsometry(np.diag([1.0, -1.0]), np.array([offset, 0.0]))
    halving = AffineMap(np.diag([1.0, 0.5]), np.array([offset, 0.0]))
    verdicts = {
        "is_linear": reflector.is_linear(),
        "build_psi": _accepts(lambda: build_psi([reflector])),
        "run_linear": _accepts(lambda: run_linear(halving, np.array([1.0, 1.0]),
                                                  MethodConfig(method="sym_map", max_iters=2),
                                                  LINE_X)),
        "operator_rate": _accepts(lambda: operator_rate(halving, LINE_X)),
    }
    assert verdicts == dict.fromkeys(verdicts, linear)
