"""The circumcenter step against its reference formulas, bit for bit.

``circumcenter`` and ``OperatorSet.images`` avoid
numpy's generic wrappers and repeated temporaries, but they must do the same
floating-point operations in the same order as the reference formulas in
``helpers``, so every bit of every result, and every artifact byte, holds.
The merge finds its near pairs by a sort, not the reference's Gram
matrix, and must keep the same points; the acceptance test measures the
diameter directly, and must decide as the reference's Gram diameter does.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from circumproj import (
    AffineIsometry,
    MethodConfig,
    NumericalPropernessError,
    OperatorSet,
    build_psi,
    circumcenter,
    make_reflector,
    run_cim,
)
from circumproj.circumcenter import _center, _merge
from helpers import (
    merged_rows,
    random_family,
    random_linear_subspace,
    reflectors_of,
    reference_circumcenter,
    reference_distinct,
    reference_images,
    unit_vector,
)
from oracles import merge_threshold


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _points(rng, count: int, dim: int, scale: float, shape: str) -> np.ndarray:
    """``count`` points: some distinct ones of the given shape, then exact
    copies of them and near copies at 0.5 and 2 times the dedup threshold."""
    distinct = int(rng.integers(1, count + 1))
    if shape == "generic":
        base = rng.standard_normal((distinct, dim))
    else:
        # an affine subspace of dimension r: on a sphere in it the offsets are
        # rank deficient and a circumcenter exists; in general position in a
        # flat of dimension r < distinct - 1 there is none
        r = int(rng.integers(1 if shape == "sphere" else 0, dim + 1))
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:r]
        center = rng.standard_normal(dim)
        coords = rng.standard_normal((distinct, r))
        if shape == "sphere":
            coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        base = center + coords @ basis
    points = list(scale * base)
    threshold = merge_threshold(max(float(np.linalg.norm(p)) for p in points))
    for _ in range(count - distinct):
        source = points[int(rng.integers(len(points)))]
        kind = int(rng.integers(3))
        if kind == 0:
            points.append(source.copy())
        else:
            factor = 0.5 if kind == 1 else 2.0
            points.append(source + factor * threshold * unit_vector(rng, dim))
    return np.array(points)[rng.permutation(count)]


@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(-6, 6),
       st.sampled_from(("generic", "sphere", "flat")))
@example(seed=0, count=1, exponent=0, shape="generic")
@example(seed=1, count=12, exponent=-6, shape="sphere")
@example(seed=2, count=12, exponent=6, shape="flat")
@example(seed=3, count=3, exponent=0, shape="generic")
def test_circumcenter_matches_the_reference_bit_for_bit(seed, count, exponent, shape):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    _assert_step_matches_the_reference(_points(rng, count, dim, 10.0 ** exponent, shape))


def _assert_dedup_matches_the_reference(points: np.ndarray) -> np.ndarray:
    """The merge keeps the reference's points; returns the kept indices."""
    kept = merged_rows(points)
    assert list(kept) == list(reference_distinct(points)[0])
    return kept


def _assert_step_matches_the_reference(points: np.ndarray) -> np.ndarray:
    """The merge and ``circumcenter`` against the reference, bit for
    bit; returns the kept indices."""
    kept = _assert_dedup_matches_the_reference(points)
    result = circumcenter(points)
    expected = reference_circumcenter(points)
    assert (result.center is None) == (expected.center is None)
    if expected.center is not None:
        assert _bits(result.center) == _bits(expected.center)
    assert _bits(result.coefficients) == _bits(expected.coefficients)
    assert _bits(result.equidistance_spread) == _bits(expected.equidistance_spread)
    assert _bits(result.equidistance_residual) == _bits(expected.equidistance_residual)
    return kept


def _large_points(rng, count: int, dim: int, kind: str) -> np.ndarray:
    """``count`` points in R^dim: all one point ("coincident"), exact copies
    of 1 to 5 centers ("clusters"), distinct points with exactly one
    coincident pair ("pair"), or chains whose every step is 0.5 or 2 times
    the dedup threshold."""
    if kind == "coincident":
        return np.repeat(rng.standard_normal((1, dim)), count, axis=0)
    if kind == "clusters":
        centers = rng.standard_normal((int(rng.integers(1, 6)), dim))
        return centers[rng.integers(len(centers), size=count)]
    points = rng.standard_normal((count, dim))
    if kind == "pair":
        i, j = rng.choice(count, size=2, replace=False)
        points[i] = points[j]
        return points
    factor = 0.5 if kind == "chains at 0.5" else 2.0
    starts = points[:int(rng.integers(1, 6))]
    threshold = merge_threshold(max(float(np.linalg.norm(p)) for p in starts))
    chain = []
    while len(chain) < count:
        point = starts[int(rng.integers(len(starts)))]
        for _ in range(int(rng.integers(1, 40))):
            chain.append(point)
            point = point + factor * threshold * unit_vector(rng, dim)
    return np.array(chain[:count])[rng.permutation(count)]


@pytest.mark.parametrize("count", [64, 342, 400])
@pytest.mark.parametrize("kind", ["coincident", "clusters", "pair", "chains at 0.5",
                                  "chains at 2"])
def test_large_steps_match_the_reference_bit_for_bit(count, kind):
    rng = np.random.default_rng(count)
    for dim in (2, 17, 60):
        points = _large_points(rng, count, dim, kind)
        kept = _assert_step_matches_the_reference(points)
        if kind == "coincident":
            assert len(kept) == 1
        if kind == "pair":
            assert len(kept) == count - 1


def test_converged_symmetrized_psi_step_matches_the_reference():
    """The images of the symmetrized psi family over 5 reflectors in R^60,
    342 words, at the start, where they are distinct, and at the converged
    step, where they all coincide."""
    rng = np.random.default_rng(2024)
    reflectors = reflectors_of(random_family(rng, 60, 5, 1, 30))
    family = build_psi(reflectors + reflectors[-2::-1])
    assert len(family.words) == 342
    trace = run_cim(family, unit_vector(rng, 60),
                    MethodConfig("cim", max_iters=60, stop_tol=1e-11))
    first, last = (family.images(trace.iterates[k]) for k in (0, -1))
    assert len(_assert_step_matches_the_reference(first)) > 1
    assert len(_assert_step_matches_the_reference(last)) == 1


@pytest.mark.parametrize("points, error", [
    ([[1e160, 0.0], [0.0, 1e160]], None),
    ([[1e160, 0.0], [0.0, 1e160], [1e160, 1e-300]], None),
    ([[1e160, 0.0], [1.0, 0.0]], None),
    ([[1e200, 1.0], [1e200, 2.0], [3.0, 1e200]], None),
    ([[1e160, 0.0], [0.0, 1e150], [1e160, 1e160]], None),
    ([[1.0, 0.0], [0.0, 1e150], [1e160, 1e160]], None),
    ([[np.nan, 0.0], [1.0, 0.0]], ValueError),
    ([[1.0, 0.0], [np.inf, 1e160]], ValueError),
    ([[1e160, -np.inf]], ValueError),
], ids=["two_axes", "two_axes_and_a_near_one", "far_pair", "three_at_1e200",
        "one_finite_square", "one_finite_pair", "nan", "inf", "minus_inf"])
def test_overflowing_squared_norms_keep_every_point(points, error):
    """Past the float range the squared offsets of the equidistance system
    overflow, so the dedup keeps every point and the circumcenter is absent:
    (1e160, 0) and (1, 0) have no center at (1e160, 0), 1e160 from one of
    them. A NaN or infinite entry raises instead, in the iteration step
    too."""
    points = np.array(points)
    if error is not None:
        for solve in (_merge, circumcenter, _center):
            with pytest.raises(error, match="point entries must be finite"):
                solve(points)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        kept = merged_rows(points)
        result = circumcenter(points)
        with pytest.raises(NumericalPropernessError):
            _center(points)
    assert list(kept) == list(range(len(points)))
    assert result.center is None


def test_the_reference_cases_include_absent_and_rank_deficient_circumcenters():
    """Three distinct collinear points have no circumcenter; six points on a
    circle in R^3 have one, with offsets of rank 2."""
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
    assert reference_circumcenter(collinear).center is None
    assert circumcenter(collinear).center is None
    angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    circle = np.column_stack([np.cos(angles), np.sin(angles), np.full(6, 2.0)])
    result = circumcenter(circle)
    assert np.linalg.matrix_rank(circle[1:] - circle[0]) == 2
    assert _bits(result.center) == _bits(reference_circumcenter(circle).center)


def _generators(rng, dim: int, count: int, fixed_point: np.ndarray) -> list:
    """Affine isometries that all fix ``fixed_point``: reflectors through
    subspaces translated to it, general orthogonal maps about it, and
    repeated objects."""
    generators = []
    for _ in range(count):
        roll = int(rng.integers(3))
        if roll == 0 and generators:
            generators.append(generators[int(rng.integers(len(generators)))])
        elif roll == 1:
            subspace = random_linear_subspace(rng, dim, int(rng.integers(1, dim)))
            generators.append(make_reflector(subspace.translate(fixed_point)))
        else:
            q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            generators.append(AffineIsometry(q, fixed_point - q @ fixed_point))
    return generators


@given(st.integers(0, 10**6), st.booleans(), st.booleans())
def test_images_match_the_dict_walk_bit_for_bit(seed, with_empty, with_repeat):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    count = int(rng.integers(1, 5))
    generators = _generators(rng, dim, count, rng.standard_normal(dim))
    words = []
    for _ in range(int(rng.integers(1, 12))):
        prefix = words[int(rng.integers(len(words)))] if words and rng.integers(2) else ()
        words.append(prefix + (int(rng.integers(count)),))
    words += [(i,) for i in range(count) if not any(i in word for word in words)]
    if with_empty:
        words.insert(int(rng.integers(len(words) + 1)), ())
    if with_repeat:
        words.append(words[int(rng.integers(len(words)))])
    family = OperatorSet(generators, words)
    assert any(np.any(op.b != 0.0) for op in generators)
    for scale in (1e-6, 1.0, 1e6):
        x = scale * rng.standard_normal(dim)
        images = family.images(x)
        assert images.shape == (len(words), dim)
        assert _bits(images) == _bits(reference_images(family, x))


def test_exactly_zero_offsets_are_left_out_without_moving_a_zero_sign():
    """The plan leaves out an offset that is exactly zero, +0.0 or -0.0.
    Adding -0.0 moves no bit, and adding +0.0 would move only a -0.0 entry,
    which np.dot never returns: here every product of the second and third
    rows is -0.0, yet the images match the dict walk, zero signs included."""
    reflector = AffineIsometry(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
    negated = AffineIsometry(np.diag([-1.0, 1.0, -1.0]), np.full(3, -0.0))
    rotation = AffineIsometry(np.eye(3)[[1, 2, 0]], np.array([0.0, 0.0, 1e-300]))
    family = OperatorSet([reflector, negated, rotation],
                         [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 0), (0, 1, 2)])
    # the last letters are 0, 1, 2, 1, 2, 0, 2; the rotation's offset is not zero
    left_out = [b is None for Q, b, _ in family._plan if Q is not None]
    assert left_out == [True, True, False, True, False, True, False]
    for x in ([-1.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [2.0, -3.0, 0.0]):
        images = family.images(x)
        assert _bits(images) == _bits(reference_images(family, x))
