import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    AffineIsometry,
    EQ_TOL,
    AffineSubspace,
    NumericalPropernessError,
    OperatorSet,
    build_psi,
    circumcenter,
    circumcenter_map,
    compose,
    identity,
    intersect,
    make_reflector,
)
from circumproj.circumcenter import _diameter
from circumproj.isometry import _is_self_adjoint
from helpers import (
    contains,
    merged_rows,
    random_family,
    reference_images,
    reflectors_of,
    subsets,
    unit_vector,
)
from oracles import merge_threshold, oracle_circumcenter, oracle_dedup

LINE_X = AffineSubspace.linear([[1.0, 0.0]])
LINE_DIAG = AffineSubspace.linear([[1.0, 1.0]])


def test_circumcenter_frozen_right_triangle():
    result = circumcenter(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert result.center is not None
    assert np.allclose(result.center, [0.5, 0.5], atol=1e-12), (
        f"hypotenuse midpoint expected, got {result.center}"
    )
    assert result.equidistance_spread < 1e-12
    assert result.equidistance_residual < 1e-12


def test_circumcenter_frozen_collinear_points_have_none():
    result = circumcenter(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert result.center is None
    assert result.equidistance_spread > 1e-3


def test_circumcenter_of_singleton_and_duplicates():
    single = circumcenter(np.array([[2.0, 3.0]]))
    assert np.allclose(single.center, [2.0, 3.0])
    doubled = circumcenter(np.array([[2.0, 3.0], [2.0, 3.0]]))
    assert np.allclose(doubled.center, [2.0, 3.0])


def test_circumcenter_of_two_points_is_midpoint():
    result = circumcenter(np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 0.0]]))
    assert np.allclose(result.center, [1.0, 2.0, 0.0], atol=1e-12)


@given(st.integers(0, 10**6))
def test_circumcenter_agrees_with_independent_oracle(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 6))
    points = rng.standard_normal((count, 5))
    ours = circumcenter(points)
    reference = oracle_circumcenter(points)
    if reference is None:
        assert ours.center is None
        return
    assert ours.center is not None, "oracle found a center but we did not"
    assert np.allclose(ours.center, reference, atol=1e-8), (
        f"centers differ: {ours.center} vs {reference}"
    )


@given(st.integers(0, 10**6))
def test_circumcenter_is_equidistant_and_in_the_hull(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 6))
    points = rng.standard_normal((count, 5))
    result = circumcenter(points)
    if result.center is None:
        return
    dists = np.linalg.norm(points - result.center, axis=1)
    assert float(dists.max() - dists.min()) < 1e-8 * (1.0 + dists.max())
    # membership in the affine hull: projecting onto it changes nothing
    offsets = points[1:] - points[0]
    gram_proj, *_ = np.linalg.lstsq(offsets.T, result.center - points[0], rcond=None)
    assert np.linalg.norm(offsets.T @ gram_proj - (result.center - points[0])) < 1e-8


@given(st.integers(0, 10**6))
def test_circumcenter_scaling_and_translation_equivariance(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 6))
    points = rng.standard_normal((count, 4))
    base = circumcenter(points)
    if base.center is None:
        return
    scale = float(rng.uniform(0.5, 3.0)) * (-1.0 if rng.integers(2) else 1.0)
    shift = rng.standard_normal(4)
    moved = circumcenter(scale * points + shift)
    assert moved.center is not None
    assert np.allclose(moved.center, scale * base.center + shift, atol=1e-8)


def test_circumcenter_map_frozen_pair_gives_projection():
    """C over {Id, R_U} is the midpoint of x and its reflection, i.e. P_U x."""
    family = OperatorSet([identity(2), make_reflector(LINE_X)])
    center = circumcenter_map(family, np.array([3.0, 4.0]))
    assert np.allclose(center, [3.0, 0.0], atol=1e-12)


def test_operator_set_rejects_fixed_point_free_and_disjoint_families():
    with pytest.raises(ValueError):
        OperatorSet([AffineIsometry(np.eye(2), np.array([1.0, 0.0]))])
    shifted_up = make_reflector(AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]]))
    shifted_down = make_reflector(AffineSubspace.from_span([0.0, -1.0], [[1.0, 0.0]]))
    with pytest.raises(ValueError):
        OperatorSet([shifted_up, shifted_down])
    with pytest.raises(ValueError):
        OperatorSet([])


def test_operator_set_rejects_malformed_words():
    reflector = make_reflector(LINE_X)
    with pytest.raises(ValueError, match="prefix-closed"):
        OperatorSet([reflector, reflector], words=((0, 1),))
    with pytest.raises(ValueError, match="prefix-closed"):
        OperatorSet([reflector, reflector], words=((0, 1), (0,)))
    with pytest.raises(ValueError, match="outside range"):
        OperatorSet([reflector], words=((1,),))
    with pytest.raises(ValueError, match="outside range"):
        OperatorSet([reflector], words=((), (-1,)))
    with pytest.raises(ValueError, match="occur in no word"):
        OperatorSet([reflector, make_reflector(LINE_DIAG)], words=((), (0,)))


def test_operator_set_rejects_boolean_letters():
    reflector = make_reflector(LINE_X)
    for letter in (True, False, np.True_):
        with pytest.raises(ValueError, match="boolean letter"):
            OperatorSet([reflector, reflector], words=((0,), (1,), (letter,)))


def test_operator_set_accepts_numpy_integer_letters_as_plain_ints():
    reflectors = [make_reflector(LINE_X), make_reflector(LINE_DIAG)]
    words = ((np.int64(0),), (np.int64(0), np.int32(1)), (np.uint8(1),))
    family = OperatorSet(reflectors, words=words)
    assert family.words == ((0,), (0, 1), (1,))
    assert all(type(letter) is int for word in family.words for letter in word)
    plain = OperatorSet(reflectors, words=((0,), (0, 1), (1,)))
    x = np.array([0.3, -1.2])
    assert np.array_equal(family.images(x), plain.images(x))
    with pytest.raises(ValueError, match="not an integer index"):
        OperatorSet(reflectors, words=((0,), (1.0,)))


def test_cached_layouts_still_reject_float_and_boolean_letters():
    """Layouts are cached by their words, and 1.0, True and np.True_ compare
    and hash equal to 1: once the int spelling is cached they still raise."""
    reflectors = [make_reflector(LINE_X), make_reflector(LINE_DIAG)]
    OperatorSet(reflectors, words=((), (0,), (1,), (0, 1)))
    assert ((), (0,), (1.0,), (0, 1)) == ((), (0,), (1,), (0, 1))
    with pytest.raises(ValueError, match="not an integer index"):
        OperatorSet(reflectors, words=((), (0,), (1.0,), (0, 1)))
    for letter in (True, np.True_):
        with pytest.raises(ValueError, match="boolean letter"):
            OperatorSet(reflectors, words=((), (0,), (letter,), (0, 1)))
    with pytest.raises(ValueError, match="boolean letter"):
        OperatorSet(reflectors, words=((), (np.False_,), (1,), (0, 1)))


def test_cached_layouts_store_numpy_integer_letters_as_plain_ints():
    module = importlib.import_module("circumproj.circumcenter")
    reflectors = [make_reflector(LINE_X), make_reflector(LINE_DIAG)]
    plain = ((0,), (0, 1), (1,))
    numpy_words = ((np.int64(0),), (np.int64(0), np.int64(1)), (np.int64(1),))
    for first, second in ((plain, numpy_words), (numpy_words, plain)):
        module._layout.cache_clear()
        cached = OperatorSet(reflectors, words=first)
        family = OperatorSet(reflectors, words=second)
        assert family.words is cached.words
        assert all(type(letter) is int for word in family.words for letter in word)


def _reduced_by_identity(generators) -> tuple:
    """The words of build_psi by reducing every subset over object identity,
    without any cache."""
    words, forms = [], set()
    for word in subsets(len(generators)):
        reduced = []
        for i in word:
            if reduced and reduced[-1] is generators[i]:
                reduced.pop()
            else:
                reduced.append(generators[i])
        form = tuple(map(id, reduced))
        if form not in forms:
            forms.add(form)
            words.append(word)
    return tuple(words)


def test_palindrome_of_distinct_copies_gets_unreduced_words():
    """Words reduce by object identity, so a cached palindrome's words do not
    carry over to one whose mirrored reflectors are equal copies."""
    rng = np.random.default_rng(5)
    subspaces = random_family(rng, 6, 3, 1, 4)
    reflectors = reflectors_of(subspaces)
    palindrome = reflectors + reflectors[-2::-1]
    assert len(build_psi(palindrome).words) == len(_reduced_by_identity(palindrome)) < 32
    one_copy = reflectors + [make_reflector(subspaces[1]), reflectors[0]]
    assert build_psi(one_copy).words == _reduced_by_identity(one_copy)
    copies = reflectors + reflectors_of(subspaces[-2::-1])
    assert build_psi(copies).words == tuple(subsets(5))


def test_families_of_one_repeat_pattern_share_words_and_images_bits():
    module = importlib.import_module("circumproj.circumcenter")
    rng = np.random.default_rng(11)
    first = reflectors_of(random_family(rng, 8, 4, 1, 6))
    second = reflectors_of(random_family(rng, 8, 4, 1, 6))
    generators = second + second[-2::-1]
    cached = build_psi(first + first[-2::-1])
    family = build_psi(generators)
    assert family.words is cached.words
    assert family.words == _reduced_by_identity(generators)
    module._psi_words.cache_clear()
    module._layout.cache_clear()
    fresh = build_psi(generators)
    assert fresh.words == family.words and fresh.words is not family.words
    for scale in (1e-6, 1.0, 1e6):
        x = scale * rng.standard_normal(8)
        images = family.images(x)
        assert images.tobytes() == fresh.images(x).tobytes()
        assert images.tobytes() == reference_images(family, x).tobytes()


@given(st.integers(0, 10**6), st.integers(-6, 6))
def test_dedup_keeps_the_oracle_representatives(seed, exponent):
    """Pairs planted at half and twice the threshold, chains included, at
    scales from 1e-6 to 1e6. The diameter, measured directly, is the exact
    one to a few rounding errors."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    points = list(10.0 ** exponent * rng.standard_normal((int(rng.integers(1, 5)), dim)))
    threshold = merge_threshold(max(float(np.linalg.norm(p)) for p in points))
    for _ in range(int(rng.integers(1, 8))):
        source = points[int(rng.integers(len(points)))]
        factor = 0.5 if rng.integers(2) else 2.0
        points.append(source + factor * threshold * unit_vector(rng, dim))
    points = np.array(points)[rng.permutation(len(points))]
    assert merged_rows(points) == oracle_dedup(points)
    exact = math.sqrt(max(sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q))
                          for p in points for q in points))
    assert abs(_diameter(points) - exact) <= 1e-12 * exact


def test_operator_set_deduplicates_solver_entries():
    reflector = make_reflector(LINE_X)
    family = OperatorSet([identity(2), reflector, make_reflector(LINE_X)])
    plain = OperatorSet([identity(2), reflector])
    x = np.array([1.0, 2.0])
    result = circumcenter(family.images(x))
    assert len(result.coefficients) + 1 == 2, (
        f"duplicate reflector should collapse for the solver, got {result.coefficients}"
    )
    # the duplicate does not change the circumcenter
    assert np.allclose(result.center, circumcenter(plain.images(x)).center)


def test_build_psi_frozen_order_and_size():
    reflectors = reflectors_of([LINE_X, LINE_DIAG])
    family = build_psi(reflectors)
    assert family.words == ((), (0,), (1,), (0, 1)), (
        "words run by size, then lexicographically; the pair applies the lower index first"
    )


def test_build_psi_rejects_bad_inputs():
    rotation = AffineIsometry(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        build_psi([rotation])  # not symmetric
    anchored = make_reflector(AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]]))
    with pytest.raises(ValueError):
        build_psi([anchored])  # not linear
    many = reflectors_of([LINE_X] * 17)
    with pytest.raises(ValueError):
        build_psi(many)


def test_build_psi_decides_symmetry_by_the_rule_of_sym_map():
    """A reflection turned by theta = 6e-11 is asymmetric by 1.2e-10, above
    EQ_TOL but within EQ_TOL * (1 + max|Q|), the rule that ``sym_map`` and
    ``accel_map`` apply; build_psi accepts it by the same rule."""
    c, s = math.cos(6e-11), math.sin(6e-11)
    turned = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.diag([1.0, 1.0, -1.0])
    op = AffineIsometry(turned, np.zeros(3))
    assert float(np.max(np.abs(turned - turned.T))) > EQ_TOL
    assert _is_self_adjoint(op)
    assert build_psi([op]).words == ((), (0,))


def test_word_budget_rejects_before_any_buffer_is_allocated(monkeypatch):
    """A family of more than WORD_LIMIT = 8192 words fails at construction,
    and build_psi over more than 13 reflectors before it enumerates a subset,
    so before any image exists."""
    assert len(build_psi(reflectors_of([LINE_X] * 13)).words) == 8192
    many = reflectors_of([LINE_X] * 14)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="16384 words exceed the limit of 8192 words"):
            build_psi(many)
        with pytest.raises(ValueError, match="limit"):
            OperatorSet(many, subsets(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 16384**2 / 100
    # the package binds the name circumcenter to the function
    module = importlib.import_module("circumproj.circumcenter")
    monkeypatch.setattr(module, "WORD_LIMIT", 8)
    assert len(OperatorSet(many[:3], subsets(3)).words) == 8
    with pytest.raises(ValueError, match="9 words exceed the limit of 8 words"):
        OperatorSet(many[:3], subsets(3) + [(2, 1)])


def test_numerical_properness_error_carries_diagnostics(monkeypatch):
    """Collinear unequal images have no circumcenter; the mapping must say so.

    A family of isometries with a common fixed point never has such images,
    so the guard is exercised by rigging the images, the way a corrupted
    family would look.
    """
    family = OperatorSet([identity(1)])
    monkeypatch.setattr(OperatorSet, "images",
                        lambda self, x: np.array([[0.0], [1.0], [3.0]]))
    with pytest.raises(NumericalPropernessError) as excinfo:
        circumcenter_map(family, np.array([0.0]))
    assert excinfo.value.spread > 0.1
    assert excinfo.value.residual == circumcenter(np.array([[0.0], [1.0], [3.0]])).equidistance_residual


@given(st.integers(0, 10**6))
def test_equidistance_residual_is_the_inconsistency_of_the_system(seed):
    """||h/2 - D y|| for the offsets D from p0, h_i = ||d_i||^2 and the
    candidate's offset y, measured here from the center (or, when there is
    none, from the coefficients); large when no circumcenter exists."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((int(rng.integers(2, 8)), int(rng.integers(1, 5))))
    result = circumcenter(points)
    p0, offsets = points[0], points[1:] - points[0]
    half = 0.5 * np.sum(offsets * offsets, axis=1)
    candidate = p0 + offsets.T @ result.coefficients if result.center is None else result.center
    expected = float(np.linalg.norm(half - offsets @ (candidate - p0)))
    assert abs(result.equidistance_residual - expected) <= 1e-12 * float(np.linalg.norm(half))
    collinear = circumcenter(np.array([[0.0], [1.0], [3.0]]))
    # h/2 = (0.5, 4.5) against D = (1, 3): least squares y = 1.4, residual sqrt(0.9)
    assert collinear.center is None
    assert collinear.equidistance_residual == pytest.approx(np.sqrt(0.9), rel=1e-12)


@given(st.integers(0, 10**6), st.integers(-6, 6))
def test_center_is_p0_plus_offsets_times_coefficients(seed, exponent):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    points = 10.0**exponent * rng.standard_normal((int(rng.integers(1, dim + 2)), dim))
    result = circumcenter(points)
    assert result.center is not None
    p0, offsets = points[0], points[1:] - points[0]
    assert result.coefficients.shape == (points.shape[0] - 1,)
    scale = float(np.linalg.norm(p0) + np.linalg.norm(offsets) * np.linalg.norm(result.coefficients))
    assert np.linalg.norm(p0 + offsets.T @ result.coefficients - result.center) <= 1e-13 * scale


@given(st.integers(0, 10**6))
def test_circumcenter_map_is_proper_for_reflector_families(seed):
    """Families of subspace reflectors always produce a circumcenter."""
    rng = np.random.default_rng(seed)
    family = random_family(rng, 4, int(rng.integers(1, 4)), 1, 3)
    operator_set = build_psi(reflectors_of(family))
    x = 2.0 * rng.standard_normal(4)
    center = circumcenter_map(operator_set, x)
    images = operator_set.images(x)
    dists = np.linalg.norm(images - center, axis=1)
    assert float(dists.max() - dists.min()) < 1e-8 * (1.0 + float(dists.max()))


@given(st.integers(0, 10**6))
def test_circumcenter_map_translation_identity(seed):
    """C(x) = z + C_linear(x - z) for the family translated by z."""
    rng = np.random.default_rng(seed)
    linear_family = random_family(rng, 4, 2, 1, 3)
    z = rng.standard_normal(4)
    anchored = [AffineSubspace.from_span(z + s.anchor, s.basis) for s in linear_family]
    operator_set = OperatorSet(reflectors_of(anchored))
    assert contains(operator_set.common_fixed, z)
    linear = OperatorSet(reflectors_of(linear_family))
    x = rng.standard_normal(4) * 2.0
    direct = circumcenter_map(operator_set, x)
    via_shift = z + circumcenter_map(linear, x - z)
    assert np.allclose(direct, via_shift, atol=1e-8 * (1.0 + np.linalg.norm(x)))


def test_shifted_family_images_equal_dense_products():
    rng = np.random.default_rng(31)
    z = rng.standard_normal(4)
    anchored = [AffineSubspace.from_span(z + s.anchor, s.basis)
                for s in random_family(rng, 4, 3, 1, 3)]
    reflectors = reflectors_of(anchored)
    words = ((), (0,), (1,), (0, 1), (2,), (0, 2), (0, 1, 2))
    family = OperatorSet(reflectors, words)
    dense = []
    for word in words:
        product = identity(4)
        for i in word:
            product = compose(reflectors[i], product)
        dense.append(product)
    y = 2.0 * rng.standard_normal(4)
    assert np.allclose(family.images(y), [op.apply(y) for op in dense], rtol=0.0, atol=1e-12)


@given(st.integers(0, 10**6))
def test_pythagoras_identity_at_the_circumcenter(seed):
    """||x - z||^2 splits into ||Cx - z||^2 + ||x - Cx||^2 for fixed z."""
    rng = np.random.default_rng(seed)
    family = random_family(rng, 5, 2, 2, 4)
    operator_set = build_psi(reflectors_of(family))
    common = operator_set.common_fixed
    z = common.project(3.0 * rng.standard_normal(5))
    x = 2.0 * rng.standard_normal(5)
    center = circumcenter_map(operator_set, x)
    lhs = np.linalg.norm(center - z) ** 2 + np.linalg.norm(center - x) ** 2
    rhs = np.linalg.norm(x - z) ** 2
    assert abs(lhs - rhs) < 1e-8 * (1.0 + rhs), f"split {lhs} vs direct {rhs}"
