"""The circumcenter step's dedup finds its near pairs by one sort.

``_merge`` projects the points onto a fixed unit vector, sorts the
projections and measures only pairs whose projected gaps chain within a
window a little wider than the dedup threshold. The window must be wide
enough for every pair within the threshold, the direction must decide only
which pairs are measured, and the O(k^2 n) diameter must stay off the
iteration's path: only a step whose spread exceeds CONSISTENCY_TOL needs
it.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    MethodConfig,
    OperatorSet,
    build_psi,
    generate_instance,
    run_cim,
)
from circumproj.circumcenter import _direction
from helpers import (
    merged_rows,
    random_family,
    reference_distinct,
    reflectors_of,
    unit_vector,
)
from oracles import merge_threshold

module = importlib.import_module("circumproj.circumcenter")


def _planted(rng, dim: int, scale: float, direction: np.ndarray, factors) -> np.ndarray:
    """A few points at ``scale``, then copies of them moved by each factor
    times the dedup threshold along ``direction`` or its negative."""
    points = list(scale * rng.standard_normal((int(rng.integers(1, 5)), dim)))
    threshold = merge_threshold(max(float(np.linalg.norm(p)) for p in points))
    for factor in factors:
        source = points[int(rng.integers(len(points)))]
        sign = 1.0 if rng.integers(2) else -1.0
        points.append(source + sign * factor * threshold * direction)
    return np.array(points)[rng.permutation(len(points))]


@pytest.mark.parametrize("exponent", range(-6, 7))
def test_pairs_planted_along_the_sort_direction_match_the_reference(exponent):
    """Along the sort direction a pair's projected gap is its distance, so
    pairs at (1 +- 1e-9) times the threshold sit at the window's edge."""
    rng = np.random.default_rng(exponent + 6)
    for dim in range(1, 61):
        points = _planted(rng, dim, 10.0 ** exponent, _direction(dim),
                          (1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-9, 0.5, 2.0))
        kept = merged_rows(points)
        assert list(kept) == list(reference_distinct(points)[0]), dim


def test_the_direction_is_a_fixed_unit_vector_per_dimension():
    """Cached per dimension, read-only, and drawn again bit for bit, so it
    depends on nothing but the dimension."""
    for dim in (1, 2, 30, 60, 200):
        direction = _direction(dim)
        assert direction.shape == (dim,)
        assert abs(float(np.linalg.norm(direction)) - 1.0) <= 1e-15
        assert not direction.flags.writeable
        assert _direction(dim) is direction
        _direction.cache_clear()
        assert _direction(dim).tobytes() == direction.tobytes()


@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(-6, 6), st.booleans())
def test_the_kept_points_do_not_depend_on_the_sort_direction(seed, dim, exponent, along):
    """Any unit vector as the direction keeps the same points, with the
    pairs planted along it or along the fixed one."""
    rng = np.random.default_rng(seed)
    direction = unit_vector(rng, dim)
    factors = rng.choice([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0], size=int(rng.integers(0, 10)))
    points = _planted(rng, dim, 10.0 ** exponent,
                      direction if along else _direction(dim), factors)
    kept = merged_rows(points)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_direction", lambda n: direction)
        turned = merged_rows(points)
    assert list(turned) == list(kept) == list(reference_distinct(points)[0])


def _count_diameter_calls(monkeypatch) -> list:
    calls = []
    diameter = module._diameter
    monkeypatch.setattr(module, "_diameter",
                        lambda points: calls.append(points.shape) or diameter(points))
    return calls


def test_the_diameter_stays_off_the_342_image_steps(monkeypatch):
    """The symmetrized psi family over 5 reflectors in R^60: its first step,
    342 distinct images, and its converged ones, where they coincide."""
    rng = np.random.default_rng(2024)
    reflectors = reflectors_of(random_family(rng, 60, 5, 1, 30))
    family = build_psi(reflectors + reflectors[-2::-1])
    assert len(family.words) == 342
    calls = _count_diameter_calls(monkeypatch)
    trace = run_cim(family, unit_vector(rng, 60),
                    MethodConfig("cim", max_iters=60, stop_tol=1e-11))
    assert len(trace.iterates) >= 2
    assert calls == []


def test_the_diameter_stays_off_the_small_families(monkeypatch):
    """Three subspaces of dimension 21 in R^30: 50 steps of psi (8 images,
    one image equal to x), of Id with the reflectors, and of Id with the
    prefix products."""
    rng = np.random.default_rng(4242)
    subspaces, x0, _ = generate_instance(30, 3, (21, 21), rng)
    reflectors = reflectors_of(subspaces)
    families = (
        build_psi(reflectors),
        OperatorSet(reflectors, [(), (0,), (1,), (2,)]),
        OperatorSet(reflectors, [(), (0,), (0, 1), (0, 1, 2)]),
    )
    calls = _count_diameter_calls(monkeypatch)
    for family in families:
        trace = run_cim(family, x0, MethodConfig("cim", max_iters=50, stop_tol=0.0))
        assert len(trace.iterates) == 51
    assert calls == []
