"""Shared builders for seeded random test instances."""

from itertools import combinations

import numpy as np

from circumproj import AffineSubspace, compose, identity, make_reflector


def random_linear_subspace(rng: np.random.Generator, ambient_dim: int,
                           dim: int) -> AffineSubspace:
    return AffineSubspace.linear(rng.standard_normal((dim, ambient_dim)))


def random_family(rng: np.random.Generator, ambient_dim: int, count: int,
                  dim_low: int, dim_high: int):
    dims = rng.integers(dim_low, dim_high + 1, size=count)
    return [random_linear_subspace(rng, ambient_dim, int(d)) for d in dims]


def reflectors_of(subspaces):
    return [make_reflector(s) for s in subspaces]


def unit_vector(rng: np.random.Generator, ambient_dim: int) -> np.ndarray:
    raw = rng.standard_normal(ambient_dim)
    return raw / float(np.linalg.norm(raw))


def subsets(count: int) -> list:
    """Index subsets of range(count), by size, then lexicographically."""
    return [c for size in range(count + 1) for c in combinations(range(count), size)]


def dense_product(ops, word):
    """The composed operator that applies ops[word[0]] first."""
    product = identity(ops[0].ambient_dim)
    for i in word:
        product = compose(ops[i], product)
    return product
