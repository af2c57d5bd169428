"""Shared builders for seeded random test instances."""

from itertools import combinations

import numpy as np

from circumproj import (
    AffineSubspace,
    CircumcenterResult,
    Tolerance,
    as_vector,
    compose,
    identity,
    make_reflector,
)
from circumproj.numerics import _norm
from circumproj.rates import _slack


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


# The circumcenter step as the library wrote it with numpy's generic
# wrappers: one temporary or wrapper call per formula. The library's step
# must reproduce these bit for bit, so keep them as they are.

def reference_distinct(points: np.ndarray, tol: Tolerance) -> tuple:
    """Greedy first-occurrence representatives at eq_tol, and the diameter."""
    gram = points @ points.T
    norms_sq = np.diag(gram)
    threshold = tol.eq_tol * (1.0 + float(np.sqrt(np.max(norms_sq))))
    pair_sq = norms_sq[:, None] + norms_sq
    dist_sq = np.subtract(pair_sq, np.multiply(gram, 2.0, out=gram), out=gram)
    threshold_sq = threshold**2
    margin = np.multiply(np.add(pair_sq, threshold_sq, out=pair_sq),
                         4.0 * (points.shape[1] + 2) * np.finfo(float).eps, out=pair_sq)
    near = dist_sq <= np.add(margin, threshold_sq, out=margin)
    keep = np.ones(points.shape[0], dtype=bool)
    for i in np.flatnonzero(near.sum(axis=1) > 1):
        for j in np.flatnonzero(near[i, :i] & keep[:i]):
            if float(np.linalg.norm(points[i] - points[j])) <= threshold:
                keep[i] = False
                break
    return np.flatnonzero(keep), float(np.sqrt(max(float(np.max(dist_sq)), 0.0)))


def reference_circumcenter(points, tol: Tolerance) -> CircumcenterResult:
    """Circumcenter of a finite point set from one thin SVD of the offsets."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    kept, diameter = reference_distinct(pts, tol)
    rep = pts[kept]
    p0 = rep[0]
    offsets = rep[1:] - p0
    if offsets.shape[0] == 0:
        dists = np.linalg.norm(pts - p0, axis=1)
        spread = float(np.max(dists) - np.min(dists))
        return CircumcenterResult(p0.copy(), np.zeros(0), spread, 0.0)
    half = 0.5 * np.einsum("ij,ij->i", offsets, offsets)
    u, s, vt = np.linalg.svd(offsets, full_matrices=False)
    rank = int(np.sum(s > s[0] * tol.rank_tol))
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    projected = u.T @ half
    coords = projected / s
    candidate = p0 + vt.T @ coords
    dists = np.linalg.norm(pts - candidate, axis=1)
    spread = float(np.max(dists) - np.min(dists))
    center = candidate if spread <= tol.consistency_tol * (1.0 + diameter) else None
    residual = float(np.linalg.norm(half - u @ projected))
    return CircumcenterResult(center, u @ (coords / s), spread, residual)


def reference_images(operator_set, x) -> np.ndarray:
    """The images of x under the words of an operator set, by a walk over a
    dict keyed by word."""
    image = {(): as_vector(x)}
    for word in operator_set.words:
        if word not in image:
            gen = operator_set.generators[word[-1]]
            image[word] = gen.Q @ image[word[:-1]] + gen.b
    return np.array([image[word] for word in operator_set.words])


# The trace CSV as the library wrote it row by row, one float formatting
# call per field. The library's column-wise writer must reproduce it byte
# for byte, so keep it as it is.

def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def reference_trace_csv(trace) -> str:
    """``k,x_norm,error,step_norm`` rows at 17 significant digits."""
    lines = ["k,x_norm,error,step_norm"]
    steps = trace.step_norms()
    for k, row in enumerate(trace.iterates):
        lines.append(
            f"{k},{_fmt17(_norm(row))},{_fmt17(trace.errors[k])},{_fmt17(steps[k])}"
        )
    return "\n".join(lines) + "\n"


# The rate CSV as the library wrote it row by row, one f-string per row. The
# library's one-pass writer must reproduce it byte for byte, so keep it as it
# is.

def reference_rate_csv(report) -> str:
    """``k,error,bound,slack`` rows, every float by its repr."""
    lines = ["k,error,bound,slack"]
    for k, observed, bound, _ in report.per_iteration:
        slack = _slack(observed, bound)
        lines.append(f"{k},{observed!r},{bound!r},{slack!r}")
    return "\n".join(lines) + "\n"
