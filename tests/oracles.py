"""Independent reference implementations used to cross-check derived values.

Everything here deliberately avoids the code paths under test.
Orthonormalization goes through numpy's SVD directly, circumcenters come
from a least-squares solve of the raw equidistance system in hull
coordinates, Friedrichs angles come from scipy's principal-angle routine,
and operator norms come from power iteration.
"""

import numpy as np
from scipy.linalg import subspace_angles


def hull_basis(points, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal rows spanning the direction space of aff(points)."""
    pts = np.asarray(points, dtype=float)
    offsets = pts[1:] - pts[0]
    if offsets.shape[0] == 0:
        return np.zeros((0, pts.shape[1]))
    _, s, vt = np.linalg.svd(offsets, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, pts.shape[1]))
    return vt[s > tol * s[0]]


def oracle_circumcenter(points, tol: float = 1e-8):
    """Equidistant point of aff(points), or None when there is none.

    Solves the linear equidistance system restricted to hull coordinates
    q = p_0 + V^T c, then certifies the candidate by recomputing every
    distance; a spread above tol times the diameter scale means absence.
    """
    pts = np.asarray(points, dtype=float)
    basis = hull_basis(pts)
    p0 = pts[0]
    if basis.shape[0] == 0:
        return p0.copy()
    offsets = pts[1:] - p0
    system = 2.0 * offsets @ basis.T
    rhs = np.sum(offsets * offsets, axis=1)
    coords, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    candidate = p0 + basis.T @ coords
    dists = np.linalg.norm(pts - candidate, axis=1)
    diameter = float(np.max(np.linalg.norm(offsets, axis=1)))
    if float(dists.max() - dists.min()) > tol * (1.0 + diameter):
        return None
    return candidate


def oracle_friedrichs(basis_u: np.ndarray, basis_v: np.ndarray) -> float:
    """Friedrichs angle cosine from scipy's principal angles.

    Zero principal angles belong to shared directions and are skipped; the
    Friedrichs angle is the smallest strictly positive one.
    """
    angles = np.sort(subspace_angles(np.asarray(basis_u, dtype=float).T,
                                     np.asarray(basis_v, dtype=float).T))
    for angle in angles:
        cosine = float(np.cos(angle))
        if cosine < 1.0 - 1e-9:
            return max(cosine, 0.0)
    return 0.0


def oracle_operator_rate(matrix: np.ndarray, fixed_projector: np.ndarray,
                         iters: int = 3000, seed: int = 0) -> float:
    """||M (I - P)|| by power iteration on the normal matrix."""
    mat = np.asarray(matrix, dtype=float)
    n = mat.shape[0]
    restricted = mat @ (np.eye(n) - np.asarray(fixed_projector, dtype=float))
    normal = restricted.T @ restricted
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = normal @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
    return float(np.sqrt(v @ normal @ v))


def merge_threshold(largest_norm: float) -> float:
    """The distance within which the CIM step merges two images,
    64 eps (1 + M) for M the largest image norm: four times the 16 units of
    eps (1 + M) that the step's rounding model allows for the input's
    rounding and for each image's own.

    With :func:`rank_floor`, this is the tests' one statement of the step's
    rounding rule. It restates the rule rather than importing the library's,
    so the tests judge it.
    """
    return 64.0 * np.finfo(float).eps * (1.0 + largest_norm)


def rank_floor(largest_norm: float) -> float:
    """The singular value of the offsets at or below which the CIM step
    cuts a hull direction, besides RANK_TOL times the largest: 16 eps (1 + M),
    an image's own error in the rounding model of :func:`merge_threshold`."""
    return 16.0 * np.finfo(float).eps * (1.0 + largest_norm)


def oracle_dedup(points) -> list:
    """Indices of the greedy first-occurrence representatives of a point set.

    Point i is dropped when it lies within :func:`merge_threshold` of an
    earlier kept point, judged by a plain double loop over direct distances.
    """
    pts = np.asarray(points, dtype=float)
    threshold = merge_threshold(float(np.max(np.linalg.norm(pts, axis=1))))
    kept = []
    for i in range(pts.shape[0]):
        if not any(float(np.linalg.norm(pts[i] - pts[j])) <= threshold for j in kept):
            kept.append(i)
    return kept
