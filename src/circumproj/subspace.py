"""Affine and linear subspaces of R^n.

A subspace is stored as an anchor point plus an orthonormal basis of its
direction space, so projection is a single matrix-vector product and every
higher-level construction (complements, intersections, affine hulls)
reduces to the kernels in :mod:`circumproj.numerics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import (
    CONSISTENCY_TOL,
    EQ_TOL,
    _ORTHONORMALITY_TOL,
    _certifies_full_rank,
    _norm,
    as_vector,
    orthonormal_basis,
    solution_set,
)

__all__ = [
    "AffineSubspace",
    "Intersection",
    "intersect",
    "affine_hull",
    "subspace_from_literal",
]


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """An affine subspace given by one of its points and a direction basis.

    ``basis`` is an (r, n) array with orthonormal rows; r == 0 encodes a
    single point. The subspace is linear exactly when the origin belongs to
    it, see :meth:`is_linear`.
    """

    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        anchor = as_vector(self.anchor)
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[1] != anchor.shape[0]:
            raise ValueError(
                "basis must be a 2-d array whose rows live in the anchor's space"
            )
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis entries must be finite")
        if basis.shape[0] > basis.shape[1]:
            raise ValueError("more basis vectors than ambient dimensions")
        if basis.shape[0] > 0:
            gram = basis @ basis.T
            defect = np.max(np.abs(gram - np.eye(basis.shape[0])))
            if defect > _ORTHONORMALITY_TOL:
                raise ValueError(
                    f"basis rows must be orthonormal to {_ORTHONORMALITY_TOL:g}, "
                    f"defect {defect:.3e}"
                )
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "basis", np.ascontiguousarray(basis))

    @property
    def ambient_dim(self) -> int:
        return self.anchor.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_span(cls, anchor, span) -> "AffineSubspace":
        """Build from a point and a raw, not necessarily orthonormal, span."""
        anchor = as_vector(anchor)
        span_arr = np.asarray(span, dtype=float)
        if span_arr.size == 0:
            return cls(anchor, np.zeros((0, anchor.shape[0])))
        return cls(anchor, orthonormal_basis(span_arr))

    @classmethod
    def linear(cls, span) -> "AffineSubspace":
        """Linear subspace spanned by the given vectors, anchored at 0; {0}
        is ``point(np.zeros(n))``."""
        basis = orthonormal_basis(np.asarray(span, dtype=float))
        return cls(np.zeros(basis.shape[1]), basis)

    @classmethod
    def point(cls, anchor) -> "AffineSubspace":
        anchor = as_vector(anchor)
        return cls(anchor, np.zeros((0, anchor.shape[0])))

    def _check_dim(self, x: np.ndarray) -> None:
        if x.shape[0] != self.ambient_dim:
            raise ValueError(
                f"point has dimension {x.shape[0]}, subspace lives in R^{self.ambient_dim}"
            )

    def projector_matrix(self) -> np.ndarray:
        """The n x n orthogonal projector onto the direction space."""
        return self.basis.T @ self.basis

    def project(self, x) -> np.ndarray:
        """Nearest point of the subspace."""
        x = as_vector(x)
        self._check_dim(x)
        return self._project(x)

    def _project(self, x: np.ndarray) -> np.ndarray:  # x: finite, of this dimension
        return self.anchor + self.basis.T @ (self.basis @ (x - self.anchor))

    def contains(self, x) -> bool:
        """Membership up to CONSISTENCY_TOL relative to ||x||."""
        x = as_vector(x)
        gap = float(np.linalg.norm(self.project(x) - x))
        return gap <= CONSISTENCY_TOL * (1.0 + float(np.linalg.norm(x)))

    def is_linear(self) -> bool:
        """True when the subspace passes through the origin."""
        zero = np.zeros(self.ambient_dim)
        gap = float(np.linalg.norm(self.project(zero)))
        return gap <= EQ_TOL * (1.0 + float(np.linalg.norm(self.anchor)))

    def orthogonal_complement(self) -> "AffineSubspace":
        """Orthogonal complement; defined for linear subspaces only."""
        if not self.is_linear():
            raise ValueError("orthogonal complement is defined for linear subspaces only")
        _, comp, _ = solution_set(self.basis, np.zeros(self.dim))
        return AffineSubspace(np.zeros(self.ambient_dim), comp)

    def translate(self, z) -> "AffineSubspace":
        """The subspace shifted by z. No caller yet: it is kept for running an
        affine instance as a linear one, translated through a common point
        (see ROADMAP.md)."""
        return AffineSubspace(self.anchor + as_vector(z), self.basis)


@dataclass(frozen=True)
class Intersection:
    """Result of intersecting affine subspaces.

    ``subspace`` is None when the inputs share no common point; ``residual``
    is the smallest constraint violation achieved by any point, which
    diagnoses near-empty configurations.
    """

    subspace: Optional[AffineSubspace]
    residual: float

    @property
    def is_empty(self) -> bool:
        return self.subspace is None


def intersect(subspaces: Sequence[AffineSubspace]) -> Intersection:
    """Intersect finitely many affine subspaces.

    x lies in the subspace with anchor a and projector P exactly when
    (I - P) x = (I - P) a. One :func:`solution_set` call on these blocks,
    stacked, gives the anchor of the intersection (the minimum-norm
    solution) and its direction (the null space). Summing the blocks instead
    would square their condition number. For two or more subspaces through
    the origin, the Gram matrix of the stack, summed one block at a time by
    :func:`_certifies_full_rank`, first tries to certify that they meet at
    0 alone, and never solves; the blocks are stacked only when it fails or
    some anchor is not the origin, so a certified intersection holds O(n^2)
    memory, not the m n x n blocks. The intersection is empty when the
    residual exceeds CONSISTENCY_TOL relative to the data scale.
    """
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace to intersect")
    n = subspaces[0].ambient_dim
    for s in subspaces[1:]:
        if s.ambient_dim != n:
            raise ValueError("subspaces live in different ambient dimensions")
    eye = np.eye(n)
    linear = not any(np.any(s.anchor) for s in subspaces)
    if linear and len(subspaces) * n > n and _certifies_full_rank(
            eye - s.projector_matrix() for s in subspaces):
        return Intersection(AffineSubspace.point(np.zeros(n)), 0.0)
    blocks = np.empty((len(subspaces), n, n))
    for block, s in zip(blocks, subspaces):
        np.subtract(eye, s.projector_matrix(), out=block)
    rhs = np.concatenate([block @ s.anchor for block, s in zip(blocks, subspaces)])
    anchor, direction, residual = solution_set(blocks.reshape(-1, n), rhs)
    if residual > CONSISTENCY_TOL * (1.0 + _norm(rhs)):
        return Intersection(None, residual)
    return Intersection(AffineSubspace(anchor, direction), residual)


def affine_hull(points) -> AffineSubspace:
    """Affine hull of a finite nonempty point set."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("expected a nonempty 2-d array of points")
    anchor = pts[0]
    if pts.shape[0] == 1:
        return AffineSubspace.point(anchor)
    return AffineSubspace(anchor, orthonormal_basis(pts[1:] - anchor))


def subspace_from_literal(obj) -> AffineSubspace:
    """Load a subspace from its literal form.

    The literal is a mapping with keys "anchor" (list of floats) and
    "span" (list of raw span vectors, orthonormalized on load). Either key
    may be omitted: a missing anchor means the origin, a missing span means
    a single point. At least one key must be present.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"subspace literal must be a mapping, got {type(obj).__name__}")
    if "anchor" not in obj and "span" not in obj:
        raise ValueError("subspace literal needs an 'anchor' or a 'span' key")
    span = obj.get("span")
    if "anchor" in obj:
        anchor = as_vector(obj["anchor"])
    else:
        span_arr = np.asarray(span, dtype=float)
        if span_arr.ndim != 2:
            raise ValueError("subspace literal 'span' must be a list of vectors")
        anchor = np.zeros(span_arr.shape[1])
    if span is None:
        return AffineSubspace.point(anchor)
    return AffineSubspace.from_span(anchor, span)
