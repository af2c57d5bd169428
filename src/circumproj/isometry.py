"""Affine isometries of R^n and the averaged maps built from them.

An affine map is x -> A x + b. An affine isometry is an affine map whose
linear part is orthogonal, a property checked at construction so it cannot
be forged; :class:`AffineIsometry` is the subclass of :class:`AffineMap`
that checks it. The averaged combinations of isometries are affine maps,
nonexpansive but no longer isometric, and only their builders certify
their averagedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from .numerics import (
    CONSISTENCY_TOL,
    EQ_TOL,
    _ORTHONORMALITY_TOL,
    _consistent,
    _orthonormality_defect,
    _safe_norm,
    as_matrix,
    as_vector,
    solution_set,
    sym_eigen_extremes,
)
from .subspace import AffineSubspace

__all__ = [
    "AffineIsometry",
    "AffineMap",
    "identity",
    "make_reflector",
    "compose",
    "fixed_point_set",
    "build_sum_averaged",
    "build_product_averaged",
]

# The relaxation parameters alpha and lambda of the averaged-map builders.
_UNIFORM_ALPHA = 0.5
_UNIFORM_LAMBDA = 0.5

_T = TypeVar("_T")


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; the array itself stays as it was."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> A x + b with arbitrary linear part.

    ``averagedness`` is the averaged builders' certificate: it is not a
    constructor argument, and only :func:`build_sum_averaged` and
    :func:`build_product_averaged` set it; every other map carries None.

    ``A`` and ``b`` are read-only views of the arrays passed in, not
    copies, so the spectral data of A (its symmetric eigenvalue extremes and
    its rates off fixed subspaces) is computed once per operator and cached
    on it as scalars. Changing the passed array afterwards is unsupported.
    """

    A: np.ndarray
    b: np.ndarray
    averagedness: Optional[float] = field(default=None, init=False)
    _spectral: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        A = as_matrix(self.A)
        b = as_vector(self.b)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"linear part must be square, got shape {A.shape}")
        if A.shape[0] != b.shape[0]:
            raise ValueError("linear part and offset dimensions differ")
        object.__setattr__(self, "A", _read_only(np.ascontiguousarray(A)))
        object.__setattr__(self, "b", _read_only(b))

    def _spectral_datum(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()``, a scalar function of A, evaluated once per key."""
        if key not in self._spectral:
            self._spectral[key] = compute()
        return self._spectral[key]

    @property
    def ambient_dim(self) -> int:
        return self.b.shape[0]

    def apply(self, x) -> np.ndarray:
        x = as_vector(x)
        return self.A @ x + self.b

    def is_linear(self) -> bool:
        """Whether the offset is 0 within EQ_TOL. Every test of an
        operator's linearity goes through here, so it means one thing."""
        return float(np.linalg.norm(self.b)) <= EQ_TOL


@dataclass(frozen=True, eq=False)
class AffineIsometry(AffineMap):
    """x -> A x + b with A orthogonal.

    Construction validates the parts as :class:`AffineMap` does, then
    rejects any A with ||A^T A - I||_max above 1e-10, so every value of this
    type is an isometry by construction, and its read-only parts keep it
    one. An :class:`AffineMap` whose A happens to be orthogonal is not an
    isometry of this type: the builders and operator sets refuse it.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        defect = _orthonormality_defect(self.A.T)
        if defect > _ORTHONORMALITY_TOL:
            raise ValueError(f"linear part is not orthogonal, defect {defect:.3e}")


def identity(ambient_dim: int) -> AffineIsometry:
    return AffineIsometry(np.eye(ambient_dim), np.zeros(ambient_dim))


def make_reflector(subspace: AffineSubspace) -> AffineIsometry:
    """Reflector through an affine subspace, x -> 2 project(x) - x.

    For a linear subspace the offset is exactly zero and the linear part is
    symmetric orthogonal. The linear part 2P - I is formed in the
    projector's own array: off the diagonal 2p - 0.0 is 2p, signed zeros
    included.
    """
    P = subspace.projector_matrix()
    b = 2.0 * (subspace.anchor - P @ subspace.anchor)
    P *= 2.0
    P.flat[::subspace.ambient_dim + 1] -= 1.0
    return AffineIsometry(P, b)


def compose(second: AffineIsometry, first: AffineIsometry) -> AffineIsometry:
    """The isometry 'second after first'."""
    if second.ambient_dim != first.ambient_dim:
        raise ValueError("cannot compose isometries of different dimensions")
    return AffineIsometry(second.A @ first.A, second.A @ first.b + second.b)


def _direction_gap(op: AffineMap, fixed: AffineSubspace) -> float:
    """The largest distance that op's linear part moves a basis direction of
    ``fixed``, every direction by one product; 0.0 when ``fixed`` is a point."""
    return float(np.max(np.linalg.norm(fixed.basis @ op.A.T - fixed.basis, axis=1), initial=0.0))


def _require_fixed(ops: Iterable[AffineMap], fixed: AffineSubspace, name: str) -> None:
    """Raise ValueError unless every operator of ``ops`` fixes ``fixed``: its
    anchor by ``_consistent``, relative to the anchor, and each basis
    direction within CONSISTENCY_TOL. ``name`` names the operator in the
    message."""
    for op in ops:
        if fixed.ambient_dim != op.ambient_dim:
            raise ValueError("fixed set and operators live in different dimensions")
        anchor_gap = _safe_norm(op.A @ fixed.anchor + op.b - fixed.anchor)
        direction_gap = _direction_gap(op, fixed)
        if not _consistent(anchor_gap, fixed.anchor) or direction_gap > CONSISTENCY_TOL:
            raise ValueError(
                f"{name} moves the given fixed set, anchor gap {anchor_gap:.3e}, "
                f"direction gap {direction_gap:.3e}"
            )


def fixed_point_set(op: AffineMap) -> Optional[AffineSubspace]:
    """Fixed points of an affine operator, or None when there are none.

    The solution set of (M - I) x = -b, from one :func:`solution_set`
    call; see :func:`_common_fixed_points`. Works for general affine maps
    too, which is how Douglas-Rachford operators get their fixed sets.
    """
    return _common_fixed_points((op,))


def _common_fixed_points(ops: Sequence[AffineMap]) -> Optional[AffineSubspace]:
    """Points fixed by every operator, or None when there are none: the
    solution set of the stacked systems (M_i - I) x = -b_i, from one
    :func:`solution_set` call, empty unless ``_consistent`` accepts its
    residual relative to the stacked offsets. Unlike :func:`intersect`
    it asks no Gram certificate first: the runner gives its psi and averaged
    families their fixed set, so it comes here for one operator or a custom
    family. The blocks M_i - I are written into the one stacked array, and
    no identity is formed: off the diagonal m - 0.0 is m."""
    n = ops[0].ambient_dim
    rhs = -np.concatenate([op.b for op in ops])
    system = np.empty((len(ops) * n, n))
    for block, op in zip(system.reshape(len(ops), n, n), ops):
        block[...] = op.A
        block.flat[::n + 1] -= 1.0
    anchor, direction, residual = solution_set(system, rhs)
    if not _consistent(residual, rhs):
        return None
    return AffineSubspace(anchor, direction)


def _linear_isometry_parts(operators: Sequence[AffineIsometry]) -> Iterator[np.ndarray]:
    """The linear parts of ``operators``, read once each and in order.

    Each operator is checked as it is read, against the dimension of the
    first, so a builder fed a lazy sequence holds no list of them."""
    if len(operators) == 0:
        raise ValueError("need at least one operator")

    def parts() -> Iterator[np.ndarray]:
        n = None
        for op in operators:
            if not isinstance(op, AffineIsometry):
                raise ValueError("averaged builders take affine isometries")
            n = op.ambient_dim if n is None else n
            if op.ambient_dim != n:
                raise ValueError("operators live in different dimensions")
            if not op.is_linear():
                raise ValueError("averaged builders require linear isometries")
            yield op.A

    return parts()


def _relaxed(X: np.ndarray, c: float, out: Optional[np.ndarray]) -> np.ndarray:
    """(1 - c) I + c X, formed in ``out`` (which may be X itself), or in a
    new array when ``out`` is None. Adding 0.0 after c X turns -0.0 into
    +0.0 off the diagonal, as 0.0 + c x does, so the bits are those of the
    expression."""
    out = np.multiply(X, c, out=out)
    out += 0.0
    out.flat[::out.shape[0] + 1] += 1.0 - c
    return out


def _certified(A: np.ndarray, m: int, w: float, a: float) -> AffineMap:
    """The linear map A, carrying the averagedness sum_i w a of m relaxed
    terms of weight w and alpha a: the one place that sets the certificate."""
    op = AffineMap(A, np.zeros(A.shape[0]))
    object.__setattr__(op, "averagedness", sum(w * a for _ in range(m)))
    return op


def build_sum_averaged(operators: Sequence[AffineIsometry]) -> AffineMap:
    """Uniform sum of relaxed operators.

    A = sum_i w ((1 - a) I + a F_i) for m linear isometries F_i, with
    weight w = 1/m and alpha a = 1/2. The result is averaged with constant
    sum_i w a and shares the common fixed set of the F_i. The operators are
    read once, in order, and each term is formed in one reused buffer.
    """
    parts = _linear_isometry_parts(operators)
    m = len(operators)
    w, a = 1.0 / m, _UNIFORM_ALPHA
    # the first A += term is 0.0 + term, which makes A's array with the bits
    # of a zero start
    A, term = 0.0, None
    for Q in parts:
        term = _relaxed(Q, a, out=term)
        term *= w
        A += term
    return _certified(A, m, w, a)


def build_product_averaged(operators: Sequence[AffineIsometry]) -> AffineMap:
    """Uniform sum of relaxed prefix products.

    A_1 = (1 - a) I + a F_1 and, for i >= 2,
    A_i = (1 - a) I + a ((1 - l) I + l F_i) F_{i-1} ... F_1,
    combined as A = sum_i w A_i, with weight w = 1/m for m linear
    isometries and a = l = 1/2. Also averaged with constant sum_i w a and
    fixed set equal to the common fixed set of the F_i. The operators are
    read once, in order; each A_i is added to A as it is formed, in one
    term buffer, and the prefix product and the inner factor take turns in
    two more.
    """
    parts = _linear_isometry_parts(operators)
    m = len(operators)
    w, a, lam = 1.0 / m, _UNIFORM_ALPHA, _UNIFORM_LAMBDA
    prefix = next(parts).copy()  # F_{i-1} .. F_1 when A_i is formed
    term = _relaxed(prefix, a, out=None)
    term *= w
    A = 0.0 + term
    spare = None
    for i, Q in enumerate(parts, start=2):
        inner = _relaxed(Q, lam, out=spare)
        term = _relaxed(np.matmul(inner, prefix, out=term), a, out=term)
        term *= w
        A += term
        if i < m:
            # the inner factor is read; its buffer takes the next prefix
            prefix, spare = np.matmul(Q, prefix, out=inner), prefix
    return _certified(A, m, w, a)


def _accelerated_step(A: np.ndarray, x: np.ndarray, fixed: AffineSubspace) -> np.ndarray:
    """One step of the line-search acceleration of the linear map T = A:
    x - t d, with y = x - P_F x (x itself when F = {0}), d = y - T y and
    t = <y, d> / ||d||^2. F must be T's fixed set: ``run_linear`` checks that,
    and once that T is linear, self-adjoint and nonexpansive. T then fixes
    P_F x, so this is the step t T x + (1 - t) x, t = <x, x - Tx> /
    ||x - Tx||^2, without T's rounding of P_F x in t or in d. By Cauchy-Schwarz
    |t| ||d|| <= ||y||: no step moves x farther than its distance to F. The one
    guard is d = 0, which returns x."""
    y = x - fixed._project(x) if fixed.dim else x
    direction = y - A @ y
    direction_sq = float(direction @ direction)
    if direction_sq == 0.0:
        return x
    return x - (float(y @ direction) / direction_sq) * direction


def _is_self_adjoint(op: AffineMap) -> bool:
    """max |M - M^T| <= EQ_TOL (1 + max |M|), in one n x n buffer."""
    M = op.A
    skew = M - M.T
    largest = max(float(M.max()), -float(M.min()))
    return float(np.abs(skew, out=skew).max()) <= EQ_TOL * (1.0 + largest)


def _sym_extremes(op: AffineMap) -> tuple[float, float]:
    """Smallest and largest eigenvalue of op's symmetrized linear part,
    computed once per operator."""
    return op._spectral_datum("sym_extremes", lambda: sym_eigen_extremes(op.A))


def _require_nonexpansive(op: AffineMap) -> None:
    """Raise ValueError unless op is linear, self-adjoint and nonexpansive.

    The norm of a self-adjoint operator is max(-lambda_min, lambda_max), read
    from :func:`_sym_extremes`, which is computed once per operator.
    """
    if not op.is_linear():
        raise ValueError("expected a linear operator")
    if not _is_self_adjoint(op):
        raise ValueError("expected a self-adjoint operator")
    eig_min, eig_max = _sym_extremes(op)
    norm = max(-eig_min, eig_max)
    if norm > 1.0 + EQ_TOL:
        raise ValueError(f"expected a nonexpansive operator, norm {norm:.12f}")

