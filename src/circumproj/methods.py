"""Iteration drivers for the best-approximation methods.

Every driver produces an :class:`IterationTrace` whose error column always
measures distance to the projection of the original start point onto the
relevant fixed set, also when a prefix operator was applied to the start.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .circumcenter import OperatorSet, _Stepper
from .isometry import (
    AffineIsometry,
    AffineMap,
    _accelerated_step,
    _linear_isometry_parts,
    _require_fixed,
    _require_nonexpansive,
)
from .numerics import _SHIFT, _norm, as_vector
from .subspace import AffineSubspace

__all__ = [
    "METHOD_TAGS",
    "MethodConfig",
    "IterationTrace",
    "run_cim",
    "run_map",
    "run_linear",
    "map_operator",
    "symmetric_map_operator",
    "dr_operator",
]

METHOD_TAGS = ("cim", "map", "sym_map", "accel_map", "dr", "averaged_iter")
LINEAR_METHODS = ("sym_map", "accel_map", "dr", "averaged_iter")

# the lower end of the range [1/sqrt 2, sqrt 2) that _scale puts a norm in
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class MethodConfig:
    """Stopping rule and optional start transformation for one run.

    ``stop_tol`` acts on the distance between consecutive iterates; zero
    disables early stopping. ``prefix`` is applied once to the start point
    before iterating, while errors keep referring to the original start.
    What ``parse_config`` refuses is refused here too: a bool or non-integer
    ``max_iters`` and a bool or non-finite ``stop_tol``; numpy integers are
    integers. A ``prefix`` must be None or an :class:`AffineMap`.
    """

    method: str
    max_iters: int = 50
    stop_tol: float = 0.0
    prefix: Optional[AffineMap] = None

    def __post_init__(self) -> None:
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method!r}")
        try:
            if isinstance(self.max_iters, bool):
                raise TypeError
            operator.index(self.max_iters)
        except TypeError:
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}") from None
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if isinstance(self.stop_tol, bool) or not math.isfinite(self.stop_tol):
            raise ValueError(f"stop_tol must be a finite number, got {self.stop_tol!r}")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")
        if self.prefix is not None and not isinstance(self.prefix, AffineMap):
            raise ValueError(f"prefix must be an AffineMap, got {type(self.prefix).__name__}")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Recorded iterates of one run.

    ``iterates[0]`` is the start point after any prefix; ``errors[k]`` is
    the distance from ``iterates[k]`` to ``target``, the projection of the
    original, pre-prefix start onto the fixed set of the method, and
    ``step_norms[k]`` the driver's ``_norm(iterates[k] - iterates[k - 1])``, 0
    at k = 0. ``error_origin`` is the distance from the original start to
    the target, which ``_drive`` measures at the run's unit scale, as it
    does the errors. Nothing time-dependent is recorded, so reruns of a
    seeded experiment are byte-identical.
    """

    method: str
    iterates: np.ndarray
    errors: np.ndarray
    step_norms: np.ndarray
    x0_original: np.ndarray
    target: np.ndarray
    error_origin: float

    def __post_init__(self) -> None:
        if self.iterates.ndim != 2:
            raise ValueError("iterates must be a 2-d array, one row per iterate")
        if not self.errors.shape[0] == self.step_norms.shape[0] == self.iterates.shape[0]:
            raise ValueError("errors and step_norms must have one entry per iterate")

    @property
    def ambient_dim(self) -> int:
        return self.iterates.shape[1]

    @property
    def stopped_at(self) -> int:
        """The number of steps taken, one fewer than the iterates."""
        return self.iterates.shape[0] - 1


def _scale(x: np.ndarray) -> float:
    """The power of two s with ||x|| / s in [1/sqrt 2, sqrt 2), from the exponent
    of ``math.frexp``, and at most 2^1023, the largest power of two; 1 when the
    norm is 0 or beyond the float range. When the sum of squares of ``_norm``
    overflows, the norm is taken of x times 2^-``_SHIFT``, exactly, and its
    exponent shifted back, so no start whose ``_norm`` is finite changes its s."""
    with np.errstate(over="ignore"):
        norm = _norm(x)
    shift = 0 if norm < math.inf else _SHIFT
    mantissa, exponent = math.frexp(_norm(np.ldexp(x, -shift)) if shift else norm)
    exponent += shift
    if mantissa == 0.0 or exponent > 1024:
        return 1.0
    return math.ldexp(1.0, min(exponent - (mantissa < _SQRT_HALF), 1023))


def _drive(method: str, step: Callable[[np.ndarray], np.ndarray], x0,
           config: MethodConfig, target: np.ndarray, homogeneous: bool = False) -> IterationTrace:
    """Iterate ``step``, which may trust its argument to be a finite vector. A finite
    step norm proves an iterate finite; only a non-finite one tests it. The data's scale
    is decided here, once: a ``homogeneous`` step (every offset exactly 0, the prefix's
    too) runs from x0 / s with ``stop_tol`` / s, s = ``_scale(x0)``, and its iterates, errors
    and step norms are multiplied back by s, exactly, so every threshold acts at unit scale."""
    x0_original = as_vector(x0)
    prefix = config.prefix
    if prefix is not None and prefix.ambient_dim != x0_original.shape[0]:
        raise ValueError(f"point has dimension {x0_original.shape[0]}, "
                         f"prefix lives in R^{prefix.ambient_dim}")
    scale = _scale(x0_original) if homogeneous and (prefix is None or not prefix.b.any()) else 1.0
    start = x0_original if scale == 1.0 else x0_original / scale
    current = start if prefix is None else as_vector(prefix.apply(start))
    stop_tol = config.stop_tol / scale
    iterates, step_norms = [current], [0.0]
    for steps_taken in range(1, config.max_iters + 1):
        nxt = step(current)
        step_norm = _norm(nxt - current)
        if not math.isfinite(step_norm) and not np.isfinite(nxt).all():
            raise RuntimeError(f"{method} produced a non-finite iterate at step {steps_taken}")
        iterates.append(nxt)
        step_norms.append(step_norm)
        current = nxt
        if stop_tol > 0 and step_norm <= stop_tol:
            break
    # rebinding drops the list of rows once stacked, so at most two k x n arrays are held
    iterates, step_norms = np.array(iterates), np.array(step_norms)
    # np.linalg.norm(iterates - target, axis=1)'s reductions, in one difference
    # buffer, at unit scale, so that no square underflows for small data
    unit_target = target if scale == 1.0 else target / scale
    diff = iterates - unit_target
    errors = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=1))
    origin = _norm(start - unit_target)
    if scale != 1.0:
        for column in (iterates, errors, step_norms):
            column *= scale
    return IterationTrace(method, iterates, errors, step_norms, x0_original, target,
                          scale * origin)


def run_cim(operator_set: OperatorSet, x0, config: MethodConfig) -> IterationTrace:
    """Iterate the circumcenter map of the family, with one stepper, and so
    one image array, for the run."""
    x0 = as_vector(x0)
    target = operator_set.common_fixed.project(x0)
    return _drive(config.method, _Stepper(operator_set, x0.shape[0]), x0, config, target,
                  homogeneous=all(b is None for _, b, _ in operator_set._plan))


def run_map(subspaces: Sequence[AffineSubspace], x0, config: MethodConfig,
            fixed: Optional[AffineSubspace]) -> IterationTrace:
    """Cyclic projections; one trace step is one full sweep through the list.

    ``fixed`` is the intersection of the subspaces, as ``intersect`` gives
    it; None, the subspace of an empty intersection, raises ValueError. The
    start's dimension is checked here, once, so the sweep trusts the
    driver's iterates.
    """
    x0 = as_vector(x0)
    for s in subspaces:
        s._check_dim(x0)
    if fixed is None:
        raise ValueError("subspaces have empty intersection")
    target = fixed.project(x0)

    def sweep(x: np.ndarray) -> np.ndarray:
        for s in subspaces:
            x = s._project(x)
        return x

    return _drive(config.method, sweep, x0, config, target,
                  homogeneous=not any(s.anchor.any() for s in subspaces))


def run_linear(op: AffineMap, x0, config: MethodConfig,
               fixed: Optional[AffineSubspace]) -> IterationTrace:
    """Iterate a linear operator toward the projection onto its fixed set.

    ``config.method`` picks the step, the line-search acceleration step
    for ``accel_map`` and the operator itself otherwise, and the checks,
    made once per run: ``sym_map`` and ``accel_map`` need a self-adjoint
    nonexpansive operator, ``averaged_iter`` the averaged builders'
    certificate, all a fixed point.
    ``fixed`` is the operator's fixed set, which the ``accel_map`` step reads;
    None, or a set that the operator moves, raises ValueError. For
    ``sym_map``, ``accel_map`` and ``averaged_iter`` it is the intersection
    of the subspaces. For ``dr`` it is ``fixed_point_set`` of the operator,
    which strictly contains the intersection whenever the two orthogonal
    complements meet nontrivially.
    """
    if config.method not in LINEAR_METHODS:
        raise ValueError(f"run_linear iterates {LINEAR_METHODS}, not {config.method!r}")
    x0 = as_vector(x0)
    if config.method in ("sym_map", "accel_map"):
        _require_nonexpansive(op)
    elif config.method == "averaged_iter" and op.averagedness is None:
        raise ValueError("operator carries no averagedness certificate; "
                         "use build_sum_averaged or build_product_averaged")
    if fixed is None:
        raise ValueError("operator has no fixed points")
    _require_fixed((op,), fixed, "the operator")
    target = fixed.project(x0)
    A, b = op.A, op.b
    # iterates are finite vectors, checked by _drive, so op.apply's check of x is skipped
    step = (lambda x: _accelerated_step(A, x, fixed)) if config.method == "accel_map" else (
        lambda x: A @ x + b)
    return _drive(config.method, step, x0, config, target, homogeneous=not b.any())


def dr_operator(first: AffineIsometry, second: AffineIsometry) -> AffineMap:
    """The averaged reflector composition (I + R_second R_first) / 2 of the
    reflectors of two linear subspaces, formed in the product's array:
    adding 0.0 first turns -0.0 into +0.0 off the diagonal, as 0.0 + x
    does, so the bits are those of the expression."""
    first_q, second_q = _linear_isometry_parts((first, second))
    A = second_q @ first_q
    A += 0.0
    A.flat[::A.shape[0] + 1] += 1.0
    A *= 0.5
    return AffineMap(A, np.zeros(A.shape[0]))


def _sweep(subspaces: Sequence[AffineSubspace], half: int, start=None) -> tuple:
    """The sweep P_m .. P_1, and its first ``half`` factors applied to the
    array ``start``, or to the identity when ``start`` is None.

    A subspace listed more than once has its projector formed once and kept
    until its last factor. Through the origin alone the offset is 0, and
    none is computed; otherwise the offset is carried along,
    b <- P b + (a - P a), factor by factor.
    """
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    last_use = {id(s): k for k, s in enumerate(subspaces)}
    held = {}
    affine = any(np.any(s.anchor) for s in subspaces)
    A, b, first = None, None, start
    for k, s in enumerate(subspaces):
        P = held.pop(id(s), None)
        if P is None:
            P = s.projector_matrix()
        if last_use[id(s)] > k:
            held[id(s)] = P
        A = P if A is None else P @ A
        if k < half:
            first = A if start is None else P @ first
        if affine:
            offset = s.anchor - P @ s.anchor
            b = offset if b is None else P @ b + offset
    return AffineMap(A, b if affine else np.zeros(A.shape[0])), first


def map_operator(subspaces: Sequence[AffineSubspace]) -> AffineMap:
    """The single-sweep cyclic projection operator P_m .. P_1, each
    projector formed once (see ``_sweep``)."""
    return _sweep(subspaces, 0)[0]


def symmetric_map_operator(subspaces: Sequence[AffineSubspace]) -> AffineMap:
    """The palindromic sweep P_1 .. P_n .. P_1 over the given half list.

    The result is self-adjoint positive semidefinite for linear subspaces.
    Each of the n projectors is formed once, by the one sweep ``_sweep``,
    whose first half ``bench._Instance`` applies to I - P_fixed.
    """
    return _sweep(_mirrored(list(subspaces)), 0)[0]


def _mirrored(seq: list) -> list:
    """The palindrome of ``seq``: seq, then seq reversed without its last entry."""
    return seq + seq[-2::-1]
