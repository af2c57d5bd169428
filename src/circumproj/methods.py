"""Iteration drivers for the best-approximation methods.

Every driver produces an :class:`IterationTrace` whose error column always
measures distance to the projection of the original start point onto the
relevant fixed set, also when a prefix operator was applied to the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .circumcenter import OperatorSet, _center
from .isometry import (
    AffineIsometry,
    AffineMap,
    _accelerated_step,
    _linear_isometry_parts,
    _require_nonexpansive,
)
from .numerics import _norm, as_vector
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

PrefixOperator = Union[AffineIsometry, AffineMap]


@dataclass(frozen=True)
class MethodConfig:
    """Stopping rule and optional start transformation for one run.

    ``stop_tol`` acts on the distance between consecutive iterates; zero
    disables early stopping. ``prefix`` is applied once to the start point
    before iterating, while errors keep referring to the original start.
    """

    method: str
    max_iters: int = 50
    stop_tol: float = 0.0
    prefix: Optional[PrefixOperator] = None

    def __post_init__(self) -> None:
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``_norm`` of each row, from one stack of 1 x n by n x 1 products."""
    return np.sqrt(np.matmul(rows[:, None], rows[:, :, None]).ravel())


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Recorded iterates of one run.

    ``iterates[0]`` is the start point after any prefix; ``errors[k]`` is
    the distance from ``iterates[k]`` to ``target``, the projection of the
    original, pre-prefix start onto the fixed set of the method. Nothing
    time-dependent is recorded, so reruns of a seeded experiment are
    byte-identical.
    """

    method: str
    iterates: np.ndarray
    errors: np.ndarray
    stopped_at: int
    x0_original: np.ndarray
    target: np.ndarray

    def __post_init__(self) -> None:
        if self.iterates.ndim != 2:
            raise ValueError("iterates must be a 2-d array, one row per iterate")
        if self.errors.shape[0] != self.iterates.shape[0]:
            raise ValueError("errors must have one entry per iterate")

    @property
    def ambient_dim(self) -> int:
        return self.iterates.shape[1]

    @property
    def error_origin(self) -> float:
        """Distance from the original start to the target."""
        return float(np.linalg.norm(self.x0_original - self.target))

    def step_norms(self) -> np.ndarray:
        """0, then ``_norm(iterates[k] - iterates[k - 1])``, the figure that
        the stop rule compares when stop_tol > 0."""
        steps = np.zeros(self.iterates.shape[0])
        steps[1:] = _row_norms(np.diff(self.iterates, axis=0))
        return steps

    def to_csv(self) -> str:
        """One row per iterate at 17 significant digits, formatted from
        whole columns."""
        rows = map("{},{:.17g},{:.17g},{:.17g}".format, range(self.iterates.shape[0]),
                   _row_norms(self.iterates).tolist(), self.errors.tolist(),
                   self.step_norms().tolist())
        return "k,x_norm,error,step_norm\n" + "\n".join(rows) + "\n"

    def to_json_obj(self) -> dict:
        columns = zip(_row_norms(self.iterates).tolist(), self.errors.tolist(),
                      self.step_norms().tolist())
        return {
            "method": self.method,
            "ambient_dim": int(self.ambient_dim),
            "stopped_at": int(self.stopped_at),
            "x0_original": [float(v) for v in self.x0_original],
            "target": [float(v) for v in self.target],
            "error_origin": self.error_origin,
            "rows": [
                {"k": k, "x_norm": x_norm, "error": error, "step_norm": step}
                for k, (x_norm, error, step) in enumerate(columns)
            ],
        }


def _drive(method: str, step: Callable[[np.ndarray], np.ndarray], x0,
           config: MethodConfig, target: np.ndarray) -> IterationTrace:
    """Iterate ``step``, which may trust its argument to be a finite vector. A finite
    step norm proves an iterate finite; only stop_tol == 0 or a non-finite one tests it."""
    x0_original = as_vector(x0)
    current = x0_original if config.prefix is None else as_vector(config.prefix.apply(x0_original))
    iterates = [current]
    for steps_taken in range(1, config.max_iters + 1):
        nxt = step(current)
        step_norm = _norm(nxt - current) if config.stop_tol > 0 else math.nan
        if not math.isfinite(step_norm) and not np.isfinite(nxt).all():
            raise RuntimeError(f"{method} produced a non-finite iterate at step {steps_taken}")
        iterates.append(nxt)
        current = nxt
        if step_norm <= config.stop_tol:
            break
    stacked = np.array(iterates)
    errors = np.linalg.norm(stacked - target, axis=1)
    return IterationTrace(
        method=method,
        iterates=stacked,
        errors=errors,
        stopped_at=len(iterates) - 1,
        x0_original=x0_original,
        target=target,
    )


def run_cim(operator_set: OperatorSet, x0, config: MethodConfig) -> IterationTrace:
    """Iterate the circumcenter map of the family."""
    x0 = as_vector(x0)
    target = operator_set.common_fixed.project(x0)
    return _drive(config.method, lambda x: _center(operator_set._images(x)),
                  x0, config, target)


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

    return _drive(config.method, sweep, x0, config, target)


def run_linear(op: AffineMap, x0, config: MethodConfig,
               fixed: Optional[AffineSubspace]) -> IterationTrace:
    """Iterate a linear operator toward the projection onto its fixed set.

    ``config.method`` picks the step, the line-search acceleration step
    for ``accel_map`` and the operator itself otherwise, and the checks,
    made once per run: ``sym_map`` and ``accel_map`` need a self-adjoint
    nonexpansive operator, ``averaged_iter`` the averaged builders'
    certificate, all a fixed point.
    ``fixed`` is the operator's fixed set; None raises ValueError. For
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
    target = fixed.project(x0)
    A, b = op.A, op.b
    # iterates are finite vectors, checked by _drive, so op.apply's check of x is skipped
    step = (lambda x: _accelerated_step(A, x)) if config.method == "accel_map" else (
        lambda x: A @ x + b)
    return _drive(config.method, step, x0, config, target)


def dr_operator(first: AffineIsometry, second: AffineIsometry) -> AffineMap:
    """The averaged reflector composition (I + R_second R_first) / 2 of the
    reflectors of two linear subspaces."""
    first_q, second_q = _linear_isometry_parts((first, second))
    n = first_q.shape[0]
    return AffineMap(0.5 * (np.eye(n) + second_q @ first_q), np.zeros(n))


def map_operator(subspaces: Sequence[AffineSubspace]) -> AffineMap:
    """The single-sweep cyclic projection operator P_m .. P_1.

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
    A = b = None
    for k, s in enumerate(subspaces):
        P = held.pop(id(s), None)
        if P is None:
            P = s.projector_matrix()
        if last_use[id(s)] > k:
            held[id(s)] = P
        A = P if A is None else P @ A
        if affine:
            offset = s.anchor - P @ s.anchor
            b = offset if b is None else P @ b + offset
    return AffineMap(A, b if affine else np.zeros(A.shape[0]))


def symmetric_map_operator(subspaces: Sequence[AffineSubspace]) -> AffineMap:
    """The palindromic sweep P_1 .. P_n .. P_1 over the given half list.

    The result is self-adjoint positive semidefinite for linear subspaces.
    Each of the n projectors is formed once, by :func:`map_operator`.
    """
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    full = list(subspaces) + list(subspaces[-2::-1])
    return map_operator(full)
