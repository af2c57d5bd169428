"""Iteration drivers for the best-approximation methods.

Every driver produces an :class:`IterationTrace` whose error column always
measures distance to the projection of the original start point onto the
relevant fixed set, also when a prefix operator was applied to the start.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .circumcenter import OperatorSet, _center
from .isometry import (
    AffineIsometry,
    AffineMap,
    _accelerated_step,
    _require_nonexpansive,
    fixed_point_set,
    make_reflector,
)
from .numerics import DEFAULT_TOL, Tolerance, _norm, as_vector
from .subspace import AffineSubspace, intersect

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
        steps = np.zeros(self.iterates.shape[0])
        if self.iterates.shape[0] > 1:
            steps[1:] = np.linalg.norm(np.diff(self.iterates, axis=0), axis=1)
        return steps

    def _x_norms(self) -> list:
        """``_norm`` of each iterate, from one stack of 1 x n by n x 1 products."""
        it = self.iterates
        return np.sqrt(np.matmul(it[:, None], it[:, :, None]).ravel()).tolist()

    def to_csv(self) -> str:
        """One row per iterate at 17 significant digits, formatted from
        whole columns."""
        rows = map("{},{:.17g},{:.17g},{:.17g}".format, range(self.iterates.shape[0]),
                   self._x_norms(), self.errors.tolist(), self.step_norms().tolist())
        return "k,x_norm,error,step_norm\n" + "\n".join(rows) + "\n"

    def to_json_obj(self) -> dict:
        columns = zip(self._x_norms(), self.errors.tolist(), self.step_norms().tolist())
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


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


def run_cim(operator_set: OperatorSet, x0, config: MethodConfig,
            tol: Tolerance = DEFAULT_TOL) -> IterationTrace:
    """Iterate the circumcenter map of the family."""
    x0 = as_vector(x0)
    target = operator_set.common_fixed.project(x0)
    return _drive(config.method, lambda x: _center(operator_set._images(x), tol),
                  x0, config, target)


def run_map(subspaces: Sequence[AffineSubspace], x0, config: MethodConfig,
            tol: Tolerance = DEFAULT_TOL,
            fixed: Optional[AffineSubspace] = None) -> IterationTrace:
    """Cyclic projections; one trace step is one full sweep through the list.

    ``fixed`` is the intersection of the subspaces when the caller already
    has it; without it the intersection is computed here. The start's
    dimension is checked here, once, so the sweep trusts the driver's iterates.
    """
    x0 = as_vector(x0)
    for s in subspaces:
        s._check_dim(x0)
    if fixed is None:
        inter = intersect(subspaces, tol)
        if inter.is_empty:
            raise ValueError(
                f"subspaces have empty intersection, residual {inter.residual:.3e}"
            )
        fixed = inter.subspace
    target = fixed.project(x0)

    def sweep(x: np.ndarray) -> np.ndarray:
        for s in subspaces:
            x = s._project(x)
        return x

    return _drive(config.method, sweep, x0, config, target)


def run_linear(op: AffineMap, x0, config: MethodConfig, tol: Tolerance = DEFAULT_TOL,
               fixed: Optional[AffineSubspace] = None) -> IterationTrace:
    """Iterate a linear operator toward the projection onto its fixed set.

    ``config.method`` picks the step, the acceleration step of
    :func:`accelerated_apply` for ``accel_map`` and the operator itself
    otherwise, and the checks, made once per run: ``sym_map`` and
    ``accel_map`` need a self-adjoint nonexpansive operator,
    ``averaged_iter`` the averaged builders' certificate, all a fixed point.
    ``fixed`` is the operator's fixed set when the caller already has it.
    For ``dr`` that set strictly contains the intersection whenever the two
    orthogonal complements meet nontrivially. The fallback,
    ``fixed_point_set``, is ill-conditioned at small angles.
    """
    if config.method not in LINEAR_METHODS:
        raise ValueError(f"run_linear iterates {LINEAR_METHODS}, not {config.method!r}")
    x0 = as_vector(x0)
    if config.method in ("sym_map", "accel_map"):
        _require_nonexpansive(op, tol, self_adjoint=True)
    elif config.method == "averaged_iter" and op.averagedness is None:
        raise ValueError("operator carries no averagedness certificate; "
                         "use build_sum_averaged or build_product_averaged")
    if fixed is None:
        fixed = fixed_point_set(op, tol)
        if fixed is None:
            raise ValueError("operator has no fixed points")
    target = fixed.project(x0)
    A, b = op.A, op.b
    # iterates are finite vectors, checked by _drive, so op.apply's check of x is skipped
    step = (lambda x: _accelerated_step(A, x)) if config.method == "accel_map" else (
        lambda x: A @ x + b)
    return _drive(config.method, step, x0, config, target)


def dr_operator(first: AffineSubspace, second: AffineSubspace,
                tol: Tolerance = DEFAULT_TOL) -> AffineMap:
    """The averaged reflector composition (I + R_second R_first) / 2."""
    for s in (first, second):
        if not s.is_linear(tol):
            raise ValueError("expected linear subspaces")
    q1 = make_reflector(first).Q
    q2 = make_reflector(second).Q
    n = first.ambient_dim
    return AffineMap(0.5 * (np.eye(n) + q2 @ q1), np.zeros(n))


def _projector_map(subspace: AffineSubspace) -> AffineMap:
    P = subspace.projector_matrix()
    return AffineMap(P, subspace.anchor - P @ subspace.anchor)


def _compose_maps(outer: AffineMap, inner: AffineMap) -> AffineMap:
    return AffineMap(outer.A @ inner.A, outer.A @ inner.b + outer.b)


def map_operator(subspaces: Sequence[AffineSubspace]) -> AffineMap:
    """The single-sweep cyclic projection operator P_m .. P_1."""
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    product = _projector_map(subspaces[0])
    for s in subspaces[1:]:
        product = _compose_maps(_projector_map(s), product)
    return product


def symmetric_map_operator(subspaces: Sequence[AffineSubspace]) -> AffineMap:
    """The palindromic sweep P_1 .. P_n .. P_1 over the given half list.

    The result is self-adjoint positive semidefinite for linear subspaces.
    """
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    full = list(subspaces) + list(subspaces[-2::-1])
    return map_operator(full)
