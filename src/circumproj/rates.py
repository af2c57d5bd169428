"""Theoretical linear-convergence constants and audits of observed traces.

Each audit compares the recorded error column of a trace against a
geometric bound rate^k scaled by the initial error (or by a prefactor times
the pre-prefix error for prefixed runs) and reports per-iteration slack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .isometry import (
    AffineMap,
    _require_nonexpansive,
    _sym_extremes,
    _zero_offset,
    fixed_point_set,
)
from .methods import IterationTrace
from .numerics import DEFAULT_TOL, Tolerance, spectral_norm, sym_eigen_extremes
from .subspace import AffineSubspace, intersect

__all__ = [
    "AUDIT_TOL",
    "RateReport",
    "AccelConstants",
    "friedrichs_cos",
    "tuple_angle_cos",
    "operator_rate",
    "accel_constants",
    "audit_bound",
]

AUDIT_TOL = 1e-8

# accel_constants samples the quadratic form at this many unit vectors,
# drawn from default_rng(_MONOTONE_SEED).
_MONOTONE_SAMPLES = 32
_MONOTONE_SEED = 0


@dataclass(frozen=True)
class RateReport:
    """A theoretical constant audited against one trace.

    ``per_iteration`` rows are (k, observed_error, bound_value, satisfied)
    with satisfied meaning observed <= bound * (1 + AUDIT_TOL).
    ``slack_min`` is the minimum over k of (bound - observed) / bound, so
    anything negative beyond the audit tolerance marks a violation.
    """

    constant_name: str
    value: float
    ingredients: dict
    per_iteration: tuple
    slack_min: float

    @property
    def all_satisfied(self) -> bool:
        return all(row[3] for row in self.per_iteration)

    def to_csv(self) -> str:
        """One row per audited iterate, each float by its repr, in one pass."""
        fields = [v for k, o, b, _ in self.per_iteration for v in (k, o, b, _slack(o, b))]
        return "k,error,bound,slack\n" + "%s,%r,%r,%r\n" * len(self.per_iteration) % tuple(fields)

    def to_json_obj(self) -> dict:
        return {
            "constant_name": self.constant_name,
            "value": float(self.value),
            "ingredients": {k: float(v) for k, v in sorted(self.ingredients.items())},
            "slack_min": float(self.slack_min),
            "all_satisfied": self.all_satisfied,
            "per_iteration": [
                {"k": int(k), "error": float(o), "bound": float(b), "satisfied": bool(s)}
                for k, o, b, s in self.per_iteration
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _require_linear(subspaces: Sequence[AffineSubspace], tol: Tolerance) -> None:
    for s in subspaces:
        if not s.is_linear(tol):
            raise ValueError("rate constants are defined for linear subspaces")


def friedrichs_cos(first: AffineSubspace, second: AffineSubspace,
                   tol: Tolerance = DEFAULT_TOL) -> float:
    """Cosine of the Friedrichs angle between two linear subspaces.

    The two-subspace case of :func:`tuple_angle_cos`: the spectral norm of
    P_second P_first P_perp where P_perp projects onto the orthogonal
    complement of the intersection. Always strictly below 1 in finite
    dimension, and 0 when one subspace contains the other.
    """
    return tuple_angle_cos([first, second], tol)


def tuple_angle_cos(subspaces: Sequence[AffineSubspace],
                    tol: Tolerance = DEFAULT_TOL,
                    fixed: Optional[AffineSubspace] = None) -> float:
    """Norm of the cyclic projection product restricted off the intersection.

    For a single subspace this is 0; for two it is the Friedrichs cosine.
    ``fixed`` may pass the intersection of the subspaces.
    """
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    _require_linear(subspaces, tol)
    if fixed is None:
        fixed = intersect(subspaces, tol).subspace
    n = subspaces[0].ambient_dim
    product = np.eye(n) - fixed.projector_matrix()
    for s in subspaces:
        product = s.projector_matrix() @ product
    return spectral_norm(product)


def operator_rate(op: AffineMap, fixed: AffineSubspace,
                  tol: Tolerance = DEFAULT_TOL) -> float:
    """Spectral norm of a linear operator restricted off a fixed subspace.

    ``fixed`` must be a linear subspace of fixed points of the operator;
    each basis direction is checked on every call. The norm is taken once
    per fixed-subspace object and cached on the operator.
    """
    matrix = op.A
    if not _zero_offset(op, tol):
        raise ValueError("operator rates are defined for linear operators")
    if not fixed.is_linear(tol):
        raise ValueError("fixed subspace must be linear")
    if fixed.ambient_dim != matrix.shape[0]:
        raise ValueError("operator and subspace dimensions differ")
    for direction in fixed.basis:
        gap = float(np.linalg.norm(matrix @ direction - direction))
        if gap > tol.consistency_tol:
            raise ValueError(
                f"a basis direction of the subspace is not fixed, gap {gap:.3e}"
            )

    def rate() -> float:
        perp = np.eye(matrix.shape[0]) - fixed.projector_matrix()
        return spectral_norm(matrix @ perp)

    return op._spectral_datum(("rate", fixed), rate)


@dataclass(frozen=True)
class AccelConstants:
    """Spectral data of a monotone self-adjoint nonexpansive operator.

    c1 and c2 bound the quadratic form on the complement of the fixed set,
    eta = (c2 - c1) / (2 - c1 - c2) is the acceleration rate and cT the
    plain operator rate. The chain 0 <= eta <= cT / (2 - cT) <= cT < 1 is
    asserted at construction time; a violation signals a numerics bug, not
    a property of the input.
    """

    c1: float
    c2: float
    eta: float
    cT: float


def accel_constants(op: AffineMap, tol: Tolerance = DEFAULT_TOL,
                    fixed: Optional[AffineSubspace] = None) -> AccelConstants:
    """Acceleration constants of a monotone self-adjoint nonexpansive map.

    Monotonicity is verified both through the smallest symmetric eigenvalue
    and by sampling the quadratic form at seeded random unit vectors. The
    extreme values (c1, c2) come from the compression of the operator to
    the orthogonal complement of its fixed set; both are 0 when that
    complement is trivial. ``fixed`` may pass the operator's fixed set;
    the fallback, ``fixed_point_set``, is ill-conditioned at small angles.
    """
    _require_nonexpansive(op, tol, self_adjoint=True)
    eig_min, _ = _sym_extremes(op)
    if eig_min < -tol.eq_tol:
        raise ValueError(f"operator is not monotone, smallest eigenvalue {eig_min:.3e}")
    rng = np.random.default_rng(_MONOTONE_SEED)
    n = op.ambient_dim
    for _ in range(_MONOTONE_SAMPLES):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        if float(v @ (op.A @ v)) < -tol.eq_tol:
            raise ValueError("operator is not monotone on sampled directions")
    if fixed is None:
        fixed = fixed_point_set(op, tol)
        if fixed is None:
            raise ValueError("operator has no fixed points")
    complement = fixed.orthogonal_complement(tol)
    if complement.dim == 0:
        c1, c2 = 0.0, 0.0
    else:
        compressed = complement.basis @ op.A @ complement.basis.T
        c1, c2 = sym_eigen_extremes(compressed)
    cT = operator_rate(op, fixed, tol)
    denominator = 2.0 - c1 - c2
    if denominator <= 0:
        raise RuntimeError("degenerate spectral data, denominator of eta is nonpositive")
    eta = (c2 - c1) / denominator
    half = cT / (2.0 - cT)
    chain_ok = (
        eta >= -AUDIT_TOL
        and eta <= half + AUDIT_TOL
        and half <= cT + AUDIT_TOL
        and cT < 1.0
    )
    if not chain_ok:
        raise RuntimeError(
            f"rate chain violated: eta {eta!r}, cT/(2-cT) {half!r}, cT {cT!r}; "
            "this indicates a numerics bug in the spectral data"
        )
    return AccelConstants(c1=float(c1), c2=float(c2), eta=float(eta), cT=float(cT))


def _slack(observed: float, bound: float) -> float:
    if bound > 0.0:
        return (bound - observed) / bound
    return 1.0 if observed <= 0.0 else float("-inf")


def audit_bound(trace: IterationTrace, rate: float, scale_mode: str = "plain",
                prefactor: Optional[float] = None,
                constant_name: str = "linear_rate",
                ingredients: Optional[dict] = None) -> RateReport:
    """Audit a trace against the geometric bound rate^k * scale.

    ``plain`` scales by the first recorded error; ``prefixed`` scales by
    prefactor * error_origin, where error_origin measures the original
    start before the prefix was applied.
    """
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    if scale_mode == "plain":
        scale = float(trace.errors[0])
    elif scale_mode == "prefixed":
        if prefactor is None:
            raise ValueError("prefixed audits need a prefactor")
        scale = float(prefactor) * trace.error_origin
    else:
        raise ValueError(f"unknown scale mode {scale_mode!r}")
    rows = []
    slack_min = float("inf")
    for k, observed in enumerate(trace.errors.tolist()):
        bound = (rate ** k) * scale
        satisfied = observed <= bound * (1.0 + AUDIT_TOL)
        rows.append((k, observed, bound, satisfied))
        slack_min = min(slack_min, _slack(observed, bound))
    full_ingredients = dict(ingredients or {})
    if scale_mode == "prefixed":
        full_ingredients.setdefault("prefactor", float(prefactor))
    return RateReport(
        constant_name=constant_name,
        value=float(rate),
        ingredients=full_ingredients,
        per_iteration=tuple(rows),
        slack_min=float(slack_min),
    )
