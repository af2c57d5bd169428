"""Theoretical linear-convergence constants and audits of observed traces.

A constant is one record, :class:`RateConstant`. Each audit compares the
error column of a trace against the bound value^k times the initial error,
or times prefactor * pre-prefix error when the constant's ingredients hold
a ``prefactor``, and reports per-iteration slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .isometry import (
    AffineMap,
    _require_nonexpansive,
    _sym_extremes,
    _zero_offset,
)
from .methods import IterationTrace
from .numerics import CONSISTENCY_TOL, EQ_TOL, spectral_norm, sym_eigen_extremes
from .subspace import AffineSubspace

__all__ = [
    "AUDIT_TOL",
    "RateConstant",
    "RateReport",
    "AccelConstants",
    "tuple_angle_cos",
    "operator_rate",
    "accel_constants",
    "audit_bound",
]

AUDIT_TOL = 1e-8


@dataclass(frozen=True)
class RateConstant:
    """A linear rate constant: its name, its value and the ingredients it
    was computed from. A prefixed run's constant holds its ``prefactor``
    among the ingredients; the audit scales its bound by it."""

    name: str
    value: float
    ingredients: dict

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rate must be nonnegative")

    def to_json_obj(self) -> dict:
        return {
            "constant_name": self.name,
            "value": float(self.value),
            "ingredients": {k: float(v) for k, v in sorted(self.ingredients.items())},
        }


@dataclass(frozen=True)
class RateReport:
    """A rate constant audited against one trace.

    ``per_iteration`` rows are (k, observed_error, bound_value, satisfied)
    with satisfied meaning observed <= bound * (1 + AUDIT_TOL).
    ``slack_min`` is the minimum over k of (bound - observed) / bound, so
    anything negative beyond the audit tolerance marks a violation.
    """

    constant: RateConstant
    per_iteration: tuple

    @property
    def all_satisfied(self) -> bool:
        return all(row[3] for row in self.per_iteration)

    @property
    def slack_min(self) -> float:
        return min([float("inf"), *(_slack(o, b) for _, o, b, _ in self.per_iteration)])

    def to_csv(self) -> str:
        """One row per audited iterate, each float by its repr, in one pass."""
        fields = [v for k, o, b, _ in self.per_iteration for v in (k, o, b, _slack(o, b))]
        return "k,error,bound,slack\n" + "%s,%r,%r,%r\n" * len(self.per_iteration) % tuple(fields)

    def to_json_obj(self) -> dict:
        return {
            **self.constant.to_json_obj(),
            "slack_min": float(self.slack_min),
            "all_satisfied": self.all_satisfied,
            "per_iteration": [
                {"k": int(k), "error": float(o), "bound": float(b), "satisfied": bool(s)}
                for k, o, b, s in self.per_iteration
            ],
        }


def _require_linear(subspaces: Sequence[AffineSubspace]) -> None:
    for s in subspaces:
        if not s.is_linear():
            raise ValueError("rate constants are defined for linear subspaces")


def tuple_angle_cos(subspaces: Sequence[AffineSubspace],
                    fixed: Optional[AffineSubspace]) -> float:
    """Norm of the cyclic projection product restricted off the intersection.

    ``fixed`` is the intersection of the subspaces, as ``intersect`` gives
    it; None raises ValueError. For a single subspace this is 0; for two it
    is the cosine of their Friedrichs angle, strictly below 1 in finite
    dimension and 0 when one subspace contains the other. When ``fixed`` is
    {0}, I - P_fixed is the identity and the chain starts at P_1, which
    equals P_1 (I - P_fixed) bit for bit.
    """
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    _require_linear(subspaces)
    if fixed is None:
        raise ValueError("subspaces have empty intersection")
    product = None
    if fixed.dim > 0:
        product = np.eye(fixed.ambient_dim) - fixed.projector_matrix()
    for s in subspaces:
        P = s.projector_matrix()
        product = P if product is None else P @ product
    return spectral_norm(product)


def operator_rate(op: AffineMap, fixed: AffineSubspace) -> float:
    """Spectral norm of a linear operator restricted off a fixed subspace.

    ``fixed`` must be a linear subspace of fixed points of the operator;
    every basis direction is checked on every call, all by one product. The
    norm is taken once per fixed-subspace object and cached on the
    operator. Off a fixed set {0} it is the norm of the operator itself,
    since A (I - 0) equals A bit for bit.
    """
    matrix = op.A
    if not _zero_offset(op):
        raise ValueError("operator rates are defined for linear operators")
    if not fixed.is_linear():
        raise ValueError("fixed subspace must be linear")
    if fixed.ambient_dim != matrix.shape[0]:
        raise ValueError("operator and subspace dimensions differ")
    gaps = np.linalg.norm(fixed.basis @ matrix.T - fixed.basis, axis=1)
    gap = float(np.max(gaps, initial=0.0))
    if gap > CONSISTENCY_TOL:
        raise ValueError(f"a basis direction of the subspace is not fixed, gap {gap:.3e}")

    def rate() -> float:
        if fixed.dim == 0:
            return spectral_norm(matrix)
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


def accel_constants(op: AffineMap, fixed: Optional[AffineSubspace]) -> AccelConstants:
    """Acceleration constants of a monotone self-adjoint nonexpansive map.

    Monotonicity is verified through the smallest eigenvalue of the
    symmetric part: when it is at least -EQ_TOL, so is v^T A v for every
    unit vector v. The extreme values (c1, c2) come from the compression of
    the operator to the orthogonal complement of its fixed set; both are 0
    when that complement is trivial, and they are the extremes of the
    monotonicity check when the fixed set is {0}, since the complement's
    basis is then the identity. ``fixed`` is the operator's fixed set, for
    the symmetric product the intersection of its subspaces; None raises
    ValueError.
    """
    _require_nonexpansive(op)
    eig_min, eig_max = _sym_extremes(op)
    if eig_min < -EQ_TOL:
        raise ValueError(f"operator is not monotone, smallest eigenvalue {eig_min:.3e}")
    if fixed is None:
        raise ValueError("operator has no fixed points")
    if fixed.dim == 0:
        # the complement basis is eye(n), and I A I is A bit for bit
        c1, c2 = eig_min, eig_max
    else:
        complement = fixed.orthogonal_complement()
        if complement.dim == 0:
            c1, c2 = 0.0, 0.0
        else:
            compressed = complement.basis @ op.A @ complement.basis.T
            c1, c2 = sym_eigen_extremes(compressed)
    cT = operator_rate(op, fixed)
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


def audit_bound(trace: IterationTrace, constant: RateConstant) -> RateReport:
    """Audit a trace against the geometric bound value^k * scale.

    The scale is the first recorded error, unless the constant's
    ingredients hold a ``prefactor``: the scale of a prefixed run is then
    prefactor * error_origin, where error_origin measures the original
    start before the prefix was applied. The value and the prefactor are
    taken as Python floats, so a numpy scalar writes the same bytes.
    """
    rate = float(constant.value)
    prefactor = constant.ingredients.get("prefactor")
    scale = float(trace.errors[0]) if prefactor is None else float(prefactor) * trace.error_origin
    rows = []
    for k, observed in enumerate(trace.errors.tolist()):
        bound = (rate ** k) * scale
        rows.append((k, observed, bound, observed <= bound * (1.0 + AUDIT_TOL)))
    return RateReport(constant, tuple(rows))
