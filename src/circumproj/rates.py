"""Theoretical linear-convergence constants and audits of observed traces.

A constant is one record, :class:`RateConstant`. Each audit compares the
error column of a trace against the bound value^k times the initial error,
or times prefactor * pre-prefix error when the constant's ingredients hold
a ``prefactor``, and reports per-iteration slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .isometry import (
    AffineMap,
    _direction_gap,
    _require_nonexpansive,
    _sym_extremes,
)
from .methods import IterationTrace, _sweep
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


@dataclass(frozen=True, eq=False)
class RateReport:
    """A rate constant audited against one trace, held as columns.

    ``errors`` is the trace's own error array and ``bounds`` the float64
    bound value at each k. Construction computes, once, the two columns that
    everything else reads: ``satisfied``, observed <= bound * (1 + AUDIT_TOL)
    per k, and ``slacks``, (bound - observed) / bound per k. ``per_iteration``
    rows are (k, observed_error, bound_value, satisfied). ``slack_min`` is
    the minimum slack, so anything negative beyond the audit tolerance marks
    a violation.
    """

    constant: RateConstant
    errors: np.ndarray
    bounds: np.ndarray
    satisfied: np.ndarray = field(init=False, repr=False)
    slacks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "satisfied", self.errors <= self.bounds * (1.0 + AUDIT_TOL))
        object.__setattr__(self, "slacks", _slacks(self.errors, self.bounds))

    @property
    def per_iteration(self) -> tuple:
        return tuple(zip(range(len(self.errors)), self.errors.tolist(), self.bounds.tolist(),
                         self.satisfied.tolist()))

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())

    @property
    def slack_min(self) -> float:
        return min([float("inf"), *self.slacks.tolist()])


def _require_chain(subspaces: Sequence[AffineSubspace], fixed: Optional[AffineSubspace]) -> None:
    """Refuse what has no tuple chain: no subspace, an affine one or ``fixed`` None."""
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    if not all(s.is_linear() for s in subspaces):
        raise ValueError("rate constants are defined for linear subspaces")
    if fixed is None:
        raise ValueError("subspaces have empty intersection")


def _chain_start(fixed: Optional[AffineSubspace]) -> Optional[np.ndarray]:
    """I - P_fixed, where the tuple chain starts; None, the identity, on {0} or None."""
    if fixed is None or fixed.dim == 0:
        return None
    return np.eye(fixed.ambient_dim) - fixed.projector_matrix()


def tuple_angle_cos(subspaces: Sequence[AffineSubspace], fixed: Optional[AffineSubspace]) -> float:
    """Norm of the cyclic projection product restricted off the intersection.

    ``fixed`` is the intersection of the subspaces, as ``intersect`` gives
    it; None raises ValueError. For a single subspace this is 0; for two it
    is the cosine of their Friedrichs angle, strictly below 1 in finite
    dimension and 0 when one subspace contains the other. The chain
    P_m .. P_1 (I - P_fixed) comes from the one sweep ``methods._sweep``;
    ``bench._Instance`` reads it off ``symmetric_map_operator``'s sweep.
    """
    _require_chain(subspaces, fixed)
    return spectral_norm(_sweep(subspaces, len(subspaces), _chain_start(fixed))[1])


def operator_rate(op: AffineMap, fixed: AffineSubspace) -> float:
    """Spectral norm of a linear operator restricted off a fixed subspace.

    ``fixed`` must be a linear subspace of fixed points of the operator;
    every basis direction is checked on every call, all by one product. The
    norm is taken once per fixed-subspace object and cached on the
    operator. Off a fixed set {0} it is the norm of the operator itself,
    since A (I - 0) equals A bit for bit.
    """
    matrix = op.A
    if not op.is_linear():
        raise ValueError("operator rates are defined for linear operators")
    if not fixed.is_linear():
        raise ValueError("fixed subspace must be linear")
    if fixed.ambient_dim != matrix.shape[0]:
        raise ValueError("operator and subspace dimensions differ")
    gap = _direction_gap(op, fixed)
    if gap > CONSISTENCY_TOL:
        raise ValueError(f"a basis direction of the subspace is not fixed, gap {gap:.3e}")

    def rate() -> float:
        perp = _chain_start(fixed)
        return spectral_norm(matrix if perp is None else matrix @ perp)

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


def _slacks(observed: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(bound - observed) / bound per k, the same IEEE result as the Python
    expression; where the bound is not positive, 1.0 if observed <= 0.0 and
    -inf otherwise."""
    slacks = np.where(observed <= 0.0, 1.0, -np.inf)
    with np.errstate(all="ignore"):
        np.divide(bounds - observed, bounds, out=slacks, where=bounds > 0.0)
    return slacks


def audit_bound(trace: IterationTrace, constant: RateConstant) -> RateReport:
    """Audit a trace against the geometric bound value^k * scale.

    The scale is the first recorded error, unless the constant's
    ingredients hold a ``prefactor``: the scale of a prefixed run is then
    prefactor * error_origin, where error_origin measures the original
    start before the prefix was applied. The value and the prefactor are
    taken as Python floats, so a numpy scalar writes the same bytes. Each
    bound is the Python product (value ** k) * scale, stored as a float64;
    the report keeps the trace's error array itself, not a copy.
    """
    rate = float(constant.value)
    prefactor = constant.ingredients.get("prefactor")
    scale = float(trace.errors[0]) if prefactor is None else float(prefactor) * trace.error_origin
    count = len(trace.errors)
    bounds = np.fromiter(((rate ** k) * scale for k in range(count)), dtype=np.float64,
                         count=count)
    return RateReport(constant, trace.errors, bounds)
