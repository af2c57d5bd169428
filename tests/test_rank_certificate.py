"""The full-column-rank certificate of ``intersect``, bit for bit.

Linear subspaces whose projectors certify, by one Cholesky factorization of
(m - tau) I - sum_i P_i, that they meet at the origin alone give the origin
without a stack, a QR or an SVD. The certificate certifies only what the
eigen test of the stacked blocks' Gram matrix certifies. Every caller must
see the same bits as the QR+SVD path in ``helpers.reference_solution_set``: the anchor,
the null basis, the dimension and the residual of ``solution_set``, of
``intersect`` and of the common fixed set an ``OperatorSet`` computes from
its generators.
"""

import ast
import inspect
import math
import textwrap

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from circumproj import (
    RANK_TOL,
    AffineSubspace,
    OperatorSet,
    generate_instance,
    intersect,
    solution_set,
)
from circumproj.numerics import _certifies_full_rank
from helpers import random_family, random_linear_subspace, reference_solution_set, reflectors_of


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_solution(got, want) -> None:
    (x, null, residual), (x_ref, null_ref, residual_ref) = got, want
    assert null.shape == null_ref.shape
    assert _bits(x) == _bits(x_ref)
    assert _bits(null) == _bits(null_ref)
    assert _bits(residual) == _bits(residual_ref)


def _assert_same_subspace(got, anchor, basis) -> None:
    assert got.dim == basis.shape[0]
    assert _bits(got.anchor) == _bits(anchor)
    assert _bits(got.basis) == _bits(basis)


def _spy(monkeypatch, name: str) -> list:
    """Record the shape of the first argument of each np.linalg.<name> call."""
    calls = []
    original = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def _check_every_caller(subspaces) -> None:
    """solution_set, intersect and OperatorSet agree with the reference."""
    n = subspaces[0].ambient_dim
    eye = np.eye(n)
    blocks = np.concatenate([eye - s.projector_matrix() for s in subspaces])
    rhs = np.zeros(blocks.shape[0])
    want = reference_solution_set(blocks, rhs)
    _assert_same_solution(solution_set(blocks, rhs), want)

    inter = intersect(subspaces)
    assert _bits(inter.residual) == _bits(want[2])
    _assert_same_subspace(inter.subspace, want[0], want[1])

    reflectors = reflectors_of(subspaces)
    stacked = np.vstack([op.A - eye for op in reflectors])
    anchor, basis, _ = reference_solution_set(
        stacked, -np.concatenate([op.b for op in reflectors]))
    _assert_same_subspace(OperatorSet(reflectors).common_fixed, anchor, basis)


def _family(rng, kind: str) -> list:
    if kind == "trivial":
        # m subspaces of R^n whose codimensions sum to at least n
        n = int(rng.integers(2, 13))
        m = int(rng.integers(2, 6))
        return random_family(rng, n, m, 1, n - -(-n // m))
    if kind == "nontrivial":
        # codimensions summing to less than n, as iterate-long draws them
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 13))
        return random_family(rng, n, m, n - (n - 1) // m, n - 1)
    # nested and duplicated: U, copies of U, a subspace V of U, and maybe a
    # transversal subspace that cuts V down
    n = int(rng.integers(2, 13))
    outer = random_linear_subspace(rng, n, int(rng.integers(1, n + 1)))
    inner = AffineSubspace.linear(outer.basis[:int(rng.integers(1, outer.dim + 1))])
    copies = [AffineSubspace.linear(outer.basis) for _ in range(int(rng.integers(1, 3)))]
    family = [outer, *copies, inner]
    if rng.integers(2):
        family.append(random_linear_subspace(rng, n, int(rng.integers(1, n + 1))))
    return [family[i] for i in rng.permutation(len(family))]


def _two_planes(theta: float) -> list:
    """Two planes of R^4 meeting only at 0, both principal angles theta, in
    a fixed random orientation: the Gram matrix of the stacked blocks has
    eigenvalues 1 -+ cos(theta), so its smallest is about theta^2 / 2."""
    rotation = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
    c, s = math.cos(theta), math.sin(theta)
    first = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    second = np.array([[c, 0.0, s, 0.0], [0.0, c, 0.0, s]])
    return [AffineSubspace.linear(first @ rotation), AffineSubspace.linear(second @ rotation)]


def _gram_certifies(subspaces) -> bool:
    """The oracle: the eigenvalues of the stacked blocks' Gram matrix clear
    sqrt(RANK_TOL) * (1 + their largest)."""
    n = subspaces[0].ambient_dim
    blocks = np.concatenate([np.eye(n) - s.projector_matrix() for s in subspaces])
    lam = np.linalg.eigvalsh(blocks.T @ blocks)
    return bool(lam[0] > math.sqrt(RANK_TOL) * (1.0 + lam[-1]))


# (kind, seed) for ``_family``'s kinds, ("ladder", exponent) for two planes
# at angle 10^-exponent
_CASES = st.one_of(
    st.tuples(st.sampled_from(("trivial", "nontrivial", "nested")), st.integers(0, 10**6)),
    st.tuples(st.just("ladder"), st.floats(0.0, 8.0)))


@given(_CASES)
@example(("trivial", 0))
@example(("nontrivial", 1))
@example(("nested", 2))
# theta = 10^-2.2 puts theta^2 / 2, 2e-5, between sqrt(RANK_TOL) and the
# cut sqrt(RANK_TOL) * (1 + lam_max), about 3e-5: a certificate without tau
# or with 1 in place of 1 + m certifies it, and the oracle refuses
@example(("ladder", 2.2))
def test_every_caller_matches_the_reference_bit_for_bit(case):
    """A family of ``_family``'s kinds, or two planes at angle
    10^-exponent: the certificate certifies only where the oracle does, and
    every caller matches the reference."""
    kind, draw = case
    if kind == "ladder":
        family = _two_planes(10.0 ** -draw)
    else:
        family = _family(np.random.default_rng(draw), kind)
    if _certifies_full_rank(s.projector_matrix() for s in family):
        assert _gram_certifies(family)
    _check_every_caller(family)
    if kind != "nested":
        assert (intersect(family).subspace.dim == 0) == (kind != "nontrivial")


@pytest.mark.parametrize("seed", [11, 4242])
def test_the_iterate_long_shape_matches_the_reference(seed):
    # three subspaces of dimension 21 in R^30 meet in dimension 3
    family = random_family(np.random.default_rng(seed), 30, 3, 21, 21)
    _check_every_caller(family)
    assert intersect(family).subspace.dim == 3


# sqrt(RANK_TOL) * (1 + lam_max) is about 3e-5 here, so theta^2 / 2 crosses
# it between theta = 1e-2 and 1e-3
LADDER = [(10.0**-k, "certified" if k <= 2 else "factorized") for k in range(1, 9)]


@pytest.mark.parametrize("theta,branch", LADDER,
                         ids=[f"theta=1e-{k}-{branch}" for k, (_, branch) in
                              enumerate(LADDER, start=1)])
def test_the_near_threshold_ladder_takes_the_named_branch(monkeypatch, theta, branch):
    family = _two_planes(theta)
    blocks = np.concatenate([np.eye(4) - s.projector_matrix() for s in family])
    lam = np.linalg.eigvalsh(blocks.T @ blocks)
    assert (lam[0] > math.sqrt(RANK_TOL) * (1.0 + lam[-1])) == (branch == "certified")
    qr_calls = _spy(monkeypatch, "qr")
    assert intersect(family).subspace.dim == 0
    assert len(qr_calls) == (0 if branch == "certified" else 1)
    _check_every_caller(family)


def test_a_resolve_n200_draw_needs_no_qr_and_no_square_svd(monkeypatch):
    qr_calls, svd_calls = _spy(monkeypatch, "qr"), _spy(monkeypatch, "svd")
    _, _, inter = generate_instance(200, 8, (1, 100), np.random.default_rng(11))
    assert inter.subspace.dim == 0
    assert qr_calls == []
    assert svd_calls and all(shape[0] != shape[1] for shape in svd_calls)


def test_a_resolve_n200_draw_is_certified_by_one_cholesky(monkeypatch):
    subspaces, _, _ = generate_instance(200, 8, (1, 100), np.random.default_rng(11))
    cholesky_calls, eigvalsh_calls = _spy(monkeypatch, "cholesky"), _spy(monkeypatch, "eigvalsh")
    projected = []
    original = AffineSubspace.projector_matrix
    monkeypatch.setattr(AffineSubspace, "projector_matrix",
                        lambda self: projected.append(self) or original(self))
    assert intersect(subspaces).subspace.dim == 0
    assert cholesky_calls == [(200, 200)]
    assert eigvalsh_calls == []
    assert sorted(map(id, projected)) == sorted(map(id, subspaces))
    # and the certificate multiplies no two matrices
    tree = ast.parse(textwrap.dedent(inspect.getsource(_certifies_full_rank)))
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_an_iterate_long_draw_still_factorizes_once(monkeypatch):
    qr_calls = _spy(monkeypatch, "qr")
    _, _, inter = generate_instance(30, 3, (21, 21), np.random.default_rng(11))
    assert inter.subspace.dim == 3
    assert qr_calls == [(90, 31)]


def test_a_nonzero_right_hand_side_keeps_the_factorization(monkeypatch):
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((12, 4))
    rhs = rng.standard_normal(12)
    qr_calls = _spy(monkeypatch, "qr")
    got = solution_set(mat, rhs)
    assert qr_calls == [(12, 5)]
    _assert_same_solution(got, reference_solution_set(mat, rhs))
