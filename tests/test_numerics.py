import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    AffineSubspace,
    as_matrix,
    as_vector,
    intersect,
    orthonormal_basis,
    solution_set,
    spectral_norm,
    sym_eigen_extremes,
)

from circumproj import AffineIsometry, AffineSubspace, fixed_point_set, make_reflector
from circumproj.isometry import _require_fixed
from circumproj.numerics import _norm, _orthonormality_defect, _row_norms
from helpers import DEMO_CONFIG


def test_solution_set_frozen_overdetermined():
    # rows x = 0 and x = 2: least squares lands on x = 1 with residual sqrt(2)
    solution, null, residual = solution_set(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert solution.shape == (1,)
    assert null.shape == (0, 1)
    assert abs(solution[0] - 1.0) < 1e-12, f"expected 1.0, got {solution[0]}"
    assert abs(residual - np.sqrt(2.0)) < 1e-12, f"expected sqrt(2), got {residual}"


def test_solution_set_consistent_system_has_zero_residual():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((4, 6))
    x_true = rng.standard_normal(6)
    solution, null, residual = solution_set(mat, mat @ x_true)
    assert residual < 1e-10
    assert null.shape == (2, 6)
    # minimum-norm solution agrees with the pseudoinverse one
    expected = np.linalg.pinv(mat) @ (mat @ x_true)
    assert np.allclose(solution, expected, atol=1e-10)


@given(st.integers(0, 10**6))
def test_solution_set_tall_reduction_matches_svd_of_the_matrix(seed):
    """The QR path on a rank-deficient 3n x n system gives the null-space
    projector, solution and residual of an SVD of A itself."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    rank = int(rng.integers(1, n))
    mat = rng.standard_normal((3 * n, rank)) @ rng.standard_normal((rank, n))
    rhs = rng.standard_normal(3 * n)
    solution, null, residual = solution_set(mat, rhs)
    u, s, vt = np.linalg.svd(mat)
    expected = vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
    assert null.shape == (n - rank, n)
    assert np.allclose(null.T @ null, vt[rank:].T @ vt[rank:], rtol=0, atol=1e-12)
    assert np.allclose(solution, expected, rtol=0, atol=1e-12)
    assert abs(residual - np.linalg.norm(mat @ expected - rhs)) < 1e-12


def test_spectral_norm_frozen_nilpotent():
    assert abs(spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) - 1.0) < 1e-12


def test_spectral_norm_rejects_empty():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((0, 0)))


def test_sym_eigen_extremes_frozen():
    low, high = sym_eigen_extremes(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(low + 1.0) < 1e-12 and abs(high - 1.0) < 1e-12


def test_sym_eigen_extremes_symmetrizes_input():
    """[[0,2],[0,0]] symmetrizes to the frozen swap matrix."""
    low, high = sym_eigen_extremes(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert abs(low + 1.0) < 1e-12 and abs(high - 1.0) < 1e-12


def test_sym_eigen_extremes_rejects_nonsquare():
    with pytest.raises(ValueError):
        sym_eigen_extremes(np.zeros((2, 3)))


def test_as_vector_rejects_nonfinite_and_matrix_input():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])


def test_orthonormal_basis_of_zero_input_is_empty():
    basis = orthonormal_basis(np.zeros((3, 4)))
    assert basis.shape == (0, 4)


def test_solution_set_of_zero_rows_is_identity():
    solution, comp, residual = solution_set(np.zeros((0, 3)), np.zeros(0))
    assert comp.shape == (3, 3)
    assert np.allclose(comp @ comp.T, np.eye(3), atol=1e-12)
    assert np.array_equal(solution, np.zeros(3)) and residual == 0.0


@pytest.mark.parametrize("rhs", [np.ones(2), np.zeros(2)], ids=["ones", "zeros"])
def test_solution_set_of_zero_columns_is_the_empty_least_squares_answer(rhs):
    solution, null, residual = solution_set(np.zeros((2, 0)), rhs)
    assert solution.shape == (0,)
    assert null.shape == (0, 0)
    assert residual == np.linalg.norm(rhs)
    solution, null, residual = solution_set(np.zeros((0, 0)), np.zeros(0))
    assert solution.shape == (0,) and residual == 0.0
    assert np.array_equal(null, np.eye(0))


@pytest.mark.parametrize("copies", [1, 3])
def test_intersect_of_full_spaces_is_everything(copies):
    """I - P of the whole space is zero or rounding noise, which the floor
    of the rank cutoff must keep at rank 0."""
    rng = np.random.default_rng(copies)
    full = AffineSubspace(np.zeros(6), np.eye(6))
    noisy = AffineSubspace.linear(rng.standard_normal((6, 6)))
    for family in ([full] * copies, [noisy] * copies):
        inter = intersect(family)
        assert not inter.is_empty
        assert inter.subspace.dim == 6
        assert np.allclose(inter.subspace.projector_matrix(), np.eye(6), rtol=0, atol=1e-12)


@given(st.integers(0, 10**6))
def test_orthonormal_basis_rows_are_orthonormal_and_span_input(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 6))
    cols = int(rng.integers(1, 7))
    raw = rng.standard_normal((rows, cols))
    basis = orthonormal_basis(raw)
    gram = basis @ basis.T
    assert np.allclose(gram, np.eye(basis.shape[0]), atol=1e-10), (
        f"rows not orthonormal, gram defect {np.max(np.abs(gram - np.eye(basis.shape[0])))}"
    )
    # every input row must be reproduced by the projector onto the basis
    projector = basis.T @ basis
    assert np.allclose(raw @ projector, raw, atol=1e-9 * (1 + np.max(np.abs(raw))))
    assert basis.shape[0] == np.linalg.matrix_rank(raw, tol=1e-10)


@given(st.integers(0, 10**6))
def test_solution_set_complement_completes_an_orthonormal_square(seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 7))
    rank = int(rng.integers(1, ambient + 1))
    basis = orthonormal_basis(rng.standard_normal((rank, ambient)))
    _, comp, _ = solution_set(basis, np.zeros(rank))
    stacked = np.vstack([basis, comp])
    assert stacked.shape == (ambient, ambient)
    assert np.allclose(stacked @ stacked.T, np.eye(ambient), atol=1e-10)


@given(st.integers(0, 10**6))
def test_spectral_norm_dominates_action(seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
    bound = spectral_norm(mat)
    for _ in range(5):
        x = rng.standard_normal(mat.shape[1])
        assert np.linalg.norm(mat @ x) <= bound * np.linalg.norm(x) + 1e-10


@given(st.integers(0, 10**6))
def test_solution_set_picks_smallest_solution(seed):
    """Adding any null-space component must not shrink the norm."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((2, 5))
    rhs = rng.standard_normal(2)
    solution, null, residual = solution_set(mat, rhs)
    assert residual < 1e-9, f"wide system should be consistent, residual {residual}"
    assert null.shape == (3, 5)
    assert np.allclose(null @ solution, 0.0, atol=1e-10)
    for _ in range(3):
        shift = null.T @ rng.standard_normal(null.shape[0])
        if np.linalg.norm(shift) < 1e-12:
            continue
        assert np.linalg.norm(solution) <= np.linalg.norm(solution + shift) + 1e-10


def test_demo_run_loads_one_blas():
    # numpy and scipy each bundle a BLAS with its own thread pool; calls
    # alternating between the two stall on each other's spinning threads,
    # so a run must not need scipy, and must not load it
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import circumproj\n"
            f"config = circumproj.load_config({str(DEMO_CONFIG)!r})\n"
            "circumproj.run_experiment(config)\n"
            "loaded = [name for name, module in sys.modules.items()\n"
            "          if name.split('.')[0] == 'scipy' and module is not None]\n"
            "assert not loaded, f'scipy was loaded: {loaded}'\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


@given(st.integers(0, 10**6), st.integers(1, 12), st.floats(0.0, 1e-9))
def test_the_orthonormality_defect_has_the_bits_of_its_expression(seed, n, noise):
    """Both constructors' defect, of B B^T - I for a basis B and of
    Q^T Q - I for an isometry, by the one in-place helper."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0] + noise * rng.standard_normal((n, n))
    rows = Q[: int(rng.integers(1, n + 1))]
    want_rows = np.max(np.abs(rows @ rows.T - np.eye(rows.shape[0])))
    want_q = np.max(np.abs(Q.T @ Q - np.eye(n)))
    assert np.float64(_orthonormality_defect(rows)).tobytes() == want_rows.tobytes()
    assert np.float64(_orthonormality_defect(Q.T)).tobytes() == want_q.tobytes()


def test_each_constructor_keeps_its_own_orthonormality_message():
    with pytest.raises(ValueError, match=r"^basis rows must be orthonormal to 1e-10, "
                                         r"defect 3\.000e\+00$"):
        AffineSubspace(np.zeros(2), np.array([[2.0, 0.0]]))
    with pytest.raises(ValueError, match=r"^linear part is not orthogonal, defect 3\.000e\+00$"):
        AffineIsometry(np.diag([2.0, 1.0]), np.zeros(2))


@pytest.mark.parametrize("n", [1, 2, 30, 60, 200])
def test_row_norms_equal_the_norm_of_each_row_bit_for_bit(n):
    """The one stacked row norm, which the trace writer and the merge of
    near-equal images both use, has the bits of ``_norm`` row by row."""
    rows = np.random.default_rng(n).standard_normal((40, n)) * np.logspace(-8, 8, 40)[:, None]
    norms = _row_norms(rows)
    assert [x.hex() for x in norms.tolist()] == [_norm(row).hex() for row in rows]


@pytest.mark.parametrize("n", [1, 30, 200])
def test_row_norms_whose_squares_overflow_stay_finite(n):
    """Rows at 2^520 square past the float range; their norms are the unit
    rows' norms times 2^520, bit for bit, beside rows that do not overflow,
    which keep the bits of ``_norm``. A norm beyond the range is infinite."""
    unit = np.random.default_rng(n).standard_normal((6, n))
    rows = np.vstack([np.ldexp(unit, 520), unit, np.full((1, n), np.finfo(float).max)])
    with np.errstate(over="ignore"):
        norms = _row_norms(rows)
    assert norms[:6].tobytes() == np.ldexp(_row_norms(unit), 520).tobytes()
    assert [x.hex() for x in norms[6:12].tolist()] == [_norm(row).hex() for row in unit]
    assert norms[12] == (np.inf if n > 1 else np.finfo(float).max)


@pytest.mark.parametrize("j", [0, 500, 520])
def test_consistency_decisions_hold_when_the_squares_overflow(j):
    """Each relative-tolerance decision takes its norms by ``_row_norms``,
    finite wherever the norm is in the float range. With ``_norm`` the sum
    of squares overflows at 2^520: the tolerance becomes inf, and the test
    passes anything, with an overflow warning."""
    far = np.ldexp(1.0, j)
    line = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
    parallel = AffineSubspace(np.array([0.0, far]), np.array([[1.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert intersect([line, parallel]).is_empty
        assert fixed_point_set(AffineIsometry(np.eye(2), np.array([far, 0.0]))) is None
        with pytest.raises(ValueError, match="moves the given fixed set"):
            _require_fixed((make_reflector(line),), AffineSubspace.point([0.0, far]), "it")
        assert not parallel.is_linear()
