"""Dense small-matrix kernels shared by every other module.

Everything here operates on plain numpy float arrays. Rank decisions scale
with the largest singular value so callers never tune absolute thresholds to
the scale of their data. Every affine solution set of the package
(intersections, fixed point sets, orthogonal complements) comes from
:func:`solution_set`, so its rank rule, RANK_TOL * (1 + largest), is
decided in one place. One Cholesky factorization in
:func:`_certifies_full_rank` may only certify, for ``intersect`` alone,
that linear subspaces given by their projectors meet at the origin alone,
with a cut derived from RANK_TOL, and never solves. All functions are pure
and never mutate inputs.
Factorizations use numpy.linalg only: scipy.linalg links a second BLAS, and
calls alternating between the two stall on each other's spinning threads.

The package runs on one BLAS thread. :func:`_one_blas_thread` sets the
OpenBLAS that numpy loaded to one thread for the duration of
``parse_config``, ``run_experiment`` and ``compute_rates``, and gives the
caller's thread count back however they exit. LAPACK's factorizations
return different bits on one thread and on two, so this makes every
artifact byte independent of the caller's thread count; the matrices here
are too small for a second thread to pay for its synchronization. Where
numpy links no OpenBLAS that exports a thread setter, nothing is pinned.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

__all__ = [
    "RANK_TOL",
    "CONSISTENCY_TOL",
    "EQ_TOL",
    "as_vector",
    "as_matrix",
    "orthonormal_basis",
    "solution_set",
    "spectral_norm",
    "sym_eigen_extremes",
]


# The cutoffs of every numerical decision in the package. They are policy of
# this float64 implementation, fixed: no argument or config key sets them.
# RANK_TOL is the relative singular value cutoff for rank decisions,
# CONSISTENCY_TOL decides whether a linear system or a membership test is
# satisfied, and EQ_TOL is the pointwise equality threshold of exactness
# checks, such as a zero offset or a self-adjoint part. The circumcenter step
# merges points and cuts rank by its own rounding model instead, stated in
# ``circumcenter``, with RANK_TOL as the floor of its relative cut.
RANK_TOL = 1e-10
CONSISTENCY_TOL = 1e-8
EQ_TOL = 1e-10

# The largest entry of Q^T Q - I (of B B^T - I for orthonormal rows B) that
# construction accepts as orthogonal.
_ORTHONORMALITY_TOL = 1e-10


class _OpenBLAS(NamedTuple):
    """Three functions of the OpenBLAS that numpy's linear algebra runs on."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    get_corename: Callable[[], bytes]


@cache
def _openblas() -> Optional[_OpenBLAS]:
    """The OpenBLAS that numpy itself loaded, or None where numpy links no
    OpenBLAS that exports a thread setter.

    The symbols are looked up through numpy.linalg's own extension module:
    a library handle finds symbols in that library and its dependencies
    only, so the lookup reaches numpy's OpenBLAS even where another package,
    scipy for one, loaded a second OpenBLAS into the process. numpy's wheels
    name the functions with a ``scipy_`` prefix and a ``64_`` suffix; other
    builds of OpenBLAS have either or neither.
    """
    try:
        from numpy.linalg import _umath_linalg
        handle = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            names = [f"{prefix}openblas_{name}{suffix}"
                     for name in ("get_num_threads", "set_num_threads", "get_corename")]
            if all(hasattr(handle, name) for name in names):
                get, set_, corename = (getattr(handle, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return _OpenBLAS(get, set_, corename)
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread and restore the caller's count
    when it returns or raises; a body on one thread already, a nested one
    included, changes nothing. The count is process-wide: a run in another
    Python thread at the same time may find it restored before it ends."""
    blas = _openblas()
    threads = 1 if blas is None else blas.get_num_threads()
    if threads == 1:
        yield
        return
    blas.set_num_threads(1)
    try:
        yield
    finally:
        blas.set_num_threads(threads)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d float array, by the same reduction, so
    with the same bits, without the wrapper's cost."""
    return math.sqrt(v.dot(v))


# The exponent that brings the sum of squares of every finite vector into
# range: entries times 2^-600 are below 2^424, so their squares stay below
# 2^848, and an entry that the shift takes out of the normal range, one below
# 2^-422, cannot move a norm whose sum of squares overflowed, one above 2^511.
_SHIFT = 600


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``_norm`` of each row of a 2-d array, with the same bits, from one
    stack of 1 x n by n x 1 products. A row whose sum of squares overflows
    is measured at 2^-_SHIFT times its size and scaled back, exactly, so its
    norm is finite whenever it is in the float range."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.matmul(rows[:, None], rows[:, :, None]).ravel())
        over = norms == math.inf
        if over.any():
            shifted = np.ldexp(rows[over], -_SHIFT)
            norms[over] = np.ldexp(
                np.sqrt(np.matmul(shifted[:, None], shifted[:, :, None]).ravel()), _SHIFT)
    return norms


def _safe_norm(v: np.ndarray) -> float:
    """``_norm`` of a 1-d array by ``_row_norms``: its bits where it is finite,
    and finite, with no overflow warning, wherever the norm is in range."""
    return float(_row_norms(v[None])[0])


def _consistent(residual: float, rhs: np.ndarray) -> bool:
    """The one consistency rule: residual <= CONSISTENCY_TOL (1 + ||rhs||)."""
    return residual <= CONSISTENCY_TOL * (1.0 + _safe_norm(rhs))


def _orthonormality_defect(rows: np.ndarray) -> float:
    """The largest entry of |rows rows^T - I|, formed in the one Gram buffer:
    x - 0.0 is x off the diagonal, so it has the bits of the expression."""
    gram = rows @ rows.T
    gram.flat[::gram.shape[0] + 1] -= 1.0
    return float(np.max(np.abs(gram, out=gram)))


def as_vector(x) -> np.ndarray:
    """Convert to a finite 1-d float array, validating shape and entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def as_matrix(a) -> np.ndarray:
    """Convert to a finite 2-d float array, validating shape and entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def orthonormal_basis(vectors) -> np.ndarray:
    """Orthonormal rows spanning the same space as the input vectors.

    Accepts a sequence of equal-length vectors or a 2-d array whose rows
    are the vectors. Returns an (r, n) array with orthonormal rows where r
    is the numerical rank, decided by a rank-revealing orthogonal
    factorization with singular values below ``RANK_TOL`` relative to the
    largest one treated as zero.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2:
        raise ValueError("input vectors must share one ambient dimension")
    if arr.shape[1] < 1:
        raise ValueError("ambient dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if arr.shape[0] == 0 or not np.any(arr):
        return np.zeros((0, arr.shape[1]))
    u, s, _ = np.linalg.svd(arr.T, full_matrices=False)
    rank = int(np.sum(s > s[0] * RANK_TOL))
    return np.ascontiguousarray(u[:, :rank].T)


def solution_set(A, b) -> tuple[np.ndarray, np.ndarray, float]:
    """Least squares solution set of A x = b, from one SVD.

    Returns ``(x, null_basis, residual)``: the minimum-norm minimizer x of
    ||A x - b||, orthonormal rows spanning the numerical null space of A,
    and the residual ||A x - b||. Singular values at or below
    RANK_TOL * (1 + largest) count as zero. The offset in that cutoff
    matters: when every entry of A is rounding noise, as in M - I for a
    product that collapses to the identity, a cutoff relative to the largest
    singular value alone would keep the noise as rank and report no null
    directions at all. A with no rows has the identity as its null basis;
    A with no columns has the empty solution, a (0, 0) null basis and
    residual ||b||.

    A tall A, with more rows than its n columns, is first reduced by the QR
    factorization of [A | b]: the leading n x n block of the triangle has
    the singular values and right singular vectors of A, its last column is
    Q^T b, and its corner is the part of b outside the range of A. A zero
    right-hand side has the zero solution without a solve.

    The solution set of a stacked homogeneous system with full column
    rank is the origin alone; ``intersect`` asks
    :func:`_certifies_full_rank`, which reads the projectors and forms no
    block, for that case before it stacks its blocks.
    """
    mat = as_matrix(A)
    rhs = as_vector(b)
    rows, n = mat.shape
    if rows != rhs.shape[0]:
        raise ValueError(f"matrix has {rows} rows but right-hand side has {rhs.shape[0]} entries")
    if rows == 0:
        return np.zeros(n), np.eye(n), 0.0
    if n == 0:
        return np.zeros(0), np.zeros((0, 0)), _safe_norm(rhs)
    outside = 0.0
    if rows > n:
        r = np.linalg.qr(np.column_stack([mat, rhs]), mode="r")
        mat, rhs, outside = r[:n, :n], r[:n, n], abs(float(r[n, n]))
    u, s, vt = np.linalg.svd(mat)
    rank = int(np.count_nonzero(s > RANK_TOL * (1.0 + float(s[0]))))
    null_basis = np.ascontiguousarray(vt[rank:])
    if not np.any(rhs):
        return np.zeros(n), null_basis, outside
    coords = u[:, :rank].T @ rhs
    solution = vt[:rank].T @ (coords / s[:rank])
    residual = math.hypot(_safe_norm(rhs - u[:, :rank] @ coords), outside)
    return solution, null_basis, residual


def _certifies_full_rank(projectors: Iterable[np.ndarray]) -> bool:
    """Whether m >= 2 orthogonal projectors P_i of R^n have subspaces that
    provably meet at the origin alone: whether the stack A of the blocks
    I - P_i has full column rank.

    The projectors are added one at a time into S = sum_i P_i, so no more
    than the sum, one projector and the factorization's copy are held at
    once, whatever m is. The test certifies exactly when
    ``np.linalg.cholesky`` succeeds on (m - tau) I - S, with
    tau = sqrt(RANK_TOL) * (1 + m); it only decides and never solves. Then
    the homogeneous system A x = 0 has the origin alone as its solution
    set, and ``intersect`` returns it as :func:`solution_set` would on the
    stack: the zero anchor, a (0, n) null basis, and residual 0, since
    Householder reflections keep a zero column exactly zero.

    Why the test is the Gram test of A. Each block is a projector, so
    (I - P_i)^T (I - P_i) = I - P_i, and A^T A = m I - S + E. For P = B^T B
    with orthonormality defect D = B B^T - I, the error of one term is
    B^T D B, whose norm is at most about r * 1e-10 for r basis rows, so
    ||E|| is at most about (sum_i r_i) * 1e-10 <= m n 1e-10. Forming the
    projectors and S adds about m n eps. When the Cholesky factorization of
    C = (m - tau) I - S succeeds, L L^T = C + F with ||F|| at most about
    n^2 eps ||C||, so lam_min(m I - S) >= tau - n^2 eps m. The smallest
    eigenvalue of A^T A is therefore at least tau less a delta of about
    m n 1e-10, about 2e-3 * tau at m = 8, n = 200.

    The test never certifies what the Gram eigen test, lam_min(A^T A) >
    sqrt(RANK_TOL) * (1 + lam_max(A^T A)), refuses outside that delta: each
    block has norm at most 1 up to the defect, so lam_max(A^T A) <= m and
    the Gram cut is at most tau. It may refuse a little more often, when
    lam_max < m; ``intersect`` then stacks the blocks, and on a trivial
    intersection their QR and SVD return the same bits. Nor can a certified
    answer disagree with the cut s > RANK_TOL * (1 + s_1) on the singular
    values s of A: s_1 <= sqrt(m) and s_n^2 >= tau - delta, so a certified
    s_n is at least about 3e-3 * sqrt(1 + m), seven orders of magnitude
    above the cut, while the QR's backward error moves s by at most about
    m n^2 eps s_1.
    """
    total, m = None, 0
    for projector in projectors:
        if total is None:
            total = np.negative(projector)
        else:
            total -= projector
        m += 1
    total.flat[::total.shape[0] + 1] += m - math.sqrt(RANK_TOL) * (1.0 + m)
    try:
        np.linalg.cholesky(total)
    except np.linalg.LinAlgError:
        return False
    return True


def spectral_norm(A) -> float:
    """Largest singular value of A.

    Equals the square root of the largest eigenvalue of A^T A, and is
    invariant under transposition.
    """
    mat = as_matrix(A)
    if mat.size == 0:
        raise ValueError("spectral norm of an empty matrix is undefined")
    return float(np.linalg.norm(mat, 2))


def sym_eigen_extremes(M) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric part (M + M^T) / 2.

    The input is symmetrized first: compressions B A B^T of self-adjoint
    operators are symmetric only up to round-off, and eigvalsh wants an
    exactly symmetric argument.
    """
    mat = as_matrix(M)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ValueError("eigenvalues of an empty matrix are undefined")
    sym = 0.5 * (mat + mat.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    return float(eigenvalues[0]), float(eigenvalues[-1])
