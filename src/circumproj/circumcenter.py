"""Circumcenters of finite point sets and the maps they induce.

The circumcenter of a finite set K is the unique point of the affine hull
of K equidistant from every point of K, when such a point exists. Applied
to the images {T x : T in S} of a point under a finite family of affine
isometries, it yields an iteration map whose fixed points contain the
common fixed set of the family.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from typing import Optional, Sequence

import numpy as np

from .isometry import AffineIsometry, _common_fixed_points
from .numerics import DEFAULT_TOL, Tolerance, _norm, as_vector
from .subspace import AffineSubspace

__all__ = [
    "CircumcenterResult",
    "NumericalPropernessError",
    "OperatorSet",
    "circumcenter",
    "circumcenter_map",
    "build_psi",
    "DEDUP_BUDGET_BYTES",
]

# The most memory the deduplication of one step's images may take: its two
# k x k float64 buffers (the Gram matrix and the pairwise sums) need 16 k^2
# bytes for k words, so a family may have at most 8192 words.
DEDUP_BUDGET_BYTES = 2**30

_EPS = float(np.finfo(float).eps)


class NumericalPropernessError(RuntimeError):
    """Raised when a circumcenter that theory guarantees cannot be produced
    numerically. Carries the achieved equidistance spread and the
    equidistance residual of the failed candidate."""

    def __init__(self, spread: float, residual: float):
        super().__init__(
            f"circumcenter absent within tolerance, spread {spread:.3e}, "
            f"equidistance residual {residual:.3e}"
        )
        self.spread = spread
        self.residual = residual


@dataclass(frozen=True)
class CircumcenterResult:
    """Outcome of a circumcenter computation.

    ``center`` is None when no point of the affine hull is equidistant from
    all inputs within tolerance. ``coefficients`` are affine-hull
    coordinates of the candidate relative to the first deduplicated point
    p0, so the candidate is p0 + D^T a for the offsets D; they are the
    minimum-norm choice, which is one valid selection among many for
    affinely dependent inputs, so compare centers rather than coefficients.
    ``equidistance_spread`` is max minus min of the distances from the
    candidate to the input points. ``equidistance_residual`` is
    ||h/2 - D y|| for the candidate's offset y from p0, with h_i = ||d_i||^2:
    how far the equidistance system D y = h/2 is from consistent. It is 0 up
    to rounding when a circumcenter exists; the candidate lies in the hull
    by construction, so it has no hull distance to report.
    """

    center: Optional[np.ndarray]
    coefficients: np.ndarray
    equidistance_spread: float
    equidistance_residual: float


def _distinct(points: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, float]:
    """Greedy first-occurrence representatives at eq_tol, and the diameter.

    Point i is dropped when it lies within eq_tol * (1 + largest norm) of
    an earlier kept point. Near the threshold t, a squared distance read off
    the Gram matrix and a directly measured one differ by less than
    2 (n + 2) eps (|p_i|^2 + |p_j|^2 + t^2), so the Gram distances rule out
    the pairs beyond twice that margin and every other pair is measured
    directly. One bound on every margin settles the common case of no near
    pair before the margins are formed. A kept point that drops a point and
    is near still others measures all later near points at once, so k
    coincident points take one vectorised pass, not k - 1 trips through the
    loop. The diameter of the points comes from the Gram distances.
    """
    count = points.shape[0]
    gram = points @ points.T
    # a view: it is read before gram is overwritten below
    norms_sq = gram.diagonal()
    largest_sq = float(norms_sq.max())
    threshold = tol.eq_tol * (1.0 + math.sqrt(largest_sq))
    # In place, in two n x n buffers: each step is an operation of the plain
    # formulas dist_sq = pair_sq - 2 gram and margin = c (pair_sq + t^2), in
    # their order, so the bits are theirs (doubling is exact).
    pair_sq = norms_sq[:, None] + norms_sq
    dist_sq = np.subtract(pair_sq, np.multiply(gram, 2.0, out=gram), out=gram)
    diameter = math.sqrt(max(float(dist_sq.max()), 0.0))
    threshold_sq = threshold**2
    scale = 4.0 * (points.shape[1] + 2) * _EPS
    # Every row is near on the diagonal, whose Gram distance is exactly 0,
    # unless a squared norm overflows, which makes the diameter NaN. Rounding
    # is monotone, so the margin at the largest squared norm bounds every
    # margin, and k distances within that bound mean no near pair.
    bound = (2.0 * largest_sq + threshold_sq) * scale + threshold_sq
    if not math.isnan(diameter) and np.count_nonzero(dist_sq <= bound) == count:
        return np.arange(count), diameter
    margin = np.multiply(np.add(pair_sq, threshold_sq, out=pair_sq), scale, out=pair_sq)
    near = dist_sq <= np.add(margin, threshold_sq, out=margin)
    # free both n x n float buffers before the loop allocates
    del gram, norms_sq, pair_sq, dist_sq, margin
    # only a row near more than one point may be dropped; a NaN diagonal is
    # near nothing, so a row with one near pair may have a count of 1
    counts = near.sum(axis=1)
    droppable = counts > 1
    keep = np.ones(count, dtype=bool)
    for i in droppable.nonzero()[0].tolist():
        if not keep[i]:
            continue
        for j in (near[i, :i] & keep[:i]).nonzero()[0].tolist():
            if _norm(points[i] - points[j]) <= threshold:
                keep[i] = False
                if counts[j] > 2:
                    # j is near more than itself and i: measure the later
                    # near points at once, each by the dot product of _norm
                    # (a stack of 1 x n by n x 1 products)
                    later = (near[i + 1:, j] & droppable[i + 1:]).nonzero()[0] + (i + 1)
                    diff = points[later]
                    diff -= points[j]
                    norms = np.sqrt(np.matmul(diff[:, None], diff[:, :, None]).ravel())
                    keep[later[norms <= threshold]] = False
                break
    return keep.nonzero()[0], diameter


def _spread(points: np.ndarray, center: np.ndarray) -> float:
    """Largest minus smallest distance from ``center`` to the points, with
    the reductions of ``np.linalg.norm(points - center, axis=1)``."""
    diff = points - center
    dists = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=1))
    return float(dists.max() - dists.min())


def circumcenter(points, tol: Tolerance = DEFAULT_TOL) -> CircumcenterResult:
    """Circumcenter of a finite point set, if it exists.

    Points are deduplicated at eq_tol first. With d_i the offsets of the
    remaining points from the first one, p0, a point p0 + y is equidistant
    from all of them when <d_i, y> = h_i / 2 with h_i = ||d_i||^2. The
    candidate takes the minimum-norm solution y of this system, which lies
    in the hull's direction space, from one thin SVD D = U S V^T of the
    offset rows: with rank r at tol.rank_tol relative to the largest
    singular value, y = V_r S_r^-1 U_r^T h / 2. Working on D itself, not on
    its Gram matrix, keeps the conditioning of the offsets rather than its
    square, so nearly parallel hull directions are kept. The candidate is
    accepted when the distances from it to all original points agree
    within tol.consistency_tol relative to the diameter; otherwise the
    result is absent with the achieved spread attached.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d array of points")
    if not np.isfinite(pts).all():
        raise ValueError("point entries must be finite")
    candidate, spread, accepted, system = _solve(pts, tol)
    if system is None:
        return CircumcenterResult(candidate, np.zeros(0), spread, 0.0)
    half, u, projected, coords, s = system
    return CircumcenterResult(candidate if accepted else None, u @ (coords / s), spread,
                              _norm(half - u @ projected))


def _solve(pts: np.ndarray, tol: Tolerance) -> tuple:
    """The solve of :func:`circumcenter`, shared with the iteration step:
    (candidate, spread, accepted, system), ``system`` None for one distinct
    point, else (half, u, projected, coords, s). Any non-finite point makes
    the diameter NaN, so finite points pass without a test of their own."""
    kept, diameter = _distinct(pts, tol)
    if math.isnan(diameter) and not np.isfinite(pts).all():
        raise ValueError("point entries must be finite")
    rep = pts if kept.shape[0] == pts.shape[0] else pts[kept]
    p0 = rep[0]
    offsets = rep[1:] - p0
    if offsets.shape[0] == 0:
        return p0.copy(), _spread(pts, p0), True, None
    half = 0.5 * np.einsum("ij,ij->i", offsets, offsets)
    u, s, vt = np.linalg.svd(offsets, full_matrices=False)
    rank = np.count_nonzero(s > s[0] * tol.rank_tol)
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    projected = u.T @ half
    coords = projected / s
    candidate = p0 + vt.T @ coords
    spread = _spread(pts, candidate)
    accepted = spread <= tol.consistency_tol * (1.0 + diameter)
    return candidate, spread, accepted, (half, u, projected, coords, s)


def _center(points: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The step of :func:`circumcenter_map`. A rejection raises, so only then
    is the full :func:`circumcenter` result computed, for the error."""
    candidate, _, accepted, _ = _solve(points, tol)
    if not accepted:
        result = circumcenter(points, tol)
        raise NumericalPropernessError(result.equidistance_spread, result.equidistance_residual)
    return candidate


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """A finite family of affine isometries, written as words over generators.

    Each word is a tuple of indices into ``generators``; the word
    (i, j, ..) is the product that applies generator i first, then j, and
    so on, and the empty word is the identity. ``words=None`` lists every
    generator on its own. The words must be prefix-closed, in order: each
    nonempty word without its last letter is empty or an earlier word. Every
    generator must occur in some word. A family has at most 8192 words:
    deduplicating the images of k words takes 16 k^2 bytes, and
    DEDUP_BUDGET_BYTES allows 2^30.

    Letters are integer indices, bools excepted, and are stored as plain
    ints. Construction also lays out the step plan of :meth:`images`: per
    word, its last generator's ``Q`` and ``b`` (the generator's own arrays)
    and the row it applies them to. The validated layout (the int words,
    and which generator each step applies to which row) depends only on the
    words and the number of generators, so it is built once per shape and
    cached, and families of one shape share their ``words``; an instance
    binds the steps to its own generators' arrays.

    Construction solves the stacked systems (Q_i - I) x = -b_i of the
    distinct generator objects in one call for ``common_fixed``, which for
    prefix-closed words is the common fixed set of the whole family; it
    fails when the generators share no fixed point. ``fixed`` is that
    common fixed set when the caller already has it: it is then checked,
    not computed, and construction fails when a generator moves its anchor
    by more than tol.consistency_tol relative to the anchor's norm, or a
    basis direction by more than tol.consistency_tol. No product is ever
    formed.
    """

    generators: tuple
    words: Optional[tuple] = None
    tol: InitVar[Tolerance] = DEFAULT_TOL
    fixed: InitVar[Optional[AffineSubspace]] = None
    common_fixed: AffineSubspace = field(init=False)
    _plan: tuple = field(init=False, repr=False)

    def __post_init__(self, tol: Tolerance, fixed: Optional[AffineSubspace]) -> None:
        generators = tuple(self.generators)
        if len(generators) == 0:
            raise ValueError("operator set needs at least one generator")
        for op in generators:
            if not isinstance(op, AffineIsometry):
                raise ValueError("operator sets hold affine isometries only")
            if op.ambient_dim != generators[0].ambient_dim:
                raise ValueError("operators live in different dimensions")
        count = len(generators)
        words = (tuple((i,) for i in range(count)) if self.words is None
                 else tuple(tuple(word) for word in self.words))
        _require_word_budget(len(words))
        # The layout cache is keyed by plain int letters only: 1.0, True
        # and np.bool_ compare and hash equal to 1, and must still raise.
        if not set(map(type, chain.from_iterable(words))) <= {int}:
            words = tuple(_letters(word, count) for word in words)
        words, steps = _layout(words, count)
        plan = tuple((None, None, source) if letter is None
                     else (generators[letter].Q, generators[letter].b, source)
                     for letter, source in steps)
        distinct = {id(op): op for op in generators}.values()
        if fixed is None:
            fixed = _common_fixed_points(tuple(distinct), tol)
            if fixed is None:
                raise ValueError("operators share no common fixed point")
        else:
            _require_fixed(distinct, fixed, tol)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "common_fixed", fixed)
        object.__setattr__(self, "_plan", plan)

    def images(self, x) -> np.ndarray:
        """The images of x under the words, one row per word in order; each
        is one generator applied to the image of the word's prefix, and a
        repeated word copies its first image."""
        return self._images(as_vector(x))

    def _images(self, x: np.ndarray) -> np.ndarray:  # x: a finite vector, unchecked
        out = np.empty((len(self._plan), x.shape[0]))
        sources = [x, *out]
        for row, (Q, b, source) in zip(sources[1:], self._plan):
            if Q is None:
                row[...] = sources[source]
            else:
                np.dot(Q, sources[source], out=row)
                row += b
        return out


def _letters(word: tuple, count: int) -> tuple:
    """The word's letters as plain ints in range(count)."""
    letters = []
    for letter in word:
        if isinstance(letter, (bool, np.bool_)):
            raise ValueError(f"word {word} has the boolean letter {letter}; "
                             "letters are generator indices")
        try:
            index = operator.index(letter)
        except TypeError:
            raise ValueError(f"word {word} has the letter {letter!r}, "
                             "not an integer index") from None
        if not 0 <= index < count:
            raise ValueError(f"word {word} has a letter outside range({count})")
        letters.append(index)
    return tuple(letters)


@lru_cache(maxsize=64)
def _layout(words: tuple, count: int) -> tuple:
    """The validated layout of words over ``count`` generators, built once
    per shape: the words with plain int letters, and per word the step that
    images it, (letter, source). The step applies generator ``letter`` to
    its source row, or copies the source when ``letter`` is None (a repeated
    word); source 0 is x and source r + 1 is row r."""
    words = tuple(_letters(word, count) for word in words)
    # Row of each word's first occurrence, -1 for the empty prefix (x).
    first_row = {(): -1}
    steps = []
    for row, word in enumerate(words):
        if word[:-1] not in first_row:
            raise ValueError(f"word {word} is not preceded by its prefix {word[:-1]}; "
                             "words must be prefix-closed")
        if word in first_row:
            steps.append((None, first_row[word] + 1))
        else:
            steps.append((word[-1], first_row[word[:-1]] + 1))
            first_row[word] = row
    unused = sorted(set(range(count)).difference(*words))
    if unused:
        raise ValueError(f"generators {unused} occur in no word")
    return words, tuple(steps)


def _require_word_budget(count: int) -> None:
    """Raise unless the images of ``count`` words dedup within DEDUP_BUDGET_BYTES."""
    need = 16 * count**2
    if need > DEDUP_BUDGET_BYTES:
        raise ValueError(
            f"{count} words need {need} bytes to deduplicate their images, "
            f"budget is {DEDUP_BUDGET_BYTES}"
        )


def _require_fixed(generators, fixed: AffineSubspace, tol: Tolerance) -> None:
    """Raise unless every generator fixes the anchor and the basis of ``fixed``."""
    anchor_tol = tol.consistency_tol * (1.0 + float(np.linalg.norm(fixed.anchor)))
    for op in generators:
        if fixed.ambient_dim != op.ambient_dim:
            raise ValueError("fixed set and operators live in different dimensions")
        anchor_gap = float(np.linalg.norm(op.Q @ fixed.anchor + op.b - fixed.anchor))
        direction_gap = float(np.max(np.linalg.norm(fixed.basis @ op.Q.T - fixed.basis, axis=1),
                                     initial=0.0))
        if anchor_gap > anchor_tol or direction_gap > tol.consistency_tol:
            raise ValueError(
                f"a generator moves the given fixed set, anchor gap {anchor_gap:.3e}, "
                f"direction gap {direction_gap:.3e}"
            )


def circumcenter_map(operator_set: OperatorSet, x,
                     tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Circumcenter of the images of x under the family.

    Raises :class:`NumericalPropernessError` when the circumcenter is
    absent within tolerance, since for isometry families with a common
    fixed point it exists in exact arithmetic.
    """
    return _center(operator_set.images(x), tol)


def build_psi(reflectors: Sequence[AffineIsometry],
              tol: Tolerance = DEFAULT_TOL,
              fixed: Optional[AffineSubspace] = None) -> OperatorSet:
    """The increasing-index products of the given reflectors, as reduced words.

    For reflectors R_1, .., R_m the family holds the operators
    R_{i_r} .. R_{i_1} over index subsets i_1 < .. < i_r, and the empty
    subset is the identity. Its words are these subsets, ordered by size and
    lexicographically within a size, except that a subset is left out when
    its product names the same operator as an earlier one: reflectors are
    involutions, so the same reflector object twice in a row cancels, and
    two subsets whose products cancel down to the same sequence of objects
    are one operator. Without repeated objects all 2^m subsets stay; the
    palindrome R_1..R_5..R_1 keeps 342 of 512. The kept words are
    prefix-closed, and each is imaged along the same chain as in the full
    list. The words depend only on which inputs are the same object, so
    they are built once per pattern of repeats, such as (0, 1, 2, 1, 0)
    for R_1 R_2 R_3 R_2 R_1, and then shared. Inputs must be reflectors of
    linear subspaces, that is linear isometries with symmetric linear part. ``fixed`` is the common fixed
    set of the reflectors when the caller already has it (see
    :class:`OperatorSet`). The 2^m subsets must fit the word budget of
    :class:`OperatorSet`, DEDUP_BUDGET_BYTES, which allows m <= 13; this
    is checked before any subset is enumerated, so a longer list fails
    at once even when its reduced words would fit.
    """
    generators = tuple(reflectors)
    _require_word_budget(2 ** len(generators))
    for op in generators:
        if not isinstance(op, AffineIsometry) or not op.is_linear(tol):
            raise ValueError("inputs must be reflectors of linear subspaces")
        if float(np.max(np.abs(op.Q - op.Q.T))) > tol.eq_tol:
            raise ValueError("inputs must have symmetric linear part")
    first = {}
    repeats = tuple(first.setdefault(id(op), i) for i, op in enumerate(generators))
    return OperatorSet(generators, _psi_words(repeats), tol, fixed=fixed)


@lru_cache(maxsize=64)
def _psi_words(repeats: tuple) -> tuple:
    """The reduced words of :func:`build_psi` over generators whose object
    identities follow ``repeats``, the index of each one's first occurrence;
    they depend on nothing else, so they are built once per pattern."""
    words, reduced_forms = [], set()
    for size in range(len(repeats) + 1):
        for word in combinations(range(len(repeats)), size):
            reduced = []
            for i in word:
                if reduced and reduced[-1] == repeats[i]:
                    reduced.pop()
                else:
                    reduced.append(repeats[i])
            form = tuple(reduced)
            if form not in reduced_forms:
                reduced_forms.add(form)
                words.append(word)
    return tuple(words)
