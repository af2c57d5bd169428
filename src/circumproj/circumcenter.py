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

from .isometry import AffineIsometry, _common_fixed_points, _is_self_adjoint, _require_fixed
from .numerics import CONSISTENCY_TOL, RANK_TOL, _norm, _row_norms, as_vector
from .subspace import AffineSubspace

__all__ = [
    "CircumcenterResult",
    "NumericalPropernessError",
    "OperatorSet",
    "circumcenter",
    "circumcenter_map",
    "build_psi",
    "WORD_LIMIT",
]

# The most words a family may have, 2^13, so build_psi takes at most 13
# reflectors. It bounds the k x n images of one step and the 2^m index
# subsets that build_psi enumerates.
WORD_LIMIT = 8192

_EPS = float(np.finfo(float).eps)

# The rounding model of the circumcenter step, the one source of its merge
# radius and its rank floor. The unit is u = eps (1 + M), M the largest norm
# of one step's images; ``methods._drive`` runs every homogeneous problem
# from a start of norm about 1, so M is the iterate's norm at that unit scale.
# 1 + M, not M: a run that lands on the fixed set {0} has images of norm
# about eps, whose differences are rounding left by earlier steps.
#
# The model has two sources of error, each within _ROUNDING units: the step's
# input x, as the previous solve rounded it, and each image's own rounding,
# the stored operator's departure from an exact isometry and the product's.
# Measured against extended precision on 30-dimensional psi families (three
# subspaces of dimension 21), the input's rounding reaches 6.8 units and the
# image's own 5.0 + 1.1; the images R3 x and x, one point in exact
# arithmetic, lie up to 13.8 units apart. Hence:
# - an image lies within 2 _ROUNDING units of the image of the exact input,
#   so two images of one point lie within 4 _ROUNDING units, the merge radius;
# - the input's rounding moves every image by an isometry, so the images are
#   those of a nearby point, and only their own rounding adds hull
#   directions: a singular value of the offsets at or below _ROUNDING units
#   is one along which every offset lies within one image's error, and the
#   solve, which divides by it, keeps only the directions above it.
# Both ends are bounded by what they must keep apart. A merge radius of 8
# units splits an image from its duplicate in the reduced psi words. A real
# hull direction of two lines at an angle of 1e-7 has 28.8 units, and a
# floor above it leaves that step without a circumcenter.
_ROUNDING = 16.0
_MERGE_UNITS = 4.0 * _ROUNDING
_RANK_UNITS = _ROUNDING


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


def _merge(points: np.ndarray) -> tuple:
    """The greedy first-occurrence representatives within the step's merge
    radius, from one sort, and the rounding unit u = eps (1 + M): (None, u)
    when no point merges into another, else (the kept row indices in order,
    u). M is the largest norm of the points, taken once, here.

    Point i is dropped when it lies within the threshold t = _MERGE_UNITS * u
    of an earlier kept point, by the distance that ``_norm`` measures (see
    the rounding model above).
    The points are projected onto the fixed unit vector ``_direction(n)``
    and sorted, and only pairs joined by a chain of projected gaps within
    the window t + 4 (n + 2) eps (t + M) are measured; each such run is
    resolved greedily in index order, its lowest undecided point kept and
    measured against all its later undecided points at once, so k
    coincident points take one vectorised pass. A run of two, the common
    case of one image repeating another, takes one ``_norm``.

    The window is safe. A measured distance within t means an exact
    distance within t (1 + (n + 2) eps). Each projection is exact to about
    n eps |p| <= n eps M, so the computed gap of such a pair is within
    t + 2 (n + 2) eps (t + M) to first order, half the margin. A pair split
    by a gap beyond the window has a larger computed gap still, since the
    sorted values differ by at least that gap and rounding is monotone. So
    the direction decides which pairs are measured, never which are kept.

    M comes from row-wise sums of squares. When 4 M^2, the bound on every
    squared offset, is not finite, a non-finite point raises ValueError;
    otherwise every point is kept and the unit is 0, so the solve cuts rank
    at RANK_TOL alone, and the squared offsets that overflow in the
    equidistance system make the circumcenter absent.
    """
    count, dim = points.shape
    largest_sq = float(np.maximum.reduce(np.einsum("ij,ij->i", points, points)))
    if not math.isfinite(4.0 * largest_sq):
        if not np.isfinite(points).all():
            raise ValueError("point entries must be finite")
        return None, 0.0
    largest = math.sqrt(largest_sq)
    unit = _EPS * (1.0 + largest)
    threshold = _MERGE_UNITS * unit
    window = threshold + 4.0 * (dim + 2) * _EPS * (threshold + largest)
    proj = points @ _direction(dim)
    # numpy's default sort maps about 0.3 MB more of its code into the
    # process than the stable one, which shows in the peak RSS of small runs
    order = proj.argsort(kind="stable")
    ordered = proj.take(order)
    near = (ordered[1:] - ordered[:-1] <= window).nonzero()[0].tolist()
    if not near:
        return None, unit
    # each run of near gaps p, p + 1, .. joins sorted positions start..stop
    runs = []
    for gap in near:
        if runs and runs[-1][1] == gap:
            runs[-1][1] = gap + 1
        else:
            runs.append([gap, gap + 1])
    order = order.tolist()
    dropped = set()
    for start, stop in runs:
        members = sorted(order[start:stop + 1])
        if len(members) == 2:
            first, second = members
            if _norm(points[second] - points[first]) <= threshold:
                dropped.add(second)
            continue
        members = np.array(members)
        while members.shape[0] > 1:
            later = members[1:]
            far = _row_norms(points[later] - points[members[0]]) > threshold
            dropped.update(later[~far].tolist())
            members = later[far]
    if not dropped:
        return None, unit
    return [i for i in range(count) if i not in dropped], unit


@lru_cache(maxsize=64)
def _direction(dim: int) -> np.ndarray:
    """The unit vector that :func:`_merge` projects R^dim onto: drawn
    from a generator seeded by a constant and ``dim`` alone, never by a
    hash, so it is the same in every process and run."""
    raw = np.random.default_rng((0xC1C, dim)).standard_normal(dim)
    direction = raw / _norm(raw)
    direction.flags.writeable = False
    return direction


def _diameter(points: np.ndarray) -> float:
    """The largest distance between two of the points, each measured
    directly, one point against all later ones at a time: O(k^2 n) time in
    O(k n) memory, so it suits the rare step that needs it."""
    largest_sq = 0.0
    for i in range(points.shape[0] - 1):
        diff = points[i + 1:] - points[i]
        largest_sq = max(largest_sq, float(np.einsum("ij,ij->i", diff, diff).max()))
    return math.sqrt(largest_sq)


def _spread(points: np.ndarray, center: np.ndarray) -> float:
    """Largest minus smallest distance from ``center`` to the points, with
    the reductions of ``np.linalg.norm(points - center, axis=1)``. The
    square root is monotone and correctly rounded, so the root of the
    largest sum of squares is the largest distance, bit for bit."""
    diff = points - center
    sums = np.add.reduce(np.multiply(diff, diff, out=diff), axis=1)
    return math.sqrt(np.maximum.reduce(sums)) - math.sqrt(np.minimum.reduce(sums))


def circumcenter(points) -> CircumcenterResult:
    """Circumcenter of a finite point set, if it exists.

    Points are merged first: those within 64 eps (1 + M) of an earlier
    kept point, M the largest point norm, count as that point (the rounding
    model of this module). With d_i the offsets of the remaining points from
    the first one, p0, a point p0 + y is equidistant from all of them when
    <d_i, y> = h_i / 2 with h_i = ||d_i||^2. The candidate takes the
    minimum-norm solution y of this system, which lies in the hull's
    direction space, from one thin SVD D = U S V^T of the offset rows:
    keeping the r singular values above both RANK_TOL times the largest and
    the rounding floor 16 eps (1 + M), y = V_r S_r^-1 U_r^T h / 2. When none
    is kept, every offset is rounding, and p0 is the center. Working on D
    itself, not on its Gram matrix, keeps the conditioning of the offsets
    rather than its square, so nearly parallel hull directions are kept. The
    candidate is accepted when the distances from it to all original points
    agree within CONSISTENCY_TOL relative to the diameter; otherwise the
    result is absent with the achieved spread attached.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d array of points")
    candidate, spread, accepted, system = _solve(pts)
    if system is None:
        return CircumcenterResult(candidate, np.zeros(0), spread, 0.0)
    _, u, _, coords, s = system
    return CircumcenterResult(candidate if accepted else None, u @ (coords / s), spread,
                              _residual(system))


def _solve(pts: np.ndarray) -> tuple:
    """The one solve of :func:`circumcenter`, :func:`circumcenter_map` and
    the iteration step: (candidate, spread, accepted, system), ``system``
    None for one distinct point, else (half, u, projected, coords, s). The
    merge raises ValueError on a non-finite point, so finite points pass
    without a test of their own. The candidate never shares memory with
    ``pts``, which may be a buffer that the next step refills.

    The rank keeps the singular values s > max(RANK_TOL s_1, _RANK_UNITS u),
    u the rounding unit that the merge took from the largest point norm. A
    rank of 0 leaves p0 as the one distinct point, as a merge down to p0
    does. With u above 0 the floor alone never cuts every direction: each
    kept offset is longer than the merge radius, four times the floor, and
    s_1 is at least its length."""
    kept, unit = _merge(pts)
    # the merge keeps the first point always
    p0 = pts[0]
    others = pts[1:] if kept is None else pts.take(kept[1:], 0)
    rank = others.shape[0]
    if rank:
        offsets = others - p0
        u, s, vt = np.linalg.svd(offsets, full_matrices=False)
        # the rank cut. The singular values come in descending order, so
        # when the last one passes the cut they all do, and nothing is sliced.
        cut = max(s[0] * RANK_TOL, _RANK_UNITS * unit)
        if not s[-1] > cut:
            rank = np.count_nonzero(s > cut)
            u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    if not rank:
        return p0.copy(), _spread(pts, p0), True, None
    half = 0.5 * np.einsum("ij,ij->i", offsets, offsets)
    projected = u.T @ half
    coords = projected / s
    candidate = p0 + vt.T @ coords
    spread = _spread(pts, candidate)
    # CONSISTENCY_TOL * (1 + diameter) is at least CONSISTENCY_TOL, so the
    # diameter is needed only for a spread above that
    accepted = spread <= CONSISTENCY_TOL or spread <= CONSISTENCY_TOL * (1.0 + _diameter(pts))
    return candidate, spread, accepted, (half, u, projected, coords, s)


def _residual(system: tuple) -> float:
    """||h/2 - D y|| of a solve's ``system``, the equidistance residual."""
    half, u, projected, _, _ = system
    return _norm(half - u @ projected)


def _center(points: np.ndarray) -> np.ndarray:
    """The step of :func:`circumcenter_map`. A rejection raises with the
    spread and residual of the same solve; only then is the residual taken."""
    candidate, spread, accepted, system = _solve(points)
    if not accepted:
        raise NumericalPropernessError(spread, _residual(system))
    return candidate


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """A finite family of affine isometries, written as words over generators.

    Each word is a tuple of indices into ``generators``; the word
    (i, j, ..) is the product that applies generator i first, then j, and
    so on, and the empty word is the identity. ``words=None`` lists every
    generator on its own. The words must be prefix-closed, in order: each
    nonempty word without its last letter is empty or an earlier word. Every
    generator must occur in some word. A family has at most WORD_LIMIT
    = 8192 words, which bounds the k x n array of one step's images.

    Letters are integer indices, bools excepted, and are stored as plain
    ints. Construction also lays out the step plan of :meth:`images`: per
    word, its last generator's ``A`` and ``b`` (the generator's own arrays)
    and the row it applies them to. ``b`` is left out when it is exactly
    zero, as for linear reflectors: np.dot accumulates its sums from +0.0,
    so they are never -0.0, and adding a zero to them moves no bit. The
    validated layout (the int words, and which generator each step applies
    to which row) depends only on the words and the number of generators,
    so it is built once per shape and cached, and families of one shape
    share their ``words``; an instance binds the steps to its own
    generators' arrays.

    Construction solves the stacked systems (Q_i - I) x = -b_i of the
    distinct generator objects in one call for ``common_fixed``, which for
    prefix-closed words is the common fixed set of the whole family; it
    fails when the generators share no fixed point. ``fixed`` is that
    common fixed set when the caller already has it: it is then checked,
    not computed, and construction fails when a generator moves its anchor
    by more than CONSISTENCY_TOL relative to the anchor's norm, or a basis
    direction by more than CONSISTENCY_TOL. No product is ever formed.
    """

    generators: tuple
    words: Optional[tuple] = None
    fixed: InitVar[Optional[AffineSubspace]] = None
    common_fixed: AffineSubspace = field(init=False)
    _plan: tuple = field(init=False, repr=False)

    def __post_init__(self, fixed: Optional[AffineSubspace]) -> None:
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
        _require_word_limit(len(words))
        # The layout cache is keyed by plain int letters only: 1.0, True
        # and np.bool_ compare and hash equal to 1, and must still raise.
        if not set(map(type, chain.from_iterable(words))) <= {int}:
            words = tuple(_letters(word, count) for word in words)
        words, steps = _layout(words, count)
        offsets = [op.b if op.b.any() else None for op in generators]
        plan = tuple((None, None, source) if letter is None
                     else (generators[letter].A, offsets[letter], source)
                     for letter, source in steps)
        distinct = {id(op): op for op in generators}.values()
        if fixed is None:
            fixed = _common_fixed_points(tuple(distinct))
            if fixed is None:
                raise ValueError("operators share no common fixed point")
        else:
            _require_fixed(distinct, fixed, "a generator")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "common_fixed", fixed)
        object.__setattr__(self, "_plan", plan)

    def images(self, x) -> np.ndarray:
        """The images of x under the words, one row per word in order; each
        is one generator applied to the image of the word's prefix, and a
        repeated word copies its first image."""
        x = as_vector(x)
        return _Stepper(self, x.shape[0]).images(x)


class _Stepper:
    """The circumcenter step of one run over a family.

    It owns the k x n array that the images of every step fill, and the
    family's step plan bound to the rows of that array, so a step allocates
    no image buffer and builds no row view. The array belongs to the run,
    never to the frozen, shared family, so runs on one family may
    interleave; no iterate shares memory with it, since the solve copies
    the one point it could return. Each call looks up ``_center``, and so
    ``_solve`` and ``_diameter``, when it runs.
    """

    __slots__ = ("_out", "_sources", "_steps")

    def __init__(self, operator_set: OperatorSet, dim: int) -> None:
        out = np.empty((len(operator_set._plan), dim))
        rows = list(out)
        self._out = out
        # source 0 is the step's x, source r + 1 is row r
        self._sources = [None, *rows]
        self._steps = [(Q, b, source, row)
                       for (Q, b, source), row in zip(operator_set._plan, rows)]

    def images(self, x: np.ndarray) -> np.ndarray:  # x: a finite vector, unchecked
        """The images of x, in the run's array."""
        sources = self._sources
        sources[0] = x
        for Q, b, source, row in self._steps:
            if Q is None:
                row[...] = sources[source]
            else:
                np.dot(Q, sources[source], row)
                if b is not None:
                    row += b
        return self._out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _center(self.images(x))


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


def _require_word_limit(count: int) -> None:
    """Raise unless a family of ``count`` words is within WORD_LIMIT."""
    if count > WORD_LIMIT:
        raise ValueError(f"{count} words exceed the limit of {WORD_LIMIT} words")


def _require_subset_limit(reflectors: int) -> None:
    """Raise unless the 2^reflectors index subsets that :func:`build_psi`
    enumerates are within WORD_LIMIT. The exponent is compared, 2^g <=
    WORD_LIMIT exactly when g < WORD_LIMIT.bit_length(), so a long list forms
    no large power; a count past 64 bits is written as a power of two."""
    if reflectors > WORD_LIMIT.bit_length() - 1:
        count = 2 ** reflectors if reflectors < 64 else f"2^{reflectors}"
        raise ValueError(f"{count} words exceed the limit of {WORD_LIMIT} words")


def circumcenter_map(operator_set: OperatorSet, x) -> np.ndarray:
    """Circumcenter of the images of x under the family.

    Raises :class:`NumericalPropernessError` when the circumcenter is
    absent within tolerance, since for isometry families with a common
    fixed point it exists in exact arithmetic.
    """
    return _center(operator_set.images(x))


def build_psi(reflectors: Sequence[AffineIsometry],
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
    linear subspaces: linear isometries that pass :func:`_is_self_adjoint`.
    ``fixed`` is the common fixed set of the reflectors when the caller
    already has it (see :class:`OperatorSet`). The 2^m subsets must fit
    WORD_LIMIT, which allows m <= 13. This is checked before any subset is
    enumerated, so a longer list fails at once even when its reduced words
    would fit.
    """
    generators = tuple(reflectors)
    _require_subset_limit(len(generators))
    for op in generators:
        if not isinstance(op, AffineIsometry) or not op.is_linear() or not _is_self_adjoint(op):
            raise ValueError("inputs must be reflectors of linear subspaces: linear "
                             "isometries with a self-adjoint linear part")
    first = {}
    repeats = tuple(first.setdefault(id(op), i) for i, op in enumerate(generators))
    return OperatorSet(generators, _psi_words(repeats), fixed=fixed)


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
