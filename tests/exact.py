"""Exact arithmetic for the problem that a float instance defines.

Float data are dyadic rationals, so every float instance is its own exact
problem. The projector onto the row space of a float basis U is
U^T (U U^T)^-1 U, which is rational; the intersection M is the exact null
space of the stacked I - P_i, and P_M x0 is exact; each recipe's step is
rational in these. A run rounds each iterate to the 2^-GRID_BITS grid, so its
denominators stay bounded. Only the iteration's copies are rounded, never a
projector: a rounded projector loses its exact rank. There is no float rank
and no tolerance here, only ``fractions.Fraction`` and Python integers.

A recipe joins by adding its exact step to ``STEPS``: a function of the
:class:`Problem` that returns the step x -> x+ on exact vectors, which
:func:`run` iterates. Vectors are
lists of Fractions and matrices lists of rows; a product of projectors is
formed and applied in integers, as numerators over one common denominator.
"""

import math
from fractions import Fraction

GRID_BITS = 200


def fractions(array) -> list:
    """A float vector or matrix as the same numbers in Fractions."""
    return [fractions(row) for row in array] if getattr(array, "ndim", 0) > 1 else [
        Fraction(float(v)) for v in array]


def dot(x: list, y: list) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _reduced(rows: list, width: int) -> tuple:
    """The reduced row echelon form of ``rows`` over their first ``width``
    columns, without its zero rows, and its pivot columns."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def null_space(rows: list, n: int) -> list:
    """A basis of {x in Q^n : row . x = 0 for every row}, one list per vector."""
    reduced, pivots = _reduced(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, pivot in zip(reduced, pivots):
            v[pivot] = -row[free]
        basis.append(v)
    return basis


def _projector(basis) -> list:
    """U^T (U U^T)^-1 U, exactly, for the rows U of a float basis of full
    row rank, as an n x n matrix."""
    rows, (r, n) = fractions(basis), basis.shape
    gram = [[dot(a, b) for b in rows] for a in rows]
    reduced, _ = _reduced([g + u for g, u in zip(gram, rows)], r)
    solved = [row[r:] for row in reduced]  # (U U^T)^-1 U
    return [[dot([u[i] for u in rows], [s[j] for s in solved]) for j in range(n)]
            for i in range(n)]


class _Integral:
    """A rational matrix as integer numerators over one common denominator,
    so that a product takes integer products only."""

    def __init__(self, nums: list, den: int):
        common = math.gcd(den, *(v for row in nums for v in row))
        self.nums = [[v // common for v in row] for row in nums]
        self.den = den // common

    @classmethod
    def of(cls, matrix: list) -> "_Integral":
        den = math.lcm(*(v.denominator for row in matrix for v in row))
        return cls([[v.numerator * (den // v.denominator) for v in row] for row in matrix], den)

    def after(self, first: "_Integral") -> "_Integral":
        """This matrix times ``first``."""
        columns = list(zip(*first.nums))
        return _Integral([[sum(a * b for a, b in zip(row, col)) for col in columns]
                          for row in self.nums], self.den * first.den)

    def apply(self, nums: list) -> list:
        """The numerators of this matrix times a vector of numerators, over
        ``den`` times the vector's denominator."""
        return [sum(a * b for a, b in zip(row, nums)) for row in self.nums]


def on_grid(x: list) -> list:
    """Each entry rounded to the nearest multiple of 2^-GRID_BITS."""
    return [Fraction(round(v * (1 << GRID_BITS)), 1 << GRID_BITS) for v in x]


class Problem:
    """The exact problem of linear subspaces given by float bases: the
    projector of each, and a basis of their intersection M."""

    def __init__(self, subspaces):
        self.n = subspaces[0].ambient_dim
        self.projectors = [_projector(s.basis) for s in subspaces]
        eye = [[Fraction(int(i == j)) for j in range(self.n)] for i in range(self.n)]
        stacked = [[e - p for e, p in zip(e_row, p_row)]
                   for P in self.projectors for e_row, p_row in zip(eye, P)]
        self.intersection = null_space(stacked, self.n)
        self._integral = [_Integral.of(P) for P in self.projectors]

    @property
    def dim(self) -> int:
        """The exact dimension of M."""
        return len(self.intersection)

    def target(self, x0: list) -> list:
        """P_M x0, exactly."""
        if not self.intersection:
            return [Fraction(0)] * self.n
        return [sum(v[i] * c for v, c in zip(self.intersection, self._coordinates(x0)))
                for i in range(self.n)]

    def _coordinates(self, x: list) -> list:
        """The coordinates c of P_M x in the intersection's basis N: (N^T N) c = N^T x."""
        basis = self.intersection
        gram = [[dot(a, b) for b in basis] + [dot(a, x)] for a in basis]
        reduced, _ = _reduced(gram, len(basis))
        return [row[-1] for row in reduced]

    def product(self, order: list) -> _Integral:
        """The projectors at ``order``, applied in turn, as one matrix."""
        product = self._integral[order[0]]
        for i in order[1:]:
            product = self._integral[i].after(product)
        return product


def _accel_map(problem: Problem):
    """x - t (x - T x), t = <x, x - Tx> / ||x - Tx||^2, for the palindromic
    sweep T = P_1 .. P_m .. P_1; x itself when T x = x."""
    m = len(problem.projectors)
    T = problem.product(list(range(m)) + list(range(m - 2, -1, -1)))

    def step(x: list) -> list:
        # x = a / den and x - T x = e / (den T.den), so x - t (x - T x) is
        # (a - (<a, e> / <e, e>) e) / den
        den = math.lcm(*(v.denominator for v in x))
        a = [v.numerator * (den // v.denominator) for v in x]
        e = [T.den * ai - ci for ai, ci in zip(a, T.apply(a))]
        ee = sum(v * v for v in e)
        if ee == 0:
            return x
        ae = sum(ai * ei for ai, ei in zip(a, e))
        return [Fraction(ai * ee - ae * ei, den * ee) for ai, ei in zip(a, e)]

    return step


STEPS = {"accel_map": _accel_map}


def run(problem: Problem, method: str, x0, steps: int) -> list:
    """x_0..x_steps of ``method``'s exact run from the float start x0, each
    iterate after x_0 rounded to the grid."""
    step = STEPS[method](problem)
    iterates = [fractions(x0)]
    for _ in range(steps):
        iterates.append(on_grid(step(iterates[-1])))
    return iterates


def distance(x: list, y: list) -> float:
    """||x - y||, the exact squared norm rounded to float, then square-rooted."""
    diff = [a - b for a, b in zip(x, y)]
    return math.sqrt(float(dot(diff, diff)))


def errors(problem: Problem, iterates: list) -> list:
    """||x_k - P_M x_0|| along an exact run."""
    target = problem.target(iterates[0])
    return [distance(x, target) for x in iterates]
