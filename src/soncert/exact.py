"""Exact linear algebra over the integers: one pivot, two uses.

Every exact elimination of the package runs here, on integer rows that share
one positive denominator ``den``: the rational matrix the rows stand for is
``rows / den``.  A pivot (``_pivot``, the one step that updates a row) on
entry ``p = rows[r][c]`` keeps row r and replaces every other row by
``(p * row - row[c] * rows[r]) // den``; by Sylvester's identity the
division is exact (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968), so the entries
stay integers, minors of the input up to sign, and no gcd is ever taken.

* ``eliminate`` is fraction-free Gauss-Jordan elimination, and ``rank``
  counts its pivots.  ``UniqueSolver`` eliminates a matrix with independent
  columns once and then solves each right-hand side with one integer
  matrix-vector product: the barycentric weights over an affinely
  independent point set, for the cover and the generator's hull test.  No
  other barycentric system is solved.
* ``Tableau`` is a two-phase primal simplex method with Bland's rule on the
  same rows (Edmonds' integer pivoting, as in Applegate, Cook, Dash &
  Espinoza, "Exact solutions to linear programming problems", Oper. Res.
  Lett. 2007).  Its reduced costs form one more row that each pivot updates,
  and its ratio test cross-multiplies.  Since ``den > 0``, signs and ratio
  orders are those of the rational tableau, so the pivot sequence is the
  one a ``Fraction`` tableau with the same rule takes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

Rational = Fraction | int
_INT = frozenset((int,))


class LpInfeasible(Exception):
    """The equality system has no nonnegative solution."""


class LpUnbounded(Exception):
    """The objective is unbounded over the feasible region."""


def _pivot(rows: List[List[int]], r: int, c: int, den: int) -> int:
    """Pivot rows (over den) on entry (r, c); returns the new denominator.

    A negative pivot flips row r first, so the denominator stays positive.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow = rows[r] = [-v for v in prow]
        p = -p
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
        elif p != den:
            rows[i] = [p * a // den for a in row]
    return p


def _integer_rows(rows: Sequence[Sequence[Rational]]) -> List[List[int]]:
    # Each row times the lcm of its denominators: the same rank and, for an
    # augmented system, the same solutions.  A row of ints is copied as is.
    work = []
    for row in rows:
        if set(map(type, row)) <= _INT:
            work.append(list(row))
            continue
        scale = lcm(*(v.denominator for v in row))
        work.append([v.numerator * (scale // v.denominator) for v in row])
    return work


def eliminate(
    rows: Sequence[Sequence[Rational]], ncols: int
) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free Gauss-Jordan elimination over the first ncols columns.

    Returns (rows, pivot columns, den): row i of rows / den has a 1 in pivot
    column i and zeros in the other pivot columns; rows past the pivots are
    zero in the first ncols columns.  Each input row is first multiplied by
    the lcm of its denominators, which changes neither the rank nor the
    solutions of an augmented system.
    """
    work = _integer_rows(rows)
    den = 1
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        den = _pivot(work, r, c, den)
        pivots.append(c)
    return work, pivots, den


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    """The number of pivots eliminate finds."""
    return len(eliminate(rows, len(rows[0]) if rows else 0)[1])


class UniqueSolver:
    """A matrix with independent columns, eliminated once for every right-hand
    side.

    ``eliminate`` runs on ``[rows | I]``; its identity block records the row
    operations ``ops``, so ``ops @ rhs`` is the eliminated right-hand side.
    ValueError when the columns are dependent.
    """

    def __init__(self, rows: Sequence[Sequence[Rational]]):
        m, k = len(rows), len(rows[0])
        aug = [[*row, *(int(i == j) for j in range(m))] for i, row in enumerate(rows)]
        work, pivots, self.den = eliminate(aug, k)
        if len(pivots) < k:
            raise ValueError("dependent columns")
        self.k = k
        self.ops = [row[k:] for row in work]

    def numerators(self, rhs: Sequence[Rational]) -> Optional[List[Rational]]:
        """den * x for the unique x with rows x = rhs; None when there is
        none, that is when a row past the pivots is nonzero."""
        if len(rhs) != len(self.ops):
            raise ValueError("one right-hand side entry per row")
        y = [sum(map(mul, op, rhs)) for op in self.ops]
        if any(y[self.k:]):
            return None
        return y[: self.k]


class Tableau:
    """Simplex tableau of matrix x = rhs, x >= 0 in integer form.

    rows[i] is [coefficients | rhs] over den, and basis[i] is the column
    basic in row i.  Construction runs phase one; ``minimize`` then moves
    the basis to an optimum of any cost, starting from the current one.
    """

    def __init__(self, matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]):
        m, n = len(matrix), len(matrix[0])
        # one scalar common denominator: scaling every row alike before the
        # unit artificials are added keeps phase one's pivot sequence
        scale = lcm(*(v.denominator for row in matrix for v in row),
                    *(b.denominator for b in rhs))
        self.rows = []
        for i, (row, b) in enumerate(zip(matrix, rhs)):
            sign = -scale if b < 0 else scale
            self.rows.append(
                [(sign * v).numerator for v in row]
                + [int(j == i) for j in range(m)]
                + [(sign * b).numerator]
            )
        self.basis = [n + i for i in range(m)]
        self.den = 1
        self.minimize([0] * n + [1] * m)
        if any(self.rows[i][-1] for i, col in enumerate(self.basis) if col >= n):
            raise LpInfeasible("no nonnegative solution to the equality system")
        # pivot artificials out of the basis; a row with only zero original
        # coefficients is redundant and gets dropped
        for i in reversed(range(m)):
            if self.basis[i] >= n:
                col = next((j for j in range(n) if self.rows[i][j]), None)
                if col is None:
                    del self.rows[i], self.basis[i]
                else:
                    self.pivot(i, col)
        self.rows = [row[:n] + [row[-1]] for row in self.rows]
        self.ncols = n

    def pivot(self, r: int, c: int) -> None:
        self.den = _pivot(self.rows, r, c, self.den)
        self.basis[r] = c

    def minimize(self, cost: Sequence[Rational]) -> None:
        """Primal simplex with Bland's rule; ties in the ratio test go to
        the smaller basic column.  Raises LpUnbounded."""
        rows, basis = self.rows, self.basis
        m, ncols = len(rows), len(cost)
        scale = lcm(*(v.denominator for v in cost))
        icost = [(v * scale).numerator for v in cost]
        # reduced costs over den, kept as one more row of the tableau: a
        # pivot on a basic entry, which is den, clears its column there and
        # leaves the other rows as they are
        rows.append([self.den * v for v in icost] + [0])
        for i, col in enumerate(basis):
            if icost[col]:
                _pivot(rows, i, col, self.den)
        try:
            while True:
                entering = next((j for j in range(ncols) if rows[m][j] < 0), -1)
                if entering < 0:
                    return
                leaving, top, bottom = -1, 0, 1
                for i in range(m):
                    a = rows[i][entering]
                    if a > 0:
                        b = rows[i][-1]
                        if (
                            leaving < 0
                            or b * bottom < top * a
                            or (b * bottom == top * a and basis[i] < basis[leaving])
                        ):
                            leaving, top, bottom = i, b, a
                if leaving < 0:
                    raise LpUnbounded(f"column {entering} is unbounded")
                self.pivot(leaving, entering)
        finally:
            rows.pop()

    def solution(self) -> List[Fraction]:
        x = [Fraction(0)] * self.ncols
        for row, col in zip(self.rows, self.basis):
            x[col] = Fraction(row[-1], self.den)
        return x
