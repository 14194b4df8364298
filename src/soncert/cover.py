"""Simplex covers: exact barycentric weights and the covering sweep.

Each negative-support point beta must be written as a convex combination of
even positive-support points (Lambda). ``simplex_cover`` first eliminates
Lambda's barycentric matrix once (``exact.UniqueSolver``), and the result
decides between two branches:

* Affinely independent Lambda (every simplex class): each beta has at most
  one representation, so one integer matrix-vector product per beta gives
  its weights, and the circuit is their positive support.  The elimination
  proves what ``Circuit(...)`` would check again, so these circuits are
  built unchecked (``Circuit.settled``) once their points are known to be
  even and of beta's dimension.  Lambda points in no circuit pass through
  as plain monomial squares.
* Affinely dependent Lambda: ``_AnchorSolver.circuit`` maximizes the weight
  of a chosen anchor point with the exact simplex method of
  ``exact.Tableau``; the support of the optimal basic solution is affinely
  independent, hence a trellis.  The sweep keeps one such tableau per beta
  whose phase one runs once and which each anchor re-optimizes, then
  recycles the betas to absorb leftover Lambda points, and reports Lambda
  points no circuit can use.

On independent Lambda both branches give the same circuits: when the
feasible set is one point, every anchor's optimum is that point.
The cover is a pure function of the two point sets and is not cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import LpInfeasible, Tableau, UniqueSolver
from .polyring import Circuit, Exponent, is_even


class CoverInfeasible(Exception):
    """Some beta lies outside conv(Lambda); no circuit decomposition exists."""


def _barycentric(points: Sequence[Exponent], n: int) -> List[List[int]]:
    """Rows of: weights on points that write an n-vector and sum to one; the
    right-hand side is (beta, 1)."""
    return [[pt[i] for pt in points] for i in range(n)] + [[1] * len(points)]


def _outside(beta: Exponent) -> CoverInfeasible:
    return CoverInfeasible(f"{beta} lies outside the convex hull of the square points")


class _AnchorSolver:
    """Reusable tableau for one beta: phase one runs once, anchor
    objectives re-optimize the same feasible basis."""

    def __init__(self, points: Sequence[Exponent], beta: Exponent):
        self.points = points
        self.beta = beta
        self.tab = Tableau(_barycentric(points, len(beta)), [*beta, 1])

    def circuit(self, col: int) -> Optional[Circuit]:
        """The circuit of an optimal basic solution maximizing the weight of
        points[col], or None when that weight is zero."""
        cost = [0] * len(self.points)
        cost[col] = -1
        self.tab.minimize(cost)
        x = self.tab.solution()
        if not x[col]:
            return None
        support = [i for i, w in enumerate(x) if w]
        return Circuit(
            tuple(self.points[i] for i in support), self.beta, tuple(x[i] for i in support)
        )


@dataclass(frozen=True)
class CoverResult:
    circuits: Tuple[Circuit, ...]
    uncovered: Tuple[Exponent, ...]  # Lambda points usable only as monomial squares


def simplex_cover(
    lambda_set: Sequence[Exponent], gamma_set: Sequence[Exponent]
) -> CoverResult:
    """Cover every beta with a circuit and absorb as much of Lambda as
    possible.

    Deterministic order: betas are processed lexicographically and trellis
    points keep Lambda's lexicographic order.  On dependent Lambda the
    anchor candidates are tried in lexicographic order over all of Lambda,
    keeping the first whose maximized weight is positive; once all betas
    are covered, leftover Lambda points anchor extra circuits over recycled
    betas.  A leftover point that no beta can use is reported uncovered.
    """
    lam = sorted(set(map(tuple, lambda_set)))
    gam = sorted(set(map(tuple, gamma_set)))
    if not gam:
        raise ValueError("no interior points to cover")
    if not lam:
        raise CoverInfeasible("no candidate square points at all")
    try:
        solver = UniqueSolver(_barycentric(lam, len(gam[0])))
    except ValueError:
        return _anchor_cover(lam, gam)
    # the points of Lambda that can stand in a trellis over a beta
    squares = [len(pt) == len(gam[0]) and is_even(pt) for pt in lam]
    circuits: List[Circuit] = []
    used = set()
    for beta in gam:
        y = solver.numerators([*beta, 1])
        # off the affine hull, or inside it but outside the convex hull
        if y is None or min(y) < 0:
            raise _outside(beta)
        support = [i for i, v in enumerate(y) if v]
        trellis = tuple(lam[i] for i in support)
        weights = tuple(Fraction(y[i], solver.den) for i in support)
        # The weights are positive, sum to one and reproduce beta over a
        # subset of an independent Lambda, so only the trellis's shape is
        # left to check; the full constructor reports a bad one.
        if len(support) > 1 and all(squares[i] for i in support):
            circuits.append(Circuit.settled(trellis, beta, weights))
        else:
            circuits.append(Circuit(trellis, beta, weights))
        used.update(trellis)
    return CoverResult(tuple(circuits), tuple(pt for pt in lam if pt not in used))


def _anchor_cover(lam: List[Exponent], gam: List[Exponent]) -> CoverResult:
    """The tableau sweep, for affinely dependent Lambda."""
    circuits: List[Circuit] = []
    uncovered: List[Exponent] = []
    remaining = set(lam)
    solvers: List[_AnchorSolver] = []
    for beta in gam:
        try:
            solver = _AnchorSolver(lam, beta)
        except LpInfeasible:
            raise _outside(beta) from None
        solvers.append(solver)
        circuit = next(filter(None, map(solver.circuit, range(len(lam)))), None)
        if circuit is None:
            raise CoverInfeasible(
                f"no anchor admits positive weight for {beta}"
            )
        circuits.append(circuit)
        remaining -= set(circuit.trellis)
    # recycle betas to absorb Lambda points missed by the first sweep
    while remaining:
        alpha0 = min(remaining)
        col = lam.index(alpha0)
        circuit = next(filter(None, (solver.circuit(col) for solver in solvers)), None)
        if circuit is None:
            uncovered.append(alpha0)
            remaining.discard(alpha0)
        else:
            circuits.append(circuit)
            remaining -= set(circuit.trellis)
    return CoverResult(tuple(circuits), tuple(uncovered))
