"""The circuit layer: support partitions, circuits, and simplex covers.

A polynomial's support splits into Lambda (even exponents with a positive
coefficient, the candidate square points) and Gamma (every other exponent).
A ``Circuit`` writes one point beta as a convex combination of an
affinely independent trellis of even points, with exact weights.

Each Gamma point beta must be written as a convex combination of Lambda
points. ``simplex_cover`` first eliminates Lambda's barycentric matrix once
(``exact.UniqueSolver``), and the result decides between two branches:

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
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .exact import LpInfeasible, Tableau, UniqueSolver, rank
from .polyring import Exponent, SparsePoly, is_even

# ---------------------------------------------------------------------------
# support and circuits


@dataclass(frozen=True)
class SupportPartition:
    """Support split: lambda_set = even exponents with positive coefficient,
    gamma_set = everything else. Both are lex-sorted tuples."""

    lambda_set: Tuple[Exponent, ...]
    gamma_set: Tuple[Exponent, ...]


def support_partition(f: SparsePoly) -> SupportPartition:
    if f.is_zero():
        raise ValueError("support partition of the zero polynomial")
    lam = []
    gam = []
    for exp, coef in f.sorted_terms():
        if is_even(exp) and coef > 0:
            lam.append(exp)
        else:
            gam.append(exp)
    return SupportPartition(tuple(lam), tuple(gam))


def _barycentric(points: Sequence[Exponent], n: int) -> List[List[int]]:
    """Rows of: weights on points that write an n-vector and sum to one; the
    right-hand side is (beta, 1)."""
    return [[pt[i] for pt in points] for i in range(n)] + [[1] * len(points)]


def affinely_independent(points: Sequence[Sequence[Fraction | int]]) -> bool:
    """Exact rank test on the lifted vectors (1, point)."""
    return rank([[1, *p] for p in points]) == len(points)


@dataclass(frozen=True)
class Circuit:
    """A trellis (affinely independent even points), an interior point beta,
    and the exact convex weights writing beta over the trellis.

    ``Circuit(...)`` validates all of it: two or more even points of beta's
    dimension with one weight each, weights that are positive, sum to one
    and reproduce beta, and, by an exact rank, an affinely independent
    trellis.  ``Circuit.settled`` checks nothing.
    """

    trellis: Tuple[Exponent, ...]
    beta: Exponent
    weights: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.trellis) != len(self.weights):
            raise ValueError("one weight per trellis point")
        if len(self.trellis) < 2:
            raise ValueError("a trellis needs at least two points")
        n = len(self.beta)
        for alpha in self.trellis:
            if len(alpha) != n:
                raise ValueError("dimension mismatch in trellis")
            if not is_even(alpha):
                raise ValueError(f"trellis point {alpha} is not even")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        # the weights over their common denominator, as integers
        den = lcm(*(w.denominator for w in self.weights))
        nums = [w.numerator * (den // w.denominator) for w in self.weights]
        if sum(nums) != den:
            raise ValueError("weights must sum to one")
        for i in range(n):
            acc = sum(q * alpha[i] for q, alpha in zip(nums, self.trellis))
            if acc != self.beta[i] * den:
                raise ValueError("weights do not reproduce beta")
        if not affinely_independent(self.trellis):
            raise ValueError("trellis points are affinely dependent")

    @classmethod
    def settled(
        cls, trellis: Tuple[Exponent, ...], beta: Exponent, weights: Tuple[Fraction, ...]
    ) -> "Circuit":
        """A circuit built without any check, for a caller that has proved
        every fact ``Circuit(...)`` validates, as one elimination of an
        independent Lambda proves them for every circuit over it."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "trellis", trellis)
        object.__setattr__(circuit, "beta", beta)
        object.__setattr__(circuit, "weights", weights)
        return circuit


def circuit_weights(
    trellis: Sequence[Exponent], beta: Sequence[Fraction | int]
) -> Tuple[Fraction, ...]:
    """Exact barycentric weights of beta over an affinely independent trellis.

    Raises ValueError when beta is not in the relative interior.
    """
    pts = list(trellis)
    try:
        solver = UniqueSolver(_barycentric(pts, len(beta)))
        nums = solver.numerators([*beta, 1])
    except ValueError:  # dependent columns: many solutions or none
        nums = None
    if nums is None:
        raise ValueError(f"{tuple(beta)} has no barycentric representation over {pts}")
    if any(v <= 0 for v in nums):
        raise ValueError(f"{tuple(beta)} is not interior to the trellis {pts}")
    return tuple(Fraction(v, solver.den) for v in nums)


# ---------------------------------------------------------------------------
# the cover


class CoverInfeasible(Exception):
    """Some beta lies outside conv(Lambda); no circuit decomposition exists."""


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
