"""Simplex covers: exact LP and the covering sweep.

Each negative-support point beta must be written as a convex combination of
even positive-support points (Lambda). ``sim_sel`` maximizes the weight of a
chosen anchor point with the exact simplex method of ``exact.Tableau``; the
support of the optimal basic solution is affinely independent, hence a
trellis. ``simplex_cover`` sweeps all beta points, keeping one tableau per
beta whose phase one runs once and which each anchor re-optimizes, then
recycles the betas to absorb leftover Lambda points, and reports Lambda
points no circuit can use (they pass through as plain monomial squares).
The cover is a pure function of the two point sets and is not cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import LpInfeasible, LpUnbounded, Tableau
from .polyring import Circuit, Exponent


class CoverInfeasible(Exception):
    """Some beta lies outside conv(Lambda); no circuit decomposition exists."""


def lp_solve_exact(
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> Tuple[Fraction, List[Fraction]]:
    """Maximize objective . x subject to matrix x = rhs, x >= 0, exactly.

    Two-phase tableau simplex with Bland's rule. Returns (optimal value, a
    basic optimal solution).
    """
    m, n = len(matrix), len(objective)
    if any(len(row) != n for row in matrix) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")
    tab = Tableau(
        [[Fraction(v) for v in row] for row in matrix], [Fraction(b) for b in rhs]
    )
    tab.minimize([-Fraction(v) for v in objective])
    x = tab.solution()
    value = sum(Fraction(c) * xi for c, xi in zip(objective, x))
    return value, x


def sim_sel(
    beta: Exponent, lambda_set: Sequence[Exponent], alpha0: Exponent
) -> Dict[Exponent, Fraction]:
    """Barycentric weights over lambda_set writing beta, maximizing the
    weight of alpha0. Returns the full weight vector of an optimal basic
    solution; its positive support is affinely independent."""
    points = sorted(lambda_set)
    if alpha0 not in points:
        raise ValueError(f"anchor {alpha0} is not a candidate square point")
    objective = [int(pt == alpha0) for pt in points]
    _, x = lp_solve_exact(*_barycentric(points, beta), objective)
    return dict(zip(points, x))


def _barycentric(
    points: Sequence[Exponent], beta: Exponent
) -> Tuple[List[List[int]], List[int]]:
    """matrix, rhs of: weights on points that sum to one and write beta."""
    matrix = [[pt[i] for pt in points] for i in range(len(beta))]
    return matrix + [[1] * len(points)], [*beta, 1]


class _AnchorSolver:
    """Reusable tableau for one beta: phase one runs once, anchor
    objectives re-optimize the same feasible basis."""

    def __init__(self, points: Sequence[Exponent], beta: Exponent):
        self.points = points
        self.beta = beta
        self.tab = Tableau(*_barycentric(points, beta))

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

    Deterministic order: betas are processed lexicographically; the anchor
    candidates are tried in lexicographic order over all of Lambda, keeping
    the first whose maximized weight is positive. Once all betas are
    covered, leftover Lambda points anchor extra circuits over recycled
    betas; a leftover point that no beta can use is reported uncovered.
    """
    lam = sorted(set(map(tuple, lambda_set)))
    gam = sorted(set(map(tuple, gamma_set)))
    if not gam:
        raise ValueError("no interior points to cover")
    if not lam:
        raise CoverInfeasible("no candidate square points at all")
    circuits: List[Circuit] = []
    uncovered: List[Exponent] = []
    remaining = set(lam)
    solvers: List[_AnchorSolver] = []
    for beta in gam:
        try:
            solver = _AnchorSolver(lam, beta)
        except LpInfeasible:
            raise CoverInfeasible(
                f"{beta} lies outside the convex hull of the square points"
            ) from None
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
