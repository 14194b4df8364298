"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from soncert.polyring import Exponent, circuit_weights


def random_simplex_trellis(
    rng: random.Random, n: int, half_degree: int
) -> Tuple[Exponent, ...]:
    """Scaled standard simplex: 0 and 2*half_degree*e_i, always affinely
    independent and even."""
    d2 = 2 * half_degree
    pts = [(0,) * n] + [
        tuple(d2 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    return tuple(pts)


def random_interior_lattice_point(
    rng: random.Random, n: int, half_degree: int
) -> Exponent:
    """Lattice point strictly inside conv(0, 2d e_1, ..., 2d e_n)."""
    d2 = 2 * half_degree
    while True:
        pt = tuple(rng.randint(1, d2 - n) for _ in range(n))
        if 0 < sum(pt) < d2:
            return pt


def random_simplex_circuit(
    rng: random.Random, n_max: int = 3, d_max: int = 5
) -> Tuple[Tuple[Exponent, ...], Exponent, Tuple[Fraction, ...]]:
    """Full-dimensional simplex trellis with a random interior lattice point."""
    n = rng.randint(1, n_max)
    d = rng.randint(n // 2 + 1, max(n // 2 + 1, d_max))
    trellis = random_simplex_trellis(rng, n, d)
    beta = random_interior_lattice_point(rng, n, d)
    return trellis, beta, circuit_weights(trellis, beta)


def random_segment_circuit(
    rng: random.Random,
) -> Tuple[Tuple[Exponent, ...], Exponent, Tuple[Fraction, ...]]:
    """Two even collinear points with a lattice point strictly between."""
    n = rng.randint(1, 3)
    while True:
        a = tuple(2 * rng.randint(0, 5) for _ in range(n))
        b = tuple(2 * rng.randint(0, 5) for _ in range(n))
        if a == b:
            continue
        from math import gcd

        g = 0
        for x, y in zip(a, b):
            g = gcd(g, abs(x - y))
        if g < 2:
            continue
        k = rng.randint(1, g - 1)
        beta = tuple(x + (y - x) * k // g for x, y in zip(a, b))
        trellis = (a, b)
        return trellis, beta, circuit_weights(trellis, beta)


# ---------------------------------------------------------------------------
# Reference exact engine: the Fraction tableau and Fraction Gaussian
# elimination that soncert.exact replaced, kept to compare against.


class RefInfeasible(Exception):
    pass


class RefUnbounded(Exception):
    pass


def ref_pivot(tab: List[List[Fraction]], basis: List[int], row: int, col: int) -> None:
    inv = tab[row][col]
    tab[row] = [v / inv for v in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            factor = tab[i][col]
            tab[i] = [a - factor * b for a, b in zip(tab[i], tab[row])]
    basis[row] = col


def ref_minimize(tab: List[List[Fraction]], basis: List[int], cost: List[Fraction]) -> None:
    # primal simplex with Bland's rule; tab rows are [coeffs | rhs]
    ncols = len(tab[0]) - 1
    while True:
        duals = [cost[basis[i]] for i in range(len(tab))]
        entering = -1
        for j in range(ncols):
            reduced = cost[j] - sum(duals[i] * tab[i][j] for i in range(len(tab)))
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            return
        leaving = -1
        best = None
        for i in range(len(tab)):
            if tab[i][entering] > 0:
                ratio = tab[i][-1] / tab[i][entering]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise RefUnbounded(f"column {entering} is unbounded")
        ref_pivot(tab, basis, leaving, entering)


def ref_phase_one(matrix, rhs, n: int) -> Tuple[List[List[Fraction]], List[int]]:
    m = len(matrix)
    tab: List[List[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in matrix[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        tab.append(row + art + [b])
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    ref_minimize(tab, basis, cost1)
    if sum(tab[i][-1] for i in range(m) if basis[i] >= n) != 0:
        raise RefInfeasible("no nonnegative solution to the equality system")
    for i in reversed(range(len(tab))):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                tab.pop(i)
                basis.pop(i)
            else:
                ref_pivot(tab, basis, i, col)
    tab = [row[:n] + [row[-1]] for row in tab]
    return tab, basis


def ref_solution(tab: List[List[Fraction]], basis: List[int], n: int) -> List[Fraction]:
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tab[i][-1]
    return x


def ref_lp_solve(matrix, rhs, objective):
    """(value, x, final basis) of max objective.x, matrix x = rhs, x >= 0."""
    n = len(objective)
    tab, basis = ref_phase_one(matrix, rhs, n)
    ref_minimize(tab, basis, [-Fraction(v) for v in objective])
    x = ref_solution(tab, basis, n)
    return sum(Fraction(c) * xi for c, xi in zip(objective, x)), x, basis


def ref_simplex_cover(lambda_set, gamma_set):
    """The covering sweep of soncert.cover on the reference tableau."""
    from soncert.cover import CoverInfeasible, CoverResult
    from soncert.polyring import Circuit

    lam = sorted(set(map(tuple, lambda_set)))
    gam = sorted(set(map(tuple, gamma_set)))
    states = {}

    def maximize(beta, col):
        tab, basis = states[beta]
        cost = [Fraction(0)] * len(lam)
        cost[col] = Fraction(-1)
        ref_minimize(tab, basis, cost)
        return ref_solution(tab, basis, len(lam))

    def circuit(beta, x):
        support = sorted(pt for pt, w in zip(lam, x) if w > 0)
        weights = dict(zip(lam, x))
        return Circuit(tuple(support), beta, tuple(weights[pt] for pt in support))

    circuits, uncovered, remaining = [], [], set(lam)
    for beta in gam:
        matrix = [[Fraction(pt[i]) for pt in lam] for i in range(len(beta))]
        matrix.append([Fraction(1)] * len(lam))
        rhs = [Fraction(b) for b in beta] + [Fraction(1)]
        try:
            states[beta] = ref_phase_one(matrix, rhs, len(lam))
        except RefInfeasible:
            raise CoverInfeasible(f"{beta} outside the hull") from None
        for col in range(len(lam)):
            x = maximize(beta, col)
            if x[col] > 0:
                break
        else:
            raise CoverInfeasible(f"no anchor admits positive weight for {beta}")
        circuits.append(circuit(beta, x))
        remaining -= set(circuits[-1].trellis)
    while remaining:
        alpha0 = min(remaining)
        col = lam.index(alpha0)
        for beta in gam:
            x = maximize(beta, col)
            if x[col] > 0:
                circuits.append(circuit(beta, x))
                remaining -= set(circuits[-1].trellis)
                break
        else:
            uncovered.append(alpha0)
            remaining.discard(alpha0)
    return CoverResult(tuple(circuits), tuple(uncovered))


def ref_reduce(rows: List[List[Fraction]], ncols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Gauss-Jordan elimination in Fractions over the first ncols columns."""
    work = [[Fraction(v) for v in row] for row in rows]
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c]
        work[r] = [v / inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots
