"""The integer kernel against the Fraction engine it replaced (conftest)."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RefInfeasible,
    RefUnbounded,
    ref_lp_solve,
    ref_minimize,
    ref_phase_one,
    ref_reduce,
    ref_solution,
)
from soncert import exact
from soncert.exact import LpInfeasible, LpUnbounded

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# few distinct values, many zeros: ties and degenerate bases are common
SMALL = st.sampled_from(
    [Fraction(v) for v in (0, 0, 0, 1, -1, 2, -2, 3)]
    + [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4)]
)


@st.composite
def lps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    matrix = [[draw(SMALL) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        # feasible by construction, with a sparse (degenerate) witness
        x0 = [draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(3, 2)]))
              for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
    else:
        rhs = [draw(SMALL) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # a redundant row
        k = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
        matrix.append([k * v for v in matrix[0]])
        rhs.append(k * rhs[0])
    objective = [draw(SMALL) for _ in range(n)]
    return matrix, rhs, objective


def kernel_outcome(matrix, rhs, objective):
    try:
        tab = exact.Tableau(matrix, rhs)
    except LpInfeasible:
        return "infeasible"
    try:
        tab.minimize([-v for v in objective])
    except LpUnbounded:
        return "unbounded"
    x = tab.solution()
    return sum(c * xi for c, xi in zip(objective, x)), x, tab.basis


def reference_outcome(matrix, rhs, objective):
    try:
        return ref_lp_solve(matrix, rhs, objective)
    except RefInfeasible:
        return "infeasible"
    except RefUnbounded:
        return "unbounded"


@SETTINGS
@given(lps())
def test_simplex_matches_fraction_tableau(lp):
    matrix, rhs, objective = lp
    got = kernel_outcome(matrix, rhs, objective)
    if all(v == 0 for row in matrix for v in row) and all(b == 0 for b in rhs):
        # every row is redundant: the reference fails on its empty tableau
        # (IndexError); the kernel answers from the costs alone
        want = "unbounded" if any(c > 0 for c in objective) else (0, [0] * len(objective), [])
    else:
        want = reference_outcome(matrix, rhs, objective)
    assert got == want


@SETTINGS
@given(lps(), st.lists(st.lists(SMALL, min_size=6, max_size=6), min_size=1, max_size=4))
def test_reoptimizing_one_tableau_matches_reference(lp, costs):
    # the cover keeps one tableau per beta and re-optimizes it per anchor
    matrix, rhs, _ = lp
    n = len(matrix[0])
    try:
        tab, basis = ref_phase_one(matrix, rhs, n)
    except RefInfeasible:
        with pytest.raises(LpInfeasible):
            exact.Tableau(matrix, rhs)
        return
    if not tab:
        return  # every row redundant; see test_simplex_matches_fraction_tableau
    kernel = exact.Tableau(matrix, rhs)
    for cost in costs:
        cost = cost[:n]
        try:
            ref_minimize(tab, basis, cost)
        except RefUnbounded:
            with pytest.raises(LpUnbounded):
                kernel.minimize(cost)
            return
        kernel.minimize(cost)
        assert kernel.basis == basis
        assert kernel.solution() == ref_solution(tab, basis, n)


def test_beale_cycling_example():
    # Beale's LP cycles under the largest-coefficient rule; Bland's rule
    # must terminate at the reference optimum
    q = Fraction
    matrix = [
        [1, 0, 0, q(1, 4), -8, -1, 9],
        [0, 1, 0, q(1, 2), -12, q(-1, 2), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    rhs = [0, 0, 1]
    objective = [0, 0, 0, q(3, 4), -20, q(1, 2), -6]
    got = kernel_outcome(matrix, rhs, objective)
    assert got == reference_outcome(matrix, rhs, objective)
    assert got[0] == q(5, 4)


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    mat = [[draw(SMALL) for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and draw(st.booleans()):
        # singular on purpose: one row a combination of two others
        a, b = draw(st.sampled_from([Fraction(1), Fraction(-1, 2), Fraction(3)])), Fraction(2)
        mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
    return mat


@SETTINGS
@given(matrices(), st.lists(SMALL, min_size=5, max_size=5))
def test_bareiss_matches_fraction_elimination(mat, rhs):
    cols = len(mat[0])
    ref, pivots = ref_reduce(mat, cols)
    rows, got_pivots, den = exact.eliminate(mat, cols)
    assert den > 0 and got_pivots == pivots
    assert [[Fraction(v, den) for v in row] for row in rows] == ref
    assert exact.rank(mat) == len(pivots)

    # UniqueSolver: ValueError on dependent columns, else the one solution
    # or None when the right-hand side is inconsistent
    rhs = rhs[: len(mat)]
    if len(pivots) < cols:
        with pytest.raises(ValueError, match="dependent columns"):
            exact.UniqueSolver(mat)
        return
    ref, pivots = ref_reduce([row + [b] for row, b in zip(mat, rhs)], cols)
    solver = exact.UniqueSolver(mat)
    nums = solver.numerators(rhs)
    if any(row[-1] for row in ref[cols:]):
        assert nums is None
    else:
        x = [Fraction(v, solver.den) for v in nums]
        assert x == [row[-1] for row in ref[:cols]]
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(mat, rhs))


@SETTINGS
@given(matrices(square=True))
def test_bareiss_inverse(mat):
    # the inverse, column by column: the solutions for the unit vectors
    k = len(mat)
    ident = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    ref, pivots = ref_reduce([row + e for row, e in zip(mat, ident)], k)
    if len(pivots) < k:
        with pytest.raises(ValueError):
            exact.UniqueSolver(mat)
        return
    solver = exact.UniqueSolver(mat)
    cols = [[Fraction(v, solver.den) for v in solver.numerators(e)] for e in ident]
    inv = [list(row) for row in zip(*cols)]
    assert inv == [row[k:] for row in ref]
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in mat] == ident


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    mat = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    # dependent rows on purpose: integer combinations of earlier rows
    for i in range(1, rows):
        if draw(st.booleans()):
            coeffs = [draw(st.integers(-4, 4)) for _ in range(i)]
            mat[i] = [sum(k * row[j] for k, row in zip(coeffs, mat)) for j in range(cols)]
    return mat


@SETTINGS
@given(integer_matrices())
def test_integer_rows_eliminate_as_their_fractions(mat):
    # integer rows skip the lcm scaling, Fraction rows take it
    fractions = [[Fraction(v) for v in row] for row in mat]
    assert exact.rank(mat) == exact.rank(fractions)
    assert exact.eliminate(mat, len(mat[0])) == exact.eliminate(fractions, len(mat[0]))


def test_rank_and_solve_edge_cases():
    assert exact.rank([]) == 0
    assert exact.rank([[0, 0], [0, 0]]) == 0
    with pytest.raises(ValueError, match="dependent columns"):
        exact.UniqueSolver([[1, 1]])  # underdetermined
    assert exact.UniqueSolver([[1], [1]]).numerators([1, 2]) is None  # inconsistent
    solver = exact.UniqueSolver([[2, 0], [0, 3]])
    assert [Fraction(v, solver.den) for v in solver.numerators([1, 1])] == [Fraction(1, 2), Fraction(1, 3)]
