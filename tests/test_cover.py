"""Exact LP, anchored trellis selection, and the covering sweep."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import ref_simplex_cover
from soncert.cover import Circuit, CoverInfeasible, _AnchorSolver, simplex_cover, support_partition
from soncert.exact import LpInfeasible, LpUnbounded, Tableau
from soncert.generate import POLY_CLASSES, random_instance
from soncert.polyring import SparsePoly

LAM8 = [(0, 0), (4, 0), (0, 4), (4, 4)]


def assert_valid_circuits(result):
    # the independent branch builds its circuits unchecked; the public
    # constructor checks every fact of each again
    for c in result.circuits:
        assert Circuit(c.trellis, c.beta, c.weights) == c


def maximize(matrix, rhs, objective):
    """Maximize objective . x subject to matrix x = rhs, x >= 0, on the
    cover's exact tableau: (optimal value, a basic optimal solution)."""
    tab = Tableau(matrix, rhs)
    tab.minimize([-v for v in objective])
    x = tab.solution()
    return sum(c * xi for c, xi in zip(objective, x)), x


def test_lp_solve_exact_square_point_selection():
    # maximize the (4,4) weight among representations of (2,1)
    pts = sorted(LAM8)
    matrix = [
        [Fraction(p[0]) for p in pts],
        [Fraction(p[1]) for p in pts],
        [Fraction(1)] * 4,
    ]
    rhs = [Fraction(2), Fraction(1), Fraction(1)]
    obj = [Fraction(1) if p == (4, 4) else Fraction(0) for p in pts]
    value, x = maximize(matrix, rhs, obj)
    assert value == Fraction(1, 4)
    assert dict(zip(pts, x)) == {
        (0, 0): Fraction(1, 2),
        (0, 4): Fraction(0),
        (4, 0): Fraction(1, 4),
        (4, 4): Fraction(1, 4),
    }


def test_lp_solve_exact_infeasible_and_unbounded():
    with pytest.raises(LpInfeasible):
        # x1 + x2 = -1 with x >= 0
        maximize([[Fraction(1), Fraction(1)]], [Fraction(-1)], [Fraction(1), Fraction(0)])
    with pytest.raises(LpUnbounded):
        # x1 - x2 = 0, maximize x1
        maximize([[Fraction(1), Fraction(-1)]], [Fraction(0)], [Fraction(1), Fraction(0)])


def test_lp_solve_exact_redundant_rows():
    # duplicated constraint must not break the basis
    matrix = [
        [Fraction(1), Fraction(1)],
        [Fraction(2), Fraction(2)],
    ]
    value, x = maximize(matrix, [Fraction(2), Fraction(4)], [Fraction(1), Fraction(0)])
    assert value == 2
    assert x == [Fraction(2), Fraction(0)]


def test_lp_matches_float_solver():
    rng = random.Random(13)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(2, 7)
        matrix = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        x0 = [Fraction(rng.randint(0, 5)) for _ in range(n)]
        rhs = [sum(row[j] * x0[j] for j in range(n)) for row in matrix]
        obj = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        a = np.array(matrix, dtype=float)
        b = np.array(rhs, dtype=float)
        c = np.array(obj, dtype=float)
        ref = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        try:
            value, x = maximize(matrix, rhs, obj)
        except LpUnbounded:
            assert ref.status == 3
            continue
        assert ref.status == 0
        assert abs(float(value) + ref.fun) < 1e-7
        assert all(xi >= 0 for xi in x)
        assert all(
            sum(row[j] * x[j] for j in range(n)) == rv for row, rv in zip(matrix, rhs)
        )


def anchored_weights(beta, lambda_set, alpha0):
    """The positive weights of the circuit that maximizes alpha0's weight."""
    points = sorted(lambda_set)
    circuit = _AnchorSolver(points, beta).circuit(points.index(alpha0))
    return dict(zip(circuit.trellis, circuit.weights))


def test_sim_sel_goldens():
    weights = anchored_weights((2, 1), LAM8, (4, 4))
    assert {pt for pt, w in weights.items() if w > 0} == {(0, 0), (4, 0), (4, 4)}
    assert weights[(4, 4)] == Fraction(1, 4)
    # unique barycentric representation over a full trellis
    weights = anchored_weights((2, 2), [(0, 0), (4, 2), (2, 4)], (0, 0))
    assert weights == {
        (0, 0): Fraction(1, 3),
        (2, 4): Fraction(1, 3),
        (4, 2): Fraction(1, 3),
    }


def test_simplex_cover_motzkin():
    result = simplex_cover([(0, 0), (4, 2), (2, 4)], [(2, 2)])
    assert len(result.circuits) == 1
    circuit = result.circuits[0]
    assert circuit.trellis == ((0, 0), (2, 4), (4, 2))
    assert circuit.beta == (2, 2)
    assert circuit.weights == (Fraction(1, 3),) * 3
    assert result.uncovered == ()


def test_simplex_cover_two_circuits():
    result = simplex_cover(LAM8, [(2, 1), (1, 2)])
    assert len(result.circuits) == 2
    by_beta = {c.beta: c for c in result.circuits}
    assert by_beta[(1, 2)].trellis == ((0, 0), (0, 4), (4, 4))
    assert by_beta[(2, 1)].trellis == ((0, 0), (4, 0), (4, 4))
    assert result.uncovered == ()
    # both anchors carry weight on every vertex of their trellis
    for c in result.circuits:
        assert all(w > 0 for w in c.weights)
    # collinear, hence affinely dependent, Lambda: the tableau sweep recycles
    # (1,1) to absorb (2,2)
    collinear = [(0, 0), (2, 2), (4, 4)]
    result = simplex_cover(collinear, [(1, 1)])
    assert [c.trellis for c in result.circuits] == [((0, 0), (4, 4)), ((0, 0), (2, 2))]
    assert result == ref_simplex_cover(collinear, [(1, 1)])


def test_simplex_cover_uncovered_square_point():
    # (0,2) cannot take part in any representation of (1,0)
    result = simplex_cover([(0, 0), (2, 0), (0, 2)], [(1, 0)])
    assert [c.trellis for c in result.circuits] == [((0, 0), (2, 0))]
    assert result.uncovered == ((0, 2),)


def test_simplex_cover_outside_hull():
    with pytest.raises(CoverInfeasible):
        simplex_cover([(0, 0), (2, 0)], [(0, 1)])
    with pytest.raises(CoverInfeasible):
        # on the affine hull of an independent Lambda, with a negative weight
        simplex_cover([(0, 0), (2, 0), (0, 2)], [(2, 2)])
    with pytest.raises(ValueError):
        simplex_cover([(0, 0)], [])


@pytest.mark.parametrize("lam, gam, message", [
    ([(0, 0), (2, 0)], [(2, 0)], "at least two points"),
    ([(0, 0), (3, 0)], [(1, 0)], "not even"),
    ([(0, 0), (2, 0, 0)], [(1, 0)], "dimension mismatch"),
])
def test_simplex_cover_rejects_a_bad_trellis(lam, gam, message):
    # an independent Lambda proves the weights, not the trellis's shape
    with pytest.raises(ValueError, match=message):
        simplex_cover(lam, gam)


def test_simplex_cover_independent_support_needs_no_tableau(monkeypatch):
    # affinely independent Lambda: one shared elimination gives every circuit
    inst = random_instance(n=4, degree=10, terms=20, seed=5)
    zero = (0,) * 4
    part = support_partition(
        SparsePoly(4, {e: c for e, c in inst.poly.terms.items() if e != zero})
    )
    cases = [
        ([(0, 0), (4, 2), (2, 4)], [(2, 2)]),
        (sorted(set(part.lambda_set) | {zero}), part.gamma_set),
    ]
    expected = [ref_simplex_cover(lam, gam) for lam, gam in cases]

    def no_tableau(*args):
        raise AssertionError("independent Lambda built a tableau")

    monkeypatch.setattr("soncert.cover.Tableau", no_tableau)
    assert [simplex_cover(lam, gam) for lam, gam in cases] == expected
    assert len(cases[1][0]) == 5 and len(expected[1].circuits) > 1


def test_simplex_cover_random_properties():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        lam = {(0,) * n}
        for _ in range(rng.randint(n, 6)):
            lam.add(tuple(2 * rng.randint(0, d) for _ in range(n)))
        lam = sorted(lam)
        gam = set()
        for _ in range(rng.randint(1, 4)):
            # random convex combination of candidate points, rounded onto
            # the lattice by construction: average of two points with even sum
            a, b = rng.choice(lam), rng.choice(lam)
            mid = tuple((x + y) // 2 for x, y in zip(a, b))
            if mid not in lam:
                gam.add(mid)
        if not gam:
            continue
        try:
            result = simplex_cover(lam, sorted(gam))
        except CoverInfeasible:
            continue
        covered_betas = {c.beta for c in result.circuits}
        assert covered_betas >= set(gam)
        used = set().union(*(set(c.trellis) for c in result.circuits))
        assert used | set(result.uncovered) == set(lam) | used
        assert not (set(result.uncovered) & used)
        assert_valid_circuits(result)
        # determinism
        again = simplex_cover(lam, sorted(gam))
        assert again == result


@pytest.mark.parametrize("poly_class", POLY_CLASSES)
def test_simplex_cover_matches_fraction_engine(poly_class):
    # the supports lower_bound covers, on seeded generator instances
    for seed in range(20):
        n = 1 + seed % 6
        inst = random_instance(
            n=n, degree=4 + 2 * (seed % 5), terms=n + 8 + seed % 7,
            poly_class=poly_class, seed=900 + seed,
        )
        zero = (0,) * n
        rest = SparsePoly(n, {e: c for e, c in inst.poly.terms.items() if e != zero})
        part = support_partition(rest)
        lam = sorted(set(part.lambda_set) | {zero})
        result = simplex_cover(lam, part.gamma_set)
        assert result == ref_simplex_cover(lam, part.gamma_set)
        assert_valid_circuits(result)
