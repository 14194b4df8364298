"""Tests for the conic assembly and the lower-bound driver."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

import soncert.socp
from conftest import ref_plan, ref_problem_json
from soncert.cover import simplex_cover, support_partition
from soncert.generate import POLY_CLASSES, random_instance
from soncert.mediated import MediatedSet, fraction_points, med_set
from soncert.polyring import SparsePoly
from soncert.socp import (
    UncoveredSupport,
    assemble,
    build_plan,
    cover_points,
    lower_bound,
    pn_companion,
    solve_problem,
    to_float,
)

MOTZKIN = SparsePoly(2, {(4, 2): 1, (2, 4): 1, (0, 0): 1, (2, 2): -3})
EX6 = SparsePoly(
    2, {(0, 0): 1, (4, 0): 1, (0, 4): 1, (1, 2): -1, (2, 1): -1, (1, 1): 5}
)
EX8 = SparsePoly(
    2,
    {(4, 4): 50, (4, 0): 1, (0, 4): 3, (0, 0): 800, (1, 2): -100, (2, 1): -100},
)


def _motzkin_plan(odd_mode: bool = False):
    cover = simplex_cover([(0, 0), (4, 2), (2, 4)], [(2, 2)])
    return build_plan(cover, odd_mode=odd_mode)


def _fractions(plan, triples):
    """The plan's integer triples as triples of Fraction points."""
    view = fraction_points(plan.points, plan.den)
    return tuple((view[u], view[v], view[w]) for u, v, w in triples)


def test_plan_motzkin_structure():
    plan = _motzkin_plan()
    assert plan.num_triples == 3
    assert plan.passthrough == ()
    assert plan.max_denominator == 1
    mids = [u for (u, v, w) in _fractions(plan, plan.triples)]
    assert sorted(mids) == [(1, 1), (2, 2), (3, 3)]
    assert len(plan.points) == 6


def test_plan_motzkin_keeps_its_caterpillar_triples():
    # three equal weights: every pair's segment is one midpoint, and the
    # tie goes to the later pair, so the merge tree pairs (2, 4) with (4, 2)
    # and then (0, 0) with their midpoint, as peeling in the cover's order did
    assert soncert.socp._merge_tree([Fraction(1, 3)] * 3, {}) == [(1, 2), (0, 3)]
    plan = _motzkin_plan()
    assert _fractions(plan, plan.triples) == (
        ((1, 1), (0, 0), (2, 2)),
        ((2, 2), (1, 1), (3, 3)),
        ((3, 3), (2, 4), (4, 2)),
    )


def test_plan_motzkin_odd_mode_denominator_three():
    plan = _motzkin_plan(odd_mode=True)
    assert plan.num_triples == 5
    assert plan.max_denominator == 3
    for u, v, w in _fractions(plan, plan.triples):
        for pt in (u, v, w):
            assert all(x.denominator in (1, 3) for x in pt)
    mids = {u for (u, v, w) in _fractions(plan, plan.triples)}
    assert (2, 2) in {tuple(map(Fraction, m)) for m in mids} or (
        Fraction(2),
        Fraction(2),
    ) in mids


def test_assemble_bound_drops_constant_row():
    plan = _motzkin_plan()
    problem = assemble(plan, pn_companion(MOTZKIN))
    view = fraction_points(problem.row_points, plan.den)
    assert problem.num_rows == 5
    assert (0, 0) not in [view[p] for p in problem.row_points]
    # the dropped row's slot expression becomes the objective
    assert sum(1 for c in problem.objective if c) == 1
    rhs = {view[p]: r for p, r in zip(problem.row_points, problem.rhs_exact)}
    assert rhs[(2, 2)] == -3
    assert rhs[(4, 2)] == 1 and rhs[(2, 4)] == 1
    assert rhs[(1, 1)] == 0 and rhs[(3, 3)] == 0


def test_assemble_feasibility_admits_exact_rational_solution():
    # at bound 0 the system has the exact solution a=(1/2,1,1/2),
    # b=(1,2,1), c=(1,2,1) over the triple order (1,1), (2,2), (3,3)
    plan = _motzkin_plan()
    problem = assemble(plan, pn_companion(MOTZKIN), xi=0)
    assert problem.num_rows == 6
    order = sorted(range(3), key=lambda t: plan.triples[t][0])
    slots = [Fraction(0)] * 9
    for pos, t in enumerate(order):
        a, b, c = [
            (Fraction(1, 2), Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(2), Fraction(2)),
            (Fraction(1, 2), Fraction(1), Fraction(1)),
        ][pos]
        slots[3 * t], slots[3 * t + 1], slots[3 * t + 2] = a, b, c
    sums = [Fraction(0)] * problem.num_rows
    for row, col, coef in problem.entries:
        sums[row] += coef * slots[col]
    assert tuple(sums) == problem.rhs_exact
    for t in range(3):
        a, b, c = slots[3 * t], slots[3 * t + 1], slots[3 * t + 2]
        assert a >= 0 and b >= 0 and 2 * a * b >= c * c


def test_assemble_rejects_missing_support():
    plan = _motzkin_plan()
    stray_terms = dict(pn_companion(MOTZKIN).terms)
    stray_terms[(1, 0)] = Fraction(1)
    stray = SparsePoly(2, stray_terms)
    with pytest.raises(UncoveredSupport):
        assemble(plan, stray)


def test_plan_raises_when_mediated_triples_miss_a_circuit_point(monkeypatch):
    # a plain raise, not an assert, so it also holds under python -O
    def without_beta(trellis, beta, weights, tree):
        ms = med_set(trellis, beta, weights, tree)
        mid = tuple(ms.den * x for x in beta)
        return MediatedSet(ms.den, tuple(t for t in ms.triples if mid not in t))

    monkeypatch.setattr(soncert.socp, "med_set", without_beta)
    with pytest.raises(RuntimeError, match=r"miss its point \(2, 2\)"):
        _motzkin_plan()


def test_assemble_passthrough_collects_free_squares():
    f = SparsePoly(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 0): -1})
    result = lower_bound(f)
    assert result.problem.plan.passthrough == ((0, 2),)
    assert result.problem.passthrough_terms == {(0, 2): Fraction(1)}
    # exact optimum of 1 + x^2 + y^2 - x is 3/4
    assert abs(result.xi - 0.75) < 1e-7


def test_lower_bound_motzkin_near_zero():
    result = lower_bound(MOTZKIN)
    assert -1e-4 <= result.xi <= 0.0


def test_lower_bound_reported_example():
    result = lower_bound(EX6)
    assert abs(result.xi - (-6.916501)) < 1e-3


def test_lower_bound_decomposable_example_nonnegative():
    result = lower_bound(EX8)
    assert len(result.problem.plan.circuit_triples) == 2
    assert result.xi >= -1e-4


def test_lower_bound_perfect_square():
    f = SparsePoly(1, {(0,): 1, (4,): 1, (2,): -2})
    result = lower_bound(f)
    assert abs(result.xi) < 1e-6


def test_lower_bound_shift_monotone():
    base = lower_bound(EX6).xi
    shifted_terms = dict(EX6.terms)
    shifted_terms[(0, 0)] = Fraction(7, 2)
    shifted = lower_bound(SparsePoly(2, shifted_terms)).xi
    assert abs((shifted - base) - 2.5) < 1e-6


def test_lower_bound_no_interior_points():
    f = SparsePoly(2, {(0, 0): -3, (2, 0): 1, (2, 2): 4})
    result = lower_bound(f)
    assert result.xi == -3.0
    assert result.problem is None and result.solution is None


def test_lower_bound_odd_mode_agrees():
    default = lower_bound(EX6).xi
    odd = lower_bound(EX6, odd_mode=True)
    assert abs(default - odd.xi) < 1e-5
    assert odd.problem.plan.max_denominator % 2 == 1


def test_bound_infeasible_when_capacity_exceeded():
    # keep the origin out of the trellis: the interior coefficient then
    # exceeds the fixed circuit capacity at every bound
    cover = simplex_cover([(2, 0), (4, 0)], [(3, 0)])
    plan = build_plan(cover)
    poly = SparsePoly(2, {(0, 0): 1, (2, 0): 1, (4, 0): 1, (3, 0): -9})
    problem = assemble(plan, poly)
    solution = solve_problem(problem)
    assert solution.status == "infeasible"


def test_problem_json_dump():
    # bound mode drops the origin row; feasibility mode keeps it, pinned to
    # the constant minus xi
    plan = _motzkin_plan()
    for xi, mode, origin_rhs in ((None, "bound", None), (Fraction(-1, 2), "feasibility", "3/2")):
        problem = assemble(plan, pn_companion(MOTZKIN), xi)
        data = json.loads(problem.to_json())
        assert data["mode"] == mode
        assert data["xi"] == (None if xi is None else "-1/2")
        assert data["num_cones"] == 3 and data["cone_block"] == 3
        assert len(data["entries"]) == sum(1 for _ in problem.entries)
        assert len(data["rows"]) == problem.num_rows
        assert data["constant"] == "1"
        origin = [row["rhs"] for row in data["rows"] if row["point"] == ["0", "0"]]
        assert origin == ([] if xi is None else [origin_rhs])


def test_random_bounds_are_sound():
    pyrng = random.Random(2024)
    checked = 0
    for trial in range(12):
        n = pyrng.randint(1, 3)
        inst = random_instance(
            n=n,
            degree=pyrng.choice([4, 6, 8]),
            terms=pyrng.randint(n + 3, 12),
            poly_class=pyrng.choice(
                ["standard-simplex", "general-simplex", "arbitrary-polytope"]
            ),
            seed=1000 + trial,
        )
        result = lower_bound(inst.poly)
        if not math.isfinite(result.xi):
            continue
        checked += 1
        scale = max(abs(float(c)) for c in inst.poly.terms.values())
        for _ in range(200):
            x = [pyrng.uniform(-2, 2) for _ in range(n)]
            val = sum(
                float(c) * math.prod(xi**e for xi, e in zip(x, exp))
                for exp, c in inst.poly.terms.items()
            )
            assert val >= result.xi - 1e-6 * (1 + scale)
    assert checked >= 8


def _certify_c7_corpus():
    """The 40 polynomials of the seed-0 certify-c7 corpus (criterion 7's)."""
    rng = random.Random(7)
    polys = []
    for i in range(40):
        n, d = (4, 8)[i % 2], (10, 20)[(i // 2) % 2]
        t = rng.randint(n + 8, 50)
        polys.append(random_instance(n=n, degree=d, terms=t, interior=True, seed=70_000 + i).poly)
    return polys


@pytest.mark.parametrize("odd_mode, most", [(False, 5_751), (True, 16_782)], ids=["even", "odd"])
def test_certify_c7_plans_stay_small(odd_mode, most):
    # greedy merge trees (even) or heaviest-first peeling (odd) and one cone
    # per triple: the cover order with a cone per circuit and triple held
    # 12,988 triples (even) and 16,782 (odd) over this corpus, heaviest
    # first in even mode 9,807 and cheapest first 7,929
    covers = [simplex_cover(*cover_points(poly)) for poly in _certify_c7_corpus()]
    total = 0
    for cover in covers:
        plan = build_plan(cover, odd_mode=odd_mode)
        assert len(set(plan.triples)) == plan.num_triples
        total += plan.num_triples
    assert total <= most


def _seed0_sample():
    """Every sixth polynomial of the seed-0 bound-c6-simplex corpus (the
    standard-simplex third of criterion 6's) and every fourth of the
    certify-c7 corpus (criterion 7's)."""
    polys = []
    rng = random.Random(2024)
    for i in range(198):
        n, d = rng.randint(1, 10), rng.choice([4, 10, 20, 30])
        t = rng.randint(n + 6, 50)
        if POLY_CLASSES[i % 3] == "standard-simplex" and i % 18 == 0:
            polys.append(random_instance(n=n, degree=d, terms=t, seed=60_000 + i).poly)
    rng = random.Random(7)
    for i in range(40):
        n, d = (4, 8)[i % 2], (10, 20)[(i // 2) % 2]
        t = rng.randint(n + 8, 50)
        if i % 4 == 0:
            polys.append(random_instance(n=n, degree=d, terms=t, interior=True, seed=70_000 + i).poly)
    return polys


@pytest.mark.parametrize("odd_mode", [False, True])
def test_plan_and_assembly_match_fraction_reference(odd_mode):
    checked = 0
    # one long chain too: its trellises have 13 points
    long_chain = random_instance(n=12, degree=20, terms=40, interior=True, seed=70_100).poly
    for poly in [*_seed0_sample(), long_chain]:
        zero = (0,) * poly.n
        part = support_partition(SparsePoly(poly.n, {e: c for e, c in poly.terms.items() if e != zero}))
        if not part.gamma_set:
            continue
        cover = simplex_cover(sorted(set(part.lambda_set) | {zero}), part.gamma_set)
        tilde = pn_companion(poly)
        plan = build_plan(cover, odd_mode=odd_mode)
        ref = ref_plan(cover, odd_mode)
        view = fraction_points(plan.points, plan.den)
        assert (
            tuple(_fractions(plan, group) for group in plan.circuit_triples),
            _fractions(plan, plan.triples),
            tuple(view[pt] for pt in plan.points),
            plan.passthrough,
        ) == (ref[0], ref[1], ref[2], ref[4])
        assert plan.max_denominator == max(
            (x.denominator for trip in ref[1] for pt in trip for x in pt), default=1
        )
        assert assemble(plan, tilde).to_json() == ref_problem_json(ref, tilde)
        xi = tilde.constant() - 1
        assert assemble(plan, tilde, xi).to_json() == ref_problem_json(
            ref, tilde, "feasibility", xi
        )
        checked += 1
    assert checked == 22


def test_plans_past_the_tree_size_match_fraction_reference(monkeypatch):
    # the long chain's trellises of 11 to 13 points peeled cheapest first,
    # those of 8 to 10 lifted along merge trees
    monkeypatch.setattr(soncert.socp, "TREE_MAX_POINTS", 10)
    poly = random_instance(n=12, degree=20, terms=40, interior=True, seed=70_100).poly
    cover = simplex_cover(*cover_points(poly))
    assert min(len(c.trellis) for c in cover.circuits) <= 10 < max(len(c.trellis) for c in cover.circuits)
    plan = build_plan(cover)
    ref = ref_plan(cover)
    assert tuple(_fractions(plan, group) for group in plan.circuit_triples) == ref[0]
    tilde = pn_companion(poly)
    assert assemble(plan, tilde).to_json() == ref_problem_json(ref, tilde)


def test_float_conversion_names_out_of_range_values():
    assert to_float(Fraction(1, 4)) == 0.25
    assert to_float(-3) == -3.0
    with pytest.raises(ValueError, match=r"^-10\^400 \(about\) is outside the float range"):
        to_float(Fraction(-(10**400), 1))
    # more digits than Python prints by default
    with pytest.raises(ValueError, match=r"^10\^4300 "):
        to_float(Fraction(10**4300))
    # a constant out of float range: with interior points (the bound path)
    # and without (the bound is the constant itself)
    for poly in (
        SparsePoly(2, {**MOTZKIN.terms, (0, 0): Fraction("-1e400")}),
        SparsePoly(2, {(4, 2): 1, (0, 0): Fraction("1e400")}),
    ):
        with pytest.raises(ValueError, match="outside the float range"):
            lower_bound(poly)
