"""Conic formulation of sparse lower bounds via circuit covers.

Pipeline: partition the support of a polynomial into candidate square
points and interior points, cover each interior point with a simplex
circuit, replace every circuit by a rational mediated set of triples
(u, v, w) with u = (v + w)/2, and match coefficients pointwise.  Each
triple carries slot variables (a, b, c) constrained to the rotated cone
2ab >= c^2, encoding the binomial square a x^{2v'} ... via the identity
2a x^v + b x^w - 2c x^u with (x^{v/2})^2-style groupings.  Equality rows
force the slot combination at every mediated point to reproduce the
coefficient there.  assemble builds bound mode without xi (the row at the
origin is dropped and minimized) and feasibility mode with it (that row
is pinned to f0 - xi).

The plan and the problem hold the mediated points as integer vectors over
one plan-wide denominator; SocpProblem.to_json and the certificate turn
them into Fractions, once each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, log10
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from .cover import CoverResult, affinely_independent, simplex_cover, support_partition
from .ipm import ConeSolve, solve_socp
from .mediated import (
    IntPoint,
    IntTriple,
    caterpillar,
    fraction_points,
    med_seq,
    med_set,
    med_set_odd,
)
from .polyring import Exponent, SparsePoly, format_rational, parse_rational, pn_companion


class UncoveredSupport(ValueError):
    """A support point is neither matched by a row nor a passthrough term."""


class SolverFailure(RuntimeError):
    """The conic solver stopped without reaching the requested accuracy."""


@dataclass(frozen=True)
class ConeTriplePlan:
    """Mediated triples for a circuit cover, with row bookkeeping.

    The plan holds integer points only, over one plan-wide denominator den:
    the integer vector X stands for X / den, and den is the lcm of all
    reduced coordinate denominators.  circuit_triples groups the triples
    (u, v, w) with 2u = v + w by circuit, in cover order, each triple once
    (see build_plan), and triples lists them flat in the same order; points
    lists every distinct u/v/w in lex order (the order of the rational
    points, as den > 0), and index maps each point to its row.  passthrough
    lists square points outside every trellis: they never enter the conic
    system and their coefficients must stay nonnegative on their own.
    """

    den: int
    circuit_triples: Tuple[Tuple[IntTriple, ...], ...]
    triples: Tuple[IntTriple, ...]
    points: Tuple[IntPoint, ...]
    index: Dict[IntPoint, int]
    passthrough: Tuple[Exponent, ...]

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    @property
    def max_denominator(self) -> int:
        coords = {x for pt in self.points for x in pt}
        return max((self.den // gcd(x, self.den) for x in coords), default=1)

    def int_point(self, exp: Sequence[int]) -> IntPoint:
        """A lattice point as an integer point over den."""
        return tuple(x * self.den for x in exp)


# The largest trellis lifted along a merge tree; larger ones are peeled
# cheapest first.  Trees share more rows between circuits than caterpillars
# do, whose segments end at points only their circuit has, and each shared
# row couples the circuits on it in the KKT factor.  On the seeded ladder
# (standard simplex, interior, seed 1; 2 cores) trees take the n = 40
# rung's solve (trellises of 17-32 points) from 3.6 s to 1.5 s, but on the
# n = 60 rung (28-47 points) they end max-iterations, and trees up to 30 or
# 32 points there take 43 iterations instead of 41, a solve 3-6% slower.
# Every n = 60 trellis has 28 or more points, so that rung keeps its plan.
TREE_MAX_POINTS = 27


def _length(lengths: Dict[Tuple[int, int], int], s: int, q: int) -> int:
    # the length of the sequence that lifts a segment of weight s at q/s,
    # memoized by the reduced (s, q)
    g = gcd(s, q)
    key = (s // g, q // g)
    count = lengths.get(key)
    if count is None:
        count = lengths[key] = len(med_seq(*key))
    return count


def _merge_tree(weights: Sequence[Fraction], lengths: Dict[Tuple[int, int], int]) -> List[Tuple[int, int]]:
    # Greedy: merge the pair of nodes (a, b), a < b, whose segment has the
    # fewest triples, ties to the lighter merged weight, then to the later
    # pair.  A pair's key never changes, so each is keyed once, on a heap
    # that drops pairs of nodes merged since.
    p = lcm(*(w.denominator for w in weights))
    qs = [w.numerator * (p // w.denominator) for w in weights]

    def entry(a: int, b: int) -> Tuple[int, ...]:
        s = qs[a] + qs[b]
        return (_length(lengths, s, qs[b]), s, -a, -b)

    heap = [entry(a, b) for b in range(len(qs)) for a in range(b)]
    heapify(heap)
    live = set(range(len(qs)))
    tree: List[Tuple[int, int]] = []
    while len(live) > 1:
        *_, a, b = heappop(heap)
        a, b = -a, -b
        if a in live and b in live:
            live -= {a, b}
            tree.append((a, b))
            qs.append(qs[a] + qs[b])
            node = len(qs) - 1
            for c in live:
                heappush(heap, entry(c, node))
            live.add(node)
    return tree


def _peel_order(weights: Sequence[Fraction], lengths: Dict[Tuple[int, int], int]) -> List[int]:
    # Trellis indices, cheapest first: each step peels the point whose
    # segment has the fewest triples, ties to the heavier point, then to
    # the earlier one.  With r the weight not yet peeled and q a point's,
    # its segment is med_seq(r/g, (r - q)/g), g = gcd(r, q).  The last two
    # points tie, since a sequence and its reflection, med_seq(p, p - q),
    # have one length, so the heavier of them is peeled without a lookup.
    p = lcm(*(w.denominator for w in weights))
    qs = [w.numerator * (p // w.denominator) for w in weights]
    left = sorted(range(len(qs)), key=qs.__getitem__, reverse=True)
    peeled = []
    r = p
    while len(left) > 2:
        best = fewest = None
        for i in left:
            count = _length(lengths, r, r - qs[i])
            if fewest is None or count < fewest:
                best, fewest = i, count
        left.remove(best)
        peeled.append(best)
        r -= qs[best]
    return peeled + left


def build_plan(cover: CoverResult, odd_mode: bool = False) -> ConeTriplePlan:
    """Expand every circuit of a cover into mediated triples.

    Any mediated set containing beta gives the circuit's cone exactly, so
    the merge tree is free.  When the trellis points of the cover are
    affinely independent, each trellis of at most TREE_MAX_POINTS (27)
    points is lifted along a greedy merge tree (see _merge_tree): each
    merge joins the pair of nodes whose segment has the shortest mediated
    sequence, ties to the lighter merged weight, then to the later pair of
    node indices.  On the seed-0 corpora that takes 5,751 triples where
    peeling cheapest first took 7,929 (criterion 7) and 10,691 where it
    took 14,233 (the criterion-6 simplex items).  A larger trellis, whose
    tree shares enough rows with other circuits to slow the solve (see
    TREE_MAX_POINTS), is peeled cheapest first (see _peel_order), which is
    a caterpillar tree.  Odd mode, whose lift picks its splits by the
    parity of the weights, peels heaviest weight first there.  Otherwise
    the cover anchors several circuits on shared trellis points, and their
    lifts in its common lexicographic order share inner points, where the
    rows let circuits cancel one another: there the cover's order stays
    (heaviest first loosened two of the 48 seeded criterion-6 bounds, by
    up to 3.7e-3 relative).  A triple is kept once, in the first circuit
    that lifts it, since two rotated cones on one triple sum to one; a
    circuit left with no triple is dropped.
    """

    squares = sorted({pt for c in cover.circuits for pt in c.trellis})
    independent = affinely_independent(squares)
    lengths: Dict[Tuple[int, int], int] = {}
    sets = []
    for c in cover.circuits:
        if odd_mode:
            order: Sequence[int] = range(len(c.weights))
            if independent:
                order = sorted(order, key=c.weights.__getitem__, reverse=True)
            sets.append(med_set_odd([c.trellis[i] for i in order], c.beta, [c.weights[i] for i in order]))
            continue
        tree = None
        if independent and len(c.weights) <= TREE_MAX_POINTS:
            tree = _merge_tree(c.weights, lengths)
        elif independent:
            tree = caterpillar(_peel_order(c.weights, lengths))
        sets.append(med_set(c.trellis, c.beta, c.weights, tree))
    den = lcm(*(ms.den for ms in sets))
    seen: set = set()
    groups = ([t for t in ms.over(den) if t not in seen and not seen.add(t)] for ms in sets)
    circuit_triples = tuple(tuple(group) for group in groups if group)
    triples = tuple(t for group in circuit_triples for t in group)
    points = tuple(sorted({pt for t in triples for pt in t}))
    index = {pt: i for i, pt in enumerate(points)}
    for circuit in cover.circuits:
        for pt in (circuit.beta, *circuit.trellis):
            if tuple(x * den for x in pt) not in index:
                raise RuntimeError(
                    f"mediated triples of the circuit at {circuit.beta} miss its point {pt}"
                )
    passthrough = tuple(
        pt for pt in cover.uncovered if tuple(x * den for x in pt) not in index
    )
    return ConeTriplePlan(
        den=den,
        circuit_triples=circuit_triples,
        triples=triples,
        points=points,
        index=index,
        passthrough=passthrough,
    )


# the layout of SocpProblem.to_json and SocpProblem.dump
_JSON_LAYOUT = {"indent": 2, "sort_keys": True}


@dataclass
class SocpProblem:
    """Standard-form data: min objective'slots s.t. rows, slots in cones.

    Slot layout is three per triple, (a, b, c) consecutive.  entries is a
    triplet list (row, col, coef) with integer coefficients +2 (a at its
    outer point v), +1 (b at w), -2 (c at the midpoint u).  row_points are
    the plan's integer points over plan.den, one per row.  Without xi the
    problem is in bound mode, with it in feasibility mode.
    """

    plan: ConeTriplePlan
    constant: Fraction
    xi: Optional[Fraction]
    row_points: Tuple[IntPoint, ...]
    rhs_exact: Tuple[Fraction, ...]
    entries: Tuple[Tuple[int, int, int], ...]
    objective: Tuple[int, ...]
    passthrough_terms: Dict[Exponent, Fraction] = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return "bound" if self.xi is None else "feasibility"

    @property
    def num_rows(self) -> int:
        return len(self.row_points)

    @property
    def num_slots(self) -> int:
        return 3 * self.plan.num_triples

    def to_json(self) -> str:
        """The standard form as JSON in the json.dumps(indent=2,
        sort_keys=True) layout."""

        return json.dumps(self._data(), **_JSON_LAYOUT)

    def dump(self, handle: TextIO) -> None:
        """Write to_json() to handle as json.dump encodes it, a token at a
        time, without holding the text."""

        json.dump(self._data(), handle, **_JSON_LAYOUT)

    def _data(self) -> dict:
        view = fraction_points(self.row_points, self.plan.den)
        return {
            "mode": self.mode,
            "num_cones": self.plan.num_triples,
            "cone_block": 3,
            "constant": format_rational(self.constant),
            "xi": None if self.xi is None else format_rational(self.xi),
            "objective": list(self.objective),
            "rows": [
                {
                    "point": [format_rational(x) for x in view[pt]],
                    "rhs": format_rational(rhs),
                }
                for pt, rhs in zip(self.row_points, self.rhs_exact)
            ],
            "entries": [list(e) for e in self.entries],
            "passthrough": [
                {"exp": list(exp), "coef": format_rational(coef)}
                for exp, coef in sorted(self.passthrough_terms.items())
            ],
        }


def assemble(plan: ConeTriplePlan, poly: SparsePoly, xi: object = None) -> SocpProblem:
    """Build the conic system matching a sign-normalized polynomial.

    poly must carry nonpositive coefficients off its square points (the
    pointwise-negative companion), constant included.  Without xi (bound
    mode) the row at the origin is removed and its slot expression becomes
    the objective; with xi (feasibility mode) the origin row is pinned to
    constant - xi.
    """

    zero = (0,) * poly.n
    f0 = poly.constant()
    xi_frac = None if xi is None else parse_rational(xi)

    passthrough_set = set(plan.passthrough)
    passthrough_terms: Dict[Exponent, Fraction] = {}
    rhs_full: List[Fraction] = [Fraction(0)] * len(plan.points)
    for exp, coef in poly.sorted_terms():
        if exp == zero:
            continue
        row = plan.index.get(plan.int_point(exp))
        if row is not None:
            rhs_full[row] = coef
        elif exp in passthrough_set:
            if coef < 0:
                raise UncoveredSupport(
                    f"passthrough point {exp} carries negative coefficient {coef}"
                )
            passthrough_terms[exp] = coef
        else:
            raise UncoveredSupport(
                f"support point {exp} is outside every mediated triple and "
                "not a free square point; the cover misses it"
            )

    zero_row = plan.index.get(plan.int_point(zero))
    drop = zero_row if xi_frac is None else None
    if xi_frac is not None:
        if zero_row is not None:
            rhs_full[zero_row] = f0 - xi_frac
        else:
            if f0 - xi_frac < 0:
                raise UncoveredSupport(
                    f"constant margin {f0 - xi_frac} is negative and the "
                    "origin is outside every mediated triple"
                )
            if f0 != xi_frac:
                passthrough_terms[zero] = f0 - xi_frac

    renumber: Dict[int, int] = {}
    row_points: List[IntPoint] = []
    rhs_exact: List[Fraction] = []
    for i, pt in enumerate(plan.points):
        if i == drop:
            continue
        renumber[i] = len(row_points)
        row_points.append(pt)
        rhs_exact.append(rhs_full[i])

    entries: List[Tuple[int, int, int]] = []
    objective = [0] * (3 * plan.num_triples)
    for t, (u, v, w) in enumerate(plan.triples):
        for offset, pt, coef in ((0, v, 2), (1, w, 1), (2, u, -2)):
            i = plan.index[pt]
            col = 3 * t + offset
            if i == drop:
                objective[col] = coef
            else:
                entries.append((renumber[i], col, coef))

    return SocpProblem(
        plan=plan,
        constant=f0,
        xi=xi_frac,
        row_points=tuple(row_points),
        rhs_exact=tuple(rhs_exact),
        entries=tuple(entries),
        objective=tuple(objective),
        passthrough_terms=passthrough_terms,
    )


def to_float(value: Fraction | int) -> float:
    """float(value), with a ValueError naming a value outside float range."""

    try:
        return float(value)
    except OverflowError:
        # named by its power of ten: the exact digits may be too many to print
        bits = abs(value.numerator).bit_length() - value.denominator.bit_length()
        sign = "-" if value < 0 else ""
        raise ValueError(
            f"{sign}10^{round(bits * log10(2))} (about) is outside the float range"
        ) from None


def solve_problem(problem: SocpProblem, objective_scale: float = 1.0) -> ConeSolve:
    """Run the interior-point solver, at its default relative accuracy, on
    an assembled system; the slot values are the result's x.  The float
    objective is multiplied by objective_scale, so the result's objective
    is scaled by it too."""

    # entries and objective are small integers; only a Fraction on the
    # right-hand side can pass the float range
    return solve_socp(
        [e[0] for e in problem.entries],
        [e[1] for e in problem.entries],
        [e[2] for e in problem.entries],
        [to_float(r) for r in problem.rhs_exact],
        [c * objective_scale for c in problem.objective],
        problem.plan.num_triples,
    )


@dataclass
class LowerBoundResult:
    """Lower bound for a sparse polynomial, with the problem and solution
    behind it.

    xi is -inf when no coefficient match exists at any bound (the conic
    system is infeasible even with a free constant).  When the support has
    no interior points the bound is the constant term itself and the conic
    stages are skipped (problem and solution stay None).
    """

    xi: float
    problem: Optional[SocpProblem] = None
    solution: Optional[ConeSolve] = None


def cover_points(f: SparsePoly) -> Tuple[Tuple[Exponent, ...], Tuple[Exponent, ...]]:
    """The cover's inputs: the origin with the square points of f's
    nonconstant part, and that part's other points (none for a constant f)."""

    zero = (0,) * f.n
    rest = SparsePoly(f.n, {exp: c for exp, c in f.terms.items() if exp != zero})
    if rest.is_zero():
        return (zero,), ()
    part = support_partition(rest)
    return tuple(sorted(set(part.lambda_set) | {zero})), part.gamma_set


def lower_bound(f: SparsePoly, odd_mode: bool = False) -> LowerBoundResult:
    """Best bound xi with the companion of f - xi matched by cone triples.

    Raises SolverFailure when the numeric solver stalls, and propagates
    CoverInfeasible when some interior point cannot be covered at all.
    """

    f0 = f.constant()
    lam, gamma = cover_points(f)
    if not gamma:
        return LowerBoundResult(xi=to_float(f0))
    plan = build_plan(simplex_cover(lam, gamma), odd_mode=odd_mode)
    problem = assemble(plan, pn_companion(f))
    solution = solve_problem(problem)
    if solution.status == "infeasible":
        xi = float("-inf")
    elif solution.status != "optimal":
        raise SolverFailure(
            f"conic solver stopped with status {solution.status} "
            f"(residuals {solution.residuals})"
        )
    else:
        xi = to_float(f0) - solution.objective
    return LowerBoundResult(xi=xi, problem=problem, solution=solution)
