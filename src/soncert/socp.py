"""Conic formulation of sparse lower bounds via circuit covers.

Pipeline: partition the support of a polynomial into candidate square
points and interior points, cover each interior point with a simplex
circuit, replace every circuit by a rational mediated set of triples
(u, v, w) with u = (v + w)/2, and match coefficients pointwise.  Each
triple carries slot variables (a, b, c) constrained to the rotated cone
2ab >= c^2, encoding the binomial square a x^{2v'} ... via the identity
2a x^v + b x^w - 2c x^u with (x^{v/2})^2-style groupings.  Equality rows
force the slot combination at every mediated point to reproduce the
coefficient there, and the row at the origin is either dropped and
minimized (bound mode) or pinned to f0 - xi (feasibility mode).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, log10
from typing import Dict, List, Optional, Sequence, Tuple

from .cover import CoverResult, simplex_cover
from .ipm import ConeSolve, solve_socp
from .mediated import (
    IntPoint,
    IntTriple,
    Point,
    PointTriple,
    fraction_points,
    med_set,
    med_set_odd,
)
from .polyring import (
    Exponent,
    SparsePoly,
    format_rational,
    parse_rational,
    pn_companion,
    support_partition,
)


class UncoveredSupport(ValueError):
    """A support point is neither matched by a row nor a passthrough term."""


class SolverFailure(RuntimeError):
    """The conic solver stopped without reaching the requested accuracy."""


@dataclass(frozen=True)
class ConeTriplePlan:
    """Mediated triples for a circuit cover, with row bookkeeping.

    The plan runs on integer points over one plan-wide denominator den: the
    integer vector X stands for X / den, and den is the lcm of all reduced
    coordinate denominators.  int_triples lists every triple in circuit
    order, int_points every distinct u/v/w in lex order (the order of the
    rational points, as den > 0), and index maps each integer point to its
    row.  triples, circuit_triples and points are the same data as tuples
    of Fractions, one per distinct point, for certificates and JSON.
    passthrough lists square points outside every trellis: they never enter
    the conic system and their coefficients must stay nonnegative on their
    own.
    """

    circuits: Tuple
    den: int
    int_triples: Tuple[IntTriple, ...]
    int_points: Tuple[IntPoint, ...]
    index: Dict[IntPoint, int]
    circuit_triples: Tuple[Tuple[PointTriple, ...], ...]
    triples: Tuple[PointTriple, ...]
    points: Tuple[Point, ...]
    passthrough: Tuple[Exponent, ...]
    odd_mode: bool

    @property
    def num_triples(self) -> int:
        return len(self.int_triples)

    @property
    def max_denominator(self) -> int:
        coords = {x for pt in self.int_points for x in pt}
        return max((self.den // gcd(x, self.den) for x in coords), default=1)

    def int_point(self, exp: Sequence[int]) -> IntPoint:
        """A lattice point as an integer point over den."""
        return tuple(x * self.den for x in exp)


def build_plan(cover: CoverResult, odd_mode: bool = False) -> ConeTriplePlan:
    """Expand every circuit of a cover into mediated triples."""

    lift = med_set_odd if odd_mode else med_set
    sets = [lift(c.trellis, c.beta, c.weights) for c in cover.circuits]
    den = lcm(*(ms.den for ms in sets))
    groups = [ms.over(den) for ms in sets]
    int_triples = tuple(t for group in groups for t in group)
    int_points = tuple(sorted({pt for t in int_triples for pt in t}))
    index = {pt: i for i, pt in enumerate(int_points)}
    for circuit in cover.circuits:
        for pt in (circuit.beta, *circuit.trellis):
            if tuple(x * den for x in pt) not in index:
                raise RuntimeError(
                    f"mediated triples of the circuit at {circuit.beta} miss its point {pt}"
                )
    passthrough = tuple(
        pt for pt in cover.uncovered if tuple(x * den for x in pt) not in index
    )
    view = fraction_points(int_points, den)
    circuit_triples = tuple(
        tuple((view[u], view[v], view[w]) for u, v, w in group) for group in groups
    )
    return ConeTriplePlan(
        circuits=tuple(cover.circuits),
        den=den,
        int_triples=int_triples,
        int_points=int_points,
        index=index,
        circuit_triples=circuit_triples,
        triples=tuple(t for group in circuit_triples for t in group),
        points=tuple(view[pt] for pt in int_points),
        passthrough=passthrough,
        odd_mode=odd_mode,
    )


@dataclass
class SocpProblem:
    """Standard-form data: min objective'slots s.t. rows, slots in cones.

    Slot layout is three per triple, (a, b, c) consecutive.  entries is a
    triplet list (row, col, coef) with integer coefficients +2 (a at its
    outer point v), +1 (b at w), -2 (c at the midpoint u).
    """

    plan: ConeTriplePlan
    mode: str  # "bound" or "feasibility"
    n: int
    constant: Fraction
    xi: Optional[Fraction]
    row_points: Tuple[Point, ...]
    rhs_exact: Tuple[Fraction, ...]
    entries: Tuple[Tuple[int, int, int], ...]
    objective: Tuple[int, ...]
    passthrough_terms: Dict[Exponent, Fraction] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return len(self.row_points)

    @property
    def num_slots(self) -> int:
        return 3 * self.plan.num_triples

    def to_json(self) -> str:
        data = {
            "mode": self.mode,
            "num_cones": self.plan.num_triples,
            "cone_block": 3,
            "constant": format_rational(self.constant),
            "xi": None if self.xi is None else format_rational(self.xi),
            "objective": list(self.objective),
            "rows": [
                {
                    "point": [format_rational(x) for x in pt],
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
        return json.dumps(data, indent=2, sort_keys=True)


def assemble(
    plan: ConeTriplePlan,
    poly: SparsePoly,
    mode: str = "bound",
    xi: object = None,
) -> SocpProblem:
    """Build the conic system matching a sign-normalized polynomial.

    poly must carry nonpositive coefficients off its square points (the
    pointwise-negative companion), constant included.  In bound mode the
    row at the origin is removed and its slot expression becomes the
    objective; in feasibility mode xi is required and the origin row is
    pinned to constant - xi.
    """

    if mode not in ("bound", "feasibility"):
        raise ValueError(f"unknown mode {mode!r}")
    n = poly.n
    zero = (0,) * n
    f0 = poly.constant()
    xi_frac = None
    if mode == "feasibility":
        if xi is None:
            raise ValueError("feasibility mode needs a target bound")
        xi_frac = parse_rational(xi)

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
    drop = zero_row if mode == "bound" else None
    if mode == "feasibility":
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
    row_points: List[Point] = []
    rhs_exact: List[Fraction] = []
    for i, pt in enumerate(plan.points):
        if i == drop:
            continue
        renumber[i] = len(row_points)
        row_points.append(pt)
        rhs_exact.append(rhs_full[i])

    entries: List[Tuple[int, int, int]] = []
    objective = [0] * (3 * plan.num_triples)
    for t, (u, v, w) in enumerate(plan.int_triples):
        for offset, pt, coef in ((0, v, 2), (1, w, 1), (2, u, -2)):
            i = plan.index[pt]
            col = 3 * t + offset
            if i == drop:
                objective[col] = coef
            else:
                entries.append((renumber[i], col, coef))

    return SocpProblem(
        plan=plan,
        mode=mode,
        n=n,
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

    rows = [e[0] for e in problem.entries]
    cols = [e[1] for e in problem.entries]
    vals = [to_float(e[2]) for e in problem.entries]
    return solve_socp(
        rows,
        cols,
        vals,
        [to_float(r) for r in problem.rhs_exact],
        [to_float(c) * objective_scale for c in problem.objective],
        problem.plan.num_triples,
    )


@dataclass
class LowerBoundResult:
    """Lower bound for a sparse polynomial, with the structures behind it.

    xi is -inf when no coefficient match exists at any bound (the conic
    system is infeasible even with a free constant).  When the support has
    no interior points the bound is the constant term itself and the conic
    stages are skipped (cover, plan, problem, solution stay None).
    """

    xi: float
    cover: Optional[CoverResult] = None
    plan: Optional[ConeTriplePlan] = None
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
    cover = simplex_cover(lam, gamma)
    plan = build_plan(cover, odd_mode=odd_mode)
    problem = assemble(plan, pn_companion(f), mode="bound")
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
    return LowerBoundResult(
        xi=xi,
        cover=cover,
        plan=plan,
        problem=problem,
        solution=solution,
    )
