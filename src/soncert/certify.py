"""Exact rational certificates from numeric cone solutions.

The certificate format and its verifier live in soncert.verify.  Here the
numeric solution is rounded once, to integers over one dyadic grid 2^k
chosen from its own cone slack (grid_bits), and the equality rows are
repaired exactly by spreading each row's residual uniformly over the
slots touching it; since every slot appears in exactly one row the repair
is exact in one pass and idempotent.  Rounding, repair and the strict cone
checks that decide all run on Python ints, each row over the lcm of 2^k
and its right-hand side's denominator, and the certificate takes the
checked integers and the plan's integer points as they are.

A certificate costs one conic solve: the bound problem with its objective
scaled by OBJECTIVE_SCALE, which keeps slack in every cone (Peyrl and
Parrilo's remedy for rounding), rounded and projected as above.  Only when
a cone of that point fails the strict check is a second solve made, of the
feasibility problem at a bound backed off below the numeric one.  Every
polynomial takes this path: a support with no interior points has the
empty cover, so its problem has no cone and its certificate is the
companion's monomial squares.  Every certificate returned has passed
verify_certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cover import simplex_cover
from .polyring import MAX_DECIMAL_EXPONENT, SparsePoly, has_too_many_digits
from .polyring import parse_rational, pn_companion, poly_sha256
from .socp import SocpProblem, SolverFailure, assemble, build_plan, cover_points
# unused here, but perfbench's tracer wraps soncert.certify.lower_bound and
# the CI step "Trace sites" fails without it
from .socp import lower_bound
from .socp import solve_problem, to_float
from .verify import Certificate, _Cones, verify_certificate


# Bits k of the rounding grid 2^-k: 2^-17 is the grid xi is rounded on and
# the coarsest slot grid, and past 2^-52 rounding a float adds nothing.
MIN_GRID_BITS = 17
MAX_GRID_BITS = 52
# Factor on the bound problem's float objective in exact_sobs's one solve.
# Scaling c scales the dual z down by the same factor, and on the central
# path a cone keeps room of about mu/|z|: the scaled solve ends with room
# where the plain optimum has tight cones, so rounding and projection stay
# inside.  The scaled solve stops farther from the optimum as the factor
# shrinks: at 1e-3 four of acceptance criterion 7's 50 bounds come out more
# than 1e-6 (relative) below a feasibility solve's, and at 1e-2 the median
# certificate is 7% larger than at 3e-3.
OBJECTIVE_SCALE = 3e-3
# How far below the numeric bound, relative to 1 + |bound|, the fallback
# feasibility solve certifies, so that its decomposition sits strictly
# inside the cones.
XI_BACKOFF = 1e-4


class BoundaryFailure(RuntimeError):
    """The bound touches the certifiable region's boundary: every exact
    decomposition at this bound has a tight cone, so no strict certificate
    exists at the working precision."""


def project_slots(problem: SocpProblem, nums: Sequence[int], den: int) -> Tuple[List[int], List[int]]:
    """Repair every equality row exactly by uniform residual spreading, on
    integers.

    Slot s enters as nums[s] / den and leaves as p[s] / q[s], with q[s] > 0
    and the fraction not reduced; the result is (p, q).  Each slot lies in
    exactly one row, so rows are independent: over L = lcm(den, the row's
    right-hand side denominator), slot s with row coefficient k_s moves by
    -r/(count * k_s), where r is the row residual and count the number of
    slots in the row.  The result matches the exact right-hand side on
    every row.
    """

    p, q = list(nums), [den] * len(nums)
    by_row: Dict[int, List[Tuple[int, int]]] = {}
    for row, col, coef in problem.entries:
        by_row.setdefault(row, []).append((col, coef))
    for row, cells in by_row.items():
        rhs = problem.rhs_exact[row]
        common = math.lcm(den, rhs.denominator)
        scale = common // den
        residual = scale * sum(coef * nums[col] for col, coef in cells)
        residual -= rhs.numerator * (common // rhs.denominator)
        if residual == 0:
            continue
        for col, coef in cells:
            k = len(cells) * coef
            num, dk = nums[col] * scale * k - residual, common * k
            p[col], q[col] = (num, dk) if dk > 0 else (-num, -dk)
    return p, q


def grid_bits(problem: SocpProblem, x: Sequence[float]) -> int:
    """Bits k of the grid 2^-k on which to round the numeric slots x.

    xp is x repaired in floats by project_slots's rule.  Rounding on the grid
    h = 2^-k moves a slot by at most h/2, and spreading the residual this
    leaves moves it by at most h more (the row coefficients are 2, 1 and -2),
    so the exact point lies within t = 1.5h of xp.  A cone (a, b, c) of xp
    stays strictly inside while t < (2ab - c^2) / (2(a + b + |c|)), that is
    while h is below its room (2ab - c^2) / (3(a + b + |c|)).  k is the least
    with 2^-k at most the smallest room, clamped to [MIN_GRID_BITS,
    MAX_GRID_BITS]; a cone with no room (outside, or all zero) gives
    MAX_GRID_BITS.  The smallest room is taken no larger than 1, which
    leaves every clamped k as it is and gives a problem with no cone
    MIN_GRID_BITS.
    """

    rows, cols, coefs = np.array(problem.entries, dtype=np.int64).reshape(-1, 3).T
    rhs = np.array([to_float(r) for r in problem.rhs_exact])
    x = np.asarray(x, dtype=float)
    residual = np.bincount(rows, coefs * x[cols], minlength=len(rhs)) - rhs
    count = np.bincount(rows, minlength=len(rhs))
    xp = x.copy()
    xp[cols] -= residual[rows] / (count[rows] * coefs)
    a, b, c = xp.reshape(-1, 3).T
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.min((2 * a * b - c * c) / (3 * (a + b + np.abs(c))), initial=1.0)
    if not room > 0:
        return MAX_GRID_BITS
    return min(max(math.ceil(-math.log2(room)), MIN_GRID_BITS), MAX_GRID_BITS)


def _strictly_inside(pa: int, qa: int, pb: int, qb: int, pc: int, qc: int) -> bool:
    """Exact strict acceptance of the cone (a, b, c), each given as a
    numerator p over a positive denominator q: interior, 2ab > c^2, that
    is 2 pa pb qc^2 > pc^2 qa qb, or a pure square pair (c == 0)."""

    if pa < 0 or pb < 0:
        return False
    return pc == 0 or 2 * pa * pb * qc * qc > pc * pc * qa * qb


def _round_and_project(problem: SocpProblem, x: Sequence[float]) -> Optional[Tuple[List[int], List[int]]]:
    """Round x once, to integers over the grid 2^k that grid_bits derives
    from its cone slack, repair the equality rows exactly and check every
    cone strictly, all on integers; project_slots's (p, q), or None when
    some cone fails the check."""

    den = 1 << grid_bits(problem, x)
    # rint rounds half to even, as round() does, and the float is exact
    nums = [int(v) for v in np.rint(np.asarray(x, dtype=float) * den).tolist()]
    p, q = project_slots(problem, nums, den)
    if all(map(_strictly_inside, p[0::3], q[0::3], p[1::3], q[1::3], p[2::3], q[2::3])):
        return p, q
    return None


def _projected_certificate(
    f: SparsePoly, problem: SocpProblem, slots: Tuple[List[int], List[int]], xi: Fraction, sha: str
) -> Certificate:
    """The certificate of f at xi from the exact slots p / q, once
    verify_certificate has passed it: every certificate exact_sobs returns
    is built here.  The plan's integer points, its triples as point indices
    (refs, sizes) and the slots go in as they are."""

    plan = problem.plan
    cones = _Cones.over(plan.den, plan.points, plan.refs, plan.sizes, *slots)
    cert = Certificate(f.n, xi, sha, cones, tuple(sorted(problem.passthrough_terms.items())))
    check = verify_certificate(f, cert)
    if check.reason == "too-large":
        raise ValueError(f"certificate denominators at bound {xi} are too large to verify")
    if not check.ok:
        raise RuntimeError(f"certificate values do not reconstruct the companion of f - {xi}: {check.reason}")
    return cert


def exact_sobs(
    f: SparsePoly,
    xi: object = None,
    odd_mode: bool = False,
) -> Certificate:
    """Certify a rational lower bound for f exactly.

    With xi omitted one conic solve decides: the bound problem, its
    objective scaled by OBJECTIVE_SCALE, is solved at the solver's fixed
    accuracy, rounded once on the grid grid_bits derives from its cone
    slack and projected onto the equality rows exactly.  The origin row is the
    objective, so the certified xi is read exactly as f0 minus the
    objective on the projected slots.  Only when a cone fails the strict
    check does it fall back to the feasibility solve at the numeric bound
    backed off by XI_BACKOFF * (1 + |bound|), rounded on the
    2^-MIN_GRID_BITS grid.  A given xi goes straight to that feasibility
    solve, rounded and checked the same way.  A BoundaryFailure is a
    bound solve proven infeasible (no finite bound exists), a feasibility
    system proven infeasible or failing the check, and a bound above f's
    constant term when no circuit reaches the origin, where only that term
    can pay for it.  A support with no interior points (a constant f
    included) takes the same path with the empty cover: no cone, and the
    companion's monomial squares as the certificate.  A coefficient of f
    with more than MAX_DECIMAL_EXPONENT digits above or below its fraction
    bar is a ValueError, as the parser's limit.
    """

    if has_too_many_digits(f):
        raise ValueError(f"a coefficient of f has more than {MAX_DECIMAL_EXPONENT} decimal digits")
    sha = poly_sha256(f)
    if xi is None:
        # the numeric bound is read in floats: a constant outside their
        # range is a ValueError before any exact work
        f0 = to_float(f.constant())
    else:
        target = parse_rational(xi)
    tilde = pn_companion(f)
    plan = build_plan(simplex_cover(*cover_points(f)), odd_mode=odd_mode)

    if xi is None:
        problem = assemble(plan, tilde)
        solution = solve_problem(problem, objective_scale=OBJECTIVE_SCALE)
        if solution.status == "infeasible":
            raise BoundaryFailure("no finite bound exists for this support")
        slots = _round_and_project(problem, solution.x)
        if slots is not None:
            p, q = slots
            objective = sum(Fraction(coef * p[col], q[col]) for col, coef in enumerate(problem.objective) if coef)
            return _projected_certificate(f, problem, slots, problem.constant - objective, sha)
        if solution.status != "optimal":
            raise SolverFailure(
                f"conic solver stopped with status {solution.status} "
                f"(residuals {solution.residuals})"
            )
        bound = f0 - float(np.dot(problem.objective, solution.x))
        den = 1 << MIN_GRID_BITS
        target = Fraction(round((bound - XI_BACKOFF * (1 + abs(bound))) * den), den)

    if target > f.constant() and plan.int_point((0,) * f.n) not in plan.index:
        # only the constant term pays for the bound at an origin no triple reaches
        raise BoundaryFailure(
            f"bound {target} exceeds the constant term {f.constant()}, and no circuit reaches the origin"
        )
    problem = assemble(plan, tilde, xi=target)
    solution = solve_problem(problem)
    if solution.status == "infeasible":
        raise BoundaryFailure(f"no decomposition exists at bound {target}")
    # A stalled solve still yields a numeric seed; the exact projection and
    # strict cone checks are what decide acceptance.
    slots = _round_and_project(problem, solution.x)
    if slots is None:
        raise BoundaryFailure(f"bound {target} is not strictly certifiable at this precision")
    return _projected_certificate(f, problem, slots, target, sha)
