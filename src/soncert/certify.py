"""Exact rational certificates from numeric cone solutions.

The certificate format and its verifier live in soncert.verify.  Here the
numeric solution is rounded once, to integers over one dyadic grid 2^k
chosen from its own cone slack (grid_bits), and the equality rows are
repaired exactly by spreading each row's residual uniformly over the
slots touching it; since every slot appears in exactly one row the repair
is exact in one pass and idempotent.  Rounding, repair and the strict cone
checks that decide all run on Python ints, each row over the lcm of 2^k
and its right-hand side's denominator; the certificate's Fractions are
built once, from the checked integers.

A certificate costs one conic solve: the bound problem with its objective
scaled by OBJECTIVE_SCALE, which keeps slack in every cone (Peyrl and
Parrilo's remedy for rounding), rounded and projected as above.  Only when
a cone of that point fails the strict check is a second solve made, of the
feasibility problem at a bound backed off below the numeric one.  Every
certificate returned has passed verify_certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cover import simplex_cover
from .polyring import SparsePoly, parse_rational, pn_companion, poly_sha256
from .socp import SocpProblem, SolverFailure, assemble, build_plan, cover_points
# unused here, but perfbench's tracer wraps soncert.certify.lower_bound and
# the CI step "Trace sites" fails without it
from .socp import lower_bound
from .socp import solve_problem, to_float
from .verify import Certificate, CertTriple, verify_certificate


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
    MAX_GRID_BITS.
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
        room = np.min((2 * a * b - c * c) / (3 * (a + b + np.abs(c))), initial=np.inf)
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


def _trivial_certificate(tilde: SparsePoly, xi: Fraction, sha: str) -> Certificate:
    zero = (0,) * tilde.n
    constant = tilde.constant() - xi
    if constant < 0:
        raise BoundaryFailure(
            f"bound {xi} exceeds the constant term with no interior points to trade"
        )
    passthrough = [
        (exp, coef) for exp, coef in tilde.sorted_terms() if exp != zero
    ]
    if constant:
        passthrough.insert(0, (zero, constant))
    return Certificate(
        n=tilde.n,
        xi=xi,
        poly_sha256=sha,
        circuits=(),
        passthrough=tuple(sorted(passthrough)),
    )


def _round_and_project(problem: SocpProblem, x: Sequence[float]) -> Optional[List[Fraction]]:
    """Round x once, to integers over the grid 2^k that grid_bits derives
    from its cone slack, repair the equality rows exactly and check every
    cone strictly, all on integers; the slots as Fractions, or None when
    some cone fails the check."""

    den = 1 << grid_bits(problem, x)
    # rint rounds half to even, as round() does, and the float is exact
    nums = [int(v) for v in np.rint(np.asarray(x, dtype=float) * den).tolist()]
    p, q = project_slots(problem, nums, den)
    if all(map(_strictly_inside, p[0::3], q[0::3], p[1::3], q[1::3], p[2::3], q[2::3])):
        return list(map(Fraction, p, q))
    return None


def _certificate(
    f: SparsePoly, problem: SocpProblem, slots: Sequence[Fraction], xi: Fraction, sha: str
) -> Certificate:
    """The certificate of f at xi from exact slots, once it has verified."""

    cones = zip(slots[0::3], slots[1::3], slots[2::3])
    circuits = tuple(
        tuple(CertTriple(u, v, w, *next(cones)) for u, v, w in triples)
        for triples in problem.plan.circuit_triples
    )
    cert = Certificate(
        n=f.n,
        xi=xi,
        poly_sha256=sha,
        circuits=circuits,
        passthrough=tuple(sorted(problem.passthrough_terms.items())),
    )
    check = verify_certificate(f, cert)
    if check.reason == "too-large":
        raise ValueError(f"certificate denominators at bound {xi} are too large to verify")
    if not check.ok:
        raise RuntimeError(
            f"projected slots do not reconstruct the companion of f - {xi}: {check.reason}"
        )
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
    solve, rounded and checked the same way; a bound that fails the check
    there is a BoundaryFailure.  With no interior points (a constant f
    included) the certificate is the companion's monomial squares alone.
    """

    sha = poly_sha256(f)
    if xi is None:
        # the numeric bound is read in floats: a constant outside their
        # range is a ValueError before any exact work
        f0 = to_float(f.constant())
        target = f.constant()
    else:
        target = parse_rational(xi)
    tilde = pn_companion(f)
    lam, gamma = cover_points(f)
    if not gamma:
        return _trivial_certificate(tilde, target, sha)
    plan = build_plan(simplex_cover(lam, gamma), odd_mode=odd_mode)

    if xi is None:
        problem = assemble(plan, tilde, mode="bound")
        solution = solve_problem(problem, objective_scale=OBJECTIVE_SCALE)
        if solution.status == "infeasible":
            raise SolverFailure("no finite bound exists for this support")
        slots = _round_and_project(problem, solution.x)
        if slots is not None:
            objective = sum(coef * slots[col] for col, coef in enumerate(problem.objective) if coef)
            return _certificate(f, problem, slots, problem.constant - objective, sha)
        if solution.status != "optimal":
            raise SolverFailure(
                f"conic solver stopped with status {solution.status} "
                f"(residuals {solution.residuals})"
            )
        bound = f0 - float(np.dot(problem.objective, solution.x))
        den = 1 << MIN_GRID_BITS
        target = Fraction(round((bound - XI_BACKOFF * (1 + abs(bound))) * den), den)

    problem = assemble(plan, tilde, mode="feasibility", xi=target)
    solution = solve_problem(problem)
    if solution.status == "infeasible":
        raise BoundaryFailure(f"no decomposition exists at bound {target}")
    # A stalled solve still yields a numeric seed; the exact projection and
    # strict cone checks are what decide acceptance.
    slots = _round_and_project(problem, solution.x)
    if slots is None:
        raise BoundaryFailure(f"bound {target} is not strictly certifiable at this precision")
    return _certificate(f, problem, slots, target, sha)
