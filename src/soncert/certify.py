"""Exact rational certificates from numeric cone solutions.

A certificate pins a rational bound xi and exact slot values (a, b, c)
per mediated triple such that the sign-normalized companion of f minus
xi equals the sum of the triple expressions 2a x^v + b x^w - 2c x^u plus
passthrough square terms, with every triple satisfying 2ab >= c^2.  The
numeric solution is snapped to dyadic rationals and the equality rows are
repaired exactly by spreading each row's residual uniformly over the
slots touching it; since every slot appears in exactly one row the repair
is exact in one pass and idempotent.  When the rounded point misses a
cone, the same numeric point is rounded once more on a finer grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cover import simplex_cover
from .mediated import Point
from .polyring import (
    Exponent,
    SparsePoly,
    format_rational,
    is_even,
    load_json,
    parse_rational,
    poly_sha256,
    support_partition,
)
from .socp import (
    SocpProblem,
    SolverFailure,
    assemble,
    build_plan,
    lower_bound,
    pn_companion,
    solve_problem,
)


class BoundaryFailure(RuntimeError):
    """The bound touches the certifiable region's boundary: every exact
    decomposition at this bound has a tight cone, so no strict certificate
    exists at the working precision."""


def round_to_rational(x: float, delta: float) -> Fraction:
    """Nearest rational to x with denominator 2^ceil(log2(1/delta))."""

    if delta <= 0:
        raise ValueError("precision must be positive")
    k = max(0, math.ceil(math.log2(1.0 / delta)))
    den = 1 << k
    return Fraction(round(x * den), den)


def project_slots(problem: SocpProblem, slots: Sequence[Fraction]) -> List[Fraction]:
    """Repair every equality row exactly by uniform residual spreading.

    Each slot lies in exactly one row, so rows are independent: slot s
    with row coefficient k_s moves by -r/(count * k_s) where r is the row
    residual and count the number of slots in the row.  The result matches
    the exact right-hand side on every row.
    """

    out = [Fraction(s) for s in slots]
    by_row: Dict[int, List[Tuple[int, int]]] = {}
    for row, col, coef in problem.entries:
        by_row.setdefault(row, []).append((col, coef))
    for row, cells in by_row.items():
        residual = sum(Fraction(coef) * out[col] for col, coef in cells)
        residual -= problem.rhs_exact[row]
        if residual == 0:
            continue
        share = Fraction(residual, len(cells))
        for col, coef in cells:
            out[col] -= share / coef
    return out


def check_cone(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact membership in the closed rotated cone."""

    return a >= 0 and b >= 0 and 2 * a * b >= c * c


def check_cone_strict(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact strict acceptance: interior, or a pure square pair (c == 0)."""

    if a < 0 or b < 0:
        return False
    if c == 0:
        return True
    return 2 * a * b > c * c


@dataclass(frozen=True)
class CertTriple:
    u: Point
    v: Point
    w: Point
    a: Fraction
    b: Fraction
    c: Fraction


@dataclass
class Certificate:
    """Exact nonnegativity witness for f - xi on the companion side."""

    n: int
    xi: Fraction
    poly_sha256: str
    circuits: Tuple[Tuple[CertTriple, ...], ...]
    passthrough: Tuple[Tuple[Exponent, Fraction], ...]

    @property
    def triples(self) -> Tuple[CertTriple, ...]:
        return tuple(t for group in self.circuits for t in group)

    @property
    def bit_size(self) -> int:
        def frac_bits(x: Fraction) -> int:
            return abs(x.numerator).bit_length() + x.denominator.bit_length()

        total = frac_bits(self.xi)
        for t in self.triples:
            for pt in (t.u, t.v, t.w):
                total += sum(frac_bits(x) for x in pt)
            total += frac_bits(t.a) + frac_bits(t.b) + frac_bits(t.c)
        for _, coef in self.passthrough:
            total += frac_bits(coef)
        return total

    def to_json(self) -> dict:
        def point_json(pt: Point) -> list:
            return [[str(x.numerator), str(x.denominator)] for x in pt]

        return {
            "n": self.n,
            "xi": format_rational(self.xi),
            "poly_sha256": self.poly_sha256,
            "circuits": [
                {
                    "triples": [
                        {
                            "u": point_json(t.u),
                            "v": point_json(t.v),
                            "w": point_json(t.w),
                            "a": format_rational(t.a),
                            "b": format_rational(t.b),
                            "c": format_rational(t.c),
                        }
                        for t in group
                    ]
                }
                for group in self.circuits
            ],
            "passthrough": [
                {"exp": list(exp), "coef": format_rational(coef)}
                for exp, coef in self.passthrough
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data: object) -> "Certificate":
        def get(obj: object, key: str, where: str, kind: type = object, default=None):
            if not isinstance(obj, dict):
                raise ValueError(f"{where} must be a JSON object")
            if key not in obj and default is not None:
                return default
            if key not in obj:
                raise ValueError(f"{where} misses field '{key}'")
            if not isinstance(obj[key], kind):
                raise ValueError(f"{where} field '{key}' must be a {kind.__name__}")
            return obj[key]

        def integer(value: object, where: str) -> int:
            try:
                return int(value)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{where} must be an integer, got {value!r}") from None

        n = integer(get(data, "n", "certificate"), "certificate field 'n'")
        xi = parse_rational(get(data, "xi", "certificate"))
        sha = str(get(data, "poly_sha256", "certificate"))

        def parse_point(obj: object) -> Point:
            if not isinstance(obj, list) or len(obj) != n:
                raise ValueError(f"point of dimension {n} expected: {obj!r}")
            coords = []
            for pair in obj:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"coordinate must be a [num, den] pair: {pair!r}")
                num, den = (integer(v, f"coordinate {pair!r}") for v in pair)
                if den == 0:
                    raise ValueError(f"coordinate has a zero denominator: {pair!r}")
                coords.append(Fraction(num, den))
            return tuple(coords)

        circuits = []
        for group in get(data, "circuits", "certificate", list, []):
            triples = []
            for t in get(group, "triples", "circuit", list):
                u, v, w, a, b, c = (get(t, key, "triple") for key in "uvwabc")
                triples.append(
                    CertTriple(
                        u=parse_point(u),
                        v=parse_point(v),
                        w=parse_point(w),
                        a=parse_rational(a),
                        b=parse_rational(b),
                        c=parse_rational(c),
                    )
                )
            circuits.append(tuple(triples))
        passthrough = []
        for item in get(data, "passthrough", "certificate", list, []):
            raw = get(item, "exp", "passthrough term", list)
            exp = tuple(integer(x, "passthrough exponent") for x in raw)
            if len(exp) != n or any(x < 0 for x in exp):
                raise ValueError(f"bad passthrough exponent {exp}")
            passthrough.append((exp, parse_rational(get(item, "coef", "passthrough term"))))
        return cls(
            n=n,
            xi=xi,
            poly_sha256=sha,
            circuits=tuple(circuits),
            passthrough=tuple(passthrough),
        )

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        return cls.from_json(load_json(text))


def _as_point(exp: Exponent) -> Point:
    return tuple(Fraction(x) for x in exp)


def _reconstruct(cert: Certificate) -> Dict[Point, Fraction]:
    total: Dict[Point, Fraction] = {}

    def add(pt: Point, val: Fraction) -> None:
        acc = total.get(pt, Fraction(0)) + val
        if acc:
            total[pt] = acc
        else:
            total.pop(pt, None)

    for t in cert.triples:
        add(t.v, 2 * t.a)
        add(t.w, t.b)
        add(t.u, -2 * t.c)
    for exp, coef in cert.passthrough:
        add(_as_point(exp), coef)
    return total


def _companion_target(f: SparsePoly, xi: Fraction) -> Dict[Point, Fraction]:
    tilde = pn_companion(f)
    zero = (0,) * f.n
    target: Dict[Point, Fraction] = {}
    for exp, coef in tilde.terms.items():
        if exp == zero:
            continue
        target[_as_point(exp)] = coef
    constant = tilde.constant() - xi
    if constant:
        target[_as_point(zero)] = constant
    return target


@dataclass
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(f: SparsePoly, cert: Certificate) -> VerifyResult:
    """Exact, independent acceptance check of a certificate against f.

    Checks closed cone membership (non-strict), midpoint structure,
    passthrough shape, and the exact reconstruction of the companion of
    f - xi.  A passing certificate proves f(x) >= xi for every real x.
    """

    if cert.n != f.n:
        return VerifyResult(False, "shape-mismatch")
    if cert.poly_sha256 != poly_sha256(f):
        return VerifyResult(False, "hash-mismatch")
    for t in cert.triples:
        if len(t.u) != cert.n or len(t.v) != cert.n or len(t.w) != cert.n:
            return VerifyResult(False, "shape-mismatch")
        if t.v == t.w or any(x < 0 for x in t.u + t.v + t.w):
            return VerifyResult(False, "bad-midpoint")
        if tuple((x + y) / 2 for x, y in zip(t.v, t.w)) != t.u:
            return VerifyResult(False, "bad-midpoint")
        if not check_cone(t.a, t.b, t.c):
            return VerifyResult(False, "cone-violation")
    for exp, coef in cert.passthrough:
        if not is_even(exp) or coef <= 0:
            return VerifyResult(False, "bad-passthrough")
    if _reconstruct(cert) != _companion_target(f, cert.xi):
        return VerifyResult(False, "reconstruction-mismatch")
    return VerifyResult(True, "ok")


def _trivial_certificate(f: SparsePoly, xi: Fraction, sha: str) -> Certificate:
    tilde = pn_companion(f)
    zero = (0,) * f.n
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
        n=f.n,
        xi=xi,
        poly_sha256=sha,
        circuits=(),
        passthrough=tuple(sorted(passthrough)),
    )


def exact_sobs(
    f: SparsePoly,
    xi: object = None,
    delta_socp: float = 1e-8,
    delta_round: float = 1e-5,
    margin: float = 1e-4,
    odd_mode: bool = False,
) -> Certificate:
    """Certify a rational lower bound for f exactly.

    With xi omitted the bound is computed first and backed off by margin
    so the decomposition sits strictly inside the cones.  The feasibility
    problem at xi is assembled and solved to accuracy delta_socp; the
    numeric solution is rounded to precision delta_round, projected back
    onto the equality rows exactly, and accepted only if every cone
    inequality holds strictly.  On failure the same numeric solution is
    rounded once more on a 2^10 times finer grid before BoundaryFailure is
    reported.
    """

    sha = poly_sha256(f)
    zero = (0,) * f.n
    rest = SparsePoly(f.n, {e: c for e, c in f.terms.items() if e != zero})
    part = support_partition(rest)
    tilde = pn_companion(f)

    if xi is None:
        bound = lower_bound(f, delta=delta_socp, odd_mode=odd_mode)
        if not math.isfinite(bound.xi):
            raise SolverFailure("no finite bound exists for this support")
        if not part.gamma_set:
            return _trivial_certificate(f, bound.constant, sha)
        xi_exact = round_to_rational(bound.xi - margin, delta_round)
        plan = bound.plan
    else:
        xi_exact = parse_rational(xi)
        if not part.gamma_set:
            return _trivial_certificate(f, xi_exact, sha)
        lam = tuple(sorted(set(part.lambda_set) | {zero}))
        cover = simplex_cover(lam, part.gamma_set)
        plan = build_plan(cover, odd_mode=odd_mode)

    problem = assemble(plan, tilde, mode="feasibility", xi=xi_exact)
    solution = solve_problem(problem, delta=delta_socp)
    if solution.status == "infeasible":
        raise BoundaryFailure(f"no decomposition exists at bound {xi_exact}")

    def attempt(dr: float) -> Optional[Certificate]:
        # A stalled solve still yields a numeric seed; the exact projection
        # and strict cone checks below are what decide acceptance.
        slots = project_slots(
            problem, [round_to_rational(s, dr) for s in solution.x]
        )
        groups: List[Tuple[CertTriple, ...]] = []
        pos = 0
        ok = True
        for triples in plan.circuit_triples:
            group = []
            for u, v, w in triples:
                a, b, c = slots[3 * pos], slots[3 * pos + 1], slots[3 * pos + 2]
                pos += 1
                if not check_cone_strict(a, b, c):
                    ok = False
                group.append(CertTriple(u=u, v=v, w=w, a=a, b=b, c=c))
            groups.append(tuple(group))
        if not ok:
            return None
        cert = Certificate(
            n=f.n,
            xi=xi_exact,
            poly_sha256=sha,
            circuits=tuple(groups),
            passthrough=tuple(sorted(problem.passthrough_terms.items())),
        )
        if _reconstruct(cert) != _companion_target(f, xi_exact):
            raise RuntimeError(
                f"projected slots do not reconstruct the companion of f - {xi_exact}"
            )
        return cert

    for dr in (delta_round, delta_round / 2**10):
        cert = attempt(dr)
        if cert is not None:
            return cert
    raise BoundaryFailure(
        f"bound {xi_exact} is not strictly certifiable at this precision"
    )
