"""Certificates and their exact, solver-independent verification.

A certificate pins a rational bound xi and exact slot values (a, b, c) per
mediated triple (u, v, w), u = (v + w)/2, such that the sign-normalized
companion of f minus xi equals the sum of the triple expressions
2a x^v + b x^w - 2c x^u plus passthrough square terms, with every triple in
the rotated cone 2ab >= c^2.  The companion bounds f from below through |x|,
and on the orthant each triple expression is nonnegative (x^u is the
geometric mean of x^v and x^w), so a passing certificate proves f >= xi.

Verification runs on integers: points over the least common denominator D
of all coordinates, values (slots, passthrough coefficients, xi) over the
least common denominator V of all values.  A D of more than
MAX_DECIMAL_EXPONENT decimal digits, the parser's limit for one value, is
refused as too-large before any further arithmetic, and so is a V that
reaches 10^MAX_DECIMAL_EXPONENT times 2^B(f), where B(f) sums ceil(log2 d)
over the distinct denominators d of f's coefficients: the values must carry
those, and 2^B(f) bounds their least common denominator without big-integer
arithmetic.  This module imports only polyring and the standard library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .polyring import _TOO_MANY_DIGITS, Exponent, Point, SparsePoly, format_rational, is_even
from .polyring import load_json, parse_rational, pn_companion, poly_sha256


def check_cone(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact membership in the closed rotated cone."""

    return a >= 0 and b >= 0 and 2 * a * b >= c * c


@dataclass(frozen=True)
class CertTriple:
    u: Point
    v: Point
    w: Point
    a: Fraction
    b: Fraction
    c: Fraction


def _block(items: Sequence[str], level: int, brackets: str = "[]") -> str:
    """A JSON list (or object, brackets "{}") of rendered items in the
    json.dumps(indent=2) layout, opened at indent level `level`."""

    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * level}{brackets[1]}"


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
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """The certificate JSON in the json.dumps(indent=2, sort_keys=True)
        layout, written directly: each leaf goes through json.dumps, and the
        text of a point shared by several triples is built once."""

        leaf = json.dumps
        points: Dict[int, str] = {}  # id of a point object -> its text

        def point(pt: Point) -> str:
            if id(pt) not in points:
                coords = [_block([leaf(str(x.numerator)), leaf(str(x.denominator))], 6) for x in pt]
                points[id(pt)] = _block(coords, 5)
            return points[id(pt)]

        def value(x: Fraction) -> str:
            return leaf(format_rational(x))

        def triple(t: CertTriple) -> str:
            slots = [f'"{key}": {value(getattr(t, key))}' for key in "abc"]
            return _block(slots + [f'"{key}": {point(getattr(t, key))}' for key in "uvw"], 4, "{}")

        circuits = [
            _block([f'"triples": {_block([triple(t) for t in group], 3)}'], 2, "{}")
            for group in self.circuits
        ]
        passthrough = [
            _block([f'"coef": {value(coef)}', f'"exp": {_block(list(map(leaf, exp)), 3)}'], 2, "{}")
            for exp, coef in self.passthrough
        ]
        fields = [
            f'"circuits": {_block(circuits, 1)}',
            f'"n": {leaf(self.n)}',
            f'"passthrough": {_block(passthrough, 1)}',
            f'"poly_sha256": {leaf(self.poly_sha256)}',
            f'"xi": {value(self.xi)}',
        ]
        return _block(fields, 0, "{}")

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

        # a point recurs in many triples and a coordinate in many points:
        # each distinct one becomes a Fraction, or a point, once per call
        coords: Dict[Tuple[int, int], Fraction] = {}
        points: Dict[Tuple[Tuple[int, int], ...], Point] = {}

        def parse_point(obj: object) -> Point:
            if not isinstance(obj, list) or len(obj) != n:
                raise ValueError(f"point of dimension {n} expected: {obj!r}")
            pairs = []
            for pair in obj:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"coordinate must be a [num, den] pair: {pair!r}")
                try:
                    pairs.append((int(pair[0]), int(pair[1])))
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"coordinate {pair!r} must hold two integers") from None
                if pairs[-1][1] == 0:
                    raise ValueError(f"coordinate has a zero denominator: {pair!r}")
            key = tuple(pairs)
            if key not in points:
                points[key] = tuple(
                    coords[c] if c in coords else coords.setdefault(c, Fraction(*c)) for c in key
                )
            return points[key]

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


@dataclass
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def _common_denominator(values: Iterable[Fraction], extra_bits: int = 0) -> Optional[int]:
    """Least common denominator of the values, or None once it reaches
    10^MAX_DECIMAL_EXPONENT * 2^extra_bits."""

    limit = _TOO_MANY_DIGITS << extra_bits
    den = 1
    for d in {x.denominator for x in values}:
        den = lcm(den, d)
        if den >= limit:
            return None
    return den


def verify_certificate(f: SparsePoly, cert: Certificate) -> VerifyResult:
    """Exact, independent acceptance check of a certificate against f.

    Checks closed cone membership (non-strict), midpoint structure,
    passthrough shape, and the exact reconstruction of the companion of
    f - xi, all on integers over the common denominators D of the points
    and V of the values.  D is refused as too-large from 10^4300 on, V from
    10^4300 * 2^B(f) on (see the module docstring).  A passing certificate
    proves f(x) >= xi for every real x.
    """

    n = cert.n
    if n != f.n:
        return VerifyResult(False, "shape-mismatch")
    if cert.poly_sha256 != poly_sha256(f):
        return VerifyResult(False, "hash-mismatch")
    triples = cert.triples
    den = _common_denominator(x for t in triples for pt in (t.u, t.v, t.w) for x in pt)
    slots = (x for t in triples for x in (t.a, t.b, t.c))
    poly_bits = sum((d - 1).bit_length() for d in {c.denominator for c in f.terms.values()})
    val = _common_denominator([cert.xi, *slots, *(coef for _, coef in cert.passthrough)], poly_bits)
    if den is None or val is None:
        return VerifyResult(False, "too-large")

    scaled: Dict[int, Tuple[int, ...]] = {}  # id of a point object -> D * point

    def point(pt: Point) -> Tuple[int, ...]:
        if id(pt) not in scaled:
            scaled[id(pt)] = tuple(x.numerator * (den // x.denominator) for x in pt)
        return scaled[id(pt)]

    def value(x: Fraction) -> int:
        return x.numerator * (val // x.denominator)

    total: Dict[Tuple[int, ...], int] = {}
    for t in triples:
        if len(t.u) != n or len(t.v) != n or len(t.w) != n:
            return VerifyResult(False, "shape-mismatch")
        u, v, w = point(t.u), point(t.v), point(t.w)
        if v == w or min(u + v + w) < 0 or any(x + y != 2 * z for x, y, z in zip(v, w, u)):
            return VerifyResult(False, "bad-midpoint")
        a, b, c = value(t.a), value(t.b), value(t.c)
        if not check_cone(a, b, c):
            return VerifyResult(False, "cone-violation")
        total[v] = total.get(v, 0) + 2 * a
        total[w] = total.get(w, 0) + b
        total[u] = total.get(u, 0) - 2 * c
    for exp, coef in cert.passthrough:
        if not is_even(exp) or coef <= 0:
            return VerifyResult(False, "bad-passthrough")
        pt = tuple(den * e for e in exp)
        total[pt] = total.get(pt, 0) + value(coef)

    # the companion of f - xi over the same denominators; a coefficient that
    # is not a multiple of 1/V cannot be matched
    tilde = pn_companion(f)
    terms = {**tilde.terms, (0,) * n: tilde.constant() - cert.xi}
    target: Dict[Tuple[int, ...], int] = {}
    for exp, coef in terms.items():
        scaled_coef, rest = divmod(coef.numerator * val, coef.denominator)
        if rest:
            return VerifyResult(False, "reconstruction-mismatch")
        if scaled_coef:
            target[tuple(den * e for e in exp)] = scaled_coef
    if {pt: x for pt, x in total.items() if x} != target:
        return VerifyResult(False, "reconstruction-mismatch")
    return VerifyResult(True, "ok")
