"""Certificates and their exact, solver-independent verification.

A certificate pins a rational bound xi and exact slot values (a, b, c) per
mediated triple (u, v, w), u = (v + w)/2, such that the sign-normalized
companion of f minus xi equals the sum of the triple expressions
2a x^v + b x^w - 2c x^u plus passthrough square terms, with every triple in
the rotated cone 2ab >= c^2.  The companion bounds f from below through |x|,
and on the orthant each triple expression is nonnegative (x^u is the
geometric mean of x^v and x^w), so a passing certificate proves f >= xi.

A polynomial f whose coefficient has a numerator or denominator of more
than MAX_DECIMAL_EXPONENT decimal digits, which the parser refuses, is
too-large before f is hashed: printing such a value for the hash takes
time quadratic in its digits.

Two caps on the certificate decide too-large before any other arithmetic.
The least common denominator D of all point coordinates may not have more
than MAX_DECIMAL_EXPONENT decimal digits, the parser's limit for one value, and
the least common denominator V of all values (slots, passthrough
coefficients, xi) must stay below 10^MAX_DECIMAL_EXPONENT times 2^B(f),
where B(f) sums ceil(log2 d) over the distinct denominators d of f's
coefficients: the values must carry those, and 2^B(f) bounds their least
common denominator without big-integer arithmetic.  A cap is settled by
the summed bit lengths of the distinct denominators when those stay below
it, and only otherwise by building the lcm, which stops at the cap.

Past the caps neither D nor V is formed: the arithmetic runs on integers
per triple and per distinct point.  Each distinct point is scaled once, by
the lcm of its own coordinates' denominators; a midpoint is checked on the
three scaled points, a cone on the triple's own numerators and
denominators, and the reconstruction sums the values that meet at each
point over their own denominators (see _sum) and compares that sum with
the companion's coefficient there.  The reader, the writer and bit_size
also handle each distinct point once.  This module imports only polyring and
the standard library.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add, attrgetter, floordiv, mul
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .polyring import _TOO_MANY_DIGITS, Exponent, Point, SparsePoly, has_too_many_digits, is_even
from .polyring import parse_rational, pn_companion, poly_sha256

_NUM, _DEN = attrgetter("numerator"), attrgetter("denominator")
_UVW, _ABC = attrgetter("u", "v", "w"), attrgetter("a", "b", "c")


def _in_cone(pa: int, qa: int, pb: int, qb: int, pc: int, qc: int) -> bool:
    """check_cone on numerators p and positive denominators q: 2ab >= c^2
    is 2 pa pb qc^2 >= pc^2 qa qb."""

    return pa >= 0 and pb >= 0 and 2 * pa * pb * qc * qc >= pc * pc * qa * qb


def check_cone(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact membership in the closed rotated cone."""

    return _in_cone(a.numerator, a.denominator, b.numerator, b.denominator, c.numerator, c.denominator)


@dataclass(frozen=True)
class CertTriple:
    u: Point
    v: Point
    w: Point
    a: Fraction
    b: Fraction
    c: Fraction


def _indented(items: Sequence[str], level: int, brackets: str = "[]") -> str:
    """A JSON list (or object, brackets "{}") of rendered items in the
    json.dumps(indent=2) layout, opened at indent level `level`."""

    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * level}{brackets[1]}"


def _inline(items: Sequence[str], level: int, brackets: str = "[]") -> str:
    """The same list or object in the json.dumps layout without indent."""

    return f"{brackets[0]}{', '.join(items)}{brackets[1]}"


def _rational(x: Fraction) -> str:
    """format_rational(x) as a JSON string; its characters need no escape."""

    return f'"{x.numerator}"' if x.denominator == 1 else f'"{x.numerator}/{x.denominator}"'


def _bits(values: Iterable[Fraction]) -> int:
    """Bits of the numerators and denominators of the values."""

    values = list(values)
    return sum(map(int.bit_length, map(_NUM, values))) + sum(map(int.bit_length, map(_DEN, values)))


def _point_references(triples: Iterable[CertTriple]) -> List[Point]:
    """u, v and w of every triple, in order."""

    return list(chain.from_iterable(map(_UVW, triples)))


def _distinct_points(triples: Iterable[CertTriple]) -> Dict[int, Point]:
    """Every point object of the triples, keyed by its id."""

    refs = _point_references(triples)
    return dict(zip(map(id, refs), refs))


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
        """Bits of every numerator and denominator written, a point's
        counted once per triple that refers to it."""

        triples = self.triples
        uses = Counter(map(id, _point_references(triples)))
        values = [self.xi, *chain.from_iterable(map(_ABC, triples)), *(coef for _, coef in self.passthrough)]
        return _bits(values) + sum(uses[key] * _bits(pt) for key, pt in _distinct_points(triples).items())

    def to_json(self) -> dict:
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """The certificate file: JSON in the json.dumps(indent=2,
        sort_keys=True) layout."""

        return self._write(_indented)

    def dumps_compact(self) -> str:
        """The certificate in the json.dumps(sort_keys=True) layout, on one
        line, as the CLI inlines it in a --json report."""

        return self._write(_inline)

    def _write(self, block: Callable[..., str]) -> str:
        """The certificate JSON with sorted keys, each list and object laid
        out by block.  Every leaf is rendered from integers, and the text of
        each distinct coordinate and point is built once."""

        coords: Dict[int, str] = {}  # id of a coordinate -> its text
        points: Dict[int, str] = {}  # id of a point object -> its text

        def coord(x: Fraction) -> str:
            text = coords.get(id(x))
            if text is None:
                text = coords[id(x)] = block([f'"{x.numerator}"', f'"{x.denominator}"'], 6)
            return text

        def point(pt: Point) -> str:
            text = points.get(id(pt))
            if text is None:
                text = points[id(pt)] = block([coord(x) for x in pt], 5)
            return text

        def triple(t: CertTriple) -> str:
            return block(
                [
                    f'"a": {_rational(t.a)}',
                    f'"b": {_rational(t.b)}',
                    f'"c": {_rational(t.c)}',
                    f'"u": {point(t.u)}',
                    f'"v": {point(t.v)}',
                    f'"w": {point(t.w)}',
                ],
                4,
                "{}",
            )

        circuits = [
            block([f'"triples": {block([triple(t) for t in group], 3)}'], 2, "{}")
            for group in self.circuits
        ]
        passthrough = [
            block([f'"coef": {_rational(coef)}', f'"exp": {block(list(map(json.dumps, exp)), 3)}'], 2, "{}")
            for exp, coef in self.passthrough
        ]
        fields = [
            f'"circuits": {block(circuits, 1)}',
            f'"n": {json.dumps(self.n)}',
            f'"passthrough": {block(passthrough, 1)}',
            f'"poly_sha256": {json.dumps(self.poly_sha256)}',
            f'"xi": {_rational(self.xi)}',
        ]
        return block(fields, 0, "{}")

    @classmethod
    def from_json(cls, data: object) -> "Certificate":
        return _Reader().certificate(data)

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        reader = _Reader()
        try:
            data = json.loads(text, object_hook=reader.decoded)
        except RecursionError:
            raise ValueError("JSON is nested too deeply") from None
        return reader.certificate(data)


def _field(obj: object, key: str, where: str, kind: type = object, default=None):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj and default is not None:
        return default
    if key not in obj:
        raise ValueError(f"{where} misses field '{key}'")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{where} field '{key}' must be a {kind.__name__}")
    return obj[key]


_TRIPLE_KEYS = frozenset("uvwabc")
# JSON integers and integer strings, which the writer emits, read as
# integers; a float or a bool is refused, where int() would truncate it
_INTEGRAL = frozenset((int, str))


def _integer(value: object, where: str) -> int:
    try:
        if type(value) in _INTEGRAL:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"{where} must be an integer, got {value!r}")


def _refuse_point(obj: List[object]) -> None:
    """Raise the ValueError for a point that is no list of [num, den] pairs
    of integers or integer strings."""

    for pair in obj:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"coordinate must be a [num, den] pair: {pair!r}")
    raise ValueError(f"coordinates must hold two integers each: {obj!r}")


class _Reader:
    """The certificate from its decoded JSON.

    A point recurs in many triples and a coordinate in many points: each
    distinct point, keyed on its raw JSON values, and each distinct
    coordinate become objects once per reader.  Certificate.loads passes
    decoded as json's object_hook, so that every triple becomes a CertTriple
    as soon as it is decoded and its point lists are freed at once, instead
    of the whole tree of lists living until the end.
    """

    def __init__(self) -> None:
        self.coords: Dict[Tuple[object, object], Fraction] = {}
        self.points: Dict[object, Point] = {}

    def decoded(self, obj: dict) -> object:
        return self.triple(obj) if obj.keys() >= _TRIPLE_KEYS else obj

    def coord(self, pair: Sequence[object]) -> Fraction:
        """The coordinate of a raw [num, den] pair of integers or integer strings."""

        x = self.coords.get(pair)
        if x is None:
            try:
                num, den = int(pair[0]), int(pair[1])
            except ValueError:
                raise ValueError(f"coordinate {list(pair)!r} must hold two integers") from None
            if den == 0:
                raise ValueError(f"coordinate has a zero denominator: {list(pair)!r}")
            x = self.coords[pair] = Fraction(num, den)
        return x

    def point(self, obj: object) -> Point:
        if not isinstance(obj, list):
            raise ValueError(f"point must be a list of coordinates: {obj!r}")
        try:
            # list.__len__ takes lists only, so once every length is 2 the
            # flattened values determine the pairs
            key = tuple(chain.from_iterable(obj)) if set(map(list.__len__, obj)) <= {2} else None
            if key is not None and not set(map(type, key)) <= _INTEGRAL:
                key = None  # 1.0 and True would find the point of 1
            pt = self.points.get(key)
        except TypeError:  # a coordinate that is not a list, or an unhashable value
            key = pt = None
        if pt is None:
            if key is None:
                _refuse_point(obj)
            values = iter(key)
            pt = self.points[key] = tuple(map(self.coord, zip(values, values)))
        return pt

    def triple(self, t: object) -> CertTriple:
        if not isinstance(t, dict):
            raise ValueError("triple must be a JSON object")
        try:
            u, v, w, a, b, c = t["u"], t["v"], t["w"], t["a"], t["b"], t["c"]
        except KeyError as missing:
            raise ValueError(f"triple misses field {missing}") from None
        point = self.point
        return CertTriple(point(u), point(v), point(w), parse_rational(a), parse_rational(b), parse_rational(c))

    def certificate(self, data: object) -> Certificate:
        n = _integer(_field(data, "n", "certificate"), "certificate field 'n'")
        xi = parse_rational(_field(data, "xi", "certificate"))
        sha = str(_field(data, "poly_sha256", "certificate"))
        circuits = []
        for group in _field(data, "circuits", "certificate", list, []):
            triples = []
            for t in _field(group, "triples", "circuit", list):
                t = t if type(t) is CertTriple else self.triple(t)
                for pt in (t.u, t.v, t.w):
                    if len(pt) != n:
                        raise ValueError(f"point of dimension {n} expected: {pt}")
                triples.append(t)
            circuits.append(tuple(triples))
        passthrough = []
        for item in _field(data, "passthrough", "certificate", list, []):
            raw = _field(item, "exp", "passthrough term", list)
            exp = tuple(_integer(x, "passthrough exponent") for x in raw)
            if len(exp) != n or any(x < 0 for x in exp):
                raise ValueError(f"bad passthrough exponent {exp}")
            passthrough.append((exp, parse_rational(_field(item, "coef", "passthrough term"))))
        return Certificate(
            n=n,
            xi=xi,
            poly_sha256=sha,
            circuits=tuple(circuits),
            passthrough=tuple(passthrough),
        )


@dataclass
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def _lcm_reaches(denominators: Iterable[int], limit: int) -> bool:
    """Whether the least common denominator reaches limit.

    The product of the distinct denominators is at most 2^S, S the sum of
    their ceil(log2 d), so an S below log2(limit) settles it without
    big-integer arithmetic; otherwise the lcm is built up to the limit."""

    distinct = set(denominators)
    if sum((d - 1).bit_length() for d in distinct) < limit.bit_length() - 1:
        return False
    den = 1
    for d in distinct:
        den = lcm(den, d)
        if den >= limit:
            return True
    return False


def _sum(parts: Dict[int, int]) -> Tuple[int, int]:
    """The sum of the fractions num/den of parts, den -> num, not reduced.

    Terms are added in pairs, level by level, so that operands grow evenly
    and only multiplications are needed: many large distinct denominators at
    one point cost about a product of their total size, where adding them
    one by one over their lcm costs its square."""

    fractions = list(parts.items())
    while len(fractions) > 1:
        summed = [(d1 * d2, n1 * d2 + n2 * d1) for (d1, n1), (d2, n2) in zip(fractions[0::2], fractions[1::2])]
        fractions = summed + fractions[len(summed) * 2 :]
    den, num = fractions[0]
    return num, den


def verify_certificate(f: SparsePoly, cert: Certificate) -> VerifyResult:
    """Exact, independent acceptance check of a certificate against f.

    Checks closed cone membership (non-strict), midpoint structure,
    passthrough shape, and the exact reconstruction of the companion of
    f - xi, on integers per triple and per distinct point.  A coefficient
    of f with more than 4300 digits above or below its fraction bar is
    refused as too-large, as is a common denominator of the points from
    10^4300 on or one of the values from 10^4300 * 2^B(f) on (see the
    module docstring).  A
    passing certificate proves f(x) >= xi for every real x.
    """

    n = cert.n
    if n != f.n:
        return VerifyResult(False, "shape-mismatch")
    if has_too_many_digits(f):
        return VerifyResult(False, "too-large")
    if cert.poly_sha256 != poly_sha256(f):
        return VerifyResult(False, "hash-mismatch")
    triples = cert.triples
    distinct = _distinct_points(triples)
    dens = {key: tuple(map(_DEN, pt)) for key, pt in distinct.items()}
    slots = list(chain.from_iterable(map(_ABC, triples)))
    p, q = list(map(_NUM, slots)), list(map(_DEN, slots))
    poly_bits = sum((d - 1).bit_length() for d in {c.denominator for c in f.terms.values()})
    if _lcm_reaches(chain.from_iterable(dens.values()), _TOO_MANY_DIGITS) or _lcm_reaches(
        chain(q, (cert.xi.denominator,), (c.denominator for _, c in cert.passthrough)), _TOO_MANY_DIGITS << poly_bits
    ):
        return VerifyResult(False, "too-large")

    # each distinct point as (d, d * point), d the lcm of its denominators:
    # the same for equal points, and (1, exp) for an integer point exp
    scaled: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    for key, pt in distinct.items():
        d = lcm(*dens[key])
        nums = tuple(map(_NUM, pt))
        scaled[key] = (d, nums if d == 1 else tuple(map(mul, nums, map(floordiv, repeat(d), dens[key]))))
    negative = {key for key, (_, nums) in scaled.items() if min(nums, default=0) < 0}

    # the values that meet at each point, summed per denominator
    parts: Dict[Tuple[int, Tuple[int, ...]], Dict[int, int]] = {}

    def credit(pt: Tuple[int, Tuple[int, ...]], num: int, den: int) -> None:
        by_den = parts.get(pt)
        if by_den is None:
            parts[pt] = {den: num}
        else:
            by_den[den] = by_den.get(den, 0) + num
    for t, pa, qa, pb, qb, pc, qc in zip(triples, p[0::3], q[0::3], p[1::3], q[1::3], p[2::3], q[2::3]):
        if len(t.u) != n or len(t.v) != n or len(t.w) != n:
            return VerifyResult(False, "shape-mismatch")
        keys = id(t.u), id(t.v), id(t.w)
        (du, pu), (dv, pv), (dw, pw) = u, v, w = scaled[keys[0]], scaled[keys[1]], scaled[keys[2]]
        # v + w = 2u, over the three points' own denominators
        if (
            v == w
            or not negative.isdisjoint(keys)
            or list(map(add, map(mul, pv, repeat(dw * du)), map(mul, pw, repeat(dv * du))))
            != list(map(mul, pu, repeat(2 * dv * dw)))
        ):
            return VerifyResult(False, "bad-midpoint")
        if not _in_cone(pa, qa, pb, qb, pc, qc):
            return VerifyResult(False, "cone-violation")
        credit(v, 2 * pa, qa)
        credit(w, pb, qb)
        credit(u, -2 * pc, qc)
    for exp, coef in cert.passthrough:
        if not is_even(exp) or coef <= 0:
            return VerifyResult(False, "bad-passthrough")
        credit((1, tuple(exp)), coef.numerator, coef.denominator)

    # the companion of f - xi, point by point
    tilde = pn_companion(f)
    terms = {**tilde.terms, (0,) * n: tilde.constant() - cert.xi}
    target = {(1, exp): coef for exp, coef in terms.items() if coef}
    sums = {pt: total for pt, total in zip(parts, map(_sum, parts.values())) if total[0]}
    if sums.keys() != target.keys() or any(
        num * target[pt].denominator != target[pt].numerator * den for pt, (num, den) in sums.items()
    ):
        return VerifyResult(False, "reconstruction-mismatch")
    return VerifyResult(True, "ok")
