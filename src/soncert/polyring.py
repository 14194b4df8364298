"""Sparse polynomials with exact rational coefficients.

A polynomial in n variables is stored as a map from exponent vectors
(tuples of nonnegative ints) to nonzero ``fractions.Fraction`` coefficients.
The JSON interchange format, the only input format of the toolkit, is

    {"n": 2, "terms": [{"exp": [4, 2], "coef": "1"}, ...]}

where ``coef`` is an integer, a decimal string (converted exactly), or a
"p/q" string. Exponent vectors are ordered lexicographically everywhere a
deterministic order is needed.

The support splits into Lambda (even exponents carrying a positive
coefficient: candidate monomial-square points) and Gamma (all remaining
exponents). A polynomial is PN when every Gamma coefficient is negative;
``pn_companion`` flips signs to produce the PN companion, which bounds the
original from below at every point (f(x) >= companion(|x|)).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Mapping, Sequence, Tuple

from . import exact

Exponent = Tuple[int, ...]
# A rational exponent point, such as a mediated-set point or a certificate point.
Point = Tuple[Fraction, ...]

# Hard cap for the common weight denominator in the exact circuit test; the
# comparison raises both sides to the power p, so huge p means huge integers.
MAX_CIRCUIT_DENOMINATOR = 2**32

# Largest decimal exponent magnitude parse_rational accepts, Python's default
# int-string digit limit: Fraction("1e<exp>") builds 10^|exp| before any
# other check, so an unchecked exponent is an unbounded allocation.  It also
# bounds the digits of a parsed numerator or denominator, so each one prints.
MAX_DECIMAL_EXPONENT = 4300
_TOO_MANY_DIGITS = 10**MAX_DECIMAL_EXPONENT
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)\s*\Z")
_DIGIT = re.compile(r"\d")
# The form format_rational writes: parse_rational reads it with int() alone.
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def is_even(exp: Exponent) -> bool:
    """True when every entry of the exponent vector is even."""
    return all(e % 2 == 0 for e in exp)


def _check_exponent(exp: Sequence[int], n: int) -> Exponent:
    tup = tuple(exp)
    if len(tup) != n:
        raise ValueError(f"exponent {tup} has length {len(tup)}, expected {n}")
    for e in tup:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponent {tup} must consist of nonnegative ints")
    return tup


def _excerpt(value: object) -> str:
    """The repr of an input for an error message, a long one cut to its
    first 40 characters and the input's length."""
    text, size = repr(value), len(value) if isinstance(value, str) else None
    return text if len(text) <= 60 else f"{text[:40]}... (length {size or len(text)})"


def parse_rational(value: object) -> Fraction:
    """Parse an int, a decimal string, or a 'p/q' string into a Fraction.

    The canonical forms 'p' and 'p/q' that format_rational writes are read
    by int() alone; every other input goes through Fraction.  A decimal
    exponent beyond MAX_DECIMAL_EXPONENT in magnitude, or a numerator or
    denominator of more than MAX_DECIMAL_EXPONENT decimal digits, is a
    ValueError."""
    canonical = _CANONICAL.fullmatch(value) if isinstance(value, str) else None
    if canonical and len(value) <= MAX_DECIMAL_EXPONENT:
        # neither part has more digits than the limit allows
        try:
            return Fraction(int(canonical[1]), int(canonical[2] or 1))
        except ZeroDivisionError as exc:
            raise ValueError(f"not a rational: {_excerpt(value)}") from exc
    exponent = None
    if not canonical:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction, float, str)):
            raise ValueError(f"not a rational: {_excerpt(value)}")
        if isinstance(value, float):
            # JSON number written with a decimal point; repr round-trips the
            # intended decimal, which Fraction parses exactly.
            value = repr(value)
        if isinstance(value, str):
            exponent = _DECIMAL_EXPONENT.search(value)
        if exponent:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))
            if too_long or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"decimal exponent of {_excerpt(value)} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
                )
    if isinstance(value, str) and len(value) > MAX_DECIMAL_EXPONENT:
        # int() and Fraction would refuse too many digits with the
        # interpreter's message; a part of at most that many characters has
        # few enough
        mantissa = value[: exponent.start()] if exponent else value
        for part, text in zip(("numerator", "denominator"), mantissa.split("/", 1)):
            if len(text) > MAX_DECIMAL_EXPONENT:
                count = len(_DIGIT.findall(text))
                if count > MAX_DECIMAL_EXPONENT:
                    raise ValueError(f"{part} of {count} digits exceeds {MAX_DECIMAL_EXPONENT} decimal digits")
    try:
        if canonical:
            frac = Fraction(int(canonical[1]), int(canonical[2] or 1))
        else:
            frac = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {_excerpt(value)}") from exc
    for part, size in (("numerator", frac.numerator), ("denominator", frac.denominator)):
        if _too_many_digits(size):
            raise ValueError(f"{part} of {size.bit_length()} bits exceeds {MAX_DECIMAL_EXPONENT} decimal digits")
    return frac


def _too_many_digits(value: int) -> bool:
    """Whether |value| has more than MAX_DECIMAL_EXPONENT decimal digits;
    bit_length settles all but values within a factor 2 of the limit."""
    return value.bit_length() >= _TOO_MANY_DIGITS.bit_length() and abs(value) >= _TOO_MANY_DIGITS


def format_rational(value: Fraction) -> str:
    """Canonical string form: 'p' for integers, 'p/q' otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass
class SparsePoly:
    """n-variate polynomial; terms maps exponent -> nonzero coefficient."""

    n: int
    terms: Dict[Exponent, Fraction]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        clean: Dict[Exponent, Fraction] = {}
        for exp, coef in self.terms.items():
            tup = _check_exponent(exp, self.n)
            frac = coef if isinstance(coef, Fraction) else parse_rational(coef)
            if frac != 0:
                clean[tup] = frac
        self.terms = clean

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items())

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def constant(self) -> Fraction:
        return self.terms.get((0,) * self.n, Fraction(0))

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms


@dataclass(frozen=True)
class SupportPartition:
    """Support split: lambda_set = even exponents with positive coefficient,
    gamma_set = everything else. Both are lex-sorted tuples."""

    lambda_set: Tuple[Exponent, ...]
    gamma_set: Tuple[Exponent, ...]


def support_partition(f: SparsePoly) -> SupportPartition:
    if f.is_zero():
        raise ValueError("support partition of the zero polynomial")
    lam = []
    gam = []
    for exp, coef in f.sorted_terms():
        if is_even(exp) and coef > 0:
            lam.append(exp)
        else:
            gam.append(exp)
    return SupportPartition(tuple(lam), tuple(gam))


def pn_companion(f: SparsePoly) -> SparsePoly:
    """PN companion: a coefficient on an even exponent stays when positive,
    every other becomes -|c|.  The constant is carried through unchanged
    (its exponent is even and -|c| = c when c < 0).  Idempotent, and a
    lower bound on f: f(x) >= companion(|x|) at every real x."""

    return SparsePoly(
        f.n,
        {exp: c if c > 0 and is_even(exp) else -abs(c) for exp, c in f.terms.items()},
    )


# ---------------------------------------------------------------------------
# circuits


def affinely_independent(points: Sequence[Sequence[Fraction | int]]) -> bool:
    """Exact rank test on the lifted vectors (1, point)."""
    return exact.rank([[1, *p] for p in points]) == len(points)


@dataclass(frozen=True)
class Circuit:
    """A trellis (affinely independent even points), an interior point beta,
    and the exact convex weights writing beta over the trellis."""

    trellis: Tuple[Exponent, ...]
    beta: Exponent
    weights: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.trellis) != len(self.weights):
            raise ValueError("one weight per trellis point")
        if len(self.trellis) < 2:
            raise ValueError("a trellis needs at least two points")
        n = len(self.beta)
        for alpha in self.trellis:
            if len(alpha) != n:
                raise ValueError("dimension mismatch in trellis")
            if not is_even(alpha):
                raise ValueError(f"trellis point {alpha} is not even")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        # the weights over their common denominator, as integers
        den = lcm(*(w.denominator for w in self.weights))
        nums = [w.numerator * (den // w.denominator) for w in self.weights]
        if sum(nums) != den:
            raise ValueError("weights must sum to one")
        for i in range(n):
            acc = sum(q * alpha[i] for q, alpha in zip(nums, self.trellis))
            if acc != self.beta[i] * den:
                raise ValueError("weights do not reproduce beta")
        if not affinely_independent(self.trellis):
            raise ValueError("trellis points are affinely dependent")


def circuit_weights(
    trellis: Sequence[Exponent], beta: Sequence[Fraction | int]
) -> Tuple[Fraction, ...]:
    """Exact barycentric weights of beta over an affinely independent trellis.

    Raises ValueError when beta is not in the relative interior.
    """
    pts = list(trellis)
    rows = [[1] * len(pts)] + [[p[i] for p in pts] for i in range(len(beta))]
    sol = exact.solve(rows, [1, *beta])
    if sol is None:
        raise ValueError(f"{tuple(beta)} has no barycentric representation over {pts}")
    if any(w <= 0 for w in sol):
        raise ValueError(f"{tuple(beta)} is not interior to the trellis {pts}")
    return tuple(sol)


def is_nonneg_circuit(
    circuit: Circuit, coeffs: Mapping[Exponent, Fraction], d: Fraction
) -> bool:
    """Exact nonnegativity test for sum_a c_a x^a - d x^beta.

    Compares the circuit number Theta = prod (c_a / w_a)^{w_a} against d via
    integer powers: with w_a = q_a / p the test is
        prod (c_a p / q_a)^{q_a} >= |d|^p.
    Even beta only constrains d from above (negative d is trivially fine);
    odd beta constrains |d|.
    """
    weights = circuit.weights
    p = 1
    for w in weights:
        p = p * w.denominator // gcd(p, w.denominator)
    if p > MAX_CIRCUIT_DENOMINATOR:
        raise ValueError(f"weight denominator {p} exceeds the 2^32 cap")
    d = parse_rational(d)
    cs = []
    for alpha in circuit.trellis:
        c = parse_rational(coeffs[alpha])
        if c <= 0:
            raise ValueError(f"coefficient at {alpha} must be positive")
        cs.append(c)
    if is_even(circuit.beta) and d <= 0:
        return True
    lhs = Fraction(1)
    for c, w in zip(cs, weights):
        q = int(w * p)
        lhs *= (c / w) ** q
    return lhs >= abs(d) ** p


# ---------------------------------------------------------------------------
# JSON interchange


def poly_from_json(data: object) -> SparsePoly:
    """Parse the polynomial JSON object (already json.load-ed)."""
    if not isinstance(data, dict):
        raise ValueError("polynomial JSON must be an object")
    if "n" not in data or "terms" not in data:
        raise ValueError("polynomial JSON needs 'n' and 'terms'")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    raw_terms = data["terms"]
    if not isinstance(raw_terms, list):
        raise ValueError("'terms' must be a list")
    terms: Dict[Exponent, Fraction] = {}
    for entry in raw_terms:
        if not isinstance(entry, dict) or "exp" not in entry or "coef" not in entry:
            raise ValueError(f"term {entry!r} needs 'exp' and 'coef'")
        exp = _check_exponent(entry["exp"], n)
        if exp in terms:
            raise ValueError(f"duplicate exponent {exp}")
        coef = parse_rational(entry["coef"])
        if coef != 0:
            terms[exp] = coef
    return SparsePoly(n, terms)


def load_json(text: str) -> object:
    """json.loads, with nesting too deep for the parser as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def poly_loads(text: str) -> SparsePoly:
    return poly_from_json(load_json(text))


def poly_to_json(f: SparsePoly) -> dict:
    """Canonical JSON object: terms lex-sorted, coefficients as strings."""
    return {
        "n": f.n,
        "terms": [
            {"exp": list(exp), "coef": format_rational(coef)}
            for exp, coef in f.sorted_terms()
        ],
    }


def poly_dumps(f: SparsePoly) -> str:
    return json.dumps(poly_to_json(f), separators=(",", ":"), sort_keys=True)


def poly_sha256(f: SparsePoly) -> str:
    """sha256 of the canonical JSON serialization."""
    return hashlib.sha256(poly_dumps(f).encode("ascii")).hexdigest()
