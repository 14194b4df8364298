"""Sparse polynomials with exact rational coefficients.

A polynomial in n variables is stored as a map from exponent vectors
(tuples of nonnegative ints) to nonzero ``fractions.Fraction`` coefficients.
The JSON interchange format, the only input format of the toolkit, is

    {"n": 2, "terms": [{"exp": [4, 2], "coef": "1"}, ...]}

where ``coef`` is an integer, a decimal string (converted exactly), or a
"p/q" string. Exponent vectors are ordered lexicographically everywhere a
deterministic order is needed.

The rational grammar of the package lives here alone.  ``parse_parts``
reads a value into its reduced (numerator, denominator), the canonical 'p'
and 'p/q' by int() alone and anything else through the general parser, and
``format_parts`` writes a reduced pair back in the canonical form.
``parse_rational`` and ``format_rational`` are the same on Fractions, and
the certificate reader and writer (soncert.verify) use the pairs.

A polynomial is PN when every coefficient off the square points (even
exponents with a positive coefficient) is negative; ``pn_companion`` flips
signs to produce the PN companion, which bounds the original from below at
every point (f(x) >= companion(|x|)).

The module imports the standard library alone: with ``soncert.verify`` it
is the whole trusted base.  Support splitting and circuits live in
``soncert.cover``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Sequence, Tuple

Exponent = Tuple[int, ...]
# A rational exponent point, such as a mediated-set point or a certificate point.
Point = Tuple[Fraction, ...]

# Largest decimal exponent magnitude parse_rational accepts, Python's default
# int-string digit limit: Fraction("1e<exp>") builds 10^|exp| before any
# other check, so an unchecked exponent is an unbounded allocation.  It also
# bounds the digits of a parsed numerator or denominator, so each one prints.
MAX_DECIMAL_EXPONENT = 4300
_TOO_MANY_DIGITS = 10**MAX_DECIMAL_EXPONENT
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)\s*\Z")
_DIGIT = re.compile(r"\d")
# The form format_parts writes: parse_parts reads it with int() alone.
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def is_even(exp: Exponent) -> bool:
    """True when every entry of the exponent vector is even."""
    return all(e % 2 == 0 for e in exp)


def _check_exponent(exp: Sequence[int], n: int) -> Exponent:
    if not isinstance(exp, (list, tuple)):
        raise ValueError(f"exponent {_excerpt(exp)} is not a list")
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


def _reduced(num: int, den: int) -> Tuple[int, int]:
    """num/den as Fraction keeps it: lowest terms, den > 0."""
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def parse_parts(value: object) -> Tuple[int, int]:
    """parse_rational(value) as its reduced (numerator, denominator).

    The canonical forms 'p' and 'p/q' that format_parts writes are read by
    int() alone; every other input, and a zero denominator, goes through
    the general parser, which refuses what parse_rational refuses."""
    canonical = _CANONICAL.fullmatch(value) if type(value) is str and len(value) <= MAX_DECIMAL_EXPONENT else None
    if canonical and canonical[2] is None:
        return int(canonical[1]), 1
    if canonical and canonical[2].strip("0"):
        # neither part has more digits than the limit allows
        return _reduced(int(canonical[1]), int(canonical[2]))
    x = _parse_general(value)
    return x.numerator, x.denominator


def parse_rational(value: object) -> Fraction:
    """Parse an int, a decimal string, or a 'p/q' string into a Fraction.

    A decimal exponent beyond MAX_DECIMAL_EXPONENT in magnitude, or a
    numerator or denominator of more than MAX_DECIMAL_EXPONENT decimal
    digits, is a ValueError."""
    return Fraction(*parse_parts(value))


def _parse_general(value: object) -> Fraction:
    """parse_rational's reading of any input, the canonical forms included."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, float, str)):
        raise ValueError(f"not a rational: {_excerpt(value)}")
    if isinstance(value, float):
        # JSON number written with a decimal point; repr round-trips the
        # intended decimal, which Fraction parses exactly.
        value = repr(value)
    exponent = _DECIMAL_EXPONENT.search(value) if isinstance(value, str) else None
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


def format_parts(num: int, den: int) -> str:
    """The canonical form of num/den, reduced with den > 0: 'p' for an
    integer, 'p/q' otherwise.  Its characters need no JSON escape."""
    return str(num) if den == 1 else f"{num}/{den}"


def format_rational(value: Fraction) -> str:
    """Canonical string form: 'p' for integers, 'p/q' otherwise."""
    return format_parts(value.numerator, value.denominator)


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


def has_too_many_digits(f: SparsePoly) -> bool:
    """Whether a coefficient of f has more than MAX_DECIMAL_EXPONENT decimal
    digits in its numerator or denominator, the parser's limit: such an f
    cannot be written, so neither hashed nor certified."""
    return any(_too_many_digits(c.numerator) or _too_many_digits(c.denominator) for c in f.terms.values())


def poly_sha256(f: SparsePoly) -> str:
    """sha256 of the canonical JSON serialization."""
    return hashlib.sha256(poly_dumps(f).encode("ascii")).hexdigest()
