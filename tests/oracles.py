"""Test oracles: exact checks and exhaustive searches that the library does
not need, kept to test it against.

brute_min_med_seq finds a minimum-size mediated sequence by exhaustive
search, is_mediated_sequence and is_valid_mediated_set check the
definitions, fractions gives a MediatedSet's triples in Fractions, and
is_nonneg_circuit decides a circuit polynomial's nonnegativity by its
circuit number.

A Certificate holds its circuits in integers only.  The tests build and
read them as CertTriples of Fractions: cones_of builds a certificate's
integers from CertTriples, circuits_of and triples_of read them back,
check_cone is the closed cone test on Fractions, and same_certificate
compares two certificates by their files and their CertTriples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from soncert.cover import Circuit
from soncert.mediated import IntPoint, MediatedSet, fraction_points, med_seq
from soncert.polyring import Exponent, Point, is_even, parse_rational
from soncert.verify import Certificate, _Cones

PointTriple = Tuple[Point, Point, Point]  # (u, v, w) with u = (v + w)/2

def med_seq_elements(p: int, q: int) -> Tuple[int, ...]:
    """Sorted elements of the sequence produced by med_seq."""
    return tuple(sorted({0, p} | {s for (s, _, _) in med_seq(p, q)}))


def is_mediated_sequence(elements: Sequence[int], p: int, q: int) -> bool:
    """Exact membership check against the definition."""
    a = set(elements)
    if not {0, q, p} <= a or not all(0 <= x <= p for x in a):
        return False
    for x in a - {0, p}:
        if not any(2 * x - y in a and y != x for y in a if y < x):
            return False
    return True


def brute_min_med_seq(p: int, q: int) -> Tuple[int, ...]:
    """Minimum-size (0,p)-mediated sequence containing q, by exhaustive
    iterative-deepening search over justification pairs. Exponential in the
    worst case; intended for small p as a test oracle."""
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got q={q}, p={p}")
    upper = len(med_seq(p, q)) + 2
    for budget in range(3, upper + 1):
        found = _brute_search(p, q, budget)
        if found is not None:
            return tuple(sorted(found))
    raise AssertionError("search exceeded the constructive upper bound")


def _brute_search(p: int, q: int, budget: int) -> frozenset | None:
    seen: set[tuple[frozenset, frozenset]] = set()

    def dfs(a: frozenset, unjust: frozenset) -> frozenset | None:
        if not unjust:
            return a
        key = (a, unjust)
        if key in seen:
            return None
        seen.add(key)
        # most-constrained element first
        best_x = None
        best_pairs: List[Tuple[int, int, int]] | None = None
        for x in unjust:
            pairs = []
            for v in range(max(0, 2 * x - p), x):
                w = 2 * x - v
                new = (v not in a) + (w not in a)
                if len(a) + new <= budget:
                    pairs.append((new, v, w))
            if not pairs:
                return None
            if best_pairs is None or len(pairs) < len(best_pairs):
                best_x, best_pairs = x, pairs
        best_pairs.sort()
        for _, v, w in best_pairs:
            a2 = a | {v, w}
            if len(a2) > budget:
                continue
            u2 = (unjust - {best_x}) | (frozenset({v, w}) - a - {0, p})
            res = dfs(a2, u2)
            if res is not None:
                return res
        return None

    return dfs(frozenset({0, q, p}), frozenset({q}))


def fractions(mediated: MediatedSet) -> List[PointTriple]:
    """The triples of a mediated set as tuples of Fractions."""
    view = fraction_points((pt for trip in mediated.triples for pt in trip), mediated.den)
    return [(view[u], view[v], view[w]) for u, v, w in mediated.triples]


def is_valid_mediated_set(
    mediated: MediatedSet, anchors: Sequence[Sequence], beta: Sequence
) -> bool:
    """Check the structural contract: each triple has u = (v + w)/2 with
    v != w, every endpoint is an anchor or the mid of some triple, beta is
    a mid, and mids are distinct."""

    def scaled(pt: Sequence) -> Optional[IntPoint]:
        xs = [Fraction(x) * mediated.den for x in pt]
        return tuple(int(x) for x in xs) if all(x.denominator == 1 for x in xs) else None

    anchor_set = {scaled(a) for a in anchors} - {None}
    mids = [trip[0] for trip in mediated.triples]
    if len(set(mids)) != len(mids):
        return False
    mid_set = set(mids)
    if scaled(beta) not in mid_set:
        return False
    for u, v, w in mediated.triples:
        if v == w or not len(u) == len(v) == len(w):
            return False
        if any(2 * x != y + z for x, y, z in zip(u, v, w)):
            return False
        for e in (v, w):
            if e not in anchor_set and e not in mid_set:
                return False
    return True


# Hard cap for the common weight denominator in the exact circuit test; the
# comparison raises both sides to the power p, so huge p means huge integers.
MAX_CIRCUIT_DENOMINATOR = 2**32


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


@dataclass(frozen=True)
class CertTriple:
    u: Point
    v: Point
    w: Point
    a: Fraction
    b: Fraction
    c: Fraction


def check_cone(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact membership in the closed rotated cone: a, b >= 0, 2ab >= c^2."""
    return a >= 0 and b >= 0 and 2 * a * b >= c * c


def cones_of(circuits: Iterable[Iterable[CertTriple]]) -> _Cones:
    """A certificate's integers from its circuits of CertTriples, of
    Fractions or integers: each distinct point once, by value."""
    index: Dict[Tuple[int, ...], int] = {}
    refs: List[int] = []
    slots: List[int] = []
    sizes: List[int] = []
    for group in circuits:
        group = tuple(group)
        sizes.append(len(group))
        for t in group:
            for pt in (t.u, t.v, t.w):
                key = tuple(chain.from_iterable((x.numerator, x.denominator) for x in pt))
                refs.append(index.setdefault(key, len(index)))
            for x in (t.a, t.b, t.c):
                slots += (x.numerator, x.denominator)
    return _Cones(list(index), refs, slots, sizes)


def circuits_of(cert: Certificate) -> Tuple[Tuple[CertTriple, ...], ...]:
    """A certificate's circuits as CertTriples of Fractions."""
    cones = cert.cones
    points = [tuple(map(Fraction, pt[0::2], pt[1::2])) for pt in cones.points]
    values = iter(map(Fraction, cones.slots[0::2], cones.slots[1::2]))
    refs = iter(cones.refs)
    return tuple(
        tuple(
            CertTriple(points[next(refs)], points[next(refs)], points[next(refs)], *(next(values) for _ in "abc"))
            for _ in range(size)
        )
        for size in cones.sizes
    )


def triples_of(cert: Certificate) -> Tuple[CertTriple, ...]:
    """A certificate's triples, circuit after circuit."""
    return tuple(t for group in circuits_of(cert) for t in group)


def same_certificate(a: Certificate, b: Certificate) -> bool:
    """Whether two certificates are equal field by field, their circuits
    compared as CertTriples, and write the same file."""
    return (
        (a.n, a.xi, a.poly_sha256, a.passthrough) == (b.n, b.xi, b.poly_sha256, b.passthrough)
        and circuits_of(a) == circuits_of(b)
        and a.dumps() == b.dumps()
    )
