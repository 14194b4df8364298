"""Mediated sequences and rational mediated sets.

A (0,p)-mediated sequence containing q is a set A with {0, q, p} subset of
A subset of [0, p] such that every element of A except 0 and p is the
average of two distinct elements of A. ``med_seq`` builds a near-minimal
sequence in O(log p) justification triples; ``brute_min_med_seq`` is an
exact minimal-size search used as an oracle in tests.

The lattice lift ``l_med_set`` transports a scalar sequence onto a segment
between two points, yielding triples (u, v, w) with u = (v + w)/2; these
are the midpoint links a binomial-squares decomposition rides on.
``med_set`` chains segment lifts over a full trellis. ``med_set_odd``
produces mediated sets whose endpoint coordinates are even rationals with
odd denominators, so that after substituting an odd root every square
point becomes an even lattice point and each binomial square is globally
nonnegative, not only on the positive orthant.

All four lifts run in integers: a rational point is an integer vector over
an explicit denominator, and each returns a ``MediatedSet``, its triples
over one least common denominator.  Fractions appear only in
``MediatedSet.fractions`` and ``fraction_points``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .polyring import Point, circuit_weights

Triple = Tuple[int, int, int]  # (mid, lo, hi) with mid = (lo + hi) // 2
PointTriple = Tuple[Point, Point, Point]  # (u, v, w) with u = (v + w)/2


def _shift(triples: Iterable[Triple], t: int) -> List[Triple]:
    return [(s + t, l + t, r + t) for (s, l, r) in triples]


def _med_seq(u: int, v: int) -> List[Triple]:
    # invariant: 0 < v < u; returns justification triples for a
    # (0,u)-mediated sequence containing v
    g = gcd(u, v)
    if g > 1:
        return [(g * s, g * l, g * r) for (s, l, r) in _med_seq(u // g, v // g)]
    if u == 2:
        return [(1, 0, 2)]
    if u % 2 == 0:
        h = u // 2
        if v < h:
            return _med_seq(h, v) + [(h, 0, u)]
        return [(h, 0, u)] + _shift(_med_seq(h, v - h), h)
    if v % 2 == 0:
        # v = 2^k * r with r odd; halving chain from 0 up to v - r
        k = (v & -v).bit_length() - 1
        r = v >> k
        out: List[Triple] = []
        for i in range(1, k + 1):
            out.append((v - (v >> i), v - (v >> (i - 1)), v))
        if v == u - r:
            out.append((v, v - r, u))
        elif v < u - r:
            out.append(((v - r + u) // 2, v - r, u))
            out += _shift(_med_seq((u + r - v) // 2, r), v - r)
        else:
            out.append(((v - r + u) // 2, v - r, u))
            out += _shift(
                _med_seq((u + r - v) // 2, (v + r - u) // 2), (v + u - r) // 2
            )
        return out
    # both odd: u - v is even, solve the reflected instance and flip back
    return [(u - s, u - r, u - l) for (s, l, r) in _med_seq(u, u - v)]


def med_seq(p: int, q: int) -> List[Triple]:
    """Justification triples of a (0,p)-mediated sequence containing q.

    Triples are (mid, lo, hi) with mid = (lo + hi)/2 and lo < hi; the
    sequence elements are {0, p} plus all mids, q always among the mids.
    """
    if not isinstance(p, int) or not isinstance(q, int) or isinstance(p, bool):
        raise ValueError("p and q must be ints")
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got q={q}, p={p}")
    seen = set()
    out: List[Triple] = []
    for trip in _med_seq(p, q):
        if trip[0] not in seen:
            seen.add(trip[0])
            out.append(trip)
    return out


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


# ---------------------------------------------------------------------------
# lattice and rational lifts
#
# A rational point is an integer vector X over a positive denominator d and
# stands for X / d.  Each segment lift returns a part (d, triples) with all
# its points over one d; _merge brings the parts of a mediated set to their
# least common denominator.

IntPoint = Tuple[int, ...]
IntTriple = Tuple[IntPoint, IntPoint, IntPoint]  # (u, v, w) with 2u = v + w
_Part = Tuple[int, List[IntTriple]]


def fraction_points(points: Iterable[IntPoint], den: int) -> Dict[IntPoint, Point]:
    """Each distinct integer point over den as a tuple of Fractions."""
    coords: Dict[int, Fraction] = {}
    out: Dict[IntPoint, Point] = {}
    for pt in points:
        if pt not in out:
            out[pt] = tuple(
                coords[x] if x in coords else coords.setdefault(x, Fraction(x, den))
                for x in pt
            )
    return out


@dataclass(frozen=True)
class MediatedSet:
    """Triples (u, v, w) with u = (v + w)/2 as integer points over den.

    The integer vector X stands for the point X / den, and den is the least
    common denominator of all coordinates.  ``len`` counts the triples;
    ``fractions`` gives them as tuples of Fractions.
    """

    den: int
    triples: Tuple[IntTriple, ...]

    def __len__(self) -> int:
        return len(self.triples)

    def fractions(self) -> List[PointTriple]:
        view = fraction_points((pt for trip in self.triples for pt in trip), self.den)
        return [(view[u], view[v], view[w]) for u, v, w in self.triples]

    def over(self, den: int) -> Sequence[IntTriple]:
        """The triples as integer points over den, a multiple of self.den."""
        return _rescale(self.triples, den // self.den, 1)


def _rescale(triples: Sequence[IntTriple], mul: int, div: int) -> Sequence[IntTriple]:
    # every coordinate times mul / div, a division that must come out exact
    if mul == div == 1:
        return triples
    points = {pt for t in triples for pt in t}
    scaled = {pt: tuple([x * mul // div for x in pt]) for pt in points}
    return [(scaled[u], scaled[v], scaled[w]) for u, v, w in triples]


def _lattice(points: Sequence[Sequence]) -> Tuple[int, List[IntPoint]]:
    # rational points as integer vectors over their least common denominator
    rats = [[x if isinstance(x, int) else Fraction(x) for x in pt] for pt in points]
    den = lcm(*(x.denominator for pt in rats for x in pt))
    return den, [tuple(x.numerator * (den // x.denominator) for x in pt) for pt in rats]


def _common(*points: Tuple[IntPoint, int]) -> Tuple[int, List[IntPoint]]:
    # (vector, denominator) pairs brought to their least common denominator
    den = lcm(*(d for _, d in points))
    return den, [x if d == den else tuple(c * (den // d) for c in x) for x, d in points]


def _segment_parameter(e1: IntPoint, e2: IntPoint, b: IntPoint) -> Tuple[int, int]:
    # (q, p) in lowest terms with b = e1 + (q/p)(e2 - e1), the three points
    # over one denominator; raises unless b is strictly inside the segment
    if len({len(e1), len(e2), len(b)}) != 1:
        raise ValueError("dimension mismatch")
    if e1 == e2:
        raise ValueError("segment endpoints coincide")
    i = next(i for i, (x1, x2) in enumerate(zip(e1, e2)) if x1 != x2)
    q, p = b[i] - e1[i], e2[i] - e1[i]
    if p < 0:
        q, p = -q, -p
    g = gcd(q, p)
    q, p = q // g, p // g
    where = f"{b} and the segment {e1}, {e2} (integer points over one denominator)"
    if any((xb - x1) * p != q * (x2 - x1) for x1, x2, xb in zip(e1, e2, b)):
        raise ValueError(f"not collinear: {where}")
    if not 0 < q < p:
        raise ValueError(f"not strictly between: {where}")
    return q, p


def _segment(a1: Tuple[IntPoint, int], a2: Tuple[IntPoint, int], b: Tuple[IntPoint, int]) -> _Part:
    # b = a1 + (q/p)(a2 - a1): the scalar sequence for (p, q) mapped through
    # s -> (p e1 + s (e2 - e1)) / (p den); scalars recur across triples, so
    # points are cached per s
    den, (e1, e2, pt) = _common(a1, a2, b)
    q, p = _segment_parameter(e1, e2, pt)
    base = [p * x for x in e1]
    diff = [x2 - x1 for x1, x2 in zip(e1, e2)]
    cache: Dict[int, IntPoint] = {}

    def phi(s: int) -> IntPoint:
        got = cache.get(s)
        if got is None:
            got = cache[s] = tuple(map(add, base, map(s.__mul__, diff)))
        return got

    return p * den, [(phi(s), phi(lo), phi(hi)) for (s, lo, hi) in med_seq(p, q)]


def _merge(parts: Sequence[_Part], dedupe: bool) -> MediatedSet:
    # every part over the lcm of the parts' reduced denominators; with
    # dedupe only the first triple of each midpoint is kept
    coords = (chain.from_iterable({pt for t in trips for pt in t}) for _, trips in parts)
    den = lcm(*(d // gcd(d, *xs) for (d, _), xs in zip(parts, coords)))
    seen = set()
    out: List[IntTriple] = []
    for d, trips in parts:
        g = gcd(den, d)
        for trip in _rescale(trips, den // g, d // g):
            if dedupe:
                if trip[0] in seen:
                    continue
                seen.add(trip[0])
            out.append(trip)
    return MediatedSet(den, tuple(out))


def l_med_set(a1: Sequence, a2: Sequence, b: Sequence) -> MediatedSet:
    """Mediated set on the segment [a1, a2] containing b.

    Writes b = a1 + (q/p)(a2 - a1) in lowest terms and maps the scalar
    sequence for (p, q) through s -> a1 + (s/p)(a2 - a1). Endpoint order
    inside each returned triple follows the scalar order (lo -> v, hi -> w).
    """
    den, (e1, e2, pt) = _lattice((a1, a2, b))
    return _merge([_segment((e1, den), (e2, den), (pt, den))], dedupe=False)


def _prepare(
    trellis: Sequence[Sequence], beta: Sequence, weights
) -> Tuple[int, List[IntPoint], IntPoint, List[int], int]:
    # trellis and beta over one denominator den, weights as integers qs
    # over p
    if len(trellis) < 2:
        raise ValueError("need at least two trellis points")
    den, pts = _lattice([*trellis, beta])
    target = pts.pop()
    if any(len(pt) != len(target) for pt in pts):
        raise ValueError("dimension mismatch")
    if weights is None:
        weights = circuit_weights(trellis, beta)
    ws = [w if isinstance(w, int) else Fraction(w) for w in weights]
    if len(ws) != len(pts):
        raise ValueError("one weight per trellis point")
    p = lcm(*(w.denominator for w in ws))
    qs = [w.numerator * (p // w.denominator) for w in ws]
    if any(q <= 0 for q in qs) or sum(qs) != p:
        raise ValueError("weights must be positive and sum to one")
    for i, t in enumerate(target):
        if sum(q * pt[i] for q, pt in zip(qs, pts)) != p * t:
            raise ValueError("weights do not reproduce the target point")
    return den, pts, target, qs, p


def med_set(
    trellis: Sequence[Sequence], beta: Sequence, weights=None
) -> MediatedSet:
    """Rational mediated set for beta over a trellis, by chaining segment
    lifts: peel trellis points off one at a time, each step connecting the
    current point to the weighted combination of the remaining ones."""
    den, pts, target, qs, p = _prepare(trellis, beta, weights)
    m = len(pts)
    parts: List[_Part] = []
    prev = (target, den)
    rem = p
    for k in range(m - 2):
        rem -= qs[k]
        # the combination of pts[k+1:] with weights q_j / rem
        beta_k = (_weighted(pts[k + 1 :], qs[k + 1 :]), rem * den)
        parts.append(_segment((pts[k], den), beta_k, prev))
        prev = beta_k
    parts.append(_segment((pts[m - 2], den), (pts[m - 1], den), prev))
    return _merge(parts, dedupe=True)


def _weighted(pts: Sequence[IntPoint], qs: Sequence[int]) -> IntPoint:
    return tuple(sum(q * pt[i] for q, pt in zip(qs, pts)) for i in range(len(pts[0])))


# ---------------------------------------------------------------------------
# odd-denominator mediated sets


def _is_even_point(x: IntPoint, den: int) -> bool:
    # every coordinate an even rational with odd denominator: 2^(v+1)
    # divides it, where 2^v is the power of two in den
    step = 2 * (den & -den)
    return all(c % step == 0 for c in x)


def _has_odd_denominators(x: IntPoint, den: int) -> bool:
    step = den & -den
    return all(c % step == 0 for c in x)


def l_med_set_odd(a1: Sequence, a2: Sequence, b: Sequence) -> MediatedSet:
    """Segment mediated set whose endpoint coordinates are even rationals
    with odd denominators. Requires a1, a2 already of that form and b with
    odd coordinate denominators."""
    den, (e1, e2, pt) = _lattice((a1, a2, b))
    return _merge(_segment_odd((e1, den), (e2, den), (pt, den)), dedupe=False)


def _segment_odd(
    a1: Tuple[IntPoint, int], a2: Tuple[IntPoint, int], b: Tuple[IntPoint, int]
) -> List[_Part]:
    den, (e1, e2, pt) = _common(a1, a2, b)
    for e in (e1, e2):
        if not _is_even_point(e, den):
            raise ValueError(f"{e} over {den} is not an even point with odd denominators")
    if not _has_odd_denominators(pt, den):
        raise ValueError(f"{pt} over {den} has an even coordinate denominator")
    q, p = _segment_parameter(e1, e2, pt)
    if all(2 * x == x1 + x2 for x, x1, x2 in zip(pt, e1, e2)):
        return [(den, [(pt, e1, e2)])]
    # With r the lcm of the three points' reduced denominators, r/2 * X/den
    # is (X/g)/2 for g = den/r.  The even lift runs on those points over 2,
    # and its triples over 2p' stand for points over p' r once scaled back
    # by 2/r.
    g = gcd(den, *e1, *e2, *pt)
    r = den // g
    h1, h2 = ((tuple(x // g for x in e), 2) for e in (e1, e2))
    if all((x // g) % 2 == 0 for x in pt):
        inner_den, trips = _segment(h1, h2, (tuple(x // g for x in pt), 2))
        return [(inner_den // 2 * r, trips)]
    # odd numerator somewhere: reflect the nearer endpoint through b, build
    # the even instance for the reflection, then justify b by one extra triple
    near = e1 if 2 * q <= p else e2
    reflected = tuple(2 * x - xn for x, xn in zip(pt, near))
    inner_den, trips = _segment(h1, h2, (tuple(x // g for x in reflected), 2))
    return [(inner_den // 2 * r, trips), (den, [(pt, near, reflected)])]


def med_set_odd(
    trellis: Sequence[Sequence], beta: Sequence, weights=None
) -> MediatedSet:
    """Rational mediated set with odd-denominator points throughout.

    Splitting keeps every intermediate combination point at odd denominator:
    with an even total weight pick an odd part, with an odd total pick an
    even part, and when every part is odd merge the first two, which makes
    their sum even for the next level.
    """
    den, pts, target, qs, p = _prepare(trellis, beta, weights)
    for pt in pts:
        if not _is_even_point(pt, den):
            raise ValueError(f"{pt} over {den} is not an even point with odd denominators")
    if not _has_odd_denominators(target, den):
        raise ValueError(f"{target} over {den} has an even coordinate denominator")
    return _merge(_med_set_odd(pts, den, qs, p, (target, den)), dedupe=True)


def _med_set_odd(
    pts: List[IntPoint], den: int, qs: List[int], p: int, b: Tuple[IntPoint, int]
) -> List[_Part]:
    # pts share den; b and the combination points carry their own
    g = gcd(p, *qs)
    p //= g
    qs = [q // g for q in qs]
    if len(pts) == 2:
        return _segment_odd((pts[0], den), (pts[1], den), b)
    if p % 2 == 0:
        sel = next(i for i, q in enumerate(qs) if q % 2 == 1)
    elif any(q % 2 == 0 for q in qs):
        sel = next(i for i, q in enumerate(qs) if q % 2 == 0)
    else:
        # all parts odd: merge the first two so their combined weight is even
        rest_pts, rest_qs = pts[2:], [qs[0] + qs[1]] + qs[2:]
        b1 = (_weighted([pts[0]] + rest_pts, rest_qs), p * den)
        b2 = (_weighted([pts[1]] + rest_pts, rest_qs), p * den)
        out = _segment_odd(b1, b2, b)
        out += _med_set_odd([pts[0]] + rest_pts, den, rest_qs, p, b1)
        out += _med_set_odd([pts[1]] + rest_pts, den, rest_qs, p, b2)
        return out
    rest_pts = pts[:sel] + pts[sel + 1 :]
    rest_qs = qs[:sel] + qs[sel + 1 :]
    p_rest = p - qs[sel]
    b1 = (_weighted(rest_pts, rest_qs), p_rest * den)
    out = _segment_odd((pts[sel], den), b1, b)
    out += _med_set_odd(rest_pts, den, rest_qs, p_rest, b1)
    return out


# ---------------------------------------------------------------------------
# validation


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
