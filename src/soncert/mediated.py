"""Mediated sequences and rational mediated sets.

A (0,p)-mediated sequence containing q is a set A with {0, q, p} subset of
A subset of [0, p] such that every element of A except 0 and p is the
average of two distinct elements of A. ``med_seq`` builds a near-minimal
sequence in O(log p) justification triples.

A segment lift transports a scalar sequence onto a segment between two
points, yielding triples (u, v, w) with u = (v + w)/2; these are the
midpoint links a binomial-squares decomposition rides on.  A circuit's
weights fix each segment's parameter q/p in closed form (Reznick 1989;
Iliman and de Wolff 2016), so one lift, given both endpoints and q/p,
serves both modes.  ``med_set`` lifts the trellis along a binary merge
tree: each merge of two nodes lifts the segment between their
combinations, on which the merged node's combination lies at the ratio of
their weights, and the root's combination is beta, so every point but a
trellis point is a midpoint (Reznick 1989).  Its default tree, a
caterpillar, peels the trellis one point at a time in the order given (on
a two-point trellis it is the lift of that one segment);
``socp.build_plan`` picks the tree.  ``med_set_odd``
produces mediated sets whose endpoint coordinates are even rationals with
odd denominators, so that after substituting an odd root every square
point becomes an even lattice point and each binomial square is globally
nonnegative, not only on the positive orthant.

Both run in integers: a rational point is an integer vector over an
explicit denominator.  Each returns a ``MediatedSet``: its distinct points
over one least common denominator, each built once, and its triples as
point indices.  A lift builds no point: it gives its segment's base point
and direction over its least denominator, found in closed form, with the
scalar triples on it.  Fractions appear only in ``fraction_points``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from itertools import chain
from operator import add, mul
from typing import Dict, Iterable, List, Sequence, Tuple

from .polyring import Point

Triple = Tuple[int, int, int]  # (mid, lo, hi) with mid = (lo + hi) // 2


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


# ---------------------------------------------------------------------------
# lattice and rational lifts
#
# A rational point is an integer vector X over a positive denominator d and
# stands for X / d.  A lift takes a segment's endpoints over their own
# denominators and q/p from the caller: a combination of total weight r
# sits at (r - q_k)/r of the way from its point of weight q_k to the
# combination of the rest.  It returns a part (d, base, diff, scalars),
# whose scalar s stands for the point (base + s diff) / d, and builds no
# point.  The scalars include 0 and have gcd 1, so d is the part's least
# denominator once base, diff and d are divided by their gcd.  _merge
# builds every point once, over the lcm of its parts' denominators.

IntPoint = Tuple[int, ...]
_Part = Tuple[int, List[int], List[int], List[Triple]]


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
    """Triples (u, v, w) with u = (v + w)/2 on integer points over den.

    points lists each point of the triples once, X standing for X / den,
    and den is the least common denominator of all coordinates.  refs holds
    the indices of u, v and w of each triple; ``len`` counts the triples.
    """

    den: int
    points: Tuple[IntPoint, ...]
    refs: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.refs) // 3


def _lattice(points: Sequence[Sequence]) -> Tuple[int, List[IntPoint]]:
    # rational points as integer vectors over their least common denominator;
    # integer points, such as exponents, are that already
    if set(map(type, chain.from_iterable(points))) == {int}:
        return 1, [tuple(pt) for pt in points]
    rats = [[x if isinstance(x, int) else Fraction(x) for x in pt] for pt in points]
    den = lcm(*(x.denominator for pt in rats for x in pt))
    return den, [tuple(x.numerator * (den // x.denominator) for x in pt) for pt in rats]


def _lift(e1: IntPoint, d1: int, e2: IntPoint, d2: int, q: int, p: int) -> _Part:
    # the segment from e1/d1 to e2/d2 through its point at q/p: with E1, E2
    # the endpoints over den = lcm(d1, d2), base = p E1 and diff = E2 - E1
    # over p den, and the scalars of med_seq(p, q)
    g = gcd(q, p)
    q, p = q // g, p // g
    den = lcm(d1, d2)
    m1, m2 = den // d1, den // d2
    base = [p * m1 * x for x in e1]
    diff = [m2 * x2 - m1 * x1 for x1, x2 in zip(e1, e2)]
    if not any(diff):
        raise ValueError("segment endpoints coincide")
    c = gcd(p * den, *base, *diff)
    return p * den // c, [x // c for x in base], [x // c for x in diff], med_seq(p, q)


def _merge(parts: Sequence[_Part]) -> MediatedSet:
    # every part over the lcm of the parts' least denominators, keeping
    # only the first triple of each midpoint, whose points it indexes;
    # scalars recur across a part's triples, so points are cached per scalar
    den = lcm(*(d for d, _, _, _ in parts))
    mids = set()
    index: Dict[IntPoint, int] = {}
    refs: List[int] = []
    for d, base, diff, scalars in parts:
        k = den // d
        base, diff = [k * x for x in base], [k * x for x in diff]
        points: Dict[int, IntPoint] = {}
        for trip in scalars:
            for s in trip:
                if s not in points:
                    points[s] = tuple(map(add, base, map(s.__mul__, diff)))
            u, v, w = map(points.__getitem__, trip)
            if u not in mids:
                mids.add(u)
                refs += [index.setdefault(pt, len(index)) for pt in (u, v, w)]
    return MediatedSet(den, tuple(index), tuple(refs))


def _prepare(
    trellis: Sequence[Sequence], beta: Sequence, weights
) -> Tuple[int, List[IntPoint], List[int], int, IntPoint]:
    # the trellis over one denominator den, weights as integers qs over p,
    # and beta as their sum of q_j pts[j] over p den
    if len(trellis) < 2:
        raise ValueError("need at least two trellis points")
    den, pts = _lattice([*trellis, beta])
    target = pts.pop()
    if any(len(pt) != len(target) for pt in pts):
        raise ValueError("dimension mismatch")
    ws = [w if isinstance(w, (int, Fraction)) else Fraction(w) for w in weights]
    if len(ws) != len(pts):
        raise ValueError("one weight per trellis point")
    p = lcm(*(w.denominator for w in ws))
    qs = [w.numerator * (p // w.denominator) for w in ws]
    if any(q <= 0 for q in qs) or sum(qs) != p:
        raise ValueError("weights must be positive and sum to one")
    total = tuple([sum(map(mul, qs, col)) for col in zip(*pts)])
    if any(s != p * t for s, t in zip(total, target)):
        raise ValueError("weights do not reproduce the target point")
    return den, pts, qs, p, total


def caterpillar(order: Sequence[int]) -> List[Tuple[int, int]]:
    """The merge tree that peels the trellis points in order: the last two
    merge first, and each earlier point then merges with the node of all
    the points after it."""
    k = len(order)
    return [(order[k - 2 - j], k + j - 1 if j else order[-1]) for j in range(k - 1)]


def med_set(
    trellis: Sequence[Sequence], beta: Sequence, weights: Sequence, tree: Sequence[Tuple[int, int]] | None = None
) -> MediatedSet:
    """Rational mediated set for beta over a trellis, by one segment lift
    per merge of a binary merge tree over the trellis points.

    Nodes 0 .. k-1 are the trellis points, and merge j of the tree, a pair
    (a, b) of nodes not merged before, makes node k + j; the last merge
    makes the root.  A node S stands for gamma_S, the combination of its
    points by their weights w, and gamma_S sits at w(b)/w(S) of the way from
    gamma_a to gamma_b, so its merge lifts that segment; the root is beta.
    The segments are lifted root first, and a midpoint keeps the first
    triple that lifts it.  Without a tree the trellis is peeled in its
    order (``caterpillar``); on a two-point trellis the set is the lift of
    that one segment.

    The inputs are validated here, not by any ``Circuit``: two or more
    trellis points of beta's dimension and weights that are positive, sum
    to one and reproduce beta, and a tree of k - 1 merges that merges each
    node at most once.  These checks run on integers; integer points and
    Fraction weights, as a circuit holds them, are taken as they are."""
    den, pts, qs, _, _ = _prepare(trellis, beta, weights)
    k = len(pts)
    if tree is None:
        tree = caterpillar(range(k))
    if len(tree) != k - 1:
        raise ValueError(f"a merge tree over {k} points has {k - 1} merges, not {len(tree)}")
    # node i as the sum of q_j pts[j] over its points, over its weight times den
    sums = [tuple([q * x for x in pt]) for pt, q in zip(pts, qs)]
    parts: List[_Part] = []
    merged = set()
    for a, b in tree:
        if a == b or {a, b} & merged or not 0 <= min(a, b) <= max(a, b) < len(sums):
            raise ValueError(f"merge {(a, b)} is not of two nodes left to merge")
        merged |= {a, b}
        sums.append(tuple(map(add, sums[a], sums[b])))
        qs.append(qs[a] + qs[b])
        parts.append(_lift(sums[a], qs[a] * den, sums[b], qs[b] * den, qs[b], qs[-1]))
    return _merge(parts[::-1])


# ---------------------------------------------------------------------------
# odd-denominator mediated sets


def _is_even_point(x: Iterable[int], den: int) -> bool:
    # every coordinate an even rational with odd denominator: 2^(v+1)
    # divides it, where 2^v is the power of two in den
    step = 2 * (den & -den)
    return all(c % step == 0 for c in x)


def _has_odd_denominators(x: IntPoint, den: int) -> bool:
    step = den & -den
    return all(c % step == 0 for c in x)


def _segment_odd(e1: IntPoint, d1: int, e2: IntPoint, d2: int, q: int, p: int) -> _Part:
    # _lift between even points e1/d1, e2/d2 with odd denominators, keeping
    # every endpoint of a triple even.  At the midpoint, or when b, the
    # point at scalar q, is an even point too, the plain lift serves.
    # Otherwise reflect the nearer endpoint (scalar 0 or p) through b, lift
    # onto the reflection (an even point), and justify b by one extra triple.
    g = gcd(q, p)
    q, p = q // g, p // g
    den, base, diff, _ = part = _lift(e1, d1, e2, d2, q, p)
    if p == 2 or _is_even_point((x + q * y for x, y in zip(base, diff)), den):
        return part
    near = 0 if 2 * q < p else p
    return den, base, diff, med_seq(p, 2 * q - near) + [(q, near, 2 * q - near)]


def med_set_odd(
    trellis: Sequence[Sequence], beta: Sequence, weights: Sequence
) -> MediatedSet:
    """Rational mediated set with odd-denominator points throughout.

    Splitting keeps every intermediate combination point at odd denominator:
    with an even total weight pick an odd part, with an odd total pick an
    even part, and when every part is odd merge the first two, which makes
    their sum even for the next level.
    """
    den, pts, qs, p, total = _prepare(trellis, beta, weights)
    for pt in pts:
        if not _is_even_point(pt, den):
            raise ValueError(f"{pt} over {den} is not an even point with odd denominators")
    if not _has_odd_denominators(total, p * den):
        raise ValueError(f"{tuple(beta)} has an even coordinate denominator")
    return _merge(_med_set_odd(pts, den, qs, p, total))


def _med_set_odd(
    pts: List[IntPoint], den: int, qs: List[int], p: int, total: IntPoint
) -> List[_Part]:
    # pts share den, and total = sum q_j pts[j] stands for the combination
    # point over p den; every combination point below it is even
    g = gcd(p, *qs)
    if g > 1:
        p //= g
        qs = [q // g for q in qs]
        total = tuple([s // g for s in total])
    if len(pts) == 2:
        return [_segment_odd(pts[0], den, pts[1], den, qs[1], p)]
    if p % 2 == 0:
        sel = next(i for i, q in enumerate(qs) if q % 2 == 1)
    elif any(q % 2 == 0 for q in qs):
        sel = next(i for i, q in enumerate(qs) if q % 2 == 0)
    else:
        # all parts odd: merge the first two so their combined weight is
        # even; b sits at q1 / (q0 + q1) of the way from b1 to b2.  Each of
        # b1 = (q0 + q1) x0 + rest and b2 = (q0 + q1) x1 + rest then peels
        # its point off onto the same rest, whose set is built once.
        (x0, x1), (q0, q1) = pts[:2], qs[:2]
        total1 = tuple([s + q1 * (a - c) for s, a, c in zip(total, x0, x1)])
        total2 = tuple([s + q0 * (c - a) for s, a, c in zip(total, x0, x1)])
        r = p - q0 - q1
        rest = tuple([s - q0 * a - q1 * c for s, a, c in zip(total, x0, x1)])
        out = [_segment_odd(total1, p * den, total2, p * den, q1, q0 + q1)]
        out.append(_segment_odd(x0, den, rest, r * den, r, p))
        if len(pts) > 3:  # a rest of one point is that point
            out += _med_set_odd(pts[2:], den, qs[2:], r, rest)
        out.append(_segment_odd(x1, den, rest, r * den, r, p))
        return out
    q = qs[sel]
    rest = tuple([s - q * x for s, x in zip(total, pts[sel])])
    out = [_segment_odd(pts[sel], den, rest, (p - q) * den, p - q, p)]
    out += _med_set_odd(pts[:sel] + pts[sel + 1 :], den, qs[:sel] + qs[sel + 1 :], p - q, rest)
    return out
