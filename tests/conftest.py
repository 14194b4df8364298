"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

from soncert.cover import circuit_weights
from soncert.mediated import med_seq
from soncert.polyring import Exponent
from soncert import socp

from oracles import check_cone, circuits_of, triples_of


def random_simplex_trellis(
    rng: random.Random, n: int, half_degree: int
) -> Tuple[Exponent, ...]:
    """Scaled standard simplex: 0 and 2*half_degree*e_i, always affinely
    independent and even."""
    d2 = 2 * half_degree
    pts = [(0,) * n] + [
        tuple(d2 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    return tuple(pts)


def random_interior_lattice_point(
    rng: random.Random, n: int, half_degree: int
) -> Exponent:
    """Lattice point strictly inside conv(0, 2d e_1, ..., 2d e_n)."""
    d2 = 2 * half_degree
    while True:
        pt = tuple(rng.randint(1, d2 - n) for _ in range(n))
        if 0 < sum(pt) < d2:
            return pt


def random_simplex_circuit(
    rng: random.Random, n_max: int = 3, d_max: int = 5
) -> Tuple[Tuple[Exponent, ...], Exponent, Tuple[Fraction, ...]]:
    """Full-dimensional simplex trellis with a random interior lattice point."""
    n = rng.randint(1, n_max)
    d = rng.randint(n // 2 + 1, max(n // 2 + 1, d_max))
    trellis = random_simplex_trellis(rng, n, d)
    beta = random_interior_lattice_point(rng, n, d)
    return trellis, beta, circuit_weights(trellis, beta)


def random_segment_circuit(
    rng: random.Random,
) -> Tuple[Tuple[Exponent, ...], Exponent, Tuple[Fraction, ...]]:
    """Two even collinear points with a lattice point strictly between."""
    n = rng.randint(1, 3)
    while True:
        a = tuple(2 * rng.randint(0, 5) for _ in range(n))
        b = tuple(2 * rng.randint(0, 5) for _ in range(n))
        if a == b:
            continue
        g = 0
        for x, y in zip(a, b):
            g = gcd(g, abs(x - y))
        if g < 2:
            continue
        k = rng.randint(1, g - 1)
        beta = tuple(x + (y - x) * k // g for x, y in zip(a, b))
        trellis = (a, b)
        return trellis, beta, circuit_weights(trellis, beta)


# ---------------------------------------------------------------------------
# Reference exact engine: the Fraction tableau and Fraction Gaussian
# elimination that soncert.exact replaced, kept to compare against.


class RefInfeasible(Exception):
    pass


class RefUnbounded(Exception):
    pass


def ref_pivot(tab: List[List[Fraction]], basis: List[int], row: int, col: int) -> None:
    inv = tab[row][col]
    tab[row] = [v / inv for v in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            factor = tab[i][col]
            tab[i] = [a - factor * b for a, b in zip(tab[i], tab[row])]
    basis[row] = col


def ref_minimize(tab: List[List[Fraction]], basis: List[int], cost: List[Fraction]) -> None:
    # primal simplex with Bland's rule; tab rows are [coeffs | rhs]
    ncols = len(tab[0]) - 1
    while True:
        duals = [cost[basis[i]] for i in range(len(tab))]
        entering = -1
        for j in range(ncols):
            reduced = cost[j] - sum(duals[i] * tab[i][j] for i in range(len(tab)))
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            return
        leaving = -1
        best = None
        for i in range(len(tab)):
            if tab[i][entering] > 0:
                ratio = tab[i][-1] / tab[i][entering]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise RefUnbounded(f"column {entering} is unbounded")
        ref_pivot(tab, basis, leaving, entering)


def ref_phase_one(matrix, rhs, n: int) -> Tuple[List[List[Fraction]], List[int]]:
    m = len(matrix)
    tab: List[List[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in matrix[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        tab.append(row + art + [b])
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    ref_minimize(tab, basis, cost1)
    if sum(tab[i][-1] for i in range(m) if basis[i] >= n) != 0:
        raise RefInfeasible("no nonnegative solution to the equality system")
    for i in reversed(range(len(tab))):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                tab.pop(i)
                basis.pop(i)
            else:
                ref_pivot(tab, basis, i, col)
    tab = [row[:n] + [row[-1]] for row in tab]
    return tab, basis


def ref_solution(tab: List[List[Fraction]], basis: List[int], n: int) -> List[Fraction]:
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tab[i][-1]
    return x


def ref_lp_solve(matrix, rhs, objective):
    """(value, x, final basis) of max objective.x, matrix x = rhs, x >= 0."""
    n = len(objective)
    tab, basis = ref_phase_one(matrix, rhs, n)
    ref_minimize(tab, basis, [-Fraction(v) for v in objective])
    x = ref_solution(tab, basis, n)
    return sum(Fraction(c) * xi for c, xi in zip(objective, x)), x, basis


def ref_simplex_cover(lambda_set, gamma_set):
    """The covering sweep of soncert.cover on the reference tableau."""
    from soncert.cover import CoverInfeasible, CoverResult
    from soncert.cover import Circuit

    lam = sorted(set(map(tuple, lambda_set)))
    gam = sorted(set(map(tuple, gamma_set)))
    states = {}

    def maximize(beta, col):
        tab, basis = states[beta]
        cost = [Fraction(0)] * len(lam)
        cost[col] = Fraction(-1)
        ref_minimize(tab, basis, cost)
        return ref_solution(tab, basis, len(lam))

    def circuit(beta, x):
        support = sorted(pt for pt, w in zip(lam, x) if w > 0)
        weights = dict(zip(lam, x))
        return Circuit(tuple(support), beta, tuple(weights[pt] for pt in support))

    circuits, uncovered, remaining = [], [], set(lam)
    for beta in gam:
        matrix = [[Fraction(pt[i]) for pt in lam] for i in range(len(beta))]
        matrix.append([Fraction(1)] * len(lam))
        rhs = [Fraction(b) for b in beta] + [Fraction(1)]
        try:
            states[beta] = ref_phase_one(matrix, rhs, len(lam))
        except RefInfeasible:
            raise CoverInfeasible(f"{beta} outside the hull") from None
        for col in range(len(lam)):
            x = maximize(beta, col)
            if x[col] > 0:
                break
        else:
            raise CoverInfeasible(f"no anchor admits positive weight for {beta}")
        circuits.append(circuit(beta, x))
        remaining -= set(circuits[-1].trellis)
    while remaining:
        alpha0 = min(remaining)
        col = lam.index(alpha0)
        for beta in gam:
            x = maximize(beta, col)
            if x[col] > 0:
                circuits.append(circuit(beta, x))
                remaining -= set(circuits[-1].trellis)
                break
        else:
            uncovered.append(alpha0)
            remaining.discard(alpha0)
    return CoverResult(tuple(circuits), tuple(uncovered))


def ref_reduce(rows: List[List[Fraction]], ncols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Gauss-Jordan elimination in Fractions over the first ncols columns."""
    work = [[Fraction(v) for v in row] for row in rows]
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c]
        work[r] = [v / inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


# ---------------------------------------------------------------------------
# Reference mediated sets: the Fraction lifts that soncert.mediated's integer
# core replaced, and build_plan + assemble + SocpProblem.to_json on them,
# kept to compare against.

Point = Tuple[Fraction, ...]
PointTriple = Tuple[Point, Point, Point]


def ref_as_point(pt: Sequence) -> Point:
    return tuple(Fraction(x) for x in pt)


def _ref_segment_parameter(a1: Point, a2: Point, b: Point) -> Fraction:
    # b = a1 + t (a2 - a1); raises unless b is strictly inside the segment
    if len({len(a1), len(a2), len(b)}) != 1:
        raise ValueError("dimension mismatch")
    if a1 == a2:
        raise ValueError("segment endpoints coincide")
    t = None
    for x1, x2, xb in zip(a1, a2, b):
        if x1 != x2:
            t = (xb - x1) / (x2 - x1)
            break
    for x1, x2, xb in zip(a1, a2, b):
        if xb != x1 + t * (x2 - x1):
            raise ValueError(f"{b} is not on the line through {a1} and {a2}")
    if not 0 < t < 1:
        raise ValueError(f"{b} is not strictly between {a1} and {a2}")
    return t


def ref_l_med_set(a1: Sequence, a2: Sequence, b: Sequence) -> List[PointTriple]:
    """Mediated set on the segment [a1, a2] containing b.

    Writes b = a1 + (q/p)(a2 - a1) in lowest terms and maps the scalar
    sequence for (p, q) through s -> a1 + (s/p)(a2 - a1). Endpoint order
    inside each returned triple follows the scalar order (lo -> v, hi -> w).
    """
    e1, e2, pt = ref_as_point(a1), ref_as_point(a2), ref_as_point(b)
    t = _ref_segment_parameter(e1, e2, pt)
    p, q = t.denominator, t.numerator

    # phi(s) = e1 + (s/p)(e2 - e1), coordinatewise (base + s*diff) / den with
    # integer base/diff/den so each coordinate costs a single normalization;
    # scalars recur across triples, so points are cached per s.
    coords = []
    for x1, x2 in zip(e1, e2):
        den = lcm(x1.denominator, x2.denominator)
        n1 = x1.numerator * (den // x1.denominator)
        n2 = x2.numerator * (den // x2.denominator)
        coords.append((p * n1, n2 - n1, p * den))
    cache: Dict[int, Point] = {}

    def phi(s: int) -> Point:
        got = cache.get(s)
        if got is None:
            got = cache[s] = tuple(
                Fraction(base + s * diff, den) for base, diff, den in coords
            )
        return got

    return [(phi(s), phi(lo), phi(hi)) for (s, lo, hi) in med_seq(p, q)]


def _ref_dedupe(triples: Iterable[PointTriple]) -> List[PointTriple]:
    seen = set()
    out: List[PointTriple] = []
    for trip in triples:
        if trip[0] not in seen:
            seen.add(trip[0])
            out.append(trip)
    return out


def _ref_prepare(
    trellis: Sequence[Sequence], beta: Sequence, weights
) -> Tuple[List[Point], Point, Tuple[Fraction, ...]]:
    pts = [ref_as_point(a) for a in trellis]
    target = ref_as_point(beta)
    if len(pts) < 2:
        raise ValueError("need at least two trellis points")
    if weights is None:
        weights = circuit_weights(trellis, beta)
    ws = tuple(Fraction(w) for w in weights)
    if len(ws) != len(pts):
        raise ValueError("one weight per trellis point")
    if any(w <= 0 for w in ws) or sum(ws) != 1:
        raise ValueError("weights must be positive and sum to one")
    for i in range(len(target)):
        if sum(w * pt[i] for w, pt in zip(ws, pts)) != target[i]:
            raise ValueError("weights do not reproduce the target point")
    return pts, target, ws


def ref_med_set(
    trellis: Sequence[Sequence], beta: Sequence, weights=None, tree=None
) -> List[PointTriple]:
    """Rational mediated set for beta over a trellis, by chaining segment
    lifts: without a tree, peel trellis points off one at a time, each step
    connecting the current point to the weighted combination of the
    remaining ones; with one, lift each merge (a, b) from node a's
    combination to node b's, through theirs, root first."""
    pts, target, ws = _ref_prepare(trellis, beta, weights)
    if tree is not None:
        nodes = list(zip(pts, ws))
        out: List[PointTriple] = []
        for a, b in tree:
            (pa, wa), (pb, wb) = nodes[a], nodes[b]
            mid = tuple((wa * x + wb * y) / (wa + wb) for x, y in zip(pa, pb))
            out = ref_l_med_set(pa, pb, mid) + out
            nodes.append((mid, wa + wb))
        assert nodes[-1][0] == target
        return _ref_dedupe(out)
    m = len(pts)
    if m == 2:
        return _ref_dedupe(ref_l_med_set(pts[0], pts[1], target))
    p = lcm(*(w.denominator for w in ws))
    qs = [int(w * p) for w in ws]
    out: List[PointTriple] = []
    prev = target
    rem = p
    for k in range(m - 2):
        rem -= qs[k]
        beta_k = tuple(
            sum(Fraction(qs[j], rem) * pts[j][i] for j in range(k + 1, m))
            for i in range(len(target))
        )
        out += ref_l_med_set(pts[k], beta_k, prev)
        prev = beta_k
    out += ref_l_med_set(pts[m - 2], pts[m - 1], prev)
    return _ref_dedupe(out)


# odd-denominator mode


def _ref_is_even_rational(x: Fraction) -> bool:
    return x.numerator % 2 == 0 and x.denominator % 2 == 1


def _ref_point_denominator_lcm(pts: Iterable[Point]) -> int:
    r = 1
    for pt in pts:
        for x in pt:
            r = lcm(r, x.denominator)
    return r


def ref_l_med_set_odd(a1: Sequence, a2: Sequence, b: Sequence) -> List[PointTriple]:
    """Segment mediated set whose endpoint coordinates are even rationals
    with odd denominators. Requires a1, a2 already of that form and b with
    odd coordinate denominators."""
    e1, e2, pt = ref_as_point(a1), ref_as_point(a2), ref_as_point(b)
    for e in (e1, e2):
        if not all(_ref_is_even_rational(x) for x in e):
            raise ValueError(f"{e} is not an even point with odd denominators")
    if any(x.denominator % 2 == 0 for x in pt):
        raise ValueError(f"{pt} has an even coordinate denominator")
    _ref_segment_parameter(e1, e2, pt)
    mid = tuple((x1 + x2) / 2 for x1, x2 in zip(e1, e2))
    if pt == mid:
        return [(pt, e1, e2)]
    r = _ref_point_denominator_lcm([e1, e2, pt])

    def half_scale(point: Point) -> Point:
        return tuple(Fraction(r, 2) * x for x in point)

    def scale_back(trip: PointTriple) -> PointTriple:
        return tuple(
            tuple(Fraction(2, r) * x for x in point) for point in trip
        )  # type: ignore[return-value]

    if all((r * x).numerator % 2 == 0 for x in pt):
        inner = ref_l_med_set(half_scale(e1), half_scale(e2), half_scale(pt))
        return [scale_back(trip) for trip in inner]
    # odd numerator somewhere: reflect the nearer endpoint through b, build
    # the even instance for the reflection, then justify b by one extra triple
    t = _ref_segment_parameter(e1, e2, pt)
    near = e1 if t <= Fraction(1, 2) else e2
    reflected = tuple(2 * xb - xn for xb, xn in zip(pt, near))
    inner = ref_l_med_set(half_scale(e1), half_scale(e2), half_scale(reflected))
    out = [scale_back(trip) for trip in inner]
    out.append((pt, near, reflected))
    return out


def ref_med_set_odd(
    trellis: Sequence[Sequence], beta: Sequence, weights=None
) -> List[PointTriple]:
    """Rational mediated set with odd-denominator points throughout.

    Splitting keeps every intermediate combination point at odd denominator:
    with an even total weight pick an odd part, with an odd total pick an
    even part, and when every part is odd merge the first two, which makes
    their sum even for the next level.
    """
    pts, target, ws = _ref_prepare(trellis, beta, weights)
    for pt in pts:
        if not all(_ref_is_even_rational(x) for x in pt):
            raise ValueError(f"{pt} is not an even point with odd denominators")
    if any(x.denominator % 2 == 0 for x in target):
        raise ValueError(f"{target} has an even coordinate denominator")
    p = lcm(*(w.denominator for w in ws))
    qs = [int(w * p) for w in ws]
    return _ref_dedupe(_ref_med_set_odd(pts, qs, p, target))


def _ref_combine(pts: Sequence[Point], qs: Sequence[int], total: int) -> Point:
    return tuple(
        sum(Fraction(q, total) * pt[i] for q, pt in zip(qs, pts))
        for i in range(len(pts[0]))
    )


def _ref_med_set_odd(
    pts: List[Point], qs: List[int], p: int, b: Point
) -> List[PointTriple]:
    g = gcd(p, *qs)
    p //= g
    qs = [q // g for q in qs]
    if len(pts) == 2:
        return ref_l_med_set_odd(pts[0], pts[1], b)
    if p % 2 == 0:
        sel = next(i for i, q in enumerate(qs) if q % 2 == 1)
    elif any(q % 2 == 0 for q in qs):
        sel = next(i for i, q in enumerate(qs) if q % 2 == 0)
    else:
        # all parts odd: merge the first two so their combined weight is even
        rest_pts, rest_qs = pts[2:], qs[2:]
        q12 = qs[0] + qs[1]
        b1 = _ref_combine([pts[0]] + rest_pts, [q12] + rest_qs, p)
        b2 = _ref_combine([pts[1]] + rest_pts, [q12] + rest_qs, p)
        out = ref_l_med_set_odd(b1, b2, b)
        out += _ref_med_set_odd([pts[0]] + rest_pts, [q12] + rest_qs, p, b1)
        out += _ref_med_set_odd([pts[1]] + rest_pts, [q12] + rest_qs, p, b2)
        return out
    rest_pts = pts[:sel] + pts[sel + 1 :]
    rest_qs = qs[:sel] + qs[sel + 1 :]
    p_rest = p - qs[sel]
    b1 = _ref_combine(rest_pts, rest_qs, p_rest)
    out = ref_l_med_set_odd(pts[sel], b1, b)
    out += _ref_med_set_odd(rest_pts, rest_qs, p_rest, b1)
    return out


def _ref_cheapest_first(weights: Sequence[Fraction]) -> List[int]:
    # Each step peels the point whose segment, from it through the rest's
    # combination, has the shortest mediated sequence, ties to the heavier
    # point, then to the earlier one; unlike build_plan, it compares the
    # last two points too.
    left = sorted(range(len(weights)), key=lambda i: -weights[i])
    order = []
    rest = Fraction(1)

    def length(i: int) -> int:
        step = (rest - weights[i]) / rest
        return len(med_seq(step.denominator, step.numerator))

    while len(left) > 1:
        i = min(left, key=length)
        left.remove(i)
        order.append(i)
        rest -= weights[i]
    return order + left


def _ref_merge_tree(weights: Sequence[Fraction]) -> List[Tuple[int, int]]:
    # Each step merges the pair of nodes (a, b), a < b, whose segment, from
    # a's combination to b's through theirs, has the shortest mediated
    # sequence, ties to the lighter merged weight, then to the later pair;
    # every live pair is compared at every step.
    ws = list(weights)
    live = list(range(len(ws)))
    tree = []

    def key(pair: Tuple[int, int]) -> tuple:
        a, b = pair
        step = ws[b] / (ws[a] + ws[b])
        return (len(med_seq(step.denominator, step.numerator)), ws[a] + ws[b], -a, -b)

    while len(live) > 1:
        a, b = min(((a, b) for i, a in enumerate(live) for b in live[i + 1 :]), key=key)
        tree.append((a, b))
        live = [i for i in live if i not in (a, b)] + [len(ws)]
        ws.append(ws[a] + ws[b])
    return tree


def ref_plan(cover, odd_mode: bool = False):
    """build_plan on the reference lifts: (circuit_triples, triples, points,
    index, passthrough), all in Fractions.  When the cover's trellis points
    are affinely independent, each trellis is lifted along the greedy merge
    tree in even mode (cheapest first past TREE_MAX_POINTS points) and
    heaviest weight first in odd mode, a triple is kept in the first
    circuit that lifts it, and a circuit left with none is dropped."""
    squares = sorted({pt for c in cover.circuits for pt in c.trellis})
    independent = len(ref_reduce([[1, *pt] for pt in squares], len(squares[0]) + 1)[1]) == len(squares)
    seen = set()
    groups = []
    for c in cover.circuits:
        order = range(len(c.weights))
        tree = None
        if independent and odd_mode:
            order = sorted(order, key=lambda i: -c.weights[i])
        elif independent and len(order) <= socp.TREE_MAX_POINTS:
            tree = _ref_merge_tree(c.weights)
        elif independent:
            order = _ref_cheapest_first(c.weights)
        trellis, weights = [c.trellis[i] for i in order], [c.weights[i] for i in order]
        if odd_mode:
            lifted = ref_med_set_odd(trellis, c.beta, weights)
        else:
            lifted = ref_med_set(trellis, c.beta, weights, tree)
        group = []
        for t in lifted:
            if t not in seen:
                seen.add(t)
                group.append(t)
        if group:
            groups.append(tuple(group))
    circuit_triples = tuple(groups)
    triples = tuple(t for group in circuit_triples for t in group)
    points = tuple(sorted({pt for t in triples for pt in t}))
    index = {pt: i for i, pt in enumerate(points)}
    for c in cover.circuits:
        assert ref_as_point(c.beta) in index
        assert all(ref_as_point(a) in index for a in c.trellis)
    passthrough = tuple(pt for pt in cover.uncovered if ref_as_point(pt) not in index)
    return circuit_triples, triples, points, index, passthrough


def ref_problem_json(plan, poly, mode: str = "bound", xi=None) -> str:
    """SocpProblem.to_json of assemble on a ref_plan, computed with Fraction
    points throughout."""
    import json

    from soncert.polyring import format_rational

    _, triples, points, index, passthrough = plan
    zero = (0,) * poly.n
    f0 = poly.constant()
    xi = None if xi is None else Fraction(xi)
    rhs_full = [Fraction(0)] * len(points)
    terms = {}
    for exp, coef in poly.sorted_terms():
        if exp == zero:
            continue
        row = index.get(ref_as_point(exp))
        if row is not None:
            rhs_full[row] = coef
        else:
            assert exp in passthrough and coef >= 0
            terms[exp] = coef
    zero_row = index.get(ref_as_point(zero))
    drop = zero_row if mode == "bound" else None
    if mode == "feasibility":
        if zero_row is not None:
            rhs_full[zero_row] = f0 - xi
        elif f0 != xi:
            terms[zero] = f0 - xi
    renumber = {}
    rows = []
    for i, pt in enumerate(points):
        if i != drop:
            renumber[i] = len(rows)
            rows.append({"point": [format_rational(x) for x in pt], "rhs": format_rational(rhs_full[i])})
    entries = []
    objective = [0] * (3 * len(triples))
    for t, (u, v, w) in enumerate(triples):
        for offset, pt, coef in ((0, v, 2), (1, w, 1), (2, u, -2)):
            i = index[pt]
            if i == drop:
                objective[3 * t + offset] = coef
            else:
                entries.append([renumber[i], 3 * t + offset, coef])
    data = {
        "mode": mode,
        "num_cones": len(triples),
        "cone_block": 3,
        "constant": format_rational(f0),
        "xi": None if xi is None else format_rational(xi),
        "objective": objective,
        "rows": rows,
        "entries": entries,
        "passthrough": [
            {"exp": list(exp), "coef": format_rational(coef)} for exp, coef in sorted(terms.items())
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Reference certificate stage: the Fraction verifier and projection that the
# integer code of soncert.verify and soncert.certify replaced, and the JSON
# object that json.dumps(indent=2, sort_keys=True) wrote as the certificate
# file before Certificate.dumps wrote it directly, kept to compare against.


def ref_certificate_json(cert) -> dict:
    from soncert.polyring import format_rational

    def point_json(pt):
        return [[str(x.numerator), str(x.denominator)] for x in pt]

    return {
        "n": cert.n,
        "xi": format_rational(cert.xi),
        "poly_sha256": cert.poly_sha256,
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
            for group in circuits_of(cert)
        ],
        "passthrough": [
            {"exp": list(exp), "coef": format_rational(coef)} for exp, coef in cert.passthrough
        ],
    }


def project_fractions(problem, slots: Sequence[Fraction]) -> List[Fraction]:
    """soncert.certify.project_slots on Fraction slots, given to it over
    their common denominator."""
    from soncert.certify import project_slots

    slots = [Fraction(s) for s in slots]
    den = lcm(*(s.denominator for s in slots))
    p, q = project_slots(problem, [s.numerator * (den // s.denominator) for s in slots], den)
    return [Fraction(a, b) for a, b in zip(p, q)]


def ref_project_slots(problem, slots: Sequence[Fraction]) -> List[Fraction]:
    """project_slots in Fraction arithmetic."""
    out = [Fraction(s) for s in slots]
    by_row = {}
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


def ref_bit_size(cert) -> int:
    """Certificate.bit_size as a walk over every value and every point
    reference."""

    def frac_bits(x):
        return abs(x.numerator).bit_length() + x.denominator.bit_length()

    total = frac_bits(cert.xi)
    for t in triples_of(cert):
        for pt in (t.u, t.v, t.w):
            total += sum(frac_bits(x) for x in pt)
        total += frac_bits(t.a) + frac_bits(t.b) + frac_bits(t.c)
    for _, coef in cert.passthrough:
        total += frac_bits(coef)
    return total


def ref_round_and_project(problem, x):
    """certify._round_and_project in Fraction arithmetic: round on the grid
    2^-grid_bits, project, then the strict cone checks; None if one fails."""
    from soncert.certify import grid_bits

    den = 2 ** grid_bits(problem, x)
    slots = ref_project_slots(problem, [Fraction(round(s * den), den) for s in x])
    for a, b, c in zip(slots[0::3], slots[1::3], slots[2::3]):
        if a < 0 or b < 0 or (c != 0 and 2 * a * b <= c * c):
            return None
    return slots


def _ref_reconstruct(cert):
    total = {}

    def add(pt, val):
        acc = total.get(pt, Fraction(0)) + val
        if acc:
            total[pt] = acc
        else:
            total.pop(pt, None)

    for t in triples_of(cert):
        add(t.v, 2 * t.a)
        add(t.w, t.b)
        add(t.u, -2 * t.c)
    for exp, coef in cert.passthrough:
        add(ref_as_point(exp), coef)
    return total


def _ref_companion_target(f, xi):
    from soncert.polyring import pn_companion

    tilde = pn_companion(f)
    zero = (0,) * f.n
    target = {}
    for exp, coef in tilde.terms.items():
        if exp == zero:
            continue
        target[ref_as_point(exp)] = coef
    constant = tilde.constant() - xi
    if constant:
        target[ref_as_point(zero)] = constant
    return target


def ref_verify_certificate(f, cert) -> Tuple[bool, str]:
    """(ok, reason) of verify_certificate in Fraction arithmetic, without
    the size limit."""
    from soncert.polyring import is_even, poly_sha256

    if cert.n != f.n:
        return False, "shape-mismatch"
    if cert.poly_sha256 != poly_sha256(f):
        return False, "hash-mismatch"
    for t in triples_of(cert):
        if len(t.u) != cert.n or len(t.v) != cert.n or len(t.w) != cert.n:
            return False, "shape-mismatch"
        if t.v == t.w or any(x < 0 for x in t.u + t.v + t.w):
            return False, "bad-midpoint"
        if tuple((x + y) / 2 for x, y in zip(t.v, t.w)) != t.u:
            return False, "bad-midpoint"
        if not check_cone(t.a, t.b, t.c):
            return False, "cone-violation"
    for exp, coef in cert.passthrough:
        if not is_even(exp) or coef <= 0:
            return False, "bad-passthrough"
    if _ref_reconstruct(cert) != _ref_companion_target(f, cert.xi):
        return False, "reconstruction-mismatch"
    return True, "ok"
