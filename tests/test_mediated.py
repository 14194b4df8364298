"""Mediated sequences, segment lifts, and odd-denominator mediated sets."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import lcm

from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    random_segment_circuit,
    random_simplex_circuit,
    ref_l_med_set,
    ref_l_med_set_odd,
    ref_med_set,
    ref_med_set_odd,
)
from oracles import brute_min_med_seq, fractions, is_mediated_sequence, is_valid_mediated_set, med_seq_elements
from soncert import mediated
from soncert.mediated import MediatedSet, caterpillar, med_seq, med_set, med_set_odd
from soncert.cover import CoverResult, affinely_independent
from soncert.socp import build_plan


def F(x) -> Fraction:
    return Fraction(x)


def pt(*coords):
    return tuple(Fraction(c) for c in coords)


def fr(mediated):
    # the goldens are written in Fractions; the lifts return integer points
    # over a denominator
    return fractions(mediated)


def test_med_seq_goldens():
    assert med_seq(2, 1) == [(1, 0, 2)]
    assert med_seq(3, 2) == [(1, 0, 2), (2, 1, 3)]
    assert set(med_seq(3, 1)) == {(2, 1, 3), (1, 0, 2)}
    assert med_seq(4, 1) == [(1, 0, 2), (2, 0, 4)]
    assert set(med_seq(11, 2)) == {
        (1, 0, 2),
        (6, 1, 11),
        (4, 2, 6),
        (3, 2, 4),
        (2, 1, 3),
    }
    assert med_seq_elements(100, 1) == (0, 1, 2, 4, 7, 13, 25, 50, 100)
    # common factor scales through
    assert set(med_seq(12, 9)) == {(6, 0, 12), (9, 6, 12)}


def test_med_seq_rejects_bad_args():
    for p, q in ((3, 0), (3, 3), (3, 4), (0, 0), (1, 1)):
        with pytest.raises(ValueError):
            med_seq(p, q)


def test_med_seq_is_valid_and_small():
    rng = random.Random(23)
    for _ in range(500):
        p = rng.randint(2, 400)
        q = rng.randint(1, p - 1)
        triples = med_seq(p, q)
        mids = [s for (s, _, _) in triples]
        assert len(set(mids)) == len(mids)
        elements = {0, p} | set(mids)
        assert q in elements
        for s, lo, hi in triples:
            assert lo < hi and 2 * s == lo + hi
            assert lo in elements and hi in elements
            assert 0 <= lo and hi <= p
        assert is_mediated_sequence(sorted(elements), p, q)
        assert len(triples) <= 0.5 * (math.log2(p) + 1.5) ** 2


def test_med_seq_length_is_the_same_from_either_end():
    # socp's cheapest-first peel reads this to leave the last two points
    # untried: the segment from one to the other is the reflection of the
    # segment back
    for p in range(2, 300):
        for q in range(1, p):
            assert len(med_seq(p, q)) == len(med_seq(p, p - q)), (p, q)


def test_brute_min_med_seq_goldens():
    assert brute_min_med_seq(2, 1) == (0, 1, 2)
    assert len(brute_min_med_seq(8, 1)) == 5
    found = brute_min_med_seq(11, 2)
    assert len(found) == 6
    assert is_mediated_sequence(found, 11, 2)


def test_brute_never_beats_algorithm_and_is_valid():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.randint(2, 24)
        q = rng.randint(1, p - 1)
        best = brute_min_med_seq(p, q)
        assert is_mediated_sequence(best, p, q)
        assert len(best) <= len(med_seq_elements(p, q))


def test_l_med_set_goldens():
    # on a two-point trellis med_set is the lift of that one segment
    assert fr(med_set(((0, 0), (3, 3)), (2, 2))) == [
        (pt(1, 1), pt(0, 0), pt(2, 2)),
        (pt(2, 2), pt(1, 1), pt(3, 3)),
    ]
    assert fr(med_set(((2, 4), (4, 2)), (3, 3))) == [(pt(3, 3), pt(2, 4), pt(4, 2))]


def test_l_med_set_rejects_bad_points():
    with pytest.raises(ValueError):
        med_set(((0, 0), (2, 2)), (1, 2))  # off the line
    with pytest.raises(ValueError):
        med_set(((0, 0), (2, 2)), (2, 2))  # endpoint
    with pytest.raises(ValueError):
        med_set(((0, 0), (2, 2)), (3, 3))  # outside
    with pytest.raises(ValueError):
        med_set(((1, 1), (1, 1)), (1, 1))  # degenerate segment


def test_med_set_segment_and_chain_goldens():
    # the lex-ordered trellis of the running example
    triples = fr(med_set(((0, 0), (2, 4), (4, 2)), (2, 2)))
    assert triples == [
        (pt(1, 1), pt(0, 0), pt(2, 2)),
        (pt(2, 2), pt(1, 1), pt(3, 3)),
        (pt(3, 3), pt(2, 4), pt(4, 2)),
    ]
    # alternative trellis order keeps the same contract, different points
    alt = fr(med_set(((4, 2), (2, 4), (0, 0)), (2, 2)))
    assert alt == [
        (pt(3, 2), pt(4, 2), pt(2, 2)),
        (pt(2, 2), pt(3, 2), pt(1, 2)),
        (pt(1, 2), pt(2, 4), pt(0, 0)),
    ]
    points = {p for trip in alt for p in trip}
    assert points == {
        pt(4, 2),
        pt(2, 4),
        pt(0, 0),
        pt(2, 2),
        pt(1, 2),
        pt(3, 2),
    }


def random_merge_tree(rng: random.Random, k: int) -> list:
    """A binary merge tree over k nodes: each merge takes two nodes not
    merged yet, in either order."""
    live = list(range(k))
    tree = []
    while len(live) > 1:
        a = live.pop(rng.randrange(len(live)))
        b = live.pop(rng.randrange(len(live)))
        tree.append((a, b))
        live.append(k + len(tree) - 1)
    return tree


def test_med_set_random_circuits_are_valid():
    # along the default tree and along a random merge tree
    rng = random.Random(31)
    for _ in range(100):
        if rng.random() < 0.7:
            trellis, beta, weights = random_simplex_circuit(rng, n_max=6, d_max=8)
        else:
            trellis, beta, weights = random_segment_circuit(rng)
        for tree in (None, random_merge_tree(rng, len(trellis))):
            triples = med_set(trellis, beta, weights, tree)
            # 2u = v + w for every triple, each midpoint once, and every
            # endpoint a trellis point or a midpoint
            assert is_valid_mediated_set(triples, trellis, beta)
            # the target always shows up as a justified midpoint, and every
            # trellis point lies on its leaf's segment
            mids = {trip[0] for trip in fr(triples)}
            assert tuple(Fraction(b) for b in beta) in mids
            assert {pt(*a) for a in trellis} <= {p for trip in fr(triples) for p in trip}


def test_caterpillar_peels_in_order():
    assert caterpillar([0, 1]) == [(0, 1)]
    assert caterpillar(range(4)) == [(2, 3), (1, 4), (0, 5)]
    assert caterpillar([2, 0, 1]) == [(0, 1), (2, 3)]
    # the default tree, and a reordered trellis is the same tree over the
    # reordered indices
    trellis, beta = ((0, 0), (2, 4), (4, 2)), (2, 2)
    assert med_set(trellis, beta, tree=caterpillar(range(3))) == med_set(trellis, beta)
    assert med_set(trellis, beta, tree=caterpillar([2, 1, 0])) == med_set(trellis[::-1], beta)


def test_med_set_rejects_bad_trees():
    trellis, beta = ((0, 0), (2, 4), (4, 2)), (2, 2)
    for tree in (
        [(1, 2)],  # too few merges
        [(1, 2), (0, 3), (3, 4)],  # too many
        [(1, 1), (0, 3)],  # a node with itself
        [(1, 2), (1, 3)],  # a node merged twice
        [(1, 2), (0, 4)],  # a node not made yet
        [(1, 2), (0, -1)],  # nor a negative index
    ):
        with pytest.raises(ValueError):
            med_set(trellis, beta, tree=tree)


def test_med_set_odd_goldens():
    triples = med_set_odd(((0, 0), (2, 4), (4, 2)), (2, 2))
    assert len(triples) == 5
    mids = {trip[0] for trip in fr(triples)}
    assert mids == {
        pt(2, 2),
        pt(F("8/3"), F("4/3")),
        pt(F("4/3"), F("2/3")),
        pt(F("10/3"), F("8/3")),
        pt(F("8/3"), F("10/3")),
    }
    alt = med_set_odd(((4, 2), (2, 4), (0, 0)), (2, 2))
    assert len(alt) == 5
    alt_points = {p for trip in fr(alt) for p in trip}
    for expected in (
        pt(F("8/3"), F("4/3")),
        pt(F("4/3"), F("8/3")),
        pt(F("4/3"), F("2/3")),
        pt(F("2/3"), F("4/3")),
    ):
        assert expected in alt_points


def test_l_med_set_odd_reflection_case():
    # target off the midpoint with an odd scaled numerator forces the
    # reflect-and-justify step
    triples = med_set_odd(((0,), (4,)), (1,))
    assert (pt(1), pt(0), pt(2)) in fr(triples)
    assert (pt(2), pt(0), pt(4)) in fr(triples)
    assert is_valid_mediated_set(triples, [(0,), (4,)], (1,))


def test_med_set_odd_parity_and_validity():
    rng = random.Random(47)
    for _ in range(60):
        maker = random_simplex_circuit if rng.random() < 0.7 else random_segment_circuit
        trellis, beta, weights = maker(rng)
        triples = med_set_odd(trellis, beta, weights)
        assert is_valid_mediated_set(triples, trellis, beta)
        beta_pt = tuple(Fraction(b) for b in beta)
        denom = 1
        for u, v, w in fr(triples):
            for point in (v, w):
                for x in point:
                    assert x.denominator % 2 == 1
                    assert x.numerator % 2 == 0
            for x in u:
                denom = lcm(denom, x.denominator)
        # substituting the odd root takes every square point to an even
        # lattice point
        assert denom % 2 == 1
        for u, v, w in fr(triples):
            for point in (v, w):
                scaled = tuple(x * denom for x in point)
                assert all(s.denominator == 1 and s.numerator % 2 == 0 for s in scaled)


def test_med_set_odd_all_odd_merge_builds_its_rest_once(monkeypatch):
    # With 17 parts of weight 1 every level is all-odd; both merged points
    # peel onto the same rest, so each level lifts three segments and the
    # rest's set is built once, not twice: 24 lifts, not 765.
    calls = []
    segment_odd = mediated._segment_odd

    def counting(*args):
        calls.append(args)
        return segment_odd(*args)

    monkeypatch.setattr(mediated, "_segment_odd", counting)
    trellis = [(0,) * 16] + [tuple(34 * (i == j) for j in range(16)) for i in range(16)]
    beta = (2,) * 16
    triples = med_set_odd(trellis, beta, [Fraction(1, 17)] * 17)
    assert len(calls) <= 24
    assert is_valid_mediated_set(triples, trellis, beta)


def test_med_set_rejects_bad_weights():
    trellis = ((0, 0), (2, 4), (4, 2))
    with pytest.raises(ValueError):
        med_set(trellis, (2, 2), (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    with pytest.raises(ValueError):
        med_set(trellis, (2, 2), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    with pytest.raises(ValueError):
        med_set_odd(((1, 1), (3, 3)), (2, 2))  # odd trellis point


# ---------------------------------------------------------------------------
# the integer core against the Fraction lifts it replaced (conftest)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def outcome(lift, *args):
    """A lift's triples in Fractions, or the error it raised."""
    try:
        result = lift(*args)
    except ValueError:
        return "ValueError"
    if isinstance(result, MediatedSet):
        # den is the least common denominator of the coordinates
        dens = {x.denominator for trip in fractions(result) for p in trip for x in p}
        assert result.den == lcm(1, *dens)
        return fractions(result)
    return result


def rational_point(draw, n: int, k: int, step: int) -> tuple:
    # multiples of step over the odd denominator k; plain ints when k == 1
    coords = [Fraction(step * draw(st.integers(0, 12 // step)), k) for _ in range(n)]
    return tuple(int(x) if k == 1 else x for x in coords)


@st.composite
def circuits(draw, odd: bool):
    """Trellis points, a target and weights reproducing it.  In odd mode the
    points are even rationals and the weight total is odd; all-odd weights
    make med_set_odd merge two parts."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 8))
    k = draw(st.sampled_from([1, 1, 3, 5]))
    pts = [rational_point(draw, n, k, 2 if odd else 1) for _ in range(m)]
    if draw(st.booleans()):
        qs = [2 * draw(st.integers(0, 4)) + 1 for _ in range(m)]
    else:
        qs = [draw(st.integers(1, 9)) for _ in range(m)]
    if odd and sum(qs) % 2 == 0:
        qs[0] += 1
    total = sum(qs)
    beta = tuple(
        sum(Fraction(q, total) * Fraction(pt[i]) for q, pt in zip(qs, pts)) for i in range(n)
    )
    return tuple(pts), beta, tuple(Fraction(q, total) for q in qs)


@st.composite
def segments(draw, odd: bool):
    """Two endpoints and a point q/p of the way from one to the other; now
    and then moved off the line."""
    n = draw(st.integers(1, 3))
    k = draw(st.sampled_from([1, 1, 3, 5]))
    a1 = rational_point(draw, n, k, 2 if odd else 1)
    a2 = rational_point(draw, n, k, 2 if odd else 1)
    p = draw(st.integers(2, 40))
    t = Fraction(draw(st.integers(1, p - 1)), p)
    b = [Fraction(x1) + t * (Fraction(x2) - Fraction(x1)) for x1, x2 in zip(a1, a2)]
    if draw(st.integers(0, 9)) == 0:
        b[0] += Fraction(2, k)
    return a1, a2, tuple(b)


@SETTINGS
@given(circuits(odd=False))
def test_med_set_matches_fraction_reference(circuit):
    assert outcome(med_set, *circuit) == outcome(ref_med_set, *circuit)


@SETTINGS
@given(circuits(odd=False), st.randoms(use_true_random=False))
def test_med_set_over_a_merge_tree_matches_fraction_reference(circuit, rnd):
    trellis, beta, weights = circuit
    tree = random_merge_tree(rnd, len(trellis))
    assert outcome(med_set, trellis, beta, weights, tree) == outcome(ref_med_set, trellis, beta, weights, tree)


@SETTINGS
@given(circuits(odd=True))
def test_med_set_odd_matches_fraction_reference(circuit):
    assert outcome(med_set_odd, *circuit) == outcome(ref_med_set_odd, *circuit)


@SETTINGS
@given(segments(odd=False))
def test_l_med_set_matches_fraction_reference(segment):
    a1, a2, b = segment
    assert outcome(med_set, (a1, a2), b) == outcome(ref_l_med_set, a1, a2, b)


@SETTINGS
@given(segments(odd=True))
def test_l_med_set_odd_matches_fraction_reference(segment):
    a1, a2, b = segment
    assert outcome(med_set_odd, (a1, a2), b) == outcome(ref_l_med_set_odd, a1, a2, b)


def merged_parts(lift, *args) -> list:
    """The parts a lift hands to _merge, none when it raises."""
    parts = []
    merge = mediated._merge

    def recording(ps):
        parts.extend(ps)
        return merge(ps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mediated, "_merge", recording)
        try:
            lift(*args)
        except ValueError:
            pass
    return parts


def assert_least_denominators(parts) -> None:
    # each part's den is the least common denominator of the points its
    # scalars stand for
    for den, base, diff, scalars in parts:
        coords = {b + s * x for trip in scalars for s in trip for b, x in zip(base, diff)}
        assert math.gcd(den, *coords) == 1


@SETTINGS
@given(circuits(odd=False), circuits(odd=True))
def test_parts_are_over_their_least_denominator(circuit, odd_circuit):
    assert_least_denominators(merged_parts(med_set, *circuit))
    assert_least_denominators(merged_parts(med_set_odd, *odd_circuit))


@SETTINGS
@given(segments(odd=False), segments(odd=True))
def test_segment_parts_are_over_their_least_denominator(segment, odd_segment):
    a1, a2, b = segment
    assert_least_denominators(merged_parts(med_set, (a1, a2), b))
    a1, a2, b = odd_segment
    assert_least_denominators(merged_parts(med_set_odd, (a1, a2), b))


@SETTINGS
@given(st.booleans().flatmap(lambda odd: st.tuples(st.just(odd), st.lists(circuits(odd=odd), min_size=1, max_size=4))))
def test_plan_holds_each_triple_once(case):
    odd_mode, drawn = case
    # the strategy draws dependent trellises too, which are no circuits, and
    # each circuit in a dimension of its own
    n = len(drawn[0][1])
    kept = [
        SimpleNamespace(trellis=t, beta=b, weights=w)
        for t, b, w in drawn
        if len(b) == n and affinely_independent(t)
    ]
    assume(kept)
    plan = build_plan(CoverResult(tuple(kept), ()), odd_mode=odd_mode)
    assert len(set(plan.triples)) == plan.num_triples
    assert all(plan.circuit_triples)
