"""Mediated sequences, segment lifts, and odd-denominator mediated sets."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_segment_circuit,
    random_simplex_circuit,
    ref_l_med_set,
    ref_l_med_set_odd,
    ref_med_set,
    ref_med_set_odd,
)
from soncert.mediated import (
    MediatedSet,
    brute_min_med_seq,
    is_mediated_sequence,
    is_valid_mediated_set,
    med_seq,
    med_seq_elements,
    med_set,
    med_set_odd,
)


def F(x) -> Fraction:
    return Fraction(x)


def pt(*coords):
    return tuple(Fraction(c) for c in coords)


def fr(mediated):
    # the goldens are written in Fractions; the lifts return integer points
    # over a denominator
    return mediated.fractions()


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


def test_med_set_random_circuits_are_valid():
    rng = random.Random(31)
    for _ in range(60):
        maker = random_simplex_circuit if rng.random() < 0.7 else random_segment_circuit
        trellis, beta, weights = maker(rng)
        triples = med_set(trellis, beta, weights)
        assert is_valid_mediated_set(triples, trellis, beta)
        # the target always shows up as a justified midpoint
        mids = {trip[0] for trip in fr(triples)}
        assert tuple(Fraction(b) for b in beta) in mids


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
        dens = {x.denominator for trip in result.fractions() for p in trip for x in p}
        assert result.den == lcm(1, *dens)
        return result.fractions()
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
    m = draw(st.integers(2, 4))
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
