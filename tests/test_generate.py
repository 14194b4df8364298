"""Tests for the random instance generator."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_hull_proposal
from soncert import generate
from soncert.cover import support_partition
from soncert.generate import POLY_CLASSES, GenInstance, random_instance
from soncert.polyring import MAX_VARIABLES, is_even, poly_dumps
from soncert.socp import lower_bound


def test_seed_determinism():
    a = random_instance(n=3, degree=6, terms=12, seed=77)
    b = random_instance(n=3, degree=6, terms=12, seed=77)
    c = random_instance(n=3, degree=6, terms=12, seed=78)
    assert poly_dumps(a.poly) == poly_dumps(b.poly)
    assert poly_dumps(a.poly) != poly_dumps(c.poly)


@pytest.mark.parametrize("poly_class", POLY_CLASSES)
def test_classes_respect_budgets(poly_class):
    rng = random.Random(9)
    for trial in range(10):
        n = rng.randint(2, 5)
        inst = random_instance(
            n=n,
            degree=rng.choice([4, 6, 8]),
            terms=rng.randint(n + 5, 20),
            poly_class=poly_class,
            seed=1000 + trial,
        )
        assert isinstance(inst, GenInstance)
        f = inst.poly
        assert f.n == n
        assert f.degree() <= inst.degree
        assert len(f.terms) <= 20
        assert inst.poly_class == poly_class


def test_sign_conventions():
    for seed in range(20):
        inst = random_instance(n=2, degree=8, terms=12, seed=seed)
        split = support_partition(inst.poly)
        for exp in split.lambda_set:
            assert inst.poly.terms[exp] > 0
        for exp in split.gamma_set:
            if is_even(exp):
                assert inst.poly.terms[exp] < 0
        assert split.gamma_set, "generator must place at least one interior term"


def test_interior_flag_gives_certifiable_slack():
    inst = random_instance(n=2, degree=6, terms=8, interior=True, seed=4)
    assert inst.interior
    assert inst.poly.constant() >= 1
    bound = lower_bound(inst.poly)
    assert bound.xi > float("-inf")


def test_rejects_impossible_budget():
    with pytest.raises(ValueError):
        random_instance(n=3, degree=6, terms=3, seed=0)
    with pytest.raises(ValueError):
        random_instance(n=2, degree=1, terms=10, seed=0)
    with pytest.raises(ValueError):
        random_instance(n=2, degree=6, terms=10, poly_class="no-such-class", seed=0)


def test_refuses_a_simplex_budget_before_drawing_square_points(monkeypatch):
    # both simplex classes have n + 1 square points, so a budget they leave
    # no room in, or an n past the cap, is refused before any is drawn
    def no_draw(*args):
        raise AssertionError("square points drawn")

    monkeypatch.setattr(generate, "_standard_simplex", no_draw)
    monkeypatch.setattr(generate, "_general_simplex", no_draw)
    for n, poly_class in ((4000, "standard-simplex"), (120, "general-simplex")):
        message = f"terms budget 12 leaves no room for interior points next to {n + 1} square points"
        with pytest.raises(ValueError, match=message):
            random_instance(n=n, degree=6, terms=12, poly_class=poly_class, seed=0)
    with pytest.raises(ValueError, match=f"n = {MAX_VARIABLES + 1} exceeds the cap"):
        random_instance(n=MAX_VARIABLES + 1, degree=6, terms=10**5, seed=0)


def test_coefficients_are_hundredths():
    inst = random_instance(n=3, degree=6, terms=14, seed=123)
    for exp, coef in inst.poly.terms.items():
        assert isinstance(coef, Fraction)
        if exp != (0,) * 3:
            assert (coef * 100).denominator == 1


@st.composite
def vertex_sets(draw):
    """Even lattice vertices with zero entries, or the standard simplex."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return generate._standard_simplex(n, 2 * draw(st.integers(1, 15)))
    entry = st.integers(0, 15).map(lambda h: 2 * h) | st.just(0)
    return draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=n + 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vertex_sets(), st.integers(0, 2**64))
def test_hull_proposal_skips_only_zero_entries(lam, seed):
    columns = generate._nonzero_columns(lam)
    assert generate._hull_proposal(random.Random(seed), lam, columns) == ref_hull_proposal(random.Random(seed), lam)


@pytest.mark.parametrize("poly_class", POLY_CLASSES)
def test_instances_are_the_reference_proposals(poly_class, monkeypatch):
    # summing only the nonzero entries draws the same instances
    def draw():
        return [
            poly_dumps(random_instance(n=n, degree=8, terms=3 * n + 6, poly_class=poly_class, seed=seed).poly)
            for n, seed in ((2, 5), (4, 6), (7, 7))
        ]

    drawn = draw()
    monkeypatch.setattr(generate, "_hull_proposal", lambda rng, lam, columns: ref_hull_proposal(rng, lam))
    assert draw() == drawn


# sha256 over the poly_dumps texts, each with a newline, of the instances of
# acceptance criteria 6 (seeds 60000-60199) and 7 (70000-70049), drawn as
# tests/test_acceptance.py draws them; perfbench's seed 0 reproduces their
# first 48 and 40.  The hull proposal's float sums decide the rounded
# exponents, so a change in their order can change an instance.
SEEDED_CORPORA_SHA256 = "2c6ba96f6ce5a3f10c9560119efaf4b3c8a45f0dd2c9efc4bad93359bb15d13f"


def test_seeded_corpora_are_pinned():
    digest = hashlib.sha256()
    rng = random.Random(2024)
    for i in range(200):
        n = rng.randint(1, 10)
        d = rng.choice([4, 10, 20, 30])
        t = rng.randint(n + 6, 50)
        inst = random_instance(n=n, degree=d, terms=t, poly_class=POLY_CLASSES[i % 3], seed=60_000 + i)
        digest.update(poly_dumps(inst.poly).encode() + b"\n")
    rng = random.Random(7)
    for i in range(50):
        n = (4, 8)[i % 2]
        d = (10, 20)[(i // 2) % 2]
        t = rng.randint(n + 8, 50)
        inst = random_instance(n=n, degree=d, terms=t, poly_class="standard-simplex", interior=True, seed=70_000 + i)
        digest.update(poly_dumps(inst.poly).encode() + b"\n")
    assert digest.hexdigest() == SEEDED_CORPORA_SHA256
