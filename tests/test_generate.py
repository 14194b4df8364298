"""Tests for the random instance generator."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from soncert.cover import support_partition
from soncert.generate import POLY_CLASSES, GenInstance, random_instance
from soncert.polyring import is_even, poly_dumps
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


def test_coefficients_are_hundredths():
    inst = random_instance(n=3, degree=6, terms=14, seed=123)
    for exp, coef in inst.poly.terms.items():
        assert isinstance(coef, Fraction)
        if exp != (0,) * 3:
            assert (coef * 100).denominator == 1
