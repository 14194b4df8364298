"""Core types: parsing, support partition, circuits, exact nonnegativity test."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from soncert.polyring import (
    Circuit,
    SparsePoly,
    affinely_independent,
    circuit_weights,
    format_rational,
    is_even,
    is_nonneg_circuit,
    parse_rational,
    poly_dumps,
    poly_from_json,
    poly_loads,
    poly_sha256,
    pn_companion,
    poly_to_json,
    support_partition,
)


def motzkin() -> SparsePoly:
    return SparsePoly(
        2,
        {
            (4, 2): Fraction(1),
            (2, 4): Fraction(1),
            (0, 0): Fraction(1),
            (2, 2): Fraction(-3),
        },
    )


def test_parse_rational_forms():
    assert parse_rational(5) == 5
    assert parse_rational("-3") == -3
    assert parse_rational("2/7") == Fraction(2, 7)
    assert parse_rational("0.125") == Fraction(1, 8)
    # JSON numbers with a decimal point arrive as floats; repr keeps the
    # written decimal, so 0.1 means exactly 1/10 here.
    assert parse_rational(0.1) == Fraction(1, 10)
    for bad in ("1/0", "abc", None, True, [1]):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_canonical_and_near_canonical_strings():
    # the canonical "p" and "p/q" forms are read with int(); values and error
    # types must be those of the general path
    for text in ("0", "-0", "42", "-7", "3/4", "-3/4", "2/4", "-0/5", "007/010",
                 "-123456789012345/281474976710656", "9" * 4300 + "/" + "7" * 4300,
                 " 3", "+3", "1_0", "3\n", "-1.5", "2e3", "1/3 "):
        assert parse_rational(text) == Fraction(text), text
    for bad in ("3/0", "-0/0", "3/-4", "- 3", "1//2", "/2", "3/", "", "0x10",
                "1" * 4301, "-" + "3" * 4301 + "/7", "1/" + "0" * 4300 + "3"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError, match="numerator of 4301 digits"):
        parse_rational("-" + "0" * 4300 + "1")
    with pytest.raises(ValueError, match="denominator of 4301 digits"):
        parse_rational("1/" + "0" * 4300 + "3")


def test_parse_rational_bounds_decimal_exponents():
    # the exponent is checked before Fraction builds 10^|exp|
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("-25E-4300") == Fraction(-25, 10**4300)
    assert parse_rational(" 3.5e+0_04299 ") == Fraction(35, 10) * 10**4299
    assert parse_rational("9" * 4300 + "/" + "7" * 4300) == Fraction(int("9" * 4300), int("7" * 4300))
    for bad in ("1e4301", "1e100000", "-2.5E-100000", "1e1_000_000", "7e" + "9" * 5000):
        with pytest.raises(ValueError, match="decimal exponent") as err:
            parse_rational(bad)
        assert repr(bad)[:40] in str(err.value)
    with pytest.raises(ValueError, match="decimal exponent"):
        poly_loads(json.dumps({"n": 1, "terms": [{"exp": [2], "coef": "1e100000"}]}))
    # a numerator or denominator past 4300 decimal digits could not be printed
    # again; the message names its size instead of its digits
    for bad, part in (
        ("1e4300", "numerator"),
        ("123e4298", "numerator"),
        (" 3.5e+0_04300 ", "numerator"),
        ("1e-4300", "denominator"),
        ("1/" + "3" * 4301, "denominator"),
        ("-" + "3" * 4301 + "/7", "numerator"),
        (10**4300, "numerator"),
        (Fraction(1, 10**4300), "denominator"),
    ):
        with pytest.raises(ValueError, match=f"{part} of .* exceeds 4300 decimal digits") as err:
            parse_rational(bad)
        assert len(str(err.value)) < 80


def test_parse_rational_messages_stay_short():
    # a long input is named by its length and first characters, not repeated
    for bad, match in (("x" * 10_000, "not a rational"), ("7e" + "9" * 5000, "decimal exponent")):
        with pytest.raises(ValueError, match=match) as err:
            parse_rational(bad)
        assert len(str(err.value)) < 200 and str(len(bad)) in str(err.value)


def test_format_rational_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rational(format_rational(q)) == q


def test_sparse_poly_drops_zero_and_validates():
    f = SparsePoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in f.terms
    assert f.coefficient((0, 1)) == 2
    with pytest.raises(ValueError):
        SparsePoly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        SparsePoly(2, {(-1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        SparsePoly(0, {})


def test_is_even():
    assert is_even((0, 2, 4))
    assert not is_even((0, 1, 4))
    assert is_even(())


def test_support_partition_motzkin():
    part = support_partition(motzkin())
    assert part.lambda_set == ((0, 0), (2, 4), (4, 2))
    assert part.gamma_set == ((2, 2),)


def test_support_partition_negative_even_is_gamma():
    # even exponent with a negative coefficient cannot be a square point
    f = SparsePoly(1, {(0,): Fraction(1), (2,): Fraction(-1), (4,): Fraction(1)})
    part = support_partition(f)
    assert part.lambda_set == ((0,), (4,))
    assert part.gamma_set == ((2,),)
    with pytest.raises(ValueError):
        support_partition(SparsePoly(1, {}))


def test_to_pn_flips_and_is_idempotent():
    f = SparsePoly(
        2,
        {(0, 0): Fraction(1), (2, 0): Fraction(2), (1, 1): Fraction(5), (0, 2): Fraction(-1)},
    )
    g = pn_companion(f)
    assert g.coefficient((1, 1)) == -5
    assert g.coefficient((0, 2)) == -1
    assert g.coefficient((2, 0)) == 2
    assert pn_companion(g) == g


def test_affinely_independent():
    assert affinely_independent([(0, 0), (4, 2), (2, 4)])
    assert not affinely_independent([(0, 0), (2, 2), (4, 4)])
    assert affinely_independent([(0, 0)])
    assert not affinely_independent([(1, 1), (1, 1)])


def test_circuit_weights_motzkin():
    w = circuit_weights([(0, 0), (2, 4), (4, 2)], (2, 2))
    assert w == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    # boundary point is rejected
    with pytest.raises(ValueError):
        circuit_weights([(0, 0), (4, 2), (2, 4)], (2, 1))
    with pytest.raises(ValueError):
        circuit_weights([(0, 0), (2, 2), (4, 4)], (2, 2))


def test_circuit_validation():
    tre = ((0, 0), (2, 4), (4, 2))
    beta = (2, 2)
    w = (Fraction(1, 3),) * 3
    Circuit(tre, beta, w)
    with pytest.raises(ValueError):
        Circuit(tre, beta, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    with pytest.raises(ValueError):
        Circuit(tre, (2, 1), w)
    with pytest.raises(ValueError):
        Circuit(((0, 0), (1, 4), (4, 2)), beta, w)


def test_is_nonneg_circuit_motzkin_threshold():
    # circuit number of the Motzkin trellis at beta=(2,2) is exactly 3
    c = Circuit(
        ((0, 0), (2, 4), (4, 2)),
        (2, 2),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    )
    coeffs = {(0, 0): Fraction(1), (2, 4): Fraction(1), (4, 2): Fraction(1)}
    assert is_nonneg_circuit(c, coeffs, Fraction(3))
    assert not is_nonneg_circuit(c, coeffs, Fraction(3) + Fraction(1, 10**12))
    # beta even: any negative d is fine
    assert is_nonneg_circuit(c, coeffs, Fraction(-10**9))


def test_is_nonneg_circuit_odd_beta_uses_abs():
    # 1 + x^4 - d x: theta = (1/(3/4))^(3/4) * (1/(1/4))^(1/4) = 4/3^(3/4)
    c = Circuit(((0,), (4,)), (1,), (Fraction(3, 4), Fraction(1, 4)))
    coeffs = {(0,): Fraction(1), (4,): Fraction(1)}
    theta4 = Fraction(256, 27)  # theta^4
    below = Fraction(17, 10)  # 1.7^4 = 8.3521 < 256/27
    above = Fraction(18, 10)  # 1.8^4 = 10.4976 > 256/27
    assert below**4 < theta4 < above**4
    assert is_nonneg_circuit(c, coeffs, below)
    assert is_nonneg_circuit(c, coeffs, -below)
    assert not is_nonneg_circuit(c, coeffs, above)
    assert not is_nonneg_circuit(c, coeffs, -above)


def test_is_nonneg_circuit_matches_sampling():
    # random univariate circuits 1*x^0 + c*x^(2k) + d*x^j, cross-check by
    # dense evaluation on a grid
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(1, 4)
        j = rng.randint(1, 2 * k - 1)
        c_hi = Fraction(rng.randint(1, 5))
        w1 = Fraction(2 * k - j, 2 * k)
        w2 = Fraction(j, 2 * k)
        circ = Circuit(((0,), (2 * k,)), (j,), (w1, w2))
        coeffs = {(0,): Fraction(1), (2 * k,): c_hi}
        theta = float((1 / w1) ** w1 * (c_hi / w2) ** w2)
        for d in (Fraction(rng.randint(-60, 60), 10) for _ in range(6)):
            ok = is_nonneg_circuit(circ, coeffs, d)
            if j % 2 == 0 and d <= 0:
                # even beta with d <= 0: every term is nonnegative
                assert ok
                continue
            # worst orientation puts -|d| x^j on the positive ray
            vals = []
            for t in range(1, 400):
                x = t / 40.0
                vals.append(1 + float(c_hi) * x ** (2 * k) - abs(float(d)) * x**j)
            sampled_nonneg = min(vals) >= -1e-9
            expected = abs(float(d)) <= theta + 1e-12
            assert ok == expected or abs(abs(float(d)) - theta) < 1e-6
            if ok:
                assert sampled_nonneg


def test_poly_json_round_trip():
    f = motzkin()
    text = poly_dumps(f)
    g = poly_loads(text)
    assert g == f
    assert poly_sha256(f) == poly_sha256(g)
    # canonical form is stable under term reordering of the input
    shuffled = {
        "n": 2,
        "terms": [
            {"exp": [2, 2], "coef": -3},
            {"exp": [4, 2], "coef": "1"},
            {"exp": [0, 0], "coef": 1.0},
            {"exp": [2, 4], "coef": "2/2"},
        ],
    }
    assert poly_from_json(shuffled) == f
    assert poly_sha256(poly_from_json(shuffled)) == poly_sha256(f)


def test_poly_json_rejects_garbage():
    with pytest.raises(ValueError):
        poly_from_json([1, 2])
    with pytest.raises(ValueError):
        poly_from_json({"n": 2})
    with pytest.raises(ValueError):
        poly_from_json({"n": 0, "terms": []})
    with pytest.raises(ValueError):
        poly_from_json({"n": 2, "terms": [{"exp": [1], "coef": 1}]})
    # duplicate exponents are an input error, not silently merged
    with pytest.raises(ValueError):
        poly_from_json(
            {"n": 1, "terms": [{"exp": [2], "coef": 1}, {"exp": [2], "coef": 2}]}
        )


def test_poly_to_json_canonical_order():
    obj = poly_to_json(motzkin())
    exps = [tuple(t["exp"]) for t in obj["terms"]]
    assert exps == sorted(exps)
    json.dumps(obj)  # serializable
