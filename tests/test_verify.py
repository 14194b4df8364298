"""Tests for the trust anchor: the integer verifier, the certificate writer
and parser, and the integer projection, against Fraction references."""

from __future__ import annotations

import ast
import dataclasses
import json
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soncert
import soncert.certify
import soncert.cli
import soncert.polyring
import soncert.socp
import soncert.verify
from soncert.certify import OBJECTIVE_SCALE, exact_sobs, project_slots
from soncert.cover import simplex_cover
from soncert.generate import random_instance
from soncert.polyring import SparsePoly, pn_companion, poly_sha256
from soncert.socp import assemble, build_plan, cover_points, solve_problem
from soncert.verify import Certificate, CertTriple, verify_certificate

from conftest import (
    project_fractions,
    ref_bit_size,
    ref_certificate_json,
    ref_project_slots,
    ref_round_and_project,
    ref_verify_certificate,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

MOTZKIN = SparsePoly(2, {(4, 2): 1, (2, 4): 1, (0, 0): 1, (2, 2): -3})
# (0, 2) takes no weight in any circuit for (1, 1), so it is a passthrough term
WITH_PASSTHROUGH = SparsePoly(2, {(0, 0): 1, (2, 2): 1, (1, 1): -1, (0, 2): Fraction(3, 7)})
VALID = [
    (MOTZKIN, exact_sobs(MOTZKIN)),
    (MOTZKIN, exact_sobs(MOTZKIN, odd_mode=True)),
    (WITH_PASSTHROUGH, exact_sobs(WITH_PASSTHROUGH)),
]
RATIONALS = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


def test_verify_imports_only_polyring_and_the_standard_library():
    tree = ast.parse(Path(soncert.verify.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module == "polyring", ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name


def test_moved_names_stay_importable_as_the_same_objects():
    for name in ("Certificate", "CertTriple", "verify_certificate"):
        assert getattr(soncert.certify, name) is getattr(soncert.verify, name)
    for name in ("Certificate", "CertTriple", "VerifyResult", "check_cone", "verify_certificate"):
        assert getattr(soncert, name) is getattr(soncert.verify, name)
    assert soncert.socp.pn_companion is soncert.polyring.pn_companion
    assert soncert.pn_companion is soncert.polyring.pn_companion
    assert soncert.cli.verify_certificate is verify_certificate


def test_valid_certificates_match_the_reference():
    for poly, cert in VALID:
        assert ref_verify_certificate(poly, cert) == (True, "ok")
        assert verify_certificate(poly, cert).ok


def test_target_off_the_value_grid_is_a_mismatch():
    # V = 4, and the target 1/3 is no multiple of 1/4: 1/4 must not pass as
    # the 4/3 of the companion rounded down
    f = SparsePoly(1, {(2,): Fraction(1, 3), (0,): 1})
    cert = Certificate(1, Fraction(1), poly_sha256(f), (), (((2,), Fraction(1, 4)),))
    assert ref_verify_certificate(f, cert) == (False, "reconstruction-mismatch")
    assert verify_certificate(f, cert).reason == "reconstruction-mismatch"
    assert verify_certificate(f, dataclasses.replace(cert, passthrough=(((2,), Fraction(1, 3)),))).ok


@st.composite
def single_changes(draw):
    poly, cert = draw(st.sampled_from(VALID))
    new = draw(RATIONALS)
    kinds = ["slot", "coordinate", "xi"] + (["passthrough"] if cert.passthrough else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "xi":
        if new == cert.xi:
            new += 1
        return poly, dataclasses.replace(cert, xi=new)
    if kind == "passthrough":
        i = draw(st.integers(0, len(cert.passthrough) - 1))
        exp, coef = cert.passthrough[i]
        if new == coef:
            new += 1
        terms = list(cert.passthrough)
        terms[i] = (exp, new)
        return poly, dataclasses.replace(cert, passthrough=tuple(terms))
    g = draw(st.integers(0, len(cert.circuits) - 1))
    i = draw(st.integers(0, len(cert.circuits[g]) - 1))
    t = cert.circuits[g][i]
    if kind == "slot":
        name = draw(st.sampled_from("abc"))
        if new == getattr(t, name):
            new += 1
        t = dataclasses.replace(t, **{name: new})
    else:
        name = draw(st.sampled_from("uvw"))
        pt = list(getattr(t, name))
        j = draw(st.integers(0, len(pt) - 1))
        if new == pt[j]:
            new += 1
        pt[j] = new
        t = dataclasses.replace(t, **{name: tuple(pt)})
    group = list(cert.circuits[g])
    group[i] = t
    circuits = list(cert.circuits)
    circuits[g] = tuple(group)
    return poly, dataclasses.replace(cert, circuits=tuple(circuits))


@SETTINGS
@given(single_changes())
def test_single_change_matches_reference_and_fails(case):
    poly, cert = case
    got = verify_certificate(poly, cert)
    assert (got.ok, got.reason) == ref_verify_certificate(poly, cert)
    assert not got.ok


def _odd_problem():
    # coefficients and bound with odd denominators, so the rows are not dyadic
    f = SparsePoly(2, {(4, 2): Fraction(1, 3), (2, 4): Fraction(5, 7), (0, 0): 1, (2, 2): Fraction(-3, 11)})
    cover = simplex_cover([(0, 0), (4, 2), (2, 4)], [(2, 2)])
    return assemble(build_plan(cover, odd_mode=True), pn_companion(f), mode="feasibility", xi=Fraction(-1, 9))


ODD_PROBLEM = _odd_problem()


@SETTINGS
@given(st.lists(RATIONALS, min_size=ODD_PROBLEM.num_slots, max_size=ODD_PROBLEM.num_slots))
def test_projection_matches_reference(slots):
    assert project_fractions(ODD_PROBLEM, slots) == ref_project_slots(ODD_PROBLEM, slots)
    den = lcm(*(s.denominator for s in slots))
    p, q = project_slots(ODD_PROBLEM, [s.numerator * (den // s.denominator) for s in slots], den)
    assert all(type(x) is int for x in p + q) and min(q) > 0


# seeded criterion-7 instances, and the third of each: a third of a
# solution solves the problem of f/3, whose rows' right-hand sides have the
# non-dyadic denominator 3
C7_SEEDS = [
    random_instance(n=n, degree=d, terms=t, poly_class="standard-simplex", interior=True, seed=seed).poly
    for n, d, t, seed in ((4, 10, 32, 70_000), (8, 10, 30, 70_001), (4, 20, 40, 70_002))
]


@pytest.mark.parametrize("poly", C7_SEEDS, ids=["70000", "70001", "70002"])
def test_integer_rounding_matches_the_fraction_reference(poly):
    problem = assemble(build_plan(simplex_cover(*cover_points(poly))), pn_companion(poly), mode="bound")
    x = solve_problem(problem, objective_scale=OBJECTIVE_SCALE).x
    third = SparsePoly(poly.n, {exp: coef / 3 for exp, coef in poly.terms.items()})
    third_problem = assemble(problem.plan, pn_companion(third), mode="bound")
    assert any(r.denominator % 3 == 0 for r in third_problem.rhs_exact)
    off_cone = x.copy()
    off_cone[2] = 2 * (abs(x[0]) + abs(x[1]) + 1)  # c of the first cone, far outside
    for prob, slots in ((problem, x), (third_problem, x / 3), (problem, off_cone)):
        got = soncert.certify._round_and_project(prob, slots)
        assert got == ref_round_and_project(prob, slots)
        assert (got is None) == (slots is off_cone)


@st.composite
def certificates(draw):
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[RATIONALS] * n), min_size=1, max_size=4))
    points = st.sampled_from(pool)
    triple = st.builds(CertTriple, points, points, points, RATIONALS, RATIONALS, RATIONALS)
    circuits = draw(st.lists(st.lists(triple, max_size=3).map(tuple), max_size=3))
    exps = st.tuples(*[st.integers(0, 10)] * n)
    passthrough = draw(st.lists(st.tuples(exps, RATIONALS), max_size=3))
    return Certificate(
        n=n,
        xi=draw(RATIONALS),
        poly_sha256=draw(st.text()),
        circuits=tuple(circuits),
        passthrough=tuple(passthrough),
    )


def _assert_written_as_before(cert):
    assert cert.dumps() == json.dumps(ref_certificate_json(cert), indent=2, sort_keys=True)
    assert cert.dumps_compact() == json.dumps(ref_certificate_json(cert), sort_keys=True)
    assert cert.to_json() == ref_certificate_json(cert)


@SETTINGS
@given(certificates())
def test_writer_matches_json_dumps(cert):
    _assert_written_as_before(cert)
    assert Certificate.loads(cert.dumps()) == cert


@SETTINGS
@given(certificates())
def test_bit_size_counts_every_point_reference(cert):
    assert cert.bit_size == ref_bit_size(cert)
    assert Certificate.loads(cert.dumps()).bit_size == ref_bit_size(cert)


def test_writer_edge_cases():
    t = CertTriple((Fraction(-1, 3),), (Fraction(0),), (Fraction(-2, 3),), Fraction(-5), Fraction(0), Fraction(7, 2))
    for cert in (
        Certificate(1, Fraction(-1, 2), 'a"b\\cé☃\n', (), ()),
        Certificate(1, Fraction(0), "", ((), (t,)), ()),
        Certificate(1, Fraction(3), "x", ((t, t),), (((4,), Fraction(-9, 4)),)),
    ):
        _assert_written_as_before(cert)
    for _, cert in VALID:
        _assert_written_as_before(cert)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)


def _nodes(data, path=()):
    yield path
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _nodes(value, path + (i,))


@st.composite
def damaged_json(draw):
    data = json.loads(draw(st.sampled_from(VALID))[1].dumps())
    path = draw(st.sampled_from(list(_nodes(data))))
    value = draw(JSON | st.sampled_from(["1/0", "7e99999", "-1", "1e3", "1/3"]))
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@SETTINGS
@given(damaged_json() | JSON)
def test_from_json_raises_only_value_error(data):
    # loads converts each triple while decoding, from_json afterwards
    for load in (Certificate.from_json, lambda d: Certificate.loads(json.dumps(d))):
        try:
            load(data)
        except ValueError:
            pass


@pytest.mark.parametrize("damaged", [[["1", "2", "1"], ["1"]], ["12", ["1", "1"]], [["1", "2"], "11"]])
def test_reader_keys_each_point_on_its_pairs(damaged):
    # the damaged point flattens to the values of the point met before it,
    # ["1", "2", "1", "1"], but is no list of [num, den] pairs
    half = (Fraction(1, 2), Fraction(1))
    t = CertTriple(half, (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), Fraction(1), Fraction(1), Fraction(1))
    data = json.loads(Certificate(2, Fraction(0), "x", ((t, t),), ()).dumps())
    assert Certificate.from_json(data).triples == (t, t)
    data["circuits"][0]["triples"][1]["u"] = damaged
    for load in (Certificate.from_json, lambda d: Certificate.loads(json.dumps(d))):
        with pytest.raises(ValueError, match="coordinate"):
            load(data)


def _primes(count):
    out, k = [], 2
    while len(out) < count:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


def _too_large_certificates():
    primes = _primes(3000)
    one = Fraction(1)
    spread_points = tuple(
        CertTriple(
            (Fraction(1, p), one), (Fraction(1, q), one), (Fraction(1, r), one), one, one, one
        )
        for p, q, r in zip(primes[0::3], primes[1::3], primes[2::3])
    )
    pt = (one, one)
    spread_values = tuple(
        CertTriple(pt, pt, pt, Fraction(1, p), Fraction(1, q), Fraction(1, r))
        for p, q, r in zip(primes[0::3], primes[1::3], primes[2::3])
    )
    sha = poly_sha256(MOTZKIN)
    return [
        Certificate(2, Fraction(0), sha, (spread_points,), ()),
        Certificate(2, Fraction(0), sha, (spread_values,), ()),
    ]


def test_work_bound_refuses_too_large_certificates():
    for cert in _too_large_certificates():
        start = time.perf_counter()
        result = verify_certificate(MOTZKIN, cert)
        assert time.perf_counter() - start < 1.0
        assert (result.ok, result.reason) == (False, "too-large")


def test_work_bound_refuses_too_large_polynomials():
    # built in the library, past the parser: printing the 429,000-digit
    # value for f's hash alone would take seconds
    huge = 3**900_000
    for coef in (Fraction(1, huge), Fraction(huge, 7)):
        f = SparsePoly(1, {(0,): 1, (2,): coef})
        cert = Certificate(1, Fraction(0), "0" * 64, (), ())
        start = time.perf_counter()
        result = verify_certificate(f, cert)
        assert time.perf_counter() - start < 1.0
        assert (result.ok, result.reason) == (False, "too-large")


def test_cli_verify_reports_too_large(tmp_path, capsys):
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(soncert.polyring.poly_dumps(MOTZKIN))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(_too_large_certificates()[0].dumps())
    code = soncert.cli.main(["verify", str(poly_path), str(cert_path)])
    assert code == soncert.cli.EXIT_ERROR
    assert "reason=too-large" in capsys.readouterr().out.splitlines()


# each coefficient is within the parser's limit, but together their
# denominators have more than 4300 digits
LARGE_DENOMINATORS = SparsePoly(
    2,
    {
        (4, 2): Fraction(3**4700 + 1, 3**4700),
        (2, 4): Fraction(7**2700 + 1, 7**2700),
        (0, 0): 1,
        (2, 2): -3,
    },
)


def test_exact_sobs_reports_too_large_as_a_value_error():
    # xi's odd 4300-digit denominator is within the parser's limit, but the
    # slots carry it times the rounding grid's 2^k, over the cap 10^4300 that
    # an f with integer coefficients gets
    xi = Fraction(-(10**4299), 10**4300 - 1)
    with pytest.raises(ValueError, match="too large"):
        exact_sobs(MOTZKIN, xi=xi)


def test_value_cap_is_relative_to_the_polynomial(tmp_path, capsys):
    # the slots carry both of f's denominators, whose product alone has more
    # than 4300 digits; the cap on V is 10^4300 times a bound on that product
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(soncert.polyring.poly_dumps(LARGE_DENOMINATORS))
    cert_path = tmp_path / "cert.json"
    assert soncert.cli.main(["certify", str(poly_path), "-o", str(cert_path)]) == soncert.cli.EXIT_OK
    assert soncert.cli.main(["verify", str(poly_path), str(cert_path)]) == soncert.cli.EXIT_OK
    assert "ok=true" in capsys.readouterr().out.splitlines()
    cert = Certificate.loads(cert_path.read_text())
    assert ref_verify_certificate(LARGE_DENOMINATORS, cert) == (True, "ok")


def test_many_large_denominators_verify_per_triple():
    # 100 distinct odd 4300-digit denominators: their lcm V has about
    # 430,000 digits, below the cap 10^4300 * 2^B(f) that f's own
    # denominators give, so the certificate is checked, triple by triple
    dens = [10**4299 + 2 * i + 1 for i in range(100)]
    terms, triples = {}, []
    for i, d in enumerate(dens):
        terms.update({(4 * i + 4,): Fraction(2, d), (4 * i + 2,): Fraction(1), (4 * i + 3,): Fraction(-2, d)})
        u, v, w = (Fraction(4 * i + 3),), (Fraction(4 * i + 4),), (Fraction(4 * i + 2),)
        triples.append(CertTriple(u, v, w, Fraction(1, d), Fraction(1), Fraction(1, d)))
    f = SparsePoly(1, terms)
    cert = Certificate(1, Fraction(0), poly_sha256(f), (tuple(triples),), ())
    start = time.perf_counter()
    result = verify_certificate(f, cert)
    assert time.perf_counter() - start < 1.0
    assert (result.ok, result.reason) == (True, "ok") == ref_verify_certificate(f, cert)
    bad = list(triples)
    bad[50] = dataclasses.replace(bad[50], b=Fraction(1, 2))
    result = verify_certificate(f, dataclasses.replace(cert, circuits=(tuple(bad),)))
    assert (result.ok, result.reason) == (False, "reconstruction-mismatch")


def test_many_large_denominators_at_one_point_are_summed_evenly():
    # the a-slots 1/d_i of 60 triples all meet at x^2: their sum has a
    # denominator of about 258,000 digits, which adding one by one over the
    # lcm builds in quadratic time
    dens = [10**4299 + 2 * i + 1 for i in range(60)]
    f = SparsePoly(1, {(2,): 1, **{(4 * i + 6,): Fraction(1, d) for i, d in enumerate(dens)}})
    one = Fraction(1)
    triples = tuple(
        CertTriple((Fraction(2 * i + 4),), (Fraction(2),), (Fraction(4 * i + 6),), Fraction(1, d), one, Fraction(0))
        for i, d in enumerate(dens)
    )
    cert = Certificate(1, Fraction(0), poly_sha256(f), (triples,), ())
    start = time.perf_counter()
    result = verify_certificate(f, cert)
    assert time.perf_counter() - start < 1.0
    assert (result.ok, result.reason) == (False, "reconstruction-mismatch")
