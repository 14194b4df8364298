"""Tests for the trust anchor: the integer verifier, the certificate writer
and parser, and the integer projection, against Fraction references."""

from __future__ import annotations

import ast
import dataclasses
import json
import sys
import time
from fractions import Fraction
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
from soncert.certify import exact_sobs, project_slots
from soncert.cover import simplex_cover
from soncert.polyring import SparsePoly, pn_companion, poly_sha256
from soncert.socp import assemble, build_plan
from soncert.verify import Certificate, CertTriple, verify_certificate

from conftest import ref_certificate_json, ref_project_slots, ref_verify_certificate

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
    for name in ("Certificate", "CertTriple", "VerifyResult", "check_cone", "verify_certificate"):
        assert getattr(soncert.certify, name) is getattr(soncert.verify, name)
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
    got = project_slots(ODD_PROBLEM, slots)
    assert got == ref_project_slots(ODD_PROBLEM, slots)
    assert all(type(x) is Fraction for x in got)


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
    assert cert.to_json() == ref_certificate_json(cert)


@SETTINGS
@given(certificates())
def test_writer_matches_json_dumps(cert):
    _assert_written_as_before(cert)
    assert Certificate.loads(cert.dumps()) == cert


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
    try:
        Certificate.from_json(data)
    except ValueError:
        pass


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
