"""Tests for the trust anchor: the integer verifier, the certificate writer
and parser, and the integer projection, against Fraction references."""

from __future__ import annotations

import ast
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soncert
import soncert.certify
import soncert.cli
import soncert.mediated
import soncert.polyring
import soncert.socp
import soncert.verify
from soncert.certify import OBJECTIVE_SCALE, exact_sobs, project_slots
from soncert.cover import simplex_cover
from soncert.generate import random_instance
from soncert.polyring import SparsePoly, pn_companion, poly_sha256
from soncert.socp import assemble, build_plan, cover_points, solve_problem
from soncert.verify import Certificate, verify_certificate

from oracles import CertTriple, circuits_of, cones_of, same_certificate, triples_of
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


def assert_imports_only(module, package_imports) -> None:
    """Every import of module's source names the standard library or, by a
    relative import, one of package_imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module in package_imports, ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name


def test_verify_imports_only_polyring_and_the_standard_library():
    # verify reads polyring, and polyring no other module of the package
    assert_imports_only(soncert.verify, {"polyring"})
    assert_imports_only(soncert.polyring, set())


def test_mediated_imports_only_polyring_and_the_standard_library():
    # the lifts take their weights from the caller, not from the cover
    assert_imports_only(soncert.mediated, {"polyring"})


def test_library_verifier_runs_without_numpy_or_scipy(tmp_path):
    poly_path, cert_path = tmp_path / "poly.json", tmp_path / "cert.json"
    poly_path.write_text(soncert.polyring.poly_dumps(MOTZKIN))
    cert_path.write_text("".join(VALID[0][1].pieces()))
    script = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from soncert.polyring import poly_loads\n"
        "from soncert.verify import Certificate, verify_certificate\n"
        "with open(sys.argv[1]) as poly, open(sys.argv[2]) as cert:\n"
        "    result = verify_certificate(poly_loads(poly.read()), Certificate.loads(cert))\n"
        "print(result.reason, *sorted(m for m in sys.modules if m.startswith('soncert')))\n"
    )
    src = str(Path(soncert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", script, str(poly_path), str(cert_path)],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ok", "soncert", "soncert.polyring", "soncert.verify"]


def test_moved_names_stay_importable_as_the_same_objects():
    # certify uses Certificate and verify_certificate; a certificate has no
    # Fraction form in the library: CertTriple and check_cone are test oracles
    for name in ("Certificate", "verify_certificate"):
        assert getattr(soncert.certify, name) is getattr(soncert.verify, name)
    for name in ("CertTriple", "check_cone"):
        assert name not in soncert.__all__
        for module in (soncert, soncert.certify, soncert.verify):
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("Certificate", "VerifyResult", "verify_certificate"):
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
    cert = Certificate(1, Fraction(1), poly_sha256(f), cones_of(()), (((2,), Fraction(1, 4)),))
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
    circuits = list(circuits_of(cert))
    g = draw(st.integers(0, len(circuits) - 1))
    i = draw(st.integers(0, len(circuits[g]) - 1))
    t = circuits[g][i]
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
    group = list(circuits[g])
    group[i] = t
    circuits[g] = tuple(group)
    return poly, dataclasses.replace(cert, cones=cones_of(circuits))


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
    return assemble(build_plan(cover, odd_mode=True), pn_companion(f), xi=Fraction(-1, 9))


ODD_PROBLEM = _odd_problem()


@SETTINGS
@given(st.lists(RATIONALS, min_size=len(ODD_PROBLEM.objective), max_size=len(ODD_PROBLEM.objective)))
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
    problem = assemble(build_plan(simplex_cover(*cover_points(poly))), pn_companion(poly))
    x = solve_problem(problem, objective_scale=OBJECTIVE_SCALE).x
    third = SparsePoly(poly.n, {exp: coef / 3 for exp, coef in poly.terms.items()})
    third_problem = assemble(problem.plan, pn_companion(third))
    assert any(r.denominator % 3 == 0 for r in third_problem.rhs_exact)
    off_cone = x.copy()
    off_cone[2] = 2 * (abs(x[0]) + abs(x[1]) + 1)  # c of the first cone, far outside
    for prob, slots in ((problem, x), (third_problem, x / 3), (problem, off_cone)):
        got = soncert.certify._round_and_project(prob, slots)
        assert (None if got is None else list(map(Fraction, *got))) == ref_round_and_project(prob, slots)
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
        cones=cones_of(circuits),
        passthrough=tuple(passthrough),
    )


def _assert_written_as_before(cert):
    assert "".join(cert.pieces()) == json.dumps(ref_certificate_json(cert), indent=2, sort_keys=True)
    assert "".join(cert.pieces(compact=True)) == json.dumps(ref_certificate_json(cert), sort_keys=True)
    assert json.loads("".join(cert.pieces())) == ref_certificate_json(cert)


@SETTINGS
@given(certificates())
def test_writer_matches_json_dumps(cert):
    _assert_written_as_before(cert)
    assert same_certificate(Certificate.loads("".join(cert.pieces())), cert)


@SETTINGS
@given(certificates())
def test_bit_size_counts_every_point_reference(cert):
    assert cert.bit_size == ref_bit_size(cert)
    assert Certificate.loads("".join(cert.pieces())).bit_size == ref_bit_size(cert)


_EDGE_TRIPLE = CertTriple(
    (Fraction(-1, 3),), (Fraction(0),), (Fraction(-2, 3),), Fraction(-5), Fraction(0), Fraction(7, 2)
)
WRITER_EDGE_CASES = (
    Certificate(1, Fraction(-1, 2), 'a"b\\cé☃\n', cones_of(()), ()),
    Certificate(1, Fraction(0), "", cones_of(((), (_EDGE_TRIPLE,))), ()),
    Certificate(1, Fraction(3), "x", cones_of(((_EDGE_TRIPLE, _EDGE_TRIPLE),)), (((4,), Fraction(-9, 4)),)),
)


def test_certificate_fields_cannot_be_assigned():
    # the circuits are held once, as integers: no assignment can replace
    # them, or any other field, behind the writer's or the verifier's back
    cert = VALID[0][1]
    text = "".join(cert.pieces())
    for name, value in (("circuits", ()), ("cones", cones_of(())), ("xi", Fraction(0)), ("passthrough", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cert, name, value)
    assert "".join(cert.pieces()) == text and verify_certificate(MOTZKIN, cert).ok


def test_writer_edge_cases():
    for cert in WRITER_EDGE_CASES:
        _assert_written_as_before(cert)
    for _, cert in VALID:
        _assert_written_as_before(cert)


# what a piece may hold beyond one triple, passthrough term or scalar field:
# the brackets, separators, indentation and keys around it
PIECE_MARGIN = 32


def _unit_texts(cert, indent):
    """The texts of the writer's units in a layout: each triple, each
    passthrough term and each scalar field, indented as written."""

    data = ref_certificate_json(cert)

    def text(value, level):
        return json.dumps(value, indent=indent, sort_keys=True).replace("\n", "\n" + "  " * level)

    yield from (text(t, 4) for group in data["circuits"] for t in group["triples"])
    yield from (text(term, 2) for term in data["passthrough"])
    yield from (text({key: data[key]}, 0) for key in ("n", "poly_sha256", "xi"))


@SETTINGS
@given(certificates() | st.sampled_from(WRITER_EDGE_CASES + tuple(cert for _, cert in VALID)))
def test_writer_pieces_join_to_either_layout(cert):
    for compact, indent, text in ((False, 2, "".join(cert.pieces())), (True, None, "".join(cert.pieces(compact=True)))):
        pieces = list(cert.pieces(compact=compact))
        assert "".join(pieces) == text
        # the document is never joined: a piece holds one unit at most
        assert max(map(len, pieces)) <= max(map(len, _unit_texts(cert, indent))) + PIECE_MARGIN


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
    data = json.loads("".join(draw(st.sampled_from(VALID))[1].pieces()))
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
def test_loads_raises_only_value_error(data):
    try:
        Certificate.loads(json.dumps(data))
    except ValueError:
        pass


@pytest.mark.parametrize("damaged", [[["1", "2", "1"], ["1"]], ["12", ["1", "1"]], [["1", "2"], "11"]])
def test_reader_keys_each_point_on_its_pairs(damaged):
    # the damaged point flattens to the values of the point met before it,
    # ["1", "2", "1", "1"], but is no list of [num, den] pairs
    half = (Fraction(1, 2), Fraction(1))
    t = CertTriple(half, (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), Fraction(1), Fraction(1), Fraction(1))
    data = json.loads("".join(Certificate(2, Fraction(0), "x", cones_of(((t, t),)), ()).pieces()))
    assert triples_of(Certificate.loads(json.dumps(data))) == (t, t)
    data["circuits"][0]["triples"][1]["u"] = damaged
    with pytest.raises(ValueError, match="coordinate"):
        Certificate.loads(json.dumps(data))



MOTZKIN_XI = exact_sobs(MOTZKIN, xi=Fraction(-1, 100))


def _coordinates(data, convert):
    for group in data["circuits"]:
        for t in group["triples"]:
            for key in "uvw":
                t[key] = [convert(num, den) for num, den in t[key]]


def _quarter_numerators(data):
    _coordinates(data, lambda num, den: [int(num) + 0.25, den])


def _recurring_point(value):
    # JSON integer coordinates, then a point met before written with value
    # for each denominator: the reader must not find it among the points of
    # equal integers
    def damage(data):
        _coordinates(data, lambda num, den: [int(num), int(den)])
        second = data["circuits"][0]["triples"][1]
        second["v"] = [[num, value] for num, _ in second["v"]]

    return damage


# each damage with the field its error names; int() would read every one
# but the word
INTEGER_DAMAGES = {
    "quarter-numerators": (_quarter_numerators, "coordinates"),
    "n-float": (lambda data: data.update(n=2.9), "'n'"),
    "n-true": (lambda data: data.update(n=True), "'n'"),
    "n-word": (lambda data: data.update(n="two"), "'n' must be an integer, got 'two'"),
    "float-exponent": (lambda data: data["passthrough"][0].update(exp=[0.5, 0]), "exponent"),
    "recurring-float": (_recurring_point(1.0), "coordinates"),
    "recurring-true": (_recurring_point(True), "coordinates"),
}


@pytest.mark.parametrize("name", list(INTEGER_DAMAGES))
def test_reader_refuses_floats_and_bools_for_integers(name):
    damage, field = INTEGER_DAMAGES[name]
    cert = VALID[2][1] if name == "float-exponent" else MOTZKIN_XI
    data = json.loads("".join(cert.pieces()))
    damage(data)
    with pytest.raises(ValueError, match=field):
        Certificate.loads(json.dumps(data))


def test_reader_drops_the_points_of_a_triple_outside_the_circuits():
    # a triple-shaped object met before the circuits has its points read
    # first; they are dropped and the circuits' points renumbered
    data = json.loads("".join(MOTZKIN_XI.pieces()))
    third = [["1", "3"], ["2", "3"]]
    stray = {"u": third, "v": [["5", "7"], ["0", "1"]], "w": third, "a": "1", "b": "1", "c": "1"}
    text = json.dumps({"stray": stray, **data})
    assert text.index('"stray"') < text.index('"circuits"')
    assert "".join(Certificate.loads(text).pieces()) == "".join(MOTZKIN_XI.pieces())


def test_reader_reads_json_integers_as_the_writer_strings():
    data = json.loads("".join(MOTZKIN_XI.pieces()))
    _coordinates(data, lambda num, den: [int(num), int(den)])
    assert same_certificate(Certificate.loads(json.dumps(data)), MOTZKIN_XI)


class _ShortReads(io.TextIOBase):
    """A text stream whose reads return at most the next of sizes
    characters, and which cannot seek."""

    def __init__(self, text, sizes):
        self.text, self.at, self.sizes = text, 0, itertools.cycle(sizes)

    def read(self, size):
        piece = self.text[self.at : self.at + min(size, next(self.sizes))]
        self.at += len(piece)
        return piece


def _stream_loads(text, read, sizes=(1 << 16,)):
    """Certificate.loads of text from a stream, asking read characters at a
    time of a stream that returns short reads of sizes."""

    with mock.patch.object(soncert.verify, "_READ", read):
        return Certificate.loads(_ShortReads(text, sizes))


def _shuffled(data, rnd):
    if isinstance(data, dict):
        items = [(key, _shuffled(value, rnd)) for key, value in data.items()]
        rnd.shuffle(items)
        return dict(items)
    if isinstance(data, list):
        return [_shuffled(value, rnd) for value in data]
    return data


def _with_duplicates(data, rnd):
    """JSON text of data where some keys come twice, first with a decoy
    value; the last one counts, as in json.loads."""

    if isinstance(data, dict):
        items = [f"{json.dumps(key)}: {_with_duplicates(value, rnd)}" for key, value in data.items()]
        if items and rnd.random() < 0.5:
            decoy = rnd.choice(["null", "7", '"x"', "[]", "{}", "[1, [2]]", "-0.5"])
            items.insert(0, f"{json.dumps(rnd.choice(list(data)))}: {decoy}")
        return "{" + ", ".join(items) + "}"
    if isinstance(data, list):
        return "[" + ", ".join(_with_duplicates(value, rnd) for value in data) + "]"
    return json.dumps(data)


def _integers(data, scale=1):
    _coordinates(data, lambda num, den: [int(num) * scale, int(den) * scale])
    return json.dumps(data, indent=1)


LAYOUTS = {
    "writer": lambda cert, rnd: "".join(cert.pieces()),
    "compact": lambda cert, rnd: "".join(cert.pieces(compact=True)),
    "indent-4": lambda cert, rnd: json.dumps(json.loads("".join(cert.pieces())), indent=4),
    "shuffled-keys": lambda cert, rnd: json.dumps(_shuffled(json.loads("".join(cert.pieces())), rnd)),
    "crlf": lambda cert, rnd: "".join(cert.pieces()).replace("\n", "\r\n"),
    "extra-whitespace": lambda cert, rnd: " \n\t"
    + json.dumps(json.loads("".join(cert.pieces())), indent="\t", separators=(" ,\r\n ", " :  "))
    + "\n\n ",
    "duplicate-keys": lambda cert, rnd: _with_duplicates(json.loads("".join(cert.pieces())), rnd),
    # JSON numbers for the coordinates, which a read may cut
    "integer-coordinates": lambda cert, rnd: _integers(json.loads("".join(cert.pieces()))),
}
# characters asked per read: down to one, so that every token meets a read's end
READ_SIZES = st.sampled_from([1, 2, 3, 7, 64, 1000, 1 << 16])
SHORT_READS = st.lists(st.integers(1, 16) | st.integers(1, 1 << 16), min_size=1, max_size=8)


@SETTINGS
@given(
    st.sampled_from([cert for _, cert in VALID] + [MOTZKIN_XI]) | certificates(),
    st.sampled_from(sorted(LAYOUTS)),
    st.randoms(use_true_random=False),
    READ_SIZES,
    SHORT_READS,
)
def test_stream_reads_the_certificate_of_the_text(cert, layout, rnd, read, sizes):
    if layout == "integer-coordinates" and cert is not MOTZKIN_XI:
        layout = "writer"  # only the Motzkin coordinates are integers
    text = LAYOUTS[layout](cert, rnd)
    whole = Certificate.loads(text)
    assert same_certificate(whole, cert)
    assert "".join(_stream_loads(text, read, sizes).pieces()) == "".join(whole.pieces())


def _refusal(load):
    try:
        load()
    except ValueError as err:
        return str(err)
    return None


def _assert_refused_alike(text):
    """The same refusal, or none, at every read size; and json's error
    text where json.loads with the reader's hook refuses the text."""

    whole = _refusal(lambda: Certificate.loads(text))
    for read in (1, 2, 3, 7, 64, 1000):
        assert _refusal(lambda: _stream_loads(text, read, (read, 1, 5))) == whole
        with mock.patch.object(soncert.verify, "_READ", read):
            assert _refusal(lambda: Certificate.loads(io.StringIO(text))) == whole  # full reads
    try:
        json.loads(text, object_hook=soncert.verify._Reader().decoded)
    except RecursionError:
        assert whole == "JSON is nested too deeply"
    except ValueError as err:
        assert whole == str(err)


@SETTINGS
@given(damaged_json() | JSON, st.booleans())
def test_damaged_json_is_refused_alike_at_every_read_size(data, indent):
    _assert_refused_alike(json.dumps(data, indent=2 if indent else None))


def _cut(text, anchor, offset):
    return text[: text.index(anchor) + offset]


TRUNCATED = {
    "inside-a-triple": lambda text: _cut(text, '"b": ', 3),
    "inside-a-key": lambda text: _cut(text, '"triples"', 4),
    "after-an-opening-brace": lambda text: _cut(text, "{", 1),
    "inside-a-number": lambda text: _cut(_integers(json.loads(text), scale=1000003), "1000003", 3),
    "inside-n": lambda text: _cut(text.replace('"n": 2', '"n": 21234'), '"n": 2', 8),
    "trailing-data": lambda text: text + " x",
    "trailing-object": lambda text: text + "\n{}",
    "trailing-bracket": lambda text: text + "]",
    "byte-order-mark": lambda text: "\ufeff" + text,
    # a comma before a close, which json refuses in words that differ by Python version
    "trailing-comma-in-the-certificate": lambda text: text[: text.rindex("\n}")] + ",\n}",
    "trailing-comma-in-circuits": lambda text: text.replace('}\n  ],\n  "n"', '},\n  ],\n  "n"'),
    "trailing-comma-in-a-circuit": lambda text: text.replace("]\n    }\n  ]", "],\n    }\n  ]"),
    "trailing-comma-in-triples": lambda text: text.replace("}\n      ]\n    }", "},\n      ]\n    }"),
    "trailing-comma-in-a-triple": lambda text: text.replace("]\n        }", "],\n        }", 1),
    "trailing-comma-alone": lambda text: '{"n": 2,}',
    "member-without-a-colon": lambda text: text.replace('"n": 2', '"n" 2'),
}


@pytest.mark.parametrize("name", list(TRUNCATED))
def test_cut_and_extended_texts_are_refused_alike_at_every_read_size(name):
    text = TRUNCATED[name]("".join(MOTZKIN_XI.pieces()))
    assert _refusal(lambda: Certificate.loads(text)) is not None
    _assert_refused_alike(text)


@pytest.mark.parametrize("close, name", [("}", "trailing-comma-in-the-certificate"), ("]", "trailing-comma-in-circuits")])
def test_a_trailing_comma_refused_at_the_comma_is_placed_alike(close, name):
    """Where json names the comma of a trailing comma rather than the
    close, as Python 3.13's does, the reader names it alike at every read
    size in the top-level object and the circuits list, which it walks
    itself."""

    text = TRUNCATED[name]("".join(MOTZKIN_XI.pieces()))
    comma = re.search(r",\s*" + re.escape(close), text).start()
    line, column = text.count("\n", 0, comma) + 1, comma - text.rindex("\n", 0, comma)
    message = f"Illegal trailing comma: line {line} column {column} (char {comma})"
    with mock.patch.dict(soncert.verify._TRAILING_COMMA, {close: ("Illegal trailing comma", True)}):
        assert _refusal(lambda: Certificate.loads(text)) == message
        for read in (1, 2, 3, 7, 64, 1000):
            assert _refusal(lambda: _stream_loads(text, read, (read, 1, 5))) == message

def _transient_bytes(text, read):
    """tracemalloc's peak while a stream of text is read, less what the
    certificate keeps."""

    stream = io.StringIO(text)
    with mock.patch.object(soncert.verify, "_READ", read):
        tracemalloc.start()
        try:
            cert = Certificate.loads(stream)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert cert.num_triples
    return peak - kept


def test_reader_memory_does_not_grow_with_the_file():
    circuits = circuits_of(MOTZKIN_XI)
    read = 1 << 12
    texts = [
        "".join(dataclasses.replace(MOTZKIN_XI, cones=cones_of(circuits * copies)).pieces()) for copies in (100, 400)
    ]
    assert len(texts[0]) > 20 * read
    _transient_bytes(texts[0], read)  # caches filled once
    small, large = (_transient_bytes(text, read) for text in texts)
    assert abs(large - small) <= read


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
        Certificate(2, Fraction(0), sha, cones_of((spread_points,)), ()),
        Certificate(2, Fraction(0), sha, cones_of((spread_values,)), ()),
    ]


def test_work_bound_refuses_too_large_certificates():
    for cert in _too_large_certificates():
        start = time.perf_counter()
        result = verify_certificate(MOTZKIN, cert)
        assert time.perf_counter() - start < 1.0
        assert (result.ok, result.reason) == (False, "too-large")


def test_lcm_below_the_limit_is_built_to_its_end():
    # 2^1 ... 2^200 pass the bit-sum screen (20,100 bits), but their lcm
    # 2^200 stays below 10^4300
    dens = [2**k for k in range(1, 201)]
    assert sum((d - 1).bit_length() for d in dens) >= (10**4300).bit_length() - 1
    assert not soncert.verify._lcm_reaches(dens, 10**4300)
    assert soncert.verify._lcm_reaches(dens, 2**200)


def test_work_bound_refuses_too_large_polynomials():
    # built in the library, past the parser: printing the 429,000-digit
    # value for f's hash alone would take seconds
    huge = 3**900_000
    for coef in (Fraction(1, huge), Fraction(huge, 7)):
        f = SparsePoly(1, {(0,): 1, (2,): coef})
        cert = Certificate(1, Fraction(0), "0" * 64, cones_of(()), ())
        start = time.perf_counter()
        result = verify_certificate(f, cert)
        assert time.perf_counter() - start < 1.0
        assert (result.ok, result.reason) == (False, "too-large")


def test_cli_verify_reports_too_large(tmp_path, capsys):
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(soncert.polyring.poly_dumps(MOTZKIN))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text("".join(_too_large_certificates()[0].pieces()))
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
    cert = Certificate(1, Fraction(0), poly_sha256(f), cones_of((triples,)), ())
    start = time.perf_counter()
    result = verify_certificate(f, cert)
    assert time.perf_counter() - start < 1.0
    assert (result.ok, result.reason) == (True, "ok") == ref_verify_certificate(f, cert)
    bad = list(triples)
    bad[50] = dataclasses.replace(bad[50], b=Fraction(1, 2))
    result = verify_certificate(f, dataclasses.replace(cert, cones=cones_of((bad,))))
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
    cert = Certificate(1, Fraction(0), poly_sha256(f), cones_of((triples,)), ())
    # CPU time of this process, so that a loaded host does not count
    start = time.process_time()
    result = verify_certificate(f, cert)
    assert time.process_time() - start < 1.0
    assert (result.ok, result.reason) == (False, "reconstruction-mismatch")
