"""End-to-end tests for the command line front end."""

from __future__ import annotations

import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from unittest import mock

import pytest

from soncert import cli, verify
from soncert.certify import Certificate
from soncert.polyring import SparsePoly, poly_dumps
from soncert.socp import lower_bound

from oracles import circuits_of

MOTZKIN = SparsePoly(2, {(4, 2): 1, (2, 4): 1, (0, 0): 1, (2, 2): -3})
# unbounded below: no finite bound exists for its support
UNBOUNDED = SparsePoly(2, {(4, 2): 1, (2, 4): 1, (3, 3): -3})
EX6 = SparsePoly(
    2, {(0, 0): 1, (4, 0): 1, (0, 4): 1, (1, 2): -1, (2, 1): -1, (1, 1): 5}
)


@pytest.fixture
def motzkin_file(tmp_path):
    path = tmp_path / "motzkin.json"
    path.write_text(poly_dumps(MOTZKIN))
    return str(path)


def test_bound_json_report(motzkin_file, capsys):
    code = cli.main(["bound", motzkin_file, "--json"])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert abs(report["xi"]) < 1e-4
    assert report["num_triples"] == 3


def test_bound_key_value_report(motzkin_file, capsys):
    code = cli.main(["bound", motzkin_file])
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    pairs = dict(line.split("=", 1) for line in lines)
    assert pairs["status"] == "ok"
    assert abs(float(pairs["xi"])) < 1e-4


def test_bound_dump_socp(motzkin_file, tmp_path, capsys):
    dump = tmp_path / "socp.json"
    code = cli.main(["bound", motzkin_file, "--dump-socp", str(dump)])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    data = json.loads(dump.read_text())
    assert data["mode"] == "bound"
    assert data["num_cones"] == 3
    # written a token at a time, the file is still to_json's text
    assert dump.read_text() == lower_bound(MOTZKIN).problem.to_json()


def test_certify_then_verify(motzkin_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = cli.main(["certify", motzkin_file, "-o", str(cert_path)])
    assert code == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "status=ok" in err
    cert = Certificate.loads(cert_path.read_text())
    assert cert.n == 2

    code = cli.main(["verify", motzkin_file, str(cert_path), "--json"])
    assert code == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": True, "reason": "ok"}


def test_certify_json_inlines_certificate(motzkin_file, capsys):
    code = cli.main(["certify", motzkin_file, "--json"])
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["certificate"]["n"] == 2


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_certify_json_line_is_json_dumps_of_the_report(motzkin_file, tmp_path, capsys, monkeypatch, batch):
    # the line is spliced from the report and the compact certificate text;
    # it must read as the one json.dumps of both that it was before
    emitted, emit = [], cli._emit

    def recording_emit(report, cert, as_json, output):
        emitted.append((report, cert))
        return emit(report, cert, as_json, output)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    cert_path = tmp_path / "cert.json"
    argv = [motzkin_file, "--batch"] if batch else [motzkin_file, "-o", str(cert_path), "--json"]
    assert cli.main(["certify", *argv]) == cli.EXIT_OK
    (line,) = capsys.readouterr().out.splitlines()
    ((report, cert),) = emitted
    text = cert.dumps() if batch else cert_path.read_text()
    assert line == json.dumps({**asdict(report), "certificate": json.loads(text)}, sort_keys=True)


def test_certify_prints_the_certificate_file_on_stdout(motzkin_file, capsys, monkeypatch):
    # without -o and --json the certificate is written in pieces to stdout,
    # and the report lines go to stderr
    emitted, emit = [], cli._emit

    def recording_emit(report, cert, as_json, output):
        emitted.append(cert)
        return emit(report, cert, as_json, output)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    assert cli.main(["certify", motzkin_file]) == cli.EXIT_OK
    captured = capsys.readouterr()
    (cert,) = emitted
    assert captured.out == cert.dumps() + "\n"
    assert "status=ok" in captured.err.splitlines()


def test_certify_at_boundary_exits_2(motzkin_file, capsys):
    code = cli.main(["certify", motzkin_file, "--xi", "0"])
    assert code == cli.EXIT_BOUNDARY
    assert "status=boundary-failure" in capsys.readouterr().out


def test_verify_rejects_tampered_certificate(motzkin_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert cli.main(["certify", motzkin_file, "-o", str(cert_path)]) == cli.EXIT_OK
    capsys.readouterr()
    data = json.loads(cert_path.read_text())
    data["xi"] = "1/2"
    cert_path.write_text(json.dumps(data))
    code = cli.main(["verify", motzkin_file, str(cert_path)])
    assert code == cli.EXIT_ERROR
    out = capsys.readouterr().out
    assert "ok=false" in out


def test_verify_refuses_float_coordinates(motzkin_file, tmp_path, capsys):
    # a JSON float where an integer is expected is an error, not truncated
    cert_path = tmp_path / "cert.json"
    assert cli.main(["certify", motzkin_file, "--xi=-1/100", "-o", str(cert_path)]) == cli.EXIT_OK
    capsys.readouterr()
    data = json.loads(cert_path.read_text())
    for group in data["circuits"]:
        for t in group["triples"]:
            for key in "uvw":
                t[key] = [[int(num) + 0.25, den] for num, den in t[key]]
    cert_path.write_text(json.dumps(data))
    assert cli.main(["verify", motzkin_file, str(cert_path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert "ok=true" not in captured.out
    assert "coordinates" in captured.err


def test_gen_roundtrips_through_bound(tmp_path, capsys):
    code = cli.main(["gen", "--seed", "3", "--n", "2", "--degree", "6", "--terms", "8", "--count", "2"])
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    poly_path = tmp_path / "gen.json"
    poly_path.write_text(lines[0])
    assert cli.main(["bound", str(poly_path)]) == cli.EXIT_OK
    capsys.readouterr()


def test_gen_json_metadata(capsys):
    code = cli.main(["gen", "--seed", "5", "--json", "--poly-class", "general-simplex"])
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["poly_class"] == "general-simplex"
    assert payload["meta"]["seed"] == 5
    assert payload["poly"]["n"] == 2


def test_batch_bound_jsonl(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(poly_dumps(MOTZKIN) + "\n" + poly_dumps(EX6) + "\n")
    code = cli.main(["bound", str(batch), "--batch"])
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    xis = [json.loads(ln)["xi"] for ln in lines]
    assert abs(xis[0]) < 1e-4
    assert abs(xis[1] + 6.9165) < 1e-3


def test_batch_bound_directory(tmp_path, capsys):
    box = tmp_path / "polys"
    box.mkdir()
    (box / "a.json").write_text(poly_dumps(MOTZKIN))
    (box / "b.json").write_text(poly_dumps(EX6))
    (box / "ignore.txt").write_text("not a polynomial")
    code = cli.main(["bound", str(box), "--batch"])
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_batch_refuses_dump_socp_and_output(tmp_path, capsys):
    # a batch writes no file, so an option that names one is a usage error
    batch = tmp_path / "batch.jsonl"
    batch.write_text(poly_dumps(MOTZKIN) + "\n" + poly_dumps(EX6) + "\n")
    target = tmp_path / "written.json"
    for command, option in (("bound", "--dump-socp"), ("certify", "-o")):
        code = cli.main([command, option, str(target), str(batch), "--batch"])
        assert code == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--batch" in captured.err and option in captured.err
        assert not target.exists()


@pytest.mark.parametrize("command", ["bound", "certify"])
def test_batch_reports_every_item_past_a_bad_line(tmp_path, capsys, command):
    batch = tmp_path / "batch.jsonl"
    bad_exponent = json.dumps({"n": 1, "terms": [{"exp": 5, "coef": "1"}]})
    for bad, reason in (
        ("not json", "Expecting value"),
        ("[" * 200_000, "nested too deeply"),
        (bad_exponent, "exponent 5 is not a list"),
    ):
        batch.write_text(poly_dumps(MOTZKIN) + "\n" + bad + "\n" + poly_dumps(EX6) + "\n")
        code = cli.main([command, str(batch), "--batch"])
        assert code == cli.EXIT_ERROR
        reports = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        assert [r["status"] for r in reports] == ["ok", "error", "ok"]
        assert reason in reports[1]["reason"]


@pytest.mark.parametrize("command", ["bound", "certify"])
def test_batch_item_equals_single_item(tmp_path, capsys, command):
    texts = [poly_dumps(MOTZKIN), "not json", poly_dumps(EX6)]
    batch = tmp_path / "batch.jsonl"
    batch.write_text("\n".join(texts) + "\n")
    code = cli.main([command, str(batch), "--batch"])
    assert code == cli.EXIT_ERROR
    out = capsys.readouterr()
    batch_reports = [json.loads(ln) for ln in out.out.splitlines()]
    assert out.err.splitlines() == [f"error: {batch_reports[1]['reason']}"]

    single = tmp_path / "single.json"
    for text, report in zip(texts, batch_reports, strict=True):
        single.write_text(text)
        cli.main([command, str(single), "--json"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert {**json.loads(lines[0]), "phases": None} == {**report, "phases": None}


@pytest.mark.parametrize("constant", ["5", "-7/3", None])
def test_constant_polynomial_bounds_and_certifies(tmp_path, capsys, constant):
    poly = tmp_path / "constant.json"
    terms = [{"exp": [0], "coef": constant}] if constant else []
    poly.write_text(json.dumps({"n": 1, "terms": terms}))
    xi = Fraction(constant or 0)
    assert cli.main(["bound", str(poly), "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["xi"] == float(xi)

    cert_path = tmp_path / "cert.json"
    assert cli.main(["certify", str(poly), "-o", str(cert_path), "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["exact_xi"] == str(xi)
    cert = Certificate.loads(cert_path.read_text())
    assert cert.xi == xi and circuits_of(cert) == ()
    assert cli.main(["verify", str(poly), str(cert_path)]) == cli.EXIT_OK
    assert "ok=true" in capsys.readouterr().out

    assert cli.main(["certify", str(poly), f"--xi={xi + 1}"]) == cli.EXIT_BOUNDARY
    assert "status=boundary-failure" in capsys.readouterr().out


def test_negative_xi_as_a_separate_argument(motzkin_file, capsys):
    # argparse alone takes -7/3 for an option and reports a usage error
    assert cli.main(["certify", motzkin_file, "--xi=-7/3"]) == cli.EXIT_OK
    joined = capsys.readouterr().out
    assert cli.main(["certify", motzkin_file, "--xi", "-7/3"]) == cli.EXIT_OK
    assert capsys.readouterr().out == joined
    assert json.loads(joined)["xi"] == "-7/3"


@pytest.mark.parametrize("command", ["bound", "certify"])
def test_out_of_float_range_coefficient_is_an_error(tmp_path, capsys, command):
    big = tmp_path / "big.json"
    big.write_text(poly_dumps(SparsePoly(2, {**MOTZKIN.terms, (0, 0): Fraction("1e400")})))
    code = cli.main([command, str(big), "--json"])
    assert code == cli.EXIT_ERROR
    out = capsys.readouterr()
    assert json.loads(out.out)["status"] == "error"
    assert out.err.startswith("error:")


def test_stdin_input(motzkin_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(poly_dumps(MOTZKIN)))
    code = cli.main(["bound", "-", "--json"])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_error_exit_on_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["bound", str(bad)])
    assert code == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_error_exit_on_missing_file(capsys):
    code = cli.main(["bound", "/nonexistent/nope.json"])
    assert code == cli.EXIT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "{poly}", "--delta-round", "1e-5"], "unrecognized arguments: --delta-round"),
        (["certify", "{poly}", "--margin", "1e-4"], "unrecognized arguments: --margin"),
        (["certify", "{poly}", "--delta-socp", "1e-8"], "unrecognized arguments: --delta-socp"),
        (["verify", "{poly}"], "the following arguments are required: certificate"),
        # the polynomial would take all of stdin and leave no certificate
        (["verify", "-", "-"], "the polynomial (input) and the certificate cannot both be read from stdin"),
    ],
    ids=["removed-option", "removed-margin", "removed-delta-socp", "missing-argument", "stdin-twice"],
)
def test_usage_error_exits_1(motzkin_file, capsys, argv, message):
    # exit 2 would read as a boundary failure
    code = cli.main([arg.format(poly=motzkin_file) for arg in argv])
    assert code == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_help_exits_0(capsys):
    assert cli.main(["certify", "--help"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "--delta-round" not in out
    assert "--margin" not in out
    assert "--delta-socp" not in out


# each damage of the Motzkin certificate with the field its error names
MALFORMED = {
    "group-without-triples": (lambda data: data["circuits"][0].pop("triples"), "triples"),
    "triple-without-b": (lambda data: data["circuits"][0]["triples"][0].pop("b"), "'b'"),
    "zero-denominator": (lambda data: data["circuits"][0]["triples"][0]["u"][0].__setitem__(1, "0"), "denominator"),
    "circuits-not-a-list": (lambda data: data.__setitem__("circuits", 5), "'circuits'"),
    "n-null": (lambda data: data.__setitem__("n", None), "'n'"),
    "coordinate-null": (lambda data: data["circuits"][0]["triples"][0]["u"].__setitem__(0, [1, None]), "coordinate"),
    "passthrough-exp-not-a-list": (lambda data: data.__setitem__("passthrough", [{"exp": 5, "coef": "1"}]), "'exp'"),
    "huge-decimal-exponent": (
        lambda data: data["circuits"][0]["triples"][0].__setitem__("a", "1e100000"),
        "exponent",
    ),
    # a string replaces the whole file
    "nested-too-deeply": ("[" * 200_000, "nested too deeply"),
}


def _damaged_certificate(motzkin_file, tmp_path, capsys, damage):
    cert_path = tmp_path / "cert.json"
    assert cli.main(["certify", motzkin_file, "-o", str(cert_path)]) == cli.EXIT_OK
    capsys.readouterr()
    data = json.loads(cert_path.read_text())
    if isinstance(damage, str):
        cert_path.write_text(damage)
    else:
        damage(data)
        cert_path.write_text(json.dumps(data))
    return cert_path


@pytest.mark.parametrize("damage, field", list(MALFORMED.values()), ids=list(MALFORMED))
def test_verify_malformed_certificate_exits_1(motzkin_file, tmp_path, capsys, damage, field):
    cert_path = _damaged_certificate(motzkin_file, tmp_path, capsys, damage)
    code = cli.main(["verify", motzkin_file, str(cert_path)])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]


@pytest.mark.parametrize("damage, field", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_certificate_is_refused_alike_at_every_read_size(motzkin_file, tmp_path, capsys, damage, field):
    text = _damaged_certificate(motzkin_file, tmp_path, capsys, damage).read_text()
    refusals = set()
    for read in (1, 2, 7, 64, 1 << 20):
        with mock.patch.object(verify, "_READ", read), pytest.raises(ValueError) as refused:
            Certificate.loads(io.StringIO(text))
        refusals.add(str(refused.value))
    (refusal,) = refusals
    assert field in refusal


def test_verify_reads_the_certificate_from_stdin(motzkin_file, tmp_path, capsys, monkeypatch):
    cert_path = tmp_path / "cert.json"
    assert cli.main(["certify", motzkin_file, "-o", str(cert_path)]) == cli.EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(cert_path.read_text()))
    assert cli.main(["verify", motzkin_file, "-", "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"ok": True, "reason": "ok"}


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_unbounded_bound_json_is_strict_json(tmp_path, capsys, batch):
    # RFC 8259 has no token for -inf
    path = tmp_path / "unbounded.json"
    path.write_text(poly_dumps(UNBOUNDED))

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    argv = ["--batch"] if batch else ["--json"]
    assert cli.main(["bound", str(path), *argv]) == cli.EXIT_OK
    (line,) = capsys.readouterr().out.splitlines()
    report = json.loads(line, parse_constant=reject)
    assert report["status"] == "ok"
    assert report["xi"] is None
    assert report["reason"] == "no finite bound exists for this support"


def test_unbounded_bound_text_reports_minus_infinity(tmp_path, capsys):
    path = tmp_path / "unbounded.json"
    path.write_text(poly_dumps(UNBOUNDED))
    assert cli.main(["bound", str(path)]) == cli.EXIT_OK
    pairs = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert pairs["xi"] == "-inf"
