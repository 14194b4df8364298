"""Command line front end: bound, certify, verify, gen.

Exit codes: 0 success, 2 boundary failure (no strict certificate at the
requested bound and precision, a conic system proven infeasible
included), 3 solver failure (numeric solve did not converge), 1 any
other error, a usage error included.  bound and certify run each
item, the one input or every --batch item, through one path: a work
function gives (report, certificate) and _emit prints it.  --batch treats
the input as a directory of .json files, or as JSON lines with one
polynomial per line, and fans the work out over a bounded process pool.
Every batch item gets its own JSON report (and, like a single item, an
"error:" line on stderr when its status is error), an item that fails does
not stop the others, and the exit code is the worst one seen.  A batch
writes no file: --batch with -o or --dump-socp is a usage error.

A certificate is written in the pieces Certificate.pieces gives, straight
to the -o file, to stdout, or into the --json line between its opening
'{"certificate": ' and the rest of the report; bound --dump-socp writes
the standard form with json.dump.  verify hands Certificate.loads the open
certificate file, or stdin for -, which it reads in pieces.  None of these
texts is held whole.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from typing import Any, Callable, Dict, List, Optional, Sequence

from .certify import BoundaryFailure, exact_sobs
from .cover import CoverInfeasible
from .generate import POLY_CLASSES, random_instance
from .polyring import SparsePoly, format_rational, parse_rational, poly_dumps, poly_loads
from .socp import SolverFailure, lower_bound
from .verify import Certificate, verify_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUNDARY = 2
EXIT_SOLVER = 3
_STATUS_EXIT = {"ok": EXIT_OK, "boundary-failure": EXIT_BOUNDARY, "solver-failure": EXIT_SOLVER}


@dataclass
class RunReport:
    """Machine-readable outcome of one CLI work item."""

    command: str
    status: str
    xi: Optional[float] = None
    exact_xi: Optional[str] = None
    iterations: Optional[int] = None
    num_triples: Optional[int] = None
    certificate_bits: Optional[int] = None
    reason: str = ""
    phases: Dict[str, float] = field(default_factory=dict)

    def lines(self) -> List[str]:
        out = [f"status={self.status}"]
        if self.xi is not None:
            out.append(f"xi={self.xi:.12g}")
        if self.exact_xi is not None:
            out.append(f"exact_xi={self.exact_xi}")
        if self.iterations is not None:
            out.append(f"iterations={self.iterations}")
        if self.num_triples is not None:
            out.append(f"num_triples={self.num_triples}")
        if self.certificate_bits is not None:
            out.append(f"certificate_bits={self.certificate_bits}")
        if self.reason:
            out.append(f"reason={self.reason}")
        for name, seconds in self.phases.items():
            out.append(f"time_{name}={seconds:.3f}")
        return out


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _batch_items(path: str) -> List[str]:
    """Batch work items: every .json file of a directory, or JSON lines."""
    if path != "-" and os.path.isdir(path):
        names = sorted(fn for fn in os.listdir(path) if fn.endswith(".json"))
        return [_read_text(os.path.join(path, fn)) for fn in names]
    return [ln for ln in _read_text(path).splitlines() if ln.strip()]


# The status of an item whose work raised; any other exception reaches main.
_FAILURE_STATUS = {
    BoundaryFailure: "boundary-failure",
    SolverFailure: "solver-failure",
    CoverInfeasible: "error",
    ValueError: "error",
}


def _attempt(report: RunReport, text: str, phase: str, solve: Callable[[SparsePoly], Any]) -> Any:
    """Parse text and solve it, timing both into report; None if it failed."""
    t0 = time.perf_counter()
    try:
        poly = poly_loads(text)
        report.phases["parse"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = solve(poly)
    except tuple(_FAILURE_STATUS) as err:
        report.status = next(s for kind, s in _FAILURE_STATUS.items() if isinstance(err, kind))
        report.reason = str(err)
        return None
    report.phases[phase] = time.perf_counter() - t0
    return result


def _bound_work(text: str, odd_mode: bool, dump: Optional[str]) -> tuple:
    report = RunReport(command="bound", status="ok")
    result = _attempt(report, text, "solve", lambda p: lower_bound(p, odd_mode=odd_mode))
    if result is None:
        return report, None
    report.xi = result.xi
    if result.xi == float("-inf"):
        report.reason = "no finite bound exists for this support"
    report.iterations = result.solution.iterations
    report.num_triples = result.problem.plan.num_triples
    if dump:
        with open(dump, "w", encoding="utf-8") as handle:
            result.problem.dump(handle)
    return report, None


def _certify_work(text: str, xi: Optional[str], odd_mode: bool) -> tuple:
    report = RunReport(command="certify", status="ok")
    cert = _attempt(report, text, "certify", lambda p: exact_sobs(p, xi=xi, odd_mode=odd_mode))
    # no self-check: every certificate exact_sobs returns has passed verify_certificate
    if cert is not None:
        report.xi = float(cert.xi)
        report.exact_xi = format_rational(cert.xi)
        report.num_triples = cert.num_triples
        report.certificate_bits = cert.bit_size
    return report, cert


def _emit(report: RunReport, cert: Optional[Certificate], as_json: bool, output: Optional[str]) -> int:
    """Write the certificate to output, print one item and return its exit code.

    As JSON the item is one line with the certificate inlined.  Otherwise
    the certificate goes to stdout unless written to output, and the report
    lines go to stdout, or to stderr when a certificate came with them.
    The certificate is written as Certificate.pieces gives it, wherever it
    goes, and never held as one string.
    """
    if cert is not None and output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.writelines(cert.pieces())
    if as_json:
        payload = asdict(report)
        if payload["xi"] is not None and not math.isfinite(payload["xi"]):
            # JSON has no infinities; the reason says why there is no bound
            payload["xi"] = None
        line = json.dumps(payload, sort_keys=True)
        if cert is None:
            print(line)
        else:
            # the line is json.dumps(payload, sort_keys=True), and
            # "certificate" sorts before every report field
            sys.stdout.writelines(chain(['{"certificate": '], cert.pieces(compact=True), [f", {line[1:]}\n"]))
    else:
        if cert is not None and not output:
            sys.stdout.writelines(cert.pieces())
            print()
        for line in report.lines():
            print(line, file=sys.stdout if cert is None else sys.stderr)
    if report.status == "error":
        print(f"error: {report.reason}", file=sys.stderr)
    return _STATUS_EXIT.get(report.status, EXIT_ERROR)


def _run(args, work: Callable[..., tuple], *params: Any) -> int:
    """Run work(text, *params) on the input, or on every --batch item in a
    process pool, emitting each item as JSON; return the worst exit code."""
    if not args.batch:
        report, cert = work(_read_text(args.input), *params)
        return _emit(report, cert, args.json, getattr(args, "output", None))
    # imported here: the pool's modules cost every other run 3.6 ms and 0.5 MB
    from concurrent.futures import ProcessPoolExecutor

    texts = _batch_items(args.input)
    worst = EXIT_OK
    with ProcessPoolExecutor() as pool:
        for report, cert in pool.map(work, texts, *(repeat(p, len(texts)) for p in params)):
            worst = max(worst, _emit(report, cert, True, None))
    return worst


def _cmd_bound(args) -> int:
    if args.batch and args.dump_socp:
        raise ValueError("--batch writes no standard form: --dump-socp cannot be combined with it")
    return _run(args, _bound_work, args.odd_mode, args.dump_socp)


def _cmd_certify(args) -> int:
    if args.batch and args.output:
        raise ValueError("--batch writes no certificate file: -o/--output cannot be combined with it")
    return _run(args, _certify_work, args.xi, args.odd_mode)


def _cmd_verify(args) -> int:
    if args.input == args.certificate == "-":
        raise ValueError("the polynomial (input) and the certificate cannot both be read from stdin (-)")
    poly = poly_loads(_read_text(args.input))
    if args.certificate == "-":
        cert = Certificate.loads(sys.stdin)
    else:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            cert = Certificate.loads(handle)
    result = verify_certificate(poly, cert)
    if args.json:
        print(json.dumps({"ok": result.ok, "reason": result.reason}, sort_keys=True))
    else:
        print(f"ok={'true' if result.ok else 'false'}")
        print(f"reason={result.reason}")
    return EXIT_OK if result.ok else EXIT_ERROR


def _cmd_gen(args) -> int:
    for i in range(args.count):
        seed = None if args.seed is None else args.seed + i
        inst = random_instance(
            n=args.n,
            degree=args.degree,
            terms=args.terms,
            poly_class=args.poly_class,
            interior=args.interior,
            seed=seed,
        )
        if args.json:
            meta = {
                "n": inst.n,
                "degree": inst.degree,
                "poly_class": inst.poly_class,
                "interior": inst.interior,
                "seed": inst.seed,
            }
            print(json.dumps({"poly": json.loads(poly_dumps(inst.poly)), "meta": meta}))
        else:
            print(poly_dumps(inst.poly))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soncert",
        description="Lower bounds and exact rational certificates for sparse polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    item = argparse.ArgumentParser(add_help=False)  # shared by bound and certify
    item.add_argument("input", help="polynomial JSON file, or - for stdin")
    item.add_argument("--odd-mode", action="store_true", help="odd-denominator mediated sets")
    item.add_argument("--json", action="store_true", help="machine-readable report")
    item.add_argument("--batch", action="store_true", help="input is a directory of .json files or JSON lines")

    bound = sub.add_parser("bound", parents=[item], help="compute the conic lower bound")
    bound.add_argument("--dump-socp", metavar="PATH", help="write the standard form as JSON")
    bound.set_defaults(func=_cmd_bound)

    certify = sub.add_parser("certify", parents=[item], help="produce an exact rational certificate")
    certify.add_argument("--xi", help="certify this exact rational bound instead of solving for one")
    certify.add_argument("-o", "--output", metavar="PATH", help="write the certificate here")
    certify.set_defaults(func=_cmd_certify)

    verify = sub.add_parser("verify", help="check a certificate exactly")
    verify.add_argument("input", help="polynomial JSON file, or - for stdin")
    verify.add_argument("certificate", help="certificate JSON file, or - for stdin")
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate benchmark instances")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--n", type=int, default=2, help="number of variables")
    gen.add_argument("--degree", type=int, default=8)
    gen.add_argument("--terms", type=int, default=12, help="term budget")
    gen.add_argument("--poly-class", choices=POLY_CLASSES, default="standard-simplex")
    gen.add_argument("--interior", action="store_true", help="add a unit constant for slack")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--json", action="store_true", help="wrap each instance with metadata")
    gen.set_defaults(func=_cmd_gen)
    return parser


# built once: parse_args leaves the parser as it found it
_PARSER = build_parser()


def _is_rational(token: str) -> bool:
    try:
        parse_rational(token)
    except ValueError:
        return False
    return True


def _join_xi(argv: Sequence[str]) -> List[str]:
    """Join --xi with a following rational, so that --xi -7/3, whose value
    argparse takes for an option, reads as --xi=-7/3."""
    out: List[str] = []
    for token in argv:
        if out and out[-1] == "--xi" and _is_rational(token):
            out[-1] = f"--xi={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(_join_xi(sys.argv[1:] if argv is None else argv))
    except SystemExit as done:  # argparse has printed the help, or the usage error
        return EXIT_OK if done.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
