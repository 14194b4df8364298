"""Tests for rounding, projection, and exact certificates."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import soncert.certify
import soncert.ipm
from soncert.certify import (
    BoundaryFailure,
    Certificate,
    CertTriple,
    check_cone,
    check_cone_strict,
    exact_sobs,
    project_slots,
    round_to_rational,
    verify_certificate,
)
from soncert.cover import simplex_cover
from soncert.generate import random_instance
from soncert.polyring import SparsePoly, poly_sha256
from soncert.socp import assemble, build_plan, pn_companion, solve_problem

MOTZKIN = SparsePoly(2, {(4, 2): 1, (2, 4): 1, (0, 0): 1, (2, 2): -3})
EX6 = SparsePoly(
    2, {(0, 0): 1, (4, 0): 1, (0, 4): 1, (1, 2): -1, (2, 1): -1, (1, 1): 5}
)


def test_round_to_rational_goldens():
    assert round_to_rational(0.333333, 2**-10) == Fraction(341, 1024)
    assert round_to_rational(1.0000001, 1e-5) == 1
    assert round_to_rational(-0.5, 1e-5) == Fraction(-1, 2)
    assert round_to_rational(2.7, 1.0) == 3
    with pytest.raises(ValueError):
        round_to_rational(1.0, 0.0)


def test_cone_checks():
    assert check_cone(Fraction(1, 2), Fraction(1), Fraction(1))  # boundary
    assert not check_cone_strict(Fraction(1, 2), Fraction(1), Fraction(1))
    assert check_cone_strict(Fraction(1), Fraction(1), Fraction(1))
    assert check_cone_strict(Fraction(0), Fraction(5), Fraction(0))  # pure square
    assert not check_cone(Fraction(-1), Fraction(1), Fraction(0))
    assert not check_cone_strict(Fraction(1), Fraction(1), Fraction(0) * 0 + 2)


def _motzkin_problem(xi=0):
    cover = simplex_cover([(0, 0), (4, 2), (2, 4)], [(2, 2)])
    plan = build_plan(cover)
    return assemble(plan, pn_companion(MOTZKIN), mode="feasibility", xi=xi)


def test_projection_exact_and_idempotent():
    problem = _motzkin_problem()
    rng = random.Random(5)
    for _ in range(50):
        slots = [
            Fraction(rng.randint(-4000, 4000), rng.choice([1, 2, 4, 8, 1024]))
            for _ in range(problem.num_slots)
        ]
        fixed = project_slots(problem, slots)
        sums = [Fraction(0)] * problem.num_rows
        for row, col, coef in problem.entries:
            sums[row] += coef * fixed[col]
        assert tuple(sums) == problem.rhs_exact
        assert project_slots(problem, fixed) == fixed


def test_motzkin_certificate_default_mode():
    cert = exact_sobs(MOTZKIN)
    assert verify_certificate(MOTZKIN, cert).ok
    assert -2e-4 < float(cert.xi) < 0
    for t in cert.triples:
        assert check_cone_strict(t.a, t.b, t.c)


def test_motzkin_certificate_odd_mode():
    cert = exact_sobs(MOTZKIN, odd_mode=True)
    assert verify_certificate(MOTZKIN, cert).ok
    assert len(cert.triples) == 5
    dens = {x.denominator for t in cert.triples for pt in (t.u, t.v, t.w) for x in pt}
    assert dens <= {1, 3} and 3 in dens


def test_boundary_failure_at_exact_bound():
    with pytest.raises(BoundaryFailure):
        exact_sobs(MOTZKIN, xi=0)


def test_certificate_at_interior_bound():
    cert = exact_sobs(MOTZKIN, xi=Fraction(-1, 100))
    assert cert.xi == Fraction(-1, 100)
    assert verify_certificate(MOTZKIN, cert).ok


def test_certificate_infeasible_bound():
    # above the true minimum -6.9165... even the numeric stage must refuse
    with pytest.raises(BoundaryFailure):
        exact_sobs(EX6, xi=0)


def test_trivial_certificate_no_interior_points():
    f = SparsePoly(2, {(0, 0): -3, (2, 0): 1, (2, 2): 4})
    cert = exact_sobs(f)
    assert cert.xi == -3 and cert.circuits == ()
    assert verify_certificate(f, cert).ok
    higher = exact_sobs(f, xi=-4)
    assert verify_certificate(f, higher).ok
    with pytest.raises(BoundaryFailure):
        exact_sobs(f, xi=-2)


def test_certificate_json_roundtrip_and_tamper():
    cert = exact_sobs(MOTZKIN)
    again = Certificate.loads(cert.dumps())
    assert again == cert
    # tampering with a slot value must flip reconstruction or cone checks
    data = cert.to_json()
    data["circuits"][0]["triples"][0]["a"] = "7/3"
    bad = Certificate.from_json(data)
    assert not verify_certificate(MOTZKIN, bad).ok


def test_verify_reason_codes():
    cert = exact_sobs(MOTZKIN)
    other = SparsePoly(2, {(4, 2): 1, (2, 4): 1, (0, 0): 2, (2, 2): -3})
    assert verify_certificate(other, cert).reason == "hash-mismatch"

    t = cert.triples[0]
    broken = Certificate(
        n=2,
        xi=cert.xi,
        poly_sha256=cert.poly_sha256,
        circuits=((CertTriple(u=t.v, v=t.v, w=t.w, a=t.a, b=t.b, c=t.c),),),
        passthrough=(),
    )
    assert verify_certificate(MOTZKIN, broken).reason == "bad-midpoint"

    negative = Certificate(
        n=2,
        xi=cert.xi,
        poly_sha256=cert.poly_sha256,
        circuits=((CertTriple(u=t.u, v=t.v, w=t.w, a=-t.a, b=t.b, c=t.c),),),
        passthrough=(),
    )
    assert verify_certificate(MOTZKIN, negative).reason == "cone-violation"

    odd_exp = Certificate(
        n=2,
        xi=cert.xi,
        poly_sha256=cert.poly_sha256,
        circuits=(),
        passthrough=(((1, 0), Fraction(1)),),
    )
    assert verify_certificate(MOTZKIN, odd_exp).reason == "bad-passthrough"

    wrong_xi = Certificate(
        n=2,
        xi=cert.xi - 1,
        poly_sha256=cert.poly_sha256,
        circuits=cert.circuits,
        passthrough=cert.passthrough,
    )
    assert verify_certificate(MOTZKIN, wrong_xi).reason == "reconstruction-mismatch"


def test_hand_built_certificate_verifies():
    # decomposition of the Motzkin form at bound 0 into three boundary
    # triples along the diagonal mediated chain
    def pt(*xs):
        return tuple(Fraction(x) for x in xs)

    triples = (
        CertTriple(pt(1, 1), pt(0, 0), pt(2, 2), Fraction(1, 2), Fraction(1), Fraction(1)),
        CertTriple(pt(2, 2), pt(1, 1), pt(3, 3), Fraction(1), Fraction(2), Fraction(2)),
        CertTriple(pt(3, 3), pt(2, 4), pt(4, 2), Fraction(1, 2), Fraction(1), Fraction(1)),
    )
    cert = Certificate(
        n=2,
        xi=Fraction(0),
        poly_sha256=poly_sha256(MOTZKIN),
        circuits=(triples,),
        passthrough=(),
    )
    assert verify_certificate(MOTZKIN, cert).ok


def test_random_instances_certify_and_verify():
    rng = random.Random(31)
    for trial in range(8):
        n = rng.randint(1, 3)
        inst = random_instance(
            n=n,
            degree=rng.choice([4, 6]),
            terms=rng.randint(n + 3, 10),
            poly_class="standard-simplex",
            interior=True,
            seed=500 + trial,
        )
        cert = exact_sobs(inst.poly)
        assert verify_certificate(inst.poly, cert).ok
        # soundness spot check
        scale = max(abs(float(c)) for c in inst.poly.terms.values())
        for _ in range(100):
            x = [rng.uniform(-2, 2) for _ in range(n)]
            val = sum(
                float(c) * math.prod(xi**e for xi, e in zip(x, exp))
                for exp, c in inst.poly.terms.items()
            )
            assert val - float(cert.xi) >= -1e-9 * (1 + scale)


def test_retry_rounds_the_same_solution_finer(monkeypatch):
    # Seed 504's first rounding fails, so the retry on the finer grid runs.
    poly = random_instance(
        n=3, degree=6, terms=10, poly_class="standard-simplex", interior=True, seed=504
    ).poly
    problems, solutions = [], []
    steps = [0]
    nt_scaling = soncert.ipm.nt_scaling

    def counting_nt_scaling(x, z):
        steps[0] += 1  # one call per interior-point step
        return nt_scaling(x, z)

    def recording_assemble(*args, **kwargs):
        problems.append(assemble(*args, **kwargs))
        return problems[-1]

    def recording_solve(*args, **kwargs):
        # Counts only the feasibility steps: the bound solve calls
        # soncert.socp.solve_problem, not this name.
        with monkeypatch.context() as patch:
            patch.setattr(soncert.ipm, "nt_scaling", counting_nt_scaling)
            solutions.append(solve_problem(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(soncert.certify, "assemble", recording_assemble)
    monkeypatch.setattr(soncert.certify, "solve_problem", recording_solve)
    cert = exact_sobs(poly)
    assert verify_certificate(poly, cert).ok
    assert len(problems) == 1 and len(solutions) == 1

    feasibility_steps = steps[0]
    steps[0] = 0
    with monkeypatch.context() as patch:
        patch.setattr(soncert.ipm, "nt_scaling", counting_nt_scaling)
        fresh = solve_problem(problems[0], delta=1e-8)
    assert feasibility_steps == steps[0]
    # the first rounding misses a cone, the finer one of the same x is the certificate
    coarse = project_slots(problems[0], [round_to_rational(s, 1e-5) for s in fresh.x])
    assert not all(check_cone_strict(*coarse[i : i + 3]) for i in range(0, len(coarse), 3))
    finer = project_slots(problems[0], [round_to_rational(s, 1e-5 / 2**10) for s in fresh.x])
    assert [v for t in cert.triples for v in (t.a, t.b, t.c)] == finer


def test_reconstruction_check_raises(monkeypatch):
    # doubled slots stay strictly inside the cones but no longer match the
    # rows; a plain raise, not an assert, so it also holds under python -O
    def doubled(problem, slots):
        return [2 * s for s in project_slots(problem, slots)]

    monkeypatch.setattr(soncert.certify, "project_slots", doubled)
    with pytest.raises(RuntimeError, match="do not reconstruct"):
        exact_sobs(MOTZKIN, xi=Fraction(-1, 100))
