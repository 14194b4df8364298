"""Tests for rounding, projection, and exact certificates."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import soncert.certify
from soncert.certify import (
    MAX_GRID_BITS,
    MIN_GRID_BITS,
    BoundaryFailure,
    Certificate,
    CertTriple,
    _strictly_inside,
    exact_sobs,
    grid_bits,
    project_slots,
    verify_certificate,
)
from soncert.cover import simplex_cover
from soncert.generate import random_instance
from soncert.polyring import SparsePoly, poly_sha256
from soncert.socp import SocpProblem, assemble, build_plan, lower_bound, pn_companion, solve_problem
from soncert.verify import VerifyResult, check_cone

from conftest import project_fractions

MOTZKIN = SparsePoly(2, {(4, 2): 1, (2, 4): 1, (0, 0): 1, (2, 2): -3})
EX6 = SparsePoly(
    2, {(0, 0): 1, (4, 0): 1, (0, 4): 1, (1, 2): -1, (2, 1): -1, (1, 1): 5}
)


def check_cone_strict(a: Fraction, b: Fraction, c: Fraction) -> bool:
    # the certifier's strict check on integers, for Fractions
    return _strictly_inside(a.numerator, a.denominator, b.numerator, b.denominator, c.numerator, c.denominator)


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
        fixed = project_fractions(problem, slots)
        sums = [Fraction(0)] * problem.num_rows
        for row, col, coef in problem.entries:
            sums[row] += coef * fixed[col]
        assert tuple(sums) == problem.rhs_exact
        assert project_fractions(problem, fixed) == fixed


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


@pytest.mark.parametrize("constant", ["5", "-7/3", "0"])
def test_constant_polynomial_is_its_own_bound(constant):
    terms = {(0,): Fraction(constant)} if constant != "0" else {}
    f = SparsePoly(1, terms)
    assert lower_bound(f).xi == float(Fraction(constant))
    cert = exact_sobs(f)
    assert cert.xi == Fraction(constant) and cert.circuits == () and cert.passthrough == ()
    assert verify_certificate(f, cert).ok
    # the verifier answers with a reason, not a traceback
    assert verify_certificate(f, exact_sobs(f, xi=Fraction(constant) - 1)).ok
    low = Certificate(n=1, xi=Fraction(constant) + 1, poly_sha256=poly_sha256(f), circuits=(), passthrough=())
    assert verify_certificate(f, low) == VerifyResult(False, "reconstruction-mismatch")
    with pytest.raises(BoundaryFailure):
        exact_sobs(f, xi=Fraction(constant) + 1)


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


def _hand_made_problem(entries, rhs):
    return SocpProblem(
        plan=None, mode="feasibility", n=1, constant=Fraction(0), xi=Fraction(0),
        row_points=((Fraction(0),),) * len(rhs), rhs_exact=tuple(map(Fraction, rhs)),
        entries=tuple(entries), objective=(0,) * len(entries),
    )


def _cones(*cones):
    # one row per slot, with the coefficients 2, 1, -2 of assemble, so every
    # x projects to the cones themselves
    coefs = [2, 1, -2] * len(cones)
    values = [Fraction(v) for cone in cones for v in cone]
    entries = [(i, i, coef) for i, coef in enumerate(coefs)]
    return _hand_made_problem(entries, [coef * v for coef, v in zip(coefs, values)])


def test_grid_bits_rule():
    zeros = [0.0] * 6
    # room (2ab - c^2) / (3(a + b + |c|)) of the tight cone is 2^-24 / (3 (1 + 2^-25)),
    # so k = ceil(24 + log2 3 + log2(1 + 2^-25)) = 26; the roomy cone has 1/3
    assert grid_bits(_cones((1, 1, 0), (Fraction(1, 2**25), 1, 0)), zeros) == 26
    assert grid_bits(_cones((1, 1, 0), (1, 1, 1)), zeros) == MIN_GRID_BITS
    assert grid_bits(_cones((1, 1, 0), (0, 0, 0)), zeros) == MAX_GRID_BITS
    assert grid_bits(_cones((1, 1, 0), (1, 1, 2)), zeros) == MAX_GRID_BITS
    # the room is measured after spreading each row's residual: row 0 reads
    # 2a + b = 2, so x = (0.75, 1.5, c) projects to (0.5, 1, c); with
    # c = 1 - 2^-30 the projected cone has 2ab - c^2 = 2^-29 and room
    # 2^-29 / (7.5 - 3 * 2^-30), so k = 32, where x itself would give 17
    c = 1 - 2.0**-30
    shared = _hand_made_problem([(0, 0, 2), (0, 1, 1), (1, 2, -2)], [2, -2 * Fraction(c)])
    assert grid_bits(shared, [0.75, 1.5, c]) == 32
    assert grid_bits(shared, [0.5, 1.0, c]) == 32


SEED_504 = random_instance(
    n=3, degree=6, terms=10, poly_class="standard-simplex", interior=True, seed=504
).poly


@pytest.mark.parametrize("poly", [SEED_504, MOTZKIN], ids=["seed-504", "motzkin"])
def test_one_rounding_per_certificate(monkeypatch, poly):
    # Seed 504's solution misses a cone when rounded on the 2^-17 grid.
    solutions, problems = [], []

    def recording_solve(*args, **kwargs):
        solutions.append(solve_problem(*args, **kwargs))
        return solutions[-1]

    def recording_project(problem, nums, den):
        problems.append(problem)
        return project_slots(problem, nums, den)

    monkeypatch.setattr(soncert.certify, "solve_problem", recording_solve)
    monkeypatch.setattr(soncert.certify, "project_slots", recording_project)
    cert = exact_sobs(poly)
    assert verify_certificate(poly, cert).ok
    assert len(solutions) == 1 and len(problems) == 1

    k = grid_bits(problems[0], solutions[0].x)
    assert 17 <= k <= 52
    rounded = project_fractions(problems[0], [Fraction(round(s * 2**k), 2**k) for s in solutions[0].x])
    assert [v for t in cert.triples for v in (t.a, t.b, t.c)] == rounded


# The first item of acceptance criterion 7 and the two-circuit instance of
# criterion 10.
C7_FIRST = random_instance(
    n=4, degree=10, terms=32, poly_class="standard-simplex", interior=True, seed=70_000
).poly
TWO_CIRCUIT = SparsePoly(
    2, {(4, 4): 50, (4, 0): 1, (0, 4): 3, (0, 0): 800, (1, 2): -100, (2, 1): -100}
)


def _solved_modes(monkeypatch, poly, **kwargs):
    """Certify poly, recording the mode of every problem exact_sobs solves."""

    modes = []

    def recording_solve(problem, **kw):
        modes.append(problem.mode)
        return solve_problem(problem, **kw)

    monkeypatch.setattr(soncert.certify, "solve_problem", recording_solve)
    cert = exact_sobs(poly, **kwargs)
    assert verify_certificate(poly, cert).ok
    return cert, modes


def test_certify_with_one_solve(monkeypatch):
    cert, modes = _solved_modes(monkeypatch, C7_FIRST)
    assert modes == ["bound"]
    bound = lower_bound(C7_FIRST).xi
    assert abs(float(cert.xi) - bound) <= 1e-4 * (1 + abs(bound))


def test_tight_cone_falls_back_to_the_feasibility_solve(monkeypatch):
    # EX6's scaled bound solve rounds to a point with a cone outside; the
    # fallback certifies 1e-4 * (1 + |bound|) below the numeric bound
    cert, modes = _solved_modes(monkeypatch, EX6)
    assert modes == ["bound", "feasibility"]
    assert cert.xi.denominator <= 2**MIN_GRID_BITS
    assert -6.9174 < float(cert.xi) < -6.9172


@pytest.mark.parametrize("odd_mode", [False, True], ids=["default", "odd"])
def test_two_circuit_certifies(monkeypatch, odd_mode):
    cert, modes = _solved_modes(monkeypatch, TWO_CIRCUIT, odd_mode=odd_mode)
    assert modes == (["bound"] if odd_mode else ["bound", "feasibility"])
    assert 410.42 < float(cert.xi) < 410.4624


def test_reconstruction_check_raises(monkeypatch):
    # doubled slots stay strictly inside the cones but no longer match the
    # rows; a plain raise, not an assert, so it also holds under python -O
    def doubled(problem, nums, den):
        p, q = project_slots(problem, nums, den)
        return [2 * x for x in p], q

    monkeypatch.setattr(soncert.certify, "project_slots", doubled)
    with pytest.raises(RuntimeError, match="do not reconstruct"):
        exact_sobs(MOTZKIN, xi=Fraction(-1, 100))
