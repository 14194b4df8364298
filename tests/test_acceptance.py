"""Acceptance checks: ten pinned criteria with frozen tolerances.

Each test prints one `criterion NN: PASS/FAIL` line directly to the
terminal so a full run reads as a scoreboard.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from soncert import cli
from soncert.certify import (
    BoundaryFailure,
    Certificate,
    exact_sobs,
    verify_certificate,
)
from soncert.cover import simplex_cover, support_partition
from soncert.generate import POLY_CLASSES, random_instance
from soncert.mediated import fraction_points, med_seq
from soncert.polyring import SparsePoly, poly_sha256
from soncert.socp import assemble, build_plan, pn_companion, lower_bound
from conftest import project_fractions
from oracles import CertTriple, brute_min_med_seq, cones_of, point_triples, triples_of

MOTZKIN = SparsePoly(2, {(4, 2): 1, (2, 4): 1, (0, 0): 1, (2, 2): -3})
REPORTED = SparsePoly(
    2, {(0, 0): 1, (4, 0): 1, (0, 4): 1, (1, 2): -1, (2, 1): -1, (1, 1): 5}
)
TWO_CIRCUIT = SparsePoly(
    2,
    {(4, 4): 50, (4, 0): 1, (0, 4): 3, (0, 0): 800, (1, 2): -100, (2, 1): -100},
)


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, detail


def _eval_terms(poly: SparsePoly, points: np.ndarray) -> np.ndarray:
    vals = np.zeros(points.shape[0])
    for exp, coef in poly.terms.items():
        term = np.full(points.shape[0], float(coef))
        for i, e in enumerate(exp):
            if e:
                term *= points[:, i] ** e
        vals += term
    return vals


def test_criterion_01_reported_lower_bound(tmp_path, capsys):
    # xi_socp = -6.9165 +/- 1e-3 through the CLI, in under a second
    from soncert.polyring import poly_dumps

    path = tmp_path / "poly.json"
    path.write_text(poly_dumps(REPORTED))
    t0 = time.perf_counter()
    code = cli.main(["bound", str(path), "--json"])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    ok = code == 0 and abs(out["xi"] - (-6.9165)) <= 1e-3 and elapsed < 1.0
    _report(1, ok, f"xi={out['xi']:.6f}, {elapsed:.2f}s")


def test_criterion_02_transcribed_decompositions():
    # (a) the known three-binomial-square decomposition at bound 0
    def pt(*xs):
        return tuple(Fraction(x) for x in xs)

    triples = (
        CertTriple(pt(3, 2), pt(4, 2), pt(2, 2), Fraction(1, 2), Fraction(1), Fraction(1)),
        CertTriple(pt(2, 2), pt(3, 2), pt(1, 2), Fraction(1), Fraction(2), Fraction(2)),
        CertTriple(pt(1, 2), pt(2, 4), pt(0, 0), Fraction(1, 2), Fraction(1), Fraction(1)),
    )
    cert = Certificate(
        n=2,
        xi=Fraction(0),
        poly_sha256=poly_sha256(MOTZKIN),
        cones=cones_of((triples,)),
        passthrough=(),
    )
    check = verify_certificate(MOTZKIN, cert)

    # (b) the odd-denominator plan: five triples, denominators in {1, 3}
    cover = simplex_cover([(0, 0), (4, 2), (2, 4)], [(2, 2)])
    plan = build_plan(cover, odd_mode=True)
    view = fraction_points(plan.points, plan.den)
    dens = {
        x.denominator for group in point_triples(plan) for trip in group for ptx in trip for x in view[ptx]
    }
    ok = (
        check.ok
        and len(triples_of(cert)) == 3
        and plan.num_triples == 5
        and plan.max_denominator == 3
        and dens <= {1, 3}
        and 3 in dens
    )
    _report(2, ok, f"verify={check.reason}, odd triples={plan.num_triples}, dens={sorted(dens)}")


def test_criterion_03_exact_rational_feasible_point():
    # the assembled equality system accepts a fully rational solution
    cover = simplex_cover([(0, 0), (4, 2), (2, 4)], [(2, 2)])
    plan = build_plan(cover)
    problem = assemble(plan, pn_companion(MOTZKIN), xi=0)
    triples = [t for group in point_triples(plan) for t in group]
    order = sorted(range(3), key=lambda t: triples[t][0])
    exact = [
        (Fraction(1, 2), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(2)),
        (Fraction(1, 2), Fraction(1), Fraction(1)),
    ]
    slots = [Fraction(0)] * len(problem.objective)
    for pos, t in enumerate(order):
        slots[3 * t], slots[3 * t + 1], slots[3 * t + 2] = exact[pos]
    sums = [Fraction(0)] * problem.num_rows
    for row, col, coef in problem.entries:
        sums[row] += coef * slots[col]
    rows_ok = tuple(sums) == problem.rhs_exact and problem.num_rows == 6
    cones_ok = all(
        slots[3 * t] >= 0
        and slots[3 * t + 1] >= 0
        and 2 * slots[3 * t] * slots[3 * t + 1] >= slots[3 * t + 2] ** 2
        for t in range(3)
    )
    a_vec = tuple(slots[3 * order[p]] for p in range(3))
    ok = rows_ok and cones_ok and a_vec == (Fraction(1, 2), Fraction(1), Fraction(1, 2))
    _report(3, ok, f"rows={problem.num_rows}, a={a_vec}")


def test_criterion_04_mediated_sequence_size_law():
    t0 = time.perf_counter()
    rng = random.Random(41)
    worst = 0.0
    for _ in range(10_000):
        p = rng.randint(2, 10**6)
        q = rng.randint(1, p - 1)
        if gcd(p, q) != 1:
            q = 1
        size = len(med_seq(p, q))
        cap = 0.5 * (math.log2(p) + 1.5) ** 2
        worst = max(worst, size / cap)
        if size >= cap:
            _report(4, False, f"size {size} >= cap {cap:.1f} at (p={p}, q={q})")
    brute_ok = all(
        len(brute_min_med_seq(p, 1)) == math.ceil(math.log2(p)) + 2
        for p in range(2, 65)
    )
    eleven_two = len(brute_min_med_seq(11, 2))
    elapsed = time.perf_counter() - t0
    ok = brute_ok and eleven_two == 6 and elapsed < 60.0
    _report(4, ok, f"worst size/cap={worst:.3f}, brute(11,2)={eleven_two}, {elapsed:.1f}s")


def test_criterion_05_average_sequence_cardinality():
    t0 = time.perf_counter()
    means = {}
    for p in (10, 100):
        qs = [q for q in range(1, p) if gcd(p, q) == 1]
        means[p] = Fraction(sum(len(med_seq(p, q)) for q in qs), len(qs))
    elapsed = time.perf_counter() - t0
    ok = (
        means[10] == 4
        and abs(float(means[100]) - 8.4) <= 0.05
        and elapsed < 10.0
    )
    _report(5, ok, f"mean(10)={float(means[10])}, mean(100)={float(means[100])}, {elapsed:.2f}s")


def test_criterion_06_plan_size_and_denominator_bounds():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    for i in range(200):
        cls = POLY_CLASSES[i % 3]
        n_req = rng.randint(1, 10)
        d_req = rng.choice([4, 10, 20, 30])
        t_req = rng.randint(n_req + 6, 50)
        inst = random_instance(
            n=n_req, degree=d_req, terms=t_req, poly_class=cls, seed=60_000 + i
        )
        poly = inst.poly
        n, d, t = poly.n, poly.degree(), len(poly.terms)
        split = support_partition(poly)
        cover = simplex_cover(list(split.lambda_set), list(split.gamma_set))
        plan = build_plan(cover)
        denom_cap = (1 + n * d * d) ** (n + 1)
        size_cap = t * n * ((n + 1) * math.log2(1 + n * d * d) + 3) ** 2 / 8
        if plan.max_denominator > denom_cap:
            _report(6, False, f"denominator {plan.max_denominator} > cap at seed {60_000 + i}")
        if not plan.num_triples < size_cap:
            _report(6, False, f"{plan.num_triples} triples >= cap {size_cap:.0f} at seed {60_000 + i}")
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and elapsed < 120.0
    _report(6, ok, f"{checked} instances, {elapsed:.1f}s")


def test_criterion_07_certify_verify_and_sample(tmp_path, capsys):
    rng = random.Random(7)
    sampler = np.random.default_rng(7)
    worst_time = 0.0
    worst_gap = 0.0
    for i in range(50):
        n = (4, 8)[i % 2]
        d = (10, 20)[(i // 2) % 2]
        t = rng.randint(n + 8, 50)
        inst = random_instance(
            n=n, degree=d, terms=t, poly_class="standard-simplex",
            interior=True, seed=70_000 + i,
        )
        poly_path = tmp_path / f"poly{i}.json"
        cert_path = tmp_path / f"cert{i}.json"
        from soncert.polyring import poly_dumps

        poly_path.write_text(poly_dumps(inst.poly))
        t0 = time.perf_counter()
        code = cli.main(["certify", str(poly_path), "-o", str(cert_path)])
        if code != 0:
            _report(7, False, f"certify exit {code} at seed {70_000 + i}")
        if cli.main(["verify", str(poly_path), str(cert_path)]) != 0:
            _report(7, False, f"verify rejected at seed {70_000 + i}")
        capsys.readouterr()
        cert = Certificate.loads(cert_path.read_text())
        xi = float(cert.xi)
        scale = max(abs(float(c)) for c in inst.poly.terms.values())
        points = sampler.uniform(-2.0, 2.0, size=(100_000, n))
        vals = _eval_terms(inst.poly, points)
        gap = float((vals - xi).min())
        if gap < -1e-9 * scale:
            _report(7, False, f"sample dipped {gap} below xi at seed {70_000 + i}")
        worst_gap = min(worst_gap, gap / scale)
        worst_time = max(worst_time, time.perf_counter() - t0)
        if worst_time >= 30.0:
            _report(7, False, f"instance exceeded 30s at seed {70_000 + i}")
    _report(7, True, f"50 instances, worst {worst_time:.2f}s, min scaled gap {worst_gap:.2e}")


def test_criterion_08_projection_exact_and_idempotent():
    rng = random.Random(88)
    problems = []
    for k in range(25):
        n = rng.randint(1, 3)
        inst = random_instance(
            n=n, degree=rng.choice([4, 6]), terms=rng.randint(n + 4, 10),
            interior=bool(k % 2), seed=80_000 + k,
        )
        companion = pn_companion(inst.poly)
        split = support_partition(companion)
        cover = simplex_cover(list(split.lambda_set), list(split.gamma_set))
        plan = build_plan(cover)
        problems.append(
            assemble(plan, companion, xi=companion.constant() - 1)
        )
    fuzzed = 0
    for problem in problems:
        for _ in range(40):
            slots = [
                Fraction(rng.randint(-10**6, 10**6), rng.choice([1, 3, 7, 64, 4096]))
                for _ in range(len(problem.objective))
            ]
            fixed = project_fractions(problem, slots)
            sums = [Fraction(0)] * problem.num_rows
            for row, col, coef in problem.entries:
                sums[row] += coef * fixed[col]
            if tuple(sums) != problem.rhs_exact:
                _report(8, False, "nonzero residual after projection")
            if project_fractions(problem, fixed) != fixed:
                _report(8, False, "projection is not idempotent")
            fuzzed += 1
    _report(8, fuzzed == 1000, f"{fuzzed} projections exact")


def test_criterion_09_boundary_bound_never_certifies():
    try:
        exact_sobs(MOTZKIN, xi=0)
    except BoundaryFailure:
        _report(9, True, "boundary failure raised at xi=0")
        return
    _report(9, False, "produced a certificate at the unattainable bound")


def test_criterion_10_two_circuit_cover_nonnegative():
    lam = [(0, 0), (4, 0), (0, 4), (4, 4)]
    gam = [(1, 2), (2, 1)]
    cover = simplex_cover(lam, gam)
    by_beta = {c.beta: c for c in cover.circuits}
    structure_ok = (
        len(cover.circuits) == 2
        and cover.uncovered == ()
        and set(by_beta) == {(1, 2), (2, 1)}
        and by_beta[(2, 1)].trellis == ((0, 0), (4, 0), (4, 4))
        and by_beta[(1, 2)].trellis == ((0, 0), (0, 4), (4, 4))
    )
    result = lower_bound(TWO_CIRCUIT)
    ok = structure_ok and result.xi >= -1e-4
    _report(10, ok, f"circuits={len(cover.circuits)}, xi={result.xi:.4f}")
