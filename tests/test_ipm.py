"""Tests for the rotated-cone interior-point solver."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from soncert import ipm, socp
from soncert.ipm import (
    _ROTATION,
    ConeSolve,
    _KktSolver,
    _apply_w,
    _apply_winv,
    _cone_residual,
    _product,
    _rotated,
    _setup,
    cone_max_step,
    cone_points,
    jordan_product,
    jordan_solve,
    nt_scaling,
    solve_socp,
)
from soncert.generate import random_instance
from soncert.socp import lower_bound, solve_problem


def _interior_points(rng: np.random.Generator, count: int) -> np.ndarray:
    pts = np.empty((count, 3))
    for i in range(count):
        while True:
            v = rng.normal(size=3)
            v[0] = abs(v[0]) + 0.1
            if v[0] ** 2 - v[1] ** 2 - v[2] ** 2 > 0.05:
                pts[i] = v
                break
    return pts


def _scaling(x: np.ndarray, z: np.ndarray):
    # nt_scaling takes x stacked over z
    return nt_scaling(np.concatenate([x, z]))


def test_jordan_solve_roundtrip():
    rng = np.random.default_rng(11)
    s = _scaling(_interior_points(rng, 40), _interior_points(rng, 40))
    d = rng.normal(size=(40, 3))
    u = jordan_solve(s, d)
    assert np.allclose(jordan_product(s.lam, u), d, atol=1e-10)


def test_nt_scaling_maps_both_points_to_lambda():
    rng = np.random.default_rng(12)
    x = _interior_points(rng, 60)
    z = _interior_points(rng, 60)
    s = _scaling(x, z)
    assert np.allclose(_apply_w(s, z), s.lam, atol=1e-9)
    assert np.allclose(_apply_winv(s, x), s.lam, atol=1e-9)
    # lambda stays interior and W, W^-1 invert each other
    assert np.all(s.lam[:, 0] ** 2 - s.lam[:, 1] ** 2 - s.lam[:, 2] ** 2 > 0)
    probe = rng.normal(size=(60, 3))
    assert np.allclose(_apply_winv(s, _apply_w(s, probe)), probe, atol=1e-9)
    # the step lengths read the same points as cone_points of the stack
    d = rng.normal(size=(120, 3))
    assert cone_max_step(s.points, d) == cone_max_step(cone_points(np.concatenate([x, z])), d)


def test_cone_max_step_hits_boundary():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = _interior_points(rng, 3)
        d = rng.normal(size=(3, 3))
        alpha = cone_max_step(cone_points(p), d)
        if alpha > 1e12:
            continue
        inside = p + 0.999 * alpha * d
        outside = p + 1.001 * alpha * d
        res_in = inside[:, 0] ** 2 - inside[:, 1] ** 2 - inside[:, 2] ** 2
        assert np.all(res_in >= -1e-9) and np.all(inside[:, 0] >= -1e-9)
        res_out = outside[:, 0] ** 2 - outside[:, 1] ** 2 - outside[:, 2] ** 2
        assert np.min(np.minimum(res_out, outside[:, 0])) < 1e-9


def _scalar_cone_max_step(p: np.ndarray, d: np.ndarray) -> float:
    # Reference: the per-cone loop that cone_max_step vectorizes.
    aq = _cone_residual(d)
    bq = 2.0 * (p[:, 0] * d[:, 0] - p[:, 1] * d[:, 1] - p[:, 2] * d[:, 2])
    cq = _cone_residual(p)
    best = np.inf
    for a, b, c in zip(aq, bq, cq):
        disc = b * b - 4.0 * a * c
        down = a <= -1e-300
        if down and b >= 0.0:
            best = min(best, (-b - np.sqrt(max(disc, 0.0))) / (2.0 * a))
        elif (down or disc > 0.0) and b < 0.0:
            # the first root for every a, -c/b where a = 0, and the same
            # root as above where a < 0, free of its cancellation
            best = min(best, 2.0 * c / (-b + np.sqrt(max(disc, 0.0))))
    neg = d[:, 0] < 0.0
    if np.any(neg):
        best = min(best, float(np.min(-p[neg, 0] / d[neg, 0])))
    return float(best)


def test_cone_max_step_matches_scalar_loop_exactly():
    rng = np.random.default_rng(14)
    rows = 0
    while rows < 1000:
        count = int(rng.integers(1, 8))
        # points outside the cones too, on every other draw
        p = rng.normal(size=(count, 3)) if rows % 2 else _interior_points(rng, count)
        d = rng.normal(size=(count, 3)) * rng.choice([1e-3, 1.0, 1e3])
        assert cone_max_step(cone_points(p), d) == _scalar_cone_max_step(p, d)
        rows += count


def test_cone_max_step_crafted_rows():
    def quad(p, d):
        a = d[0] ** 2 - d[1] ** 2 - d[2] ** 2
        b = 2.0 * (p[0] * d[0] - p[1] * d[1] - p[2] * d[2])
        c = p[0] ** 2 - p[1] ** 2 - p[2] ** 2
        return a, b, b * b - 4.0 * a * c

    cases = [
        # (p, d, branch condition on (a, b, disc), expected step)
        ((2.0, 1.0, 0.0), (-1.0, -1.0, 0.0), lambda a, b, q: a == 0 and b < 0, 1.5),
        ((2.0, 1.0, 0.0), (1.0, 1.0, 0.0), lambda a, b, q: a == 0 and b >= 0, np.inf),
        ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), lambda a, b, q: a < 0 and q < 0, 0.0),
        ((1.0, 0.0, 0.0), (-1.0, 2.0, 0.0), lambda a, b, q: a < 0 and q > 0, 1.0 / 3.0),
        # nearly lightlike, a = -5.6e-17: (-b - sq)/(2a) cancels to -0.0
        # here, where the root is -c/b to 17 digits
        ((1.0, 0.0, 0.0), (-0.655, 0.655, 7.5e-9), lambda a, b, q: -1e-16 < a < 0 and b < 0, 1.0 / 1.31),
        # the upward quadratic only touches zero; the d0 < 0 clamp binds
        ((1.0, 0.0, 0.0), (-2.0, 0.0, 0.0), lambda a, b, q: a > 0 and q == 0, 0.5),
        ((1.0, 0.0, 0.0), (2.0, 0.0, 0.0), lambda a, b, q: a > 0 and q == 0, np.inf),
        ((1.0, 0.0, 0.0), (-1.0, 0.5, 0.0), lambda a, b, q: a > 0 and q > 0 and b < 0, 2.0 / 3.0),
        # nothing binds: the point moves deeper into the cone
        ((1.0, 0.5, 0.0), (1.0, 0.0, 0.0), lambda a, b, q: a > 0 and b > 0, np.inf),
    ]
    for p_row, d_row, branch, expected in cases:
        p = np.array([p_row])
        d = np.array([d_row])
        assert branch(*quad(p[0], d[0])), (p_row, d_row)
        step = cone_max_step(cone_points(p), d)
        assert step == _scalar_cone_max_step(p, d)
        assert np.isclose(step, expected, rtol=1e-15, atol=0.0), (p_row, d_row, step)
    # all rows at once: the smallest binding step wins
    p = np.array([c[0] for c in cases])
    d = np.array([c[1] for c in cases])
    assert cone_max_step(cone_points(p), d) == _scalar_cone_max_step(p, d) == 0.0


def _assert_same_solve(got: ConeSolve, want: ConeSolve) -> None:
    for f in dataclasses.fields(ConeSolve):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b or (a != a and b != b), (f.name, a, b)


# Motzkin's feasibility system at xi = -1/10^6: optimal at tol 1e-8, but the
# solve stalls short of 1e-10.
_STALL_ROWS = [0, 2, 1, 1, 4, 2, 3, 5, 4]
_STALL_VALS = [2.0, 1.0, -2.0, 2.0, 1.0, -2.0, 2.0, 1.0, -2.0]
_STALL_B = [1.000001, 0.0, -3.0, 1.0, 0.0, 1.0]


def test_stalled_solve_is_the_same_at_tighter_tolerances(monkeypatch):
    args = (_STALL_ROWS, list(range(9)), _STALL_VALS, _STALL_B, [0.0] * 9, 3)
    loose = solve_socp(*args)
    assert loose.status == "optimal"
    monkeypatch.setattr(ipm, "_TOL", 1e-10)
    stalled = solve_socp(*args)
    assert stalled.status == "max-iterations" and stalled.iterations > loose.iterations
    # the stall test does not depend on _TOL: a tighter solve stops at the same point
    monkeypatch.setattr(ipm, "_TOL", 1e-12)
    _assert_same_solve(stalled, solve_socp(*args))


def test_min_over_single_cone():
    # min c subject to 2a = 2, b = 3: optimum c = -sqrt(6)
    res = solve_socp([0, 1], [0, 1], [2.0, 1.0], [2.0, 3.0], [0.0, 0.0, 1.0], 1)
    assert res.status == "optimal"
    assert abs(res.objective + np.sqrt(6.0)) < 1e-6
    assert abs(res.x[0] - 1.0) < 1e-6 and abs(res.x[1] - 3.0) < 1e-6


def test_feasibility_interior_point():
    res = solve_socp([0, 1], [0, 1], [2.0, 1.0], [2.0, 3.0], [0.0, 0.0, 0.0], 1)
    assert res.status == "optimal"
    a, b, c = res.x
    assert res.residuals["primal"] <= 1e-7
    assert 2 * a * b - c * c > 1e-3 and a > 0 and b > 0


def test_infeasible_certificate():
    # rows force a = 0, b = 0, c = 1/2: empty intersection with the cone
    res = solve_socp(
        [0, 1, 2], [0, 1, 2], [2.0, 1.0, -2.0], [0.0, 0.0, 1.0], [0.0] * 3, 1
    )
    assert res.status == "infeasible"
    assert res.residuals["certificate"] == "primal"


def test_empty_problem():
    res = solve_socp([], [], [], [], [], 0)
    assert res.status == "optimal" and res.x.size == 0
    res2 = solve_socp([], [], [], [1.0], [], 0)
    assert res2.status == "infeasible"


def test_random_feasible_instances():
    rng = np.random.default_rng(99)
    pyrng = random.Random(99)
    for trial in range(25):
        cones = pyrng.randint(1, 6)
        m = pyrng.randint(1, 2 * cones)
        n = 3 * cones
        # plant a strictly feasible point
        xstar = np.empty(n)
        for k in range(cones):
            a = rng.uniform(0.5, 3.0)
            b = rng.uniform(0.5, 3.0)
            c = rng.uniform(-0.9, 0.9) * np.sqrt(2 * a * b)
            xstar[3 * k : 3 * k + 3] = (a, b, c)
        dense = rng.normal(size=(m, n))
        b_vec = dense @ xstar
        # plant a dual-feasible objective too, so the optimum is finite:
        # c = A'y + s with s in the cone gives b'y <= opt <= c'xstar
        ystar = rng.normal(size=m)
        sstar = np.empty(n)
        for k in range(cones):
            a = rng.uniform(0.2, 2.0)
            b = rng.uniform(0.2, 2.0)
            c = rng.uniform(-0.9, 0.9) * np.sqrt(2 * a * b)
            sstar[3 * k : 3 * k + 3] = (2 * b, 2 * a, -2 * c)
        c_vec = dense.T @ ystar + sstar
        rows, cols = np.nonzero(dense)
        res = solve_socp(rows, cols, dense[rows, cols], b_vec, c_vec, cones)
        assert res.status == "optimal", (trial, res.status, res.residuals)
        scale = 1.0 + float(np.max(np.abs(b_vec)))
        # the true residual of the returned x; residuals["primal"] is the
        # solver's estimate of it
        assert float(np.max(np.abs(dense @ res.x - b_vec))) <= 1e-8 * scale
        # and of the returned y and z, which must come back in the caller's
        # row order
        dual_scale = 1.0 + float(np.max(np.abs(c_vec)))
        assert float(np.max(np.abs(dense.T @ res.y + res.z - c_vec))) <= 1e-8 * dual_scale
        upper = float(c_vec @ xstar)
        lower = float(b_vec @ ystar)
        slack = 1e-6 * (1 + abs(upper) + abs(lower))
        assert lower - slack <= res.objective <= upper + slack
        for k in range(cones):
            a, b, c = res.x[3 * k : 3 * k + 3]
            assert a >= -1e-9 and b >= -1e-9 and 2 * a * b - c * c >= -1e-7


def _kkt_system(rng: np.random.Generator, m: int, num_cones: int):
    # Every slot lies in exactly one row, as in soncert's problems, and every
    # row holds a slot; H takes the Nesterov-Todd blocks of random points.
    slot_rows = np.concatenate([rng.permutation(m), rng.integers(0, m, 3 * num_cones - m)])
    a_mat = scipy.sparse.csr_matrix(
        (rng.uniform(0.5, 2.0, 3 * num_cones) * rng.choice([-1.0, 1.0], 3 * num_cones),
         (slot_rows, np.arange(3 * num_cones))),
        shape=(m, 3 * num_cones),
    )
    s = _scaling(_interior_points(rng, num_cones), _interior_points(rng, num_cones))
    hblocks = (s.eta[:, 0] ** 2)[:, None, None] * (
        2.0 * np.einsum("ij,ik->ijk", s.wbar, s.wbar) - np.diag([1.0, -1.0, -1.0])
    )
    return a_mat, hblocks


def _dense_g(a_mat, hblocks) -> np.ndarray:
    return (a_mat @ scipy.sparse.block_diag(list(hblocks)) @ a_mat.T).toarray()


def _gram(a_mat, hblocks):
    # A H A' applied with H block by block, the operator the solver refines against
    return lambda u: a_mat @ np.einsum("tij,tj->ti", hblocks, (a_mat.T @ u).reshape(-1, 3)).ravel()


def _kkt(a_mat, num_cones: int) -> _KktSolver:
    # the solver of A, whose nonzeros it takes sorted by cone, then row,
    # then column
    coo = a_mat.tocoo()
    rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
    order = np.lexsort((cols, rows, cols // 3))
    return _KktSolver(rows[order], cols[order], coo.data[order], a_mat.shape[0], num_cones)


def _kept_gram(kkt: _KktSolver, a_mat, hblocks):
    # _gram for A's rows in the solver's kept order, where row i is row
    # perm[i]: the operator solve refines against
    return _gram(a_mat.tocsr()[np.argsort(kkt.perm)], hblocks)


def _caller_solve(kkt: _KktSolver, rhs: np.ndarray) -> np.ndarray:
    # G^-1 rhs in A's own row order, through the kept order's solve
    return kkt.solve(rhs[np.argsort(kkt.perm)])[kkt.perm]


@pytest.mark.parametrize("m", [80, 700])
def test_kkt_solve_matches_dense_solve(m):
    # one size on each side of m = 600, the old switch from dense to sparse factoring
    rng = np.random.default_rng(m)
    a_mat, hblocks = _kkt_system(rng, m, m)
    rhs = rng.normal(size=m)
    want = np.linalg.solve(_dense_g(a_mat, hblocks), rhs)
    kkt = _kkt(a_mat, len(hblocks))
    kkt.factor(hblocks, _kept_gram(kkt, a_mat, hblocks))
    got = _caller_solve(kkt, rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_kkt_zero_row_is_shifted_and_solved(monkeypatch):
    rng = np.random.default_rng(21)
    m = 50
    a_mat, hblocks = _kkt_system(rng, m - 1, 60)
    # row 0 holds exactly the three slots of one more cone, whose block is
    # zero: G gets an exactly zero row and column
    a_mat = scipy.sparse.block_diag([scipy.sparse.csr_matrix(rng.normal(size=(1, 3))), a_mat]).tocsr()
    hblocks = np.concatenate([np.zeros((1, 3, 3)), hblocks])
    outcomes = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(*args, **kwargs):
        try:
            factor = splu(*args, **kwargs)
        except RuntimeError as err:
            outcomes.append(str(err))
            raise
        outcomes.append("factored")
        return factor

    kkt = _kkt(a_mat, len(hblocks))
    # recorded from here on, so the first outcome is the singular real factor
    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    kkt.factor(hblocks, _kept_gram(kkt, a_mat, hblocks))
    assert "singular" in outcomes[0] and outcomes[-1] == "factored"
    rhs = rng.normal(size=m)
    sol = _caller_solve(kkt, rhs)
    assert np.isfinite(sol).all()
    g = _dense_g(a_mat, hblocks)
    assert not g[0].any() and not g[:, 0].any()
    # the shift leaves the regular block's solution as it was
    want = np.linalg.solve(g[1:, 1:], rhs[1:])
    assert np.linalg.norm(sol[1:] - want) <= 1e-10 * np.linalg.norm(want)


def _factored_g(kkt: _KktSolver) -> np.ndarray:
    # Pr G' Pc = L U for G' = G in the solver's minimum-degree order; undo both
    lu = kkt._factor
    n = len(lu.perm_c)
    pr = scipy.sparse.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))))
    pc = scipy.sparse.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)))
    return (pr.T @ lu.L @ lu.U @ pc.T).toarray()[np.ix_(kkt.perm, kkt.perm)]


def _rotated_matrix(a_mat) -> scipy.sparse.csr_matrix:
    coo = a_mat.tocoo()
    rows, cols, vals = _rotated(coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data, a_mat.shape[0])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=a_mat.shape)


def test_rotated_matches_the_block_product():
    rng = np.random.default_rng(33)
    # two entries of one row in a cone's first two columns, equal so that
    # one rotated coordinate cancels to zero and is dropped
    dense = rng.normal(size=(30, 3 * 25)) * (rng.random((30, 3 * 25)) < 0.2)
    dense[4, 6:8] = 1.5
    a_mat = scipy.sparse.csr_matrix(dense)
    block = scipy.sparse.block_diag([_ROTATION] * 25, format="csr")
    want = (a_mat @ block).tocsr()
    want.eliminate_zeros()
    got = _rotated_matrix(a_mat)
    assert got.nnz == want.nnz and (got != want).nnz == 0
    # sorted by cone, then row, then column, each place once
    coo = a_mat.tocoo()
    rows, cols, vals = _rotated(coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data, 30)
    keys = (cols // 3 * 30 + rows) * 3 + cols % 3
    assert np.all(np.diff(keys) > 0)
    # triplets at one place are summed, and a cancelling sum is dropped
    halves = _rotated(
        np.repeat(coo.row.astype(np.int64), 2), np.repeat(coo.col.astype(np.int64), 2), np.repeat(coo.data / 2, 2), 30
    )
    assert np.array_equal(halves[0], rows) and np.array_equal(halves[1], cols)
    assert np.allclose(halves[2], vals, rtol=1e-15, atol=0.0)


def test_raw_product_matches_scipy_bit_for_bit():
    # _product calls scipy's private CSR kernel; it must agree with the
    # public product exactly, on matrices with empty rows and columns
    rng = np.random.default_rng(34)
    for shape in [(1, 1), (7, 3), (40, 90), (300, 30)]:
        dense = rng.normal(size=shape) * (rng.random(shape) < 0.2)
        dense[rng.integers(0, shape[0])] = 0.0
        dense[:, rng.integers(0, shape[1])] = 0.0
        for mat in (scipy.sparse.csr_matrix(dense), scipy.sparse.csr_matrix(dense.T)):
            vec = rng.normal(size=mat.shape[1])
            raw = (*mat.shape, mat.indptr, mat.indices, mat.data)
            assert np.array_equal(_product(raw, vec), mat @ vec)


def test_scattered_g_matches_the_product():
    rng = np.random.default_rng(31)
    # soncert's shape: one slot per column, rotated within each cone
    a_mat, hblocks = _kkt_system(rng, 90, 120)
    cases = [(_rotated_matrix(a_mat), hblocks)]
    # several nonzeros per column, and two cones with none
    dense = rng.normal(size=(40, 3 * 30)) * (rng.random((40, 3 * 30)) < 0.15)
    dense[:, 3:9] = 0.0
    _, many_blocks = _kkt_system(rng, 30, 30)
    cases.append((scipy.sparse.csr_matrix(dense), many_blocks))
    for a, blocks in cases:
        kkt = _kkt(a, len(blocks))
        kkt.factor(blocks, _kept_gram(kkt, a, blocks))
        want = _dense_g(a, blocks)
        assert np.max(np.abs(_factored_g(kkt) - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_setup(rows, cols, vals, m: int, num_cones: int):
    # The reference _setup must match bit for bit, built with scipy's sparse
    # constructors: A R through a COO matrix, G's pattern from every pair of
    # one cone's nonzeros, and the kept-order A and A' by row indexing and
    # transposing.  Returns the row maxima, perm, the scatter map, the
    # diagonal slots, G's kept pattern, A_s and A_s'.
    n = 3 * num_cones
    k = cols % 3
    rotated = scipy.sparse.csr_matrix(
        (
            (vals[:, None] * _ROTATION[k]).ravel(),
            (np.repeat(rows, 3), (np.repeat(cols - k, 3).reshape(-1, 3) + np.arange(3)).ravel()),
        ),
        shape=(m, n),
    )
    rotated.eliminate_zeros()
    row_counts = np.diff(rotated.indptr)
    row_max = np.full(m, 1e-300)
    np.maximum.at(row_max, np.repeat(np.arange(m), row_counts), np.abs(rotated.data))
    rotated.data *= np.repeat(1.0 / row_max, row_counts)
    csc = rotated.tocsc()
    a_rows, a_vals = csc.indices.astype(np.int64), csc.data
    a_cols = np.repeat(np.arange(n), np.diff(csc.indptr))
    cone = a_cols // 3
    within = a_cols - 3 * cone
    counts = np.bincount(cone, minlength=num_cones)
    starts = np.cumsum(counts) - counts
    reps = counts[cone]
    first = np.repeat(np.arange(len(a_cols)), reps)
    second = starts[cone[first]] + np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)

    def pattern(keys, values):
        col = keys // m
        indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=m))])
        return scipy.sparse.csc_matrix((values, keys - col * m, indptr), shape=(m, m))

    keys = np.concatenate([a_rows[second] * m + a_rows[first], np.arange(m) * (m + 1)])
    unique, inverse = np.unique(keys, return_inverse=True)
    dominant = np.full(len(unique), -1.0)
    dominant[inverse[len(first) :]] = np.bincount(unique // m, minlength=m)
    perm = scipy.sparse.linalg.splu(
        pattern(unique, dominant), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    ).perm_c
    col = unique // m
    moved = perm[col] * m + perm[unique - col * m]
    order = np.argsort(moved)
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    scatter = scipy.sparse.csr_matrix(
        (
            a_vals[first] * a_vals[second],
            (slot[inverse[: len(first)]], 9 * cone[first] + 3 * within[first] + within[second]),
        ),
        shape=(len(order), 9 * num_cones),
    )
    unperm = np.empty_like(perm)
    unperm[perm] = np.arange(m)
    kept = rotated[unperm]
    gmat = pattern(moved[order], np.zeros(len(order)))
    return row_max, perm, scatter, slot[inverse[len(first) :]], gmat, kept, kept.T.tocsr()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _assert_same_csr(raw, mat) -> None:
    assert raw[:2] == mat.shape
    assert np.array_equal(raw[2], mat.indptr) and np.array_equal(raw[3], mat.indices)
    assert _same_bits(raw[4], mat.data)


def test_setup_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(35)
    problem = _generated_problem()
    cases = [(*map(np.array, zip(*problem.entries)), problem.num_rows, problem.plan.num_triples)]
    for trial in range(40):
        num_cones = int(rng.integers(1, 30))
        m = int(rng.integers(1, 40))
        if trial % 2:
            # soncert's shape: one nonzero per column
            rows, cols = rng.integers(0, m, 3 * num_cones), np.arange(3 * num_cones)
        else:
            # several nonzeros per column, some cones with none, and two
            # entries of one row that rotate to a cancelling sum
            dense = rng.normal(size=(m, 3 * num_cones)) * (rng.random((m, 3 * num_cones)) < 0.3)
            dense[:, : 3 * (num_cones // 4)] = 0.0
            dense[0, -3:-1] = 1.5
            rows, cols = np.nonzero(dense)
        shuffle = rng.permutation(len(rows))
        rows, cols = rows[shuffle], cols[shuffle]
        cases.append((rows, cols, rng.normal(size=len(rows)), m, num_cones))
    for rows, cols, vals, m, num_cones in cases:
        vals = np.asarray(vals, dtype=float)
        row_max, perm, scatter, diag, gmat, a_s, a_st = _reference_setup(rows, cols, vals, m, num_cones)
        kkt, got_s, got_st, got_max = _setup(rows, cols, vals, m, num_cones)
        assert _same_bits(got_max, row_max)
        assert np.array_equal(kkt.perm, perm) and np.array_equal(kkt._diag, diag)
        assert np.array_equal(kkt._gmat.indptr, gmat.indptr) and np.array_equal(kkt._gmat.indices, gmat.indices)
        _assert_same_csr(kkt._scatter, scatter)
        _assert_same_csr(got_s, a_s)
        _assert_same_csr(got_st, a_st)
        blocks = rng.normal(size=9 * num_cones)
        assert _same_bits(_product(kkt._scatter, blocks), scatter @ blocks)


def _generated_problem():
    inst = random_instance(n=4, degree=10, terms=30, interior=True, seed=70003)
    return lower_bound(inst.poly).problem


def test_kept_order_fills_as_a_fresh_minimum_degree_factor():
    problem = _generated_problem()
    num_cones = problem.plan.num_triples
    rows, cols, vals = zip(*problem.entries)
    a_mat = _rotated_matrix(
        scipy.sparse.csr_matrix((np.array(vals, dtype=float), (rows, cols)), shape=(problem.num_rows, 3 * num_cones))
    )
    _, hblocks = _kkt_system(np.random.default_rng(32), 1, num_cones)
    kkt = _kkt(a_mat, num_cones)
    kkt.factor(hblocks, _kept_gram(kkt, a_mat, hblocks))
    fresh = scipy.sparse.linalg.splu(
        scipy.sparse.csc_matrix(_dense_g(a_mat, hblocks)),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    assert problem.num_rows > 100
    assert kkt._factor.L.nnz + kkt._factor.U.nnz == fresh.L.nnz + fresh.U.nnz


@pytest.mark.parametrize("seed", [60009, 60011])
def test_fragile_bound_solves_end_optimal(seed, monkeypatch):
    # Two seeded standard-simplex instances (n = 7, degree 30, 41 terms, 560
    # and 508 rows) that are fragile to how H is applied.  As W(W u) both
    # end optimal in 21 iterations.  Through H's formed 3x3 blocks 60009
    # takes 36, and 60011 stalls, where lower_bound raises SolverFailure.
    # Those are the plans that peel each trellis cheapest first, along a
    # caterpillar merge tree; greedy merge trees give 403 and 381 rows.
    monkeypatch.setattr(socp, "TREE_MAX_POINTS", 1)
    inst = random_instance(n=7, degree=30, terms=41, poly_class="standard-simplex", seed=seed)
    result = lower_bound(inst.poly)
    assert result.problem.num_rows == {60009: 560, 60011: 508}[seed]
    assert result.solution.status == "optimal", result.solution.residuals
    assert result.solution.iterations <= 25


def test_one_ordering_and_one_numeric_factor_per_iteration(monkeypatch):
    problem = _generated_problem()
    specs = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(*args, **kwargs):
        factor = splu(*args, **kwargs)
        specs.append(kwargs["permc_spec"])
        return factor

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    res = solve_problem(problem)
    assert res.status == "optimal" and res.iterations > 5
    # the last iteration converges before it factors
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (res.iterations - 1)
