"""Interior-point solver for second-order cone programs over rotated cones.

Solves  min c'x  s.t.  A x = b,  x in K,  where x is a concatenation of
variable triples (a, b, c) each constrained to the rotated quadratic cone
{(a, b, c) : 2ab >= c^2, a >= 0, b >= 0}.  The solver embeds the problem
in a homogeneous self-dual model and runs a Mehrotra predictor-corrector
method with Nesterov-Todd scaling, so it detects infeasibility as well as
optimality.  Internally each rotated cone is mapped to a standard Lorentz
cone by an orthogonal change of coordinates, and the rows and the data
are scaled; the result is reported in the caller's rotated-cone
coordinates.

The per-iteration work is kept to few numpy calls, since at the sizes the
certifier produces each call costs more in fixed overhead than in
arithmetic (Vandenberghe, "The CVXOPT linear and quadratic cone program
solvers", 2010):

* Every per-cone quantity is an (L, 3) array.  A per-cone scalar, such as
  a row's dot product or W's factor eta, fills all three columns, so the
  kernels multiply arrays of one shape and never broadcast an (L,) or a
  length-3 array against (L, 3); a row sum reaches every column through
  one product with a constant 3x3 matrix.
* The scaling W and its inverse are kept once per iteration as the
  coefficients of their rank-one forms (see _Scaling).  H = W W is applied
  as W(W u) everywhere, in the Newton step and in the refinement alike;
  its 3x3 blocks are formed only for the factor.  nt_scaling scales x and
  z in one stacked pass and hands back, from the same residuals, what the
  predictor's and the corrector's step lengths read (cone_points).
* Each Newton step factors A H A' by one sparse LU without pivoting, at
  every problem size.  Its pattern, the scatter of H's blocks into it and
  its minimum-degree order are built once per solve; each iteration
  refactors only the numbers (see _KktSolver).  The rows are kept in that
  order for the whole solve, so an LU solve gathers nothing, and the dual
  point is put back in the caller's row order once, when the solve
  returns.
* The rotated, row-scaled A and its transpose are raw CSR arrays, and
  each product is one call of scipy's compiled kernel (_product).
* The set-up (_setup) sorts A's rotated nonzeros once, by cone and row,
  keys G's pattern by the pairs of rows that meet in a cone, and places
  the kept-order A, its transpose and the scatter with scipy's compiled
  conversion kernels; the only sparse matrices it builds are the two
  patterns SuperLU reads.
* Convergence is judged in the solver's own frame: the caller's residuals
  and objectives follow from the scaled residuals the step needs anyway,
  so the caller's A is never formed.  The reported point is rotated and
  unscaled once, when the solve returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse._sparsetools import coo_tocsr, csr_matvec, csr_tocsc

_SQRT2 = np.sqrt(2.0)

# Orthogonal involution mapping rotated-cone coordinates (a, b, c) to
# standard Lorentz coordinates (x0, x1, x2): 2ab - c^2 = x0^2 - x1^2 - x2^2.
_ROTATION = np.array(
    [
        [1.0 / _SQRT2, 1.0 / _SQRT2, 0.0],
        [1.0 / _SQRT2, -1.0 / _SQRT2, 0.0],
        [0.0, 0.0, 1.0],
    ]
)

# Diagonal of the reflection J = diag(1, -1, -1), and the ones whose product
# sums a row of three.
_J = np.array([1.0, -1.0, -1.0])
_ONES = np.ones(3)
# Constant 3x3 products that fill all three columns of a row: u @ _SUMS
# with u's row sum, u @ _FIRSTS with u0.
_SUMS = np.ones((3, 3))
_FIRSTS = np.outer([1.0, 0.0, 0.0], _ONES)
# A cone's 3x3 block of 2 u u' in row-major order as (u @ _TWICE_ROWS) *
# (u @ _BLOCK_COLS), and s J as s @ _J_BLOCK for s filled with a scalar.
_TWICE_ROWS = np.kron(2.0 * np.eye(3), np.ones((1, 3)))
_BLOCK_COLS = np.tile(np.eye(3), (1, 3))
_J_BLOCK = np.outer([1.0, 0.0, 0.0], np.diag(_J).ravel())

# Interior-point iterations before a solve gives up with max-iterations.
_MAX_ITER = 200
# Relative accuracy at which a solve stops optimal.
_TOL = 1e-8


@dataclass
class ConeSolve:
    """Result of a conic solve, reported in rotated-cone coordinates."""

    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    objective: float
    iterations: int
    residuals: Dict[str, float] = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


# A matrix as the raw arrays of its CSR form: (rows, cols, indptr, indices, data).
_Csr = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: Tuple[int, int]) -> _Csr:
    # The CSR arrays of the nonzeros (rows, cols, vals), no two at one
    # place and each row's in ascending column order: scipy's kernel places
    # them row by row and keeps their order within a row.
    indptr = np.empty(shape[0] + 1, dtype=np.int64)
    indices = np.empty(len(cols), dtype=np.int64)
    data = np.empty(len(vals))
    coo_tocsr(*shape, len(vals), rows, cols, vals, indptr, indices, data)
    return (*shape, indptr, indices, data)


def _transpose(mat: _Csr) -> _Csr:
    # mat' as CSR arrays, each row's entries by ascending column
    rows, cols, indptr, indices, data = mat
    out = (cols, rows, np.empty(cols + 1, dtype=np.int64), np.empty_like(indices), np.empty_like(data))
    csr_tocsc(rows, cols, indptr, indices, data, *out[2:])
    return out


def _product(mat: _Csr, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for a contiguous float vector, as scipy's own kernel
    computes it, without the dispatch of a sparse matrix's __matmul__."""

    rows, cols, indptr, indices, data = mat
    out = np.zeros(rows)
    csr_matvec(rows, cols, indptr, indices, data, vec, out)
    return out


def _cone_residual(u: np.ndarray) -> np.ndarray:
    # u0^2 - u1^2 - u2^2 rowwise, as (u0 - u1)(u0 + u1) - u2^2: near the
    # boundary u0^2 - u1^2 cancels, and could read a point inside the cone
    # as outside it, with a negative residual and so a negative step bound.
    u0, u1, u2 = u[:, 0], u[:, 1], u[:, 2]
    return (u0 - u1) * (u0 + u1) - u2 * u2


def _full_j(rows: int) -> np.ndarray:
    # J as an (rows, 3) array, to multiply arrays of that shape without a
    # broadcast
    out = np.empty((rows, 3))
    out[...] = _J
    return out


def jordan_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jordan product of Lorentz-cone triples, rows of (L, 3) arrays."""

    out = (u @ _FIRSTS) * v + (v @ _FIRSTS) * u
    out[:, 0] = (u * v) @ _ONES
    return out


class _Scaling:
    """Nesterov-Todd scaling of one iterate, in O(1) numbers per cone.

    Per cone, W = eta (2 v v' - J) with v'Jv = 1, and W^-1 = (2 Jv (Jv)' -
    J) / eta.  Both are kept as the coefficients of these rank-one forms,
    so W u = w_outer (v.u) - w_diag u and W^-1 u = winv_outer (Jv.u) -
    winv_diag u: each application is three elementwise products, one
    subtraction and one product with a constant 3x3 matrix, and no 3x3
    block is formed.  lam = W z = W^-1 x comes with the reciprocals of its
    determinant and of its first coordinate, by which jordan_solve scales.
    Every field is an (L, 3) array; eta, inv_det and inv_lam0 fill all
    three columns.  points is cone_points of the stacked x and z.
    """

    def __init__(
        self, eta: np.ndarray, wbar: np.ndarray, v: np.ndarray, z: np.ndarray, j: np.ndarray, points: "_ConePoints"
    ) -> None:
        self.eta = eta
        self.wbar = wbar  # unit hyperbolic norm; H = eta^2 (2 wbar wbar' - J)
        self.v = v
        self.w_outer = (eta + eta) * v
        self.w_diag = eta * j
        self.jv = v * j
        self.winv_outer = (2.0 / eta) * self.jv
        self.winv_diag = j / eta
        self.lam = _apply_w(self, z)
        self.lam_j = self.lam * j
        self.inv_det = 1.0 / ((self.lam_j * self.lam) @ _SUMS)
        self.inv_lam0 = 1.0 / (self.lam @ _FIRSTS)
        self.points = points

    def hblocks(self) -> np.ndarray:
        """H = W W as (L, 3, 3) blocks, for the factor only."""

        ew = self.eta * self.wbar
        blocks = (ew @ _TWICE_ROWS) * (ew @ _BLOCK_COLS) - (self.eta * self.eta) @ _J_BLOCK
        return blocks.reshape(-1, 3, 3)


def nt_scaling(xz: np.ndarray) -> _Scaling:
    """Nesterov-Todd scaling for interior points of Lorentz cones (rowwise).

    xz stacks the (L, 3) points x over the (L, 3) points z; the scaling's
    points are cone_points of that stack, from the same residuals.
    """

    count = len(xz) // 2
    j2 = _full_j(2 * count)
    j = j2[:count]
    # The determinant x0^2 - x1^2 - x2^2 cancels catastrophically for points
    # hugging the cone boundary and can evaluate to zero or negative noise;
    # floor it at a sliver of the squared norm so the scaling stays finite.
    sq = xz * xz
    res = _cone_residual(xz)
    floored = np.maximum(np.repeat(res, 3).reshape(-1, 3), 1e-18 * (sq @ _SUMS))
    h = xz / np.sqrt(floored)
    xh, zh = h[:count], h[count:]
    wbar = (xh + zh * j) / (2.0 * np.sqrt((1.0 + (xh * zh) @ _SUMS) / 2.0))
    v = wbar @ _FIRSTS + 1.0
    v = (wbar + (0.5 * j + 0.5)) / np.sqrt(v + v)
    eta = (floored[:count] / floored[count:]) ** 0.25
    return _Scaling(eta, wbar, v, xz[count:], j, _cone_points(xz, res, j2))


def _apply_w(s: _Scaling, u: np.ndarray) -> np.ndarray:
    return s.w_outer * ((s.v * u) @ _SUMS) - s.w_diag * u


def _apply_winv(s: _Scaling, u: np.ndarray) -> np.ndarray:
    return s.winv_outer * ((s.jv * u) @ _SUMS) - s.winv_diag * u


def _apply_h(s: _Scaling, u: np.ndarray) -> np.ndarray:
    # H u = W (W u) for a flat u: the Newton step and the refinement's
    # residual apply H this one way.
    return _apply_w(s, _apply_w(s, u.reshape(-1, 3))).ravel()


def jordan_solve(s: _Scaling, d: np.ndarray) -> np.ndarray:
    """Solve lam o u = d rowwise for u, lam = s.lam interior to the cones."""

    u0 = ((s.lam_j * d) @ _SUMS) * s.inv_det
    out = (d - u0 * s.lam) * s.inv_lam0
    out[:, 0] = u0[:, 0]
    return out


@dataclass
class _ConePoints:
    """Rows p of Lorentz-cone points, as cone_max_step reads them."""

    twice_res: np.ndarray  # 2 (p0^2 - p1^2 - p2^2)
    neg_first: np.ndarray  # -p0
    twice_jflip: np.ndarray  # 2 (p0, -p1, -p2)


def _cone_points(p: np.ndarray, res: np.ndarray, j: np.ndarray) -> _ConePoints:
    return _ConePoints(2.0 * res, -p[:, 0], (p + p) * j)


def cone_points(p: np.ndarray) -> _ConePoints:
    """What cone_max_step reads of the (L, 3) points p, computed once for
    every direction taken from them."""

    return _cone_points(p, _cone_residual(p), _full_j(len(p)))


def cone_max_step(p: _ConePoints, d: np.ndarray) -> float:
    """Largest step t with p + t*d on or inside all Lorentz cones (rowwise).

    Per cone, the residual of p + t*d is the quadratic a t^2 + b t + c; its
    first positive root is taken in closed form, for all cones at once.
    Each branch divides only where it applies, into one row of roots.
    """

    aq = _cone_residual(d)
    bq = (p.twice_jflip * d) @ _ONES
    two_a = 2.0 * aq
    disc = bq * bq - two_a * p.twice_res
    sq = np.sqrt(np.maximum(disc, 0.0))
    falls = bq < 0.0
    down = aq <= -1e-300
    roots = np.empty(len(aq))
    roots.fill(np.inf)
    # Rising at t = 0, b >= 0: only a downward quadratic has a positive
    # root, (-b - sq)/(2a), free of cancellation there.
    np.divide(-bq - sq, two_a, out=roots, where=down & ~falls)
    # Falling, b < 0: the first root is 2c/(sq - b) for any a with real
    # roots, the one positive root of a downward quadratic, the smaller of
    # an upward one and -c/b of a linear one, a = 0.  (-b - sq)/(2a) would
    # cancel here: on a nearly lightlike direction, a ~ 0, it reads 0.
    np.divide(p.twice_res, sq - bq, out=roots, where=falls & (down | (disc > 0.0)))
    # fmin skips NaN roots, as a running min() starting from inf does.
    best = float(np.fmin.reduce(roots, initial=np.inf))
    # First coordinate must also stay nonnegative when the quadratic allows it.
    d0 = d[:, 0]
    clamp = np.empty(len(d0))
    clamp.fill(np.inf)
    np.divide(p.neg_first, d0, out=clamp, where=d0 < 0.0)
    return min(best, float(np.min(clamp)))


def _rotated(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The nonzeros (rows, cols, vals) of A R, for the block-diagonal rotation
    # R, from A's triplets over m rows, sorted by cone, then row, then
    # column.  An entry in a cone's column k spreads over the cone's three
    # columns as its products with row k of _ROTATION; the products at one
    # place are summed in the triplets' order, and a sum that cancels to
    # zero is dropped, so that no product multiplies a stored zero.
    k = cols % 3
    # (cone * m + row) * 3 + the column within the cone
    keys = ((cols - k) * m + 3 * rows)[:, None] + np.arange(3)
    prods = vals[:, None] * _ROTATION[k]
    nonzero = prods != 0.0
    keys, prods = keys[nonzero], prods[nonzero]
    order = np.argsort(keys, kind="stable")
    keys, prods = keys[order], prods[order]
    repeats = keys[1:] == keys[:-1]
    if repeats.any():
        starts = np.flatnonzero(np.concatenate([[True], ~repeats]))
        keys, prods = keys[starts], np.add.reduceat(prods, starts)
        nonzero = prods != 0.0
        keys, prods = keys[nonzero], prods[nonzero]
    cone_row = keys // 3
    cone = cone_row // m
    return cone_row - cone * m, 3 * cone + keys - 3 * cone_row, prods


def _rotate_vector(vec: np.ndarray) -> np.ndarray:
    return (vec.reshape(-1, 3) @ _ROTATION.T).ravel()


class _KktSolver:
    """Sparse LU of G = A H A' with one step of iterative refinement.

    G is the sum over cones t of A_t H_t A_t', where A_t holds the cone's
    three columns, so its pattern is fixed by A: one entry for each pair of
    rows that meet in a cone, at most nine per cone in soncert's problems,
    where each slot lies in one row.  The constructor builds that pattern,
    with every diagonal entry, from the CSC keys of those row pairs, sorted
    once, and a sparse map from the 9L entries of H's blocks onto its
    values, once per problem.  It orders G by minimum degree on G + G' once,
    from a diagonally dominant matrix of the same pattern, and keeps the
    pattern in that order: each entry of the first pattern moves to its
    permuted place, and sorting the moved entries gives the kept pattern
    and every entry's slot in it.  Row i of A is row perm[i] of the kept
    order.  Each factor scatters the blocks into G's values and factors
    them in the kept order, numerically only, and solve takes and returns
    vectors in the kept order, so an LU solve gathers nothing.

    The refinement step measures its residual with A H A' as the Newton
    step applies H, W(W u), not with the formed G: near the cone boundaries
    the two round apart by far more than the solver's tolerance, and steps
    that agree with G alone can stall a solve short of it.

    G is symmetric positive definite by construction, so the LU needs no
    pivoting: each slot lies in exactly one row, so A has orthogonal rows,
    the per-cone rotation keeps its full row rank, and H is positive
    definite inside the cones.  A factor that breaks down anyway, as when H
    vanishes on every cone of a row, is retried with a growing diagonal
    shift.  One column per supernode panel keeps SuperLU's per-factor
    overhead low on these very sparse matrices.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, m: int, num_cones: int) -> None:
        # A's nonzeros, sorted by cone, then row, then column, as _rotated
        # gives them.  A run of one row within one cone is a group.
        cone = cols // 3
        within = cols - 3 * cone
        cone_row = cone * m + rows
        opens = np.empty(len(rows), dtype=bool)
        opens[:1] = True
        np.not_equal(cone_row[1:], cone_row[:-1], out=opens[1:])
        group = np.cumsum(opens) - 1
        starts = np.flatnonzero(opens)
        group_row = rows[starts]
        # how many groups and nonzeros each cone holds
        groups = np.bincount(cone[starts], minlength=num_cones)
        nonzeros = np.bincount(cone, minlength=num_cones)
        # Group a is paired with the reps[a] groups of its cone, b among
        # them, and the pair (a, b) is pair number pair_base[a] + b.
        reps = groups[cone[starts]]
        pair_base = np.cumsum(reps) - reps - (np.cumsum(groups) - groups)[cone[starts]]
        pair_b = np.arange(int(reps.sum())) - np.repeat(pair_base, reps)
        num_pairs = len(pair_b)

        def pattern(keys: np.ndarray, values: np.ndarray) -> scipy.sparse.csc_matrix:
            # G's pattern from its sorted CSC keys col * m + row
            col = keys // m
            indptr = np.zeros(m + 1, dtype=np.intc)
            np.cumsum(np.bincount(col, minlength=m), out=indptr[1:])
            return scipy.sparse.csc_matrix((values, (keys - col * m).astype(np.intc), indptr), shape=(m, m))

        # The key of every pair's entry, the diagonal last; inverse maps
        # each to its slot among the distinct sorted keys.
        keys = np.concatenate([group_row[pair_b] * m + np.repeat(group_row, reps), np.arange(m) * (m + 1)])
        unique, inverse = np.unique(keys, return_inverse=True)
        col = unique // m
        # The order depends on the pattern alone; these values, strictly
        # diagonally dominant, factor without breakdown.
        dominant = np.full(len(unique), -1.0)
        dominant[inverse[num_pairs:]] = np.bincount(col, minlength=m)
        self.perm = scipy.sparse.linalg.splu(
            pattern(unique, dominant),
            permc_spec="MMD_AT_PLUS_A",
            panel_size=1,
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ).perm_c.astype(np.int64)
        # The kept order moves entry (i, j) to (perm[i], perm[j]); an
        # entry's rank among the moved keys is its slot there.
        moved = self.perm[col] * m + self.perm[unique - col * m]
        order = np.argsort(moved)
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        self._diag = slot[inverse[num_pairs:]]
        self._gmat = pattern(moved[order], np.zeros(len(order)))
        # G's values are one product with H's blocks, raveled: each pair
        # (i, j) of one cone's nonzeros puts a_i a_j on block entry 9t +
        # 3k_i + k_j in the slot of its groups' pair.  Nonzero i pairs with
        # the per[i] nonzeros of its cone, listed in second, so a value of
        # i repeats per[i] times.  Taken by cone, then i, then j, the block
        # entries of each slot ascend, and _csr keeps them in that order.
        per = nonzeros[cone]
        first_nonzero = np.cumsum(nonzeros) - nonzeros
        second = np.arange(int(per.sum())) - np.repeat(np.cumsum(per) - per - first_nonzero[cone], per)
        self._scatter = _csr(
            slot[inverse[:num_pairs]][np.repeat(pair_base[group], per) + group[second]],
            np.repeat(9 * cone + 3 * within, per) + within[second],
            np.repeat(vals, per) * vals[second],
            (len(order), 9 * num_cones),
        )

    def factor(self, hblocks: np.ndarray, gram: Callable[[np.ndarray], np.ndarray]) -> None:
        """Factor G for the (L, 3, 3) blocks of H.

        gram(u) is A H A' u in the kept order, as the Newton step applies
        H; solve refines against it rather than against the formed G.
        """

        data = _product(self._scatter, hblocks.ravel())
        self._gram = gram
        reg = 0.0
        while True:
            shifted = data
            if reg:
                shifted = data.copy()
                shifted[self._diag] += reg
            # splu copies the values; the matrix only carries the pattern
            self._gmat.data = shifted
            try:
                self._factor = scipy.sparse.linalg.splu(
                    self._gmat,
                    permc_spec="NATURAL",
                    panel_size=1,
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
                break
            except RuntimeError:
                diag_scale = max(float(np.max(np.abs(data[self._diag]))), 1.0)
                reg = max(reg * 100.0, 1e-14 * diag_scale)
                if reg > 1e-4 * diag_scale:
                    raise

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """G^-1 rhs in the kept order, refined once against gram."""

        sol = self._factor.solve(rhs)
        sol += self._factor.solve(rhs - self._gram(sol))
        return sol


def _setup(
    a_rows: Sequence[int], a_cols: Sequence[int], a_vals: Sequence[float], m: int, num_cones: int
) -> Tuple[_KktSolver, _Csr, _Csr, np.ndarray]:
    """The KKT solver of the rotated A with unit row maxima, that A and its
    transpose with the rows in the solver's kept order, and each row's
    largest rotated |coefficient| in the caller's order."""

    rows, cols, vals = _rotated(
        np.asarray(a_rows, dtype=np.int64), np.asarray(a_cols, dtype=np.int64), np.asarray(a_vals, dtype=float), m
    )
    row_max = np.full(m, 1e-300)
    np.maximum.at(row_max, rows, np.abs(vals))
    vals = vals * (1.0 / row_max)[rows]
    kkt = _KktSolver(rows, cols, vals, m, num_cones)
    # sorted by cone, each row's nonzeros come by ascending column
    a_s = _csr(kkt.perm[rows], cols, vals, (m, 3 * num_cones))
    return kkt, a_s, _transpose(a_s), row_max


def solve_socp(
    a_rows: Sequence[int],
    a_cols: Sequence[int],
    a_vals: Sequence[float],
    b: Sequence[float],
    c: Sequence[float],
    num_cones: int,
) -> ConeSolve:
    """Solve min c'x s.t. A x = b over a product of rotated quadratic cones.

    The matrix is given in triplet form over columns grouped in consecutive
    triples (a, b, c), one rotated cone per triple.  Returns slot values
    and dual values in the caller's coordinates, with the residuals of the
    returned iterate as the solver estimates them.
    """

    m = len(b)
    n = 3 * num_cones
    b_ext = np.asarray(b, dtype=float)
    c_ext = np.asarray(c, dtype=float)
    if num_cones == 0:
        feasible = m == 0 or float(np.max(np.abs(b_ext))) <= _TOL
        return ConeSolve(
            status="optimal" if feasible else "infeasible",
            x=np.zeros(0),
            y=np.zeros(m),
            z=np.zeros(0),
            objective=0.0,
            iterations=0,
            residuals={"primal": 0.0 if m == 0 else float(np.max(np.abs(b_ext), initial=0.0))},
        )

    # Internal problem: rotate cones to Lorentz form, scale rows of A to unit
    # max coefficient, then scale b and c globally (cone-invariant).  The
    # rows are renumbered into the KKT factor's order, in which they stay
    # until the solve returns: the caller's row i is row perm[i].
    kkt, a_s, a_st, row_max = _setup(a_rows, a_cols, a_vals, m, num_cones)
    perm = kkt.perm
    unperm = np.empty_like(perm)
    unperm[perm] = np.arange(m)
    row_scale = 1.0 / row_max[unperm]
    b_kept = b_ext[unperm]
    b_scale = max(1.0, float(np.max(np.abs(b_kept * row_scale), initial=0.0)))
    b_s = (b_kept * row_scale) / b_scale
    c_int = _rotate_vector(c_ext)
    c_scale = max(1.0, float(np.max(np.abs(c_int), initial=0.0)))
    c_s = c_int / c_scale

    b_norm = 1.0 + float(np.max(np.abs(b_ext), initial=0.0))
    c_norm = 1.0 + float(np.max(np.abs(c_ext), initial=0.0))
    b_tol = _TOL * b_norm
    c_tol = _TOL * c_norm

    # Homogeneous self-dual start: unit cone points, tau = kappa = 1.  x and
    # z are the two halves of one array, xz; each step replaces the iterate
    # with a new array, so the best one is kept by reference.
    xz = np.tile(np.array([1.0, 0.0, 0.0]), 2 * num_cones)
    y = np.zeros(m)
    tau = 1.0
    kappa = 1.0
    degree = num_cones + 1
    mu0 = (num_cones + tau * kappa) / degree

    def report(status: str, iterations: int, xz, y, tau, kappa, pres, dres, gap) -> ConeSolve:
        # The one conversion to the caller's coordinates: x R b_scale / tau,
        # y D c_scale / tau and z R c_scale / tau, with D = diag(row_scale),
        # and y back in the caller's row order.
        x_c = _rotate_vector(xz[:n] / tau) * b_scale
        y_c = ((y * row_scale / tau) * c_scale)[perm]
        z_c = _rotate_vector(xz[n:] / tau) * c_scale
        residuals = {"primal": pres, "dual": dres, "gap": gap, "comp": float(x_c @ z_c), "tau": tau, "kappa": kappa}
        return ConeSolve(status, x_c, y_c, z_c, float(c_ext @ x_c), iterations, residuals)

    # The scaling of the current iteration, which gram, newton and the step
    # bound read; they are built once per solve.
    scaling: Optional[_Scaling] = None

    def gram(u: np.ndarray) -> np.ndarray:
        return _product(a_s, _apply_h(scaling, _product(a_st, u)))

    def newton(shrink: float, js: np.ndarray, d_kappa: float):
        # The Newton direction for residuals shrink * (r_p, r_d, r_g) and
        # the complementarity right-hand side whose Jordan solve with lam is
        # js, with the tau-kappa one d_kappa; dx and dz come stacked.
        d2 = r_d * -shrink
        v0 = _apply_w(scaling, js + _apply_w(scaling, d2.reshape(-1, 3))).ravel()
        u2 = kkt.solve(r_p * -shrink - _product(a_s, v0))
        at_u2 = _product(a_st, u2)
        x2 = v0 + _apply_h(scaling, at_u2)
        dtau = (-shrink * r_g + float(c_s @ x2) - float(b_s @ u2) + d_kappa / tau) / denom
        dxz = np.concatenate([x2 + dtau * x1, c_s * dtau - (at_u2 + dtau * at_u1) - d2])
        dkappa = (d_kappa - kappa * dtau) / tau
        # the largest step that keeps x, z, tau and kappa in their cones
        alpha = cone_max_step(scaling.points, dxz.reshape(-1, 3))
        if dtau < 0.0:
            alpha = min(alpha, -tau / dtau)
        if dkappa < 0.0:
            alpha = min(alpha, -kappa / dkappa)
        return dxz, u2 + dtau * u1, dtau, dkappa, alpha

    # (metric, xz, y, tau, kappa, pres, dres, gap) of the best iterate
    best: Optional[tuple] = None
    status = "max-iterations"
    stall = 0
    for iteration in range(1, _MAX_ITER + 1):
        x, z = xz[:n], xz[n:]
        r_p = _product(a_s, x) - b_s * tau
        r_d = c_s * tau - _product(a_st, y) - z
        cx = float(c_s @ x)
        by = float(b_s @ y)
        r_g = by - cx - kappa
        mu = (float(x @ z) + tau * kappa) / degree

        # The caller's residuals and objectives, from the scaled ones: with
        # A_s = D A R, R an orthogonal involution, A x_c - b = D^-1 r_p
        # b_scale / tau and A' y_c + z_c - c = -R r_d c_scale / tau.
        pres = float(np.abs(r_p / row_scale).max(initial=0.0)) * b_scale / tau
        dres = float(np.abs(_rotate_vector(r_d)).max(initial=0.0)) * c_scale / tau
        pobj = cx * c_scale * b_scale / tau
        dobj = by * b_scale * c_scale / tau
        gap = abs(pobj - dobj)
        gap_norm = 1.0 + abs(pobj) + abs(dobj)
        gap_tol = _TOL * gap_norm
        # Relative accuracy, free of _TOL, so that the stall count and the
        # best point are the same at every tolerance.
        metric = max(pres / b_norm, dres / c_norm, gap / gap_norm)
        stall = 0 if (best is None or metric < 0.99 * best[0]) else stall + 1
        if best is None or metric < best[0]:
            best = (metric, xz, y, tau, kappa, pres, dres, gap)
        if pres <= b_tol and dres <= c_tol and gap <= gap_tol:
            return report("optimal", iteration, xz, y, tau, kappa, pres, dres, gap)
        if tau <= 1e-10 * max(1.0, kappa) and mu <= 1e-10 * mu0:
            status = "infeasible"
            break
        if stall >= 15:
            # No meaningful progress for many iterations: stuck at the
            # numerical floor, so stop and report the best point seen.
            break

        # a non-finite scaling ends the solve just below, without a warning
        with np.errstate(invalid="ignore", divide="ignore"):
            scaling = nt_scaling(xz.reshape(-1, 3))
        lam = scaling.lam
        if not np.isfinite(lam).all():
            # numerical floor: an iterate hugs a cone boundary so tightly
            # that the scaling degenerates; return the best point seen.
            # lam = W z is built from eta and wbar, so a non-finite one of
            # them shows in it.
            break

        try:
            kkt.factor(scaling.hblocks(), gram)
        except (RuntimeError, ValueError):
            break

        hc = _apply_h(scaling, c_s)
        u1 = kkt.solve(b_s + _product(a_s, hc))
        at_u1 = _product(a_st, u1)
        x1 = _apply_h(scaling, at_u1) - hc
        denom = float(b_s @ u1 - c_s @ x1) + kappa / tau
        if not np.isfinite(denom) or denom == 0.0:
            break

        # Predictor: pure Newton step toward feasibility and zero gap.  Its
        # complementarity right-hand side is -lam o lam, whose Jordan solve
        # is -lam.
        dxza, _, dtaua, dkappaa, alpha_aff = newton(1.0, -lam, -tau * kappa)
        alpha_aff = min(1.0, alpha_aff)
        xz_aff = xz + alpha_aff * dxza
        mu_aff = (
            float(xz_aff[:n] @ xz_aff[n:]) + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)
        ) / degree
        sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

        # Corrector: recenter and cancel the second-order error, with the
        # right-hand side -lam o lam - (W^-1 dxa) o (W dza) + sigma mu e.
        d_s = -jordan_product(
            _apply_winv(scaling, dxza[:n].reshape(-1, 3)), _apply_w(scaling, dxza[n:].reshape(-1, 3))
        )
        d_s[:, 0] += sigma * mu
        d_kappa = -(tau * kappa + dtaua * dkappaa - sigma * mu)
        dxz, dy, dtau, dkappa, alpha = newton(1.0 - sigma, jordan_solve(scaling, d_s) - lam, d_kappa)
        alpha = min(1.0, 0.99 * alpha)
        if not np.isfinite(alpha) or alpha <= 1e-14:
            break

        xz = xz + alpha * dxz
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    x, z = xz[:n], xz[n:]
    if status == "infeasible":
        # Certificate direction: b'y > 0 rules out primal feasibility,
        # c'x < 0 rules out dual feasibility (primal unbounded below).
        y_ray = (y * row_scale * (c_scale / b_scale))[perm]
        x_ray = _rotate_vector(x)
        detail = "primal" if float(b_ext @ y_ray) > 0.0 else "dual"
        return ConeSolve(
            status="infeasible",
            x=x_ray,
            y=y_ray,
            z=_rotate_vector(z),
            objective=float("nan"),
            iterations=iteration,
            residuals={"certificate": detail, "tau": tau, "kappa": kappa},
        )
    assert best is not None
    return report(status, iteration, *best[1:])
