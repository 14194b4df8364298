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

* The scaling W and its inverse are kept once per iteration as the
  coefficients of their rank-one forms, in contiguous (L, 3) arrays (see
  _Scaling).  H = W W is applied as W(W u) everywhere, in the Newton step
  and in the refinement alike; its 3x3 blocks are formed only for the
  factor.
* The predictor and the corrector take their step lengths from one
  precompute of the stacked x and z (cone_points).
* Each Newton step factors A H A' by one sparse LU without pivoting, at
  every problem size.  Its pattern, the scatter of H's blocks into it and
  its minimum-degree order are built once per solve; each iteration
  refactors only the numbers (see _KktSolver).  The rotated, row-scaled A
  is built straight from the caller's triplets.
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

# Diagonal of the reflection J = diag(1, -1, -1), the ones whose product
# sums a row of three, and the cone's axis.
_J = np.array([1.0, -1.0, -1.0])
_ONES = np.ones(3)
_E0 = np.array([1.0, 0.0, 0.0])
# A cone's 3x3 block of u u' in row-major order, as pairs of coordinates
# of u, and J as such a block.
_OUTER_ROW = np.repeat(np.arange(3), 3)
_OUTER_COL = np.tile(np.arange(3), 3)
_J_BLOCK = np.diag(_J).ravel()

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


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Rowwise dot products of (L, 3) arrays as one matrix-vector product,
    # which adds the three products left to right.
    return (u * v) @ _ONES


def _cone_residual(u: np.ndarray) -> np.ndarray:
    # u0^2 - u1^2 - u2^2 rowwise; the products by -1 are exact.
    return (u * u) @ _J


def jordan_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jordan product of Lorentz-cone triples, rows of (L, 3) arrays."""

    out = u[:, :1] * v
    out += v[:, :1] * u
    out[:, 0] = _rowdot(u, v)
    return out


class _Scaling:
    """Nesterov-Todd scaling of one iterate, in O(1) numbers per cone.

    Per cone, W = eta (2 v v' - J) with v'Jv = 1, and W^-1 = (2 Jv (Jv)' -
    J) / eta.  Both are kept as the coefficients of these rank-one forms,
    so W u = w_outer (v.u) - w_diag u and W^-1 u = winv_outer (Jv.u) -
    winv_diag u: each application is three elementwise products, one
    subtraction and one product with a vector of ones, and no 3x3 block is
    formed.  lam = W z =
    W^-1 x comes with the reciprocals of its determinant and of its first
    coordinate, by which jordan_solve scales.
    """

    def __init__(self, eta: np.ndarray, wbar: np.ndarray, v: np.ndarray, z: np.ndarray) -> None:
        self.eta = eta  # (L,)
        self.wbar = wbar  # (L, 3), unit hyperbolic norm; H = eta^2 (2 wbar wbar' - J)
        self.v = v  # (L, 3)
        self.w_outer = (2.0 * eta)[:, None] * v
        self.w_diag = eta[:, None] * _J
        self.jv = v * _J
        self.winv_outer = (2.0 / eta)[:, None] * self.jv
        self.winv_diag = _J / eta[:, None]
        self.lam = _apply_w(self, z)
        self.lam_j = self.lam * _J
        self.inv_det = 1.0 / _rowdot(self.lam_j, self.lam)
        self.inv_lam0 = 1.0 / self.lam[:, :1]

    def hblocks(self) -> np.ndarray:
        """H = W W as (L, 3, 3) blocks, for the factor only."""

        ew = self.eta[:, None] * self.wbar
        blocks = (2.0 * ew)[:, _OUTER_ROW] * ew[:, _OUTER_COL] - np.outer(self.eta**2, _J_BLOCK)
        return blocks.reshape(-1, 3, 3)


def nt_scaling(x: np.ndarray, z: np.ndarray) -> _Scaling:
    """Nesterov-Todd scaling for interior points of Lorentz cones (rowwise)."""

    # The determinant x0^2 - x1^2 - x2^2 cancels catastrophically for points
    # hugging the cone boundary and can evaluate to zero or negative noise;
    # floor it at a sliver of the squared norm so the scaling stays finite.
    xx, zz = x * x, z * z
    res_x = np.maximum(xx @ _J, 1e-18 * (xx @ _ONES))
    res_z = np.maximum(zz @ _J, 1e-18 * (zz @ _ONES))
    xh = x / np.sqrt(res_x)[:, None]
    zh = z / np.sqrt(res_z)[:, None]
    gamma = np.sqrt((1.0 + _rowdot(xh, zh)) / 2.0)
    wbar = (xh + zh * _J) / (2.0 * gamma)[:, None]
    v = wbar + _E0
    v /= np.sqrt(2.0 * v[:, :1])
    return _Scaling((res_x / res_z) ** 0.25, wbar, v, z)


def _apply_w(s: _Scaling, u: np.ndarray) -> np.ndarray:
    return s.w_outer * ((s.v * u) @ _ONES)[:, None] - s.w_diag * u


def _apply_winv(s: _Scaling, u: np.ndarray) -> np.ndarray:
    return s.winv_outer * ((s.jv * u) @ _ONES)[:, None] - s.winv_diag * u


def _apply_h(s: _Scaling, u: np.ndarray) -> np.ndarray:
    # H u = W (W u) for a flat u: the Newton step and the refinement's
    # residual apply H this one way.
    return _apply_w(s, _apply_w(s, u.reshape(-1, 3))).ravel()


def jordan_solve(s: _Scaling, d: np.ndarray) -> np.ndarray:
    """Solve lam o u = d rowwise for u, lam = s.lam interior to the cones."""

    u0 = _rowdot(s.lam_j, d) * s.inv_det
    out = (d - u0[:, None] * s.lam) * s.inv_lam0
    out[:, 0] = u0
    return out


@dataclass
class _ConePoints:
    """Rows p of Lorentz-cone points, as cone_max_step reads them."""

    twice_res: np.ndarray  # 2 (p0^2 - p1^2 - p2^2)
    neg_res: np.ndarray  # -(p0^2 - p1^2 - p2^2)
    neg_first: np.ndarray  # -p0
    twice_jflip: np.ndarray  # 2 (p0, -p1, -p2)


def cone_points(p: np.ndarray) -> _ConePoints:
    """What cone_max_step reads of the (L, 3) points p, computed once for
    every direction taken from them."""

    res = _cone_residual(p)
    return _ConePoints(2.0 * res, -res, -p[:, 0], p * (2.0 * _J))


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
    roots = np.full(len(aq), np.inf)
    # Linear, |a| < 1e-300: a root only when the residual decreases.
    np.divide(p.neg_res, bq, out=roots, where=(np.abs(aq) < 1e-300) & falls)
    # Opens downward with q(0) > 0: exactly one positive root.
    np.divide(-bq - sq, two_a, out=roots, where=aq <= -1e-300)
    # Opens upward, both roots positive; numerically stable smaller root.
    np.divide(p.twice_res, sq - bq, out=roots, where=(aq >= 1e-300) & (disc > 0.0) & falls)
    # fmin skips NaN roots, as a running min() starting from inf does.
    best = float(np.fmin.reduce(roots, initial=np.inf))
    # First coordinate must also stay nonnegative when the quadratic allows it.
    d0 = d[:, 0]
    clamp = np.divide(p.neg_first, d0, out=np.full(len(d0), np.inf), where=d0 < 0.0)
    return min(best, float(np.min(clamp)))


def _rotated(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: Tuple[int, int]) -> scipy.sparse.csr_matrix:
    # A R for the block-diagonal rotation R, from A's triplets: an entry in a
    # cone's column k spreads over the cone's three columns as its products
    # with row k of _ROTATION.  Sums that cancel to zero are dropped, so that
    # no stored zero widens the pattern of A H A'.
    k = cols % 3
    rot = scipy.sparse.csr_matrix(
        (
            (vals[:, None] * _ROTATION[k]).ravel(),
            (np.repeat(rows, 3), (np.repeat(cols - k, 3).reshape(-1, 3) + np.arange(3)).ravel()),
        ),
        shape=shape,
    )
    rot.eliminate_zeros()
    return rot


def _rotate_vector(vec: np.ndarray) -> np.ndarray:
    return (vec.reshape(-1, 3) @ _ROTATION.T).ravel()


class _KktSolver:
    """Sparse LU of G = A H A' with one step of iterative refinement.

    G is the sum over cones t of A_t H_t A_t', where A_t holds the cone's
    three columns, so its pattern is fixed by A.  The constructor builds
    that pattern, with every diagonal entry, and a sparse map from the 9L
    entries of H's blocks onto its values, once per problem: the CSC keys
    of the entries that pairs of one cone's nonzeros add to, sorted once.  It
    orders G by minimum degree on G + G' once, from a diagonally dominant
    matrix of the same pattern, and keeps the pattern in that order: each
    entry of the first pattern moves to its permuted place, and sorting the
    moved entries gives the kept pattern and every entry's slot in it.  Each
    factor then scatters the blocks into G's values and factors them in the
    kept order, numerically only.

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

    def __init__(self, a_mat: scipy.sparse.spmatrix, num_cones: int) -> None:
        m = a_mat.shape[0]
        # A's nonzeros by column, rows ascending within each column; a CSC
        # matrix comes in as it is.
        csc = a_mat.tocsc()
        rows, vals = csc.indices.astype(np.int64), csc.data
        cols = np.repeat(np.arange(a_mat.shape[1]), np.diff(csc.indptr))
        # Every pair (i, j) of nonzeros within one cone's columns adds
        # a_i a_j H_t[k_i, k_j] to G[row_i, row_j].  Sorted by column, cone
        # t's nonzeros start at starts[t]; each is paired with all of them.
        cone = cols // 3
        counts = np.bincount(cone, minlength=num_cones)
        starts = np.cumsum(counts) - counts
        reps = counts[cone]
        first = np.repeat(np.arange(len(cols)), reps)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
        second = starts[cone[first]] + offset

        def pattern(keys: np.ndarray, values: np.ndarray) -> scipy.sparse.csc_matrix:
            # G's pattern from its sorted CSC keys col * m + row
            indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // m, minlength=m))])
            return scipy.sparse.csc_matrix((values, keys % m, indptr), shape=(m, m))

        # The keys of every pair's entry, the diagonal last; inverse maps
        # each to its slot among the distinct sorted keys.
        keys = np.concatenate([rows[second] * m + rows[first], np.arange(m) * (m + 1)])
        unique, inverse = np.unique(keys, return_inverse=True)
        # The order depends on the pattern alone; these values, strictly
        # diagonally dominant, factor without breakdown.
        dominant = np.full(len(unique), -1.0)
        dominant[inverse[len(first) :]] = np.bincount(unique // m, minlength=m)
        self._perm = scipy.sparse.linalg.splu(
            pattern(unique, dominant),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ).perm_c
        # The kept order moves entry (i, j) to (perm[i], perm[j]); an
        # entry's rank among the moved keys is its slot there.
        perm = self._perm.astype(np.int64)
        moved = perm[unique // m] * m + perm[unique % m]
        order = np.argsort(moved)
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        self._diag = slot[inverse[len(first) :]]
        self._gmat = pattern(moved[order], np.zeros(len(order)))
        # G's values are one sparse product with H's blocks, raveled: pair
        # (i, j) puts a_i a_j on block entry 9t + 3k_i + k_j in its slot.
        self._scatter = scipy.sparse.csr_matrix(
            (
                vals[first] * vals[second],
                (slot[inverse[: len(first)]], 9 * cone[first] + 3 * (cols[first] % 3) + cols[second] % 3),
            ),
            shape=(len(order), 9 * num_cones),
        )
        self._unperm = np.empty_like(self._perm)
        self._unperm[self._perm] = np.arange(m)

    def factor(self, hblocks: np.ndarray, gram: Callable[[np.ndarray], np.ndarray]) -> None:
        """Factor G for the (L, 3, 3) blocks of H.

        gram(u) is A H A' u as the Newton step applies H; solve refines
        against it rather than against the formed G.
        """

        data = self._scatter @ hblocks.ravel()
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

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor.solve(rhs[self._unperm])[self._perm]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        sol = self._lu_solve(rhs)
        sol += self._lu_solve(rhs - self._gram(sol))
        return sol


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

    rows = np.asarray(a_rows, dtype=np.int64)
    cols = np.asarray(a_cols, dtype=np.int64)
    vals = np.asarray(a_vals, dtype=float)

    # Internal problem: rotate cones to Lorentz form, scale rows of A to unit
    # max coefficient, then scale b and c globally (cone-invariant).
    a_s = _rotated(rows, cols, vals, (m, n))
    row_counts = np.diff(a_s.indptr)
    row_max = np.full(m, 1e-300)
    np.maximum.at(row_max, np.repeat(np.arange(m), row_counts), np.abs(a_s.data))
    row_scale = 1.0 / row_max
    a_s.data *= np.repeat(row_scale, row_counts)
    a_st = a_s.T.tocsr()
    b_scale = max(1.0, float(np.max(np.abs(b_ext * row_scale), initial=0.0)))
    b_s = (b_ext * row_scale) / b_scale
    c_int = _rotate_vector(c_ext)
    c_scale = max(1.0, float(np.max(np.abs(c_int), initial=0.0)))
    c_s = c_int / c_scale

    b_norm = 1.0 + float(np.max(np.abs(b_ext), initial=0.0))
    c_norm = 1.0 + float(np.max(np.abs(c_ext), initial=0.0))
    b_tol = _TOL * b_norm
    c_tol = _TOL * c_norm

    # Homogeneous self-dual start: unit cone points, tau = kappa = 1.
    x = np.tile(np.array([1.0, 0.0, 0.0]), num_cones)
    z = x.copy()
    y = np.zeros(m)
    tau = 1.0
    kappa = 1.0
    degree = num_cones + 1
    mu0 = (float(x @ z) + tau * kappa) / degree

    def report(status: str, iterations: int, x, y, z, tau, kappa, pres, dres, gap) -> ConeSolve:
        # The one conversion to the caller's coordinates: x R b_scale / tau,
        # y D c_scale / tau and z R c_scale / tau, with D = diag(row_scale).
        x_c = _rotate_vector(x / tau) * b_scale
        y_c = (y * row_scale / tau) * c_scale
        z_c = _rotate_vector(z / tau) * c_scale
        residuals = {"primal": pres, "dual": dres, "gap": gap, "comp": float(x_c @ z_c), "tau": tau, "kappa": kappa}
        return ConeSolve(status, x_c, y_c, z_c, float(c_ext @ x_c), iterations, residuals)

    # A' in CSR is A in CSC: the pattern's column order, with no conversion
    kkt = _KktSolver(a_st.T, num_cones)
    # (metric, x, y, z, tau, kappa, pres, dres, gap) of the best iterate
    best: Optional[tuple] = None
    status = "max-iterations"
    stall = 0
    for iteration in range(1, _MAX_ITER + 1):
        r_p = a_s @ x - b_s * tau
        r_d = c_s * tau - a_st @ y - z
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
            best = (metric, x.copy(), y.copy(), z.copy(), tau, kappa, pres, dres, gap)
        if pres <= b_tol and dres <= c_tol and gap <= gap_tol:
            return report("optimal", iteration, x, y, z, tau, kappa, pres, dres, gap)
        if tau <= 1e-10 * max(1.0, kappa) and mu <= 1e-10 * mu0:
            status = "infeasible"
            break
        if stall >= 15:
            # No meaningful progress for many iterations: stuck at the
            # numerical floor, so stop and report the best point seen.
            break

        # a non-finite scaling ends the solve just below, without a warning
        with np.errstate(invalid="ignore", divide="ignore"):
            scaling = nt_scaling(x.reshape(-1, 3), z.reshape(-1, 3))
        lam = scaling.lam
        if not (
            np.isfinite(scaling.eta).all()
            and np.isfinite(scaling.wbar).all()
            and np.isfinite(lam).all()
        ):
            # numerical floor: an iterate hugs a cone boundary so tightly
            # that the scaling degenerates; return the best point seen
            break

        try:
            kkt.factor(scaling.hblocks(), lambda u: a_s @ _apply_h(scaling, a_st @ u))
        except (RuntimeError, ValueError):
            break

        hc = _apply_h(scaling, c_s)
        u1 = kkt.solve(b_s + a_s @ hc)
        at_u1 = a_st @ u1
        x1 = _apply_h(scaling, at_u1) - hc
        denom = float(b_s @ u1) - float(c_s @ x1) + kappa / tau
        if not np.isfinite(denom) or denom == 0.0:
            break

        def direction(d1, d2, d3, d_s, d_kappa):
            v0 = _apply_w(scaling, jordan_solve(scaling, d_s) + _apply_w(scaling, d2.reshape(-1, 3))).ravel()
            u2 = kkt.solve(d1 - a_s @ v0)
            at_u2 = a_st @ u2
            x2 = v0 + _apply_h(scaling, at_u2)
            dtau = (d3 + float(c_s @ x2) - float(b_s @ u2) + d_kappa / tau) / denom
            dy = u2 + dtau * u1
            dx = x2 + dtau * x1
            # A' dy from the two products already taken
            dz = -(at_u2 + dtau * at_u1) + c_s * dtau - d2
            dkappa = (d_kappa - kappa * dtau) / tau
            return dx, dy, dz, dtau, dkappa

        # The predictor and the corrector step from the same x and z.
        xz = cone_points(np.concatenate([x, z]).reshape(-1, 3))

        def step_bound(dx, dz, dtau, dkappa):
            alpha = cone_max_step(xz, np.concatenate([dx, dz]).reshape(-1, 3))
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0.0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        # Predictor: pure Newton step toward feasibility and zero gap.
        lam_sq = jordan_product(lam, lam)
        dxa, dya, dza, dtaua, dkappaa = direction(-r_p, -r_d, -r_g, -lam_sq, -tau * kappa)
        alpha_aff = min(1.0, step_bound(dxa, dza, dtaua, dkappaa))
        mu_aff = (
            float((x + alpha_aff * dxa) @ (z + alpha_aff * dza))
            + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)
        ) / degree
        sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

        # Corrector: recenter and cancel the second-order error.
        correction = jordan_product(
            _apply_winv(scaling, dxa.reshape(-1, 3)), _apply_w(scaling, dza.reshape(-1, 3))
        )
        d_s = -lam_sq - correction
        d_s[:, 0] += sigma * mu
        d_kappa = -(tau * kappa + dtaua * dkappaa - sigma * mu)
        shrink = 1.0 - sigma
        dx, dy, dz, dtau, dkappa = direction(-shrink * r_p, -shrink * r_d, -shrink * r_g, d_s, d_kappa)
        alpha = min(1.0, 0.99 * step_bound(dx, dz, dtau, dkappa))
        if not np.isfinite(alpha) or alpha <= 1e-14:
            break

        x += alpha * dx
        y += alpha * dy
        z += alpha * dz
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status == "infeasible":
        # Certificate direction: b'y > 0 rules out primal feasibility,
        # c'x < 0 rules out dual feasibility (primal unbounded below).
        y_ray = y * row_scale * (c_scale / b_scale)
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
