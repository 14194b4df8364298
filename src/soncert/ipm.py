"""Interior-point solver for second-order cone programs over rotated cones.

Solves  min c'x  s.t.  A x = b,  x in K,  where x is a concatenation of
variable triples (a, b, c) each constrained to the rotated quadratic cone
{(a, b, c) : 2ab >= c^2, a >= 0, b >= 0}.  The solver embeds the problem
in a homogeneous self-dual model and runs a Mehrotra predictor-corrector
method with Nesterov-Todd scaling, so it detects infeasibility as well as
optimality.  Internally each rotated cone is mapped to a standard Lorentz
cone by an orthogonal change of coordinates; all reported quantities are
in the caller's rotated-cone coordinates.  Each Newton step factors A H A'
by one sparse LU without pivoting, at every problem size.  Its pattern, the
scatter of H's blocks into it and its minimum-degree order are built once
per solve; each iteration refactors only the numbers (see _KktSolver).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

# Interior-point iterations before a solve gives up with max-iterations.
_MAX_ITER = 200


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


def jordan_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jordan product of Lorentz-cone triples, rows of (L, 3) arrays."""

    out = np.empty_like(u)
    out[:, 0] = np.einsum("ij,ij->i", u, v)
    out[:, 1] = u[:, 0] * v[:, 1] + v[:, 0] * u[:, 1]
    out[:, 2] = u[:, 0] * v[:, 2] + v[:, 0] * u[:, 2]
    return out


def jordan_solve(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve lam o u = d rowwise for u, lam interior to the Lorentz cone."""

    det = lam[:, 0] ** 2 - lam[:, 1] ** 2 - lam[:, 2] ** 2
    u0 = (lam[:, 0] * d[:, 0] - lam[:, 1] * d[:, 1] - lam[:, 2] * d[:, 2]) / det
    out = np.empty_like(d)
    out[:, 0] = u0
    out[:, 1:] = (d[:, 1:] - u0[:, None] * lam[:, 1:]) / lam[:, 0:1]
    return out


# Diagonal of the reflection J = diag(1, -1, -1).
_J = np.array([1.0, -1.0, -1.0])


def _jflip(u: np.ndarray) -> np.ndarray:
    # J applied rowwise; the product by -1 is exact, as negation is.
    return u * _J


def _cone_residual(u: np.ndarray) -> np.ndarray:
    return u[:, 0] ** 2 - u[:, 1] ** 2 - u[:, 2] ** 2


@dataclass
class _Scaling:
    eta: np.ndarray  # (L,)
    wbar: np.ndarray  # (L, 3), unit hyperbolic norm
    vhalf: np.ndarray  # (L, 3), W = eta * (2 v v' - J)
    lam: np.ndarray  # (L, 3), lam = W z = W^-1 x


def nt_scaling(x: np.ndarray, z: np.ndarray) -> _Scaling:
    """Nesterov-Todd scaling for interior points of Lorentz cones (rowwise)."""

    # The determinant x0^2 - x1^2 - x2^2 cancels catastrophically for points
    # hugging the cone boundary and can evaluate to zero or negative noise;
    # floor it at a sliver of the squared norm so the scaling stays finite.
    res_x = _cone_residual(x)
    res_z = _cone_residual(z)
    res_x = np.maximum(res_x, 1e-18 * np.einsum("ij,ij->i", x, x))
    res_z = np.maximum(res_z, 1e-18 * np.einsum("ij,ij->i", z, z))
    xh = x / np.sqrt(res_x)[:, None]
    zh = z / np.sqrt(res_z)[:, None]
    gamma = np.sqrt((1.0 + np.einsum("ij,ij->i", xh, zh)) / 2.0)
    wbar = (xh + _jflip(zh)) / (2.0 * gamma)[:, None]
    vhalf = wbar.copy()
    vhalf[:, 0] += 1.0
    vhalf /= np.sqrt(2.0 * (wbar[:, 0] + 1.0))[:, None]
    eta = (res_x / res_z) ** 0.25
    lam = _apply_h(eta, vhalf, z)
    return _Scaling(eta=eta, wbar=wbar, vhalf=vhalf, lam=lam)


def _apply_h(scale: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    # scale * (2 v (v.u) - J u) rowwise; with v'Jv = 1 this is scale * H(v) u.
    dot = np.einsum("ij,ij->i", v, u)
    return scale[:, None] * (2.0 * v * dot[:, None] - _jflip(u))


def _apply_w(s: _Scaling, u: np.ndarray) -> np.ndarray:
    return _apply_h(s.eta, s.vhalf, u)


def _apply_winv(s: _Scaling, u: np.ndarray) -> np.ndarray:
    return _apply_h(1.0 / s.eta, _jflip(s.vhalf), u)


def cone_max_step(p: np.ndarray, d: np.ndarray) -> float:
    """Largest step t with p + t*d on or inside all Lorentz cones (rowwise).

    Per cone, the residual of p + t*d is the quadratic a t^2 + b t + c; its
    first positive root is taken in closed form, for all cones at once.
    """

    aq = _cone_residual(d)
    bq = 2.0 * (p[:, 0] * d[:, 0] - p[:, 1] * d[:, 1] - p[:, 2] * d[:, 2])
    cq = _cone_residual(p)
    disc = bq * bq - 4.0 * aq * cq
    linear = np.abs(aq) < 1e-300
    # Linear: a root only when the residual decreases.
    hit = linear & (bq < 0.0)
    roots = [-cq[hit] / bq[hit]]
    # Opens downward with q(0) > 0: exactly one positive root.
    hit = ~linear & (aq < 0.0)
    roots.append((-bq[hit] - np.sqrt(np.maximum(disc[hit], 0.0))) / (2.0 * aq[hit]))
    # Opens upward, both roots positive; numerically stable smaller root.
    hit = ~linear & (aq > 0.0) & (disc > 0.0) & (bq < 0.0)
    roots.append(2.0 * cq[hit] / (-bq[hit] + np.sqrt(disc[hit])))
    # fmin skips NaN roots, as a running min() starting from inf does.
    best = float(np.fmin.reduce(np.concatenate(roots), initial=np.inf))
    # First coordinate must also stay nonnegative when the quadratic allows it.
    neg = d[:, 0] < 0.0
    if np.any(neg):
        best = min(best, float(np.min(-p[neg, 0] / d[neg, 0])))
    return float(best)


def _rotate_columns(matrix: scipy.sparse.csr_matrix, num_cones: int) -> scipy.sparse.csr_matrix:
    blocks = np.broadcast_to(_ROTATION, (num_cones, 3, 3)).copy()
    rot = scipy.sparse.bsr_matrix(
        (blocks, np.arange(num_cones), np.arange(num_cones + 1)),
        shape=(3 * num_cones, 3 * num_cones),
    )
    return (matrix @ rot).tocsr()


def _rotate_vector(vec: np.ndarray) -> np.ndarray:
    return (vec.reshape(-1, 3) @ _ROTATION.T).ravel()


class _KktSolver:
    """Sparse LU of G = A H A' with one step of iterative refinement.

    G is the sum over cones t of A_t H_t A_t', where A_t holds the cone's
    three columns, so its pattern is fixed by A.  The constructor builds
    that pattern, with every diagonal entry, and a gather map from the 9L
    entries of H's blocks into it, once per problem.  It orders G by
    minimum degree on G + G' once, from a diagonally dominant matrix of the
    same pattern, and keeps the pattern in that order.  Each factor then
    scatters the blocks into G's values and factors them in the kept order,
    numerically only.

    The refinement step measures its residual with A H A' as the Newton
    step applies H, not with the formed G: near the cone boundaries the two
    round apart by far more than the solver's tolerance, and steps that
    agree with G alone can stall a solve short of it.

    G is symmetric positive definite by construction, so the LU needs no
    pivoting: each slot lies in exactly one row, so A has orthogonal rows,
    the per-cone rotation keeps its full row rank, and H is positive
    definite inside the cones.  A factor that breaks down anyway, as when H
    vanishes on every cone of a row, is retried with a growing diagonal
    shift.
    """

    def __init__(self, a_mat: scipy.sparse.csr_matrix, num_cones: int) -> None:
        m = a_mat.shape[0]
        coo = a_mat.tocoo()
        order = np.argsort(coo.col, kind="stable")
        rows, cols, vals = coo.row[order], coo.col[order], coo.data[order]
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
        self._weight = vals[first] * vals[second]
        self._hindex = 9 * cone[first] + 3 * (cols[first] % 3) + cols[second] % 3

        def pattern(perm: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            # CSC keys col * m + row of G in the order perm, the diagonal last.
            perm = perm.astype(np.int64)
            keys = np.concatenate([perm[rows[second]] * m + perm[rows[first]], perm * (m + 1)])
            unique, inverse = np.unique(keys, return_inverse=True)
            indptr = np.concatenate([[0], np.cumsum(np.bincount(unique // m, minlength=m))])
            return unique % m, indptr, inverse

        # The order depends on the pattern alone; these values, strictly
        # diagonally dominant, factor without breakdown.
        indices, indptr, inverse = pattern(np.arange(m))
        dominant = np.full(len(indices), -1.0)
        dominant[inverse[len(first) :]] = np.diff(indptr)
        self._perm = scipy.sparse.linalg.splu(
            scipy.sparse.csc_matrix((dominant, indices, indptr), shape=(m, m)),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ).perm_c
        indices, indptr, inverse = pattern(self._perm)
        self._gather = inverse[: len(first)]
        self._diag = inverse[len(first) :]
        self._gmat = scipy.sparse.csc_matrix((np.zeros(len(indices)), indices, indptr), shape=(m, m))

    def factor(self, hblocks: np.ndarray, gram: Callable[[np.ndarray], np.ndarray]) -> None:
        """Factor G for the (L, 3, 3) blocks of H.

        gram(u) is A H A' u as the Newton step applies H; solve refines
        against it rather than against the formed G.
        """

        data = np.bincount(self._gather, self._weight * hblocks.ravel()[self._hindex], minlength=self._gmat.nnz)
        self._gram = gram
        diag_scale = max(float(np.max(np.abs(data[self._diag]))), 1.0)
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
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
                break
            except RuntimeError:
                reg = max(reg * 100.0, 1e-14 * diag_scale)
                if reg > 1e-4 * diag_scale:
                    raise

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs_p = np.empty_like(rhs)
        rhs_p[self._perm] = rhs
        return self._factor.solve(rhs_p)[self._perm]

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
    *,
    tol: float = 1e-8,
) -> ConeSolve:
    """Solve min c'x s.t. A x = b over a product of rotated quadratic cones.

    The matrix is given in triplet form over columns grouped in consecutive
    triples (a, b, c), one rotated cone per triple.  Returns slot values,
    dual values, and residuals in the caller's coordinates.
    """

    m = len(b)
    n = 3 * num_cones
    b_ext = np.asarray(b, dtype=float)
    c_ext = np.asarray(c, dtype=float)
    if num_cones == 0:
        feasible = m == 0 or float(np.max(np.abs(b_ext))) <= tol
        return ConeSolve(
            status="optimal" if feasible else "infeasible",
            x=np.zeros(0),
            y=np.zeros(m),
            z=np.zeros(0),
            objective=0.0,
            iterations=0,
            residuals={"primal": 0.0 if m == 0 else float(np.max(np.abs(b_ext), initial=0.0))},
        )

    a_ext = scipy.sparse.csr_matrix(
        (np.asarray(a_vals, dtype=float), (np.asarray(a_rows), np.asarray(a_cols))),
        shape=(m, n),
    )

    # Internal problem: rotate cones to Lorentz form, scale rows of A to unit
    # max coefficient, then scale b and c globally (cone-invariant).
    a_int = _rotate_columns(a_ext, num_cones)
    row_max = np.maximum(np.abs(a_int).max(axis=1).toarray().ravel(), 1e-300)
    row_scale = 1.0 / row_max
    a_s = scipy.sparse.diags(row_scale) @ a_int
    a_s = a_s.tocsr()
    b_scale = max(1.0, float(np.max(np.abs(b_ext * row_scale), initial=0.0)))
    b_s = (b_ext * row_scale) / b_scale
    c_int = _rotate_vector(c_ext)
    c_scale = max(1.0, float(np.max(np.abs(c_int), initial=0.0)))
    c_s = c_int / c_scale
    a_st = a_s.T.tocsr()
    a_ext_t = a_ext.T.tocsr()

    b_norm = 1.0 + float(np.max(np.abs(b_ext), initial=0.0))
    c_norm = 1.0 + float(np.max(np.abs(c_ext), initial=0.0))
    b_tol = tol * b_norm
    c_tol = tol * c_norm

    # Homogeneous self-dual start: unit cone points, tau = kappa = 1.
    x = np.tile(np.array([1.0, 0.0, 0.0]), num_cones)
    z = x.copy()
    y = np.zeros(m)
    tau = 1.0
    kappa = 1.0
    degree = num_cones + 1
    mu0 = (float(x @ z) + tau * kappa) / degree

    kkt = _KktSolver(a_s, num_cones)
    best: Optional[Tuple[float, ConeSolve]] = None
    status = "max-iterations"
    stall = 0
    for iteration in range(1, _MAX_ITER + 1):
        r_p = a_s @ x - b_s * tau
        r_d = -(a_st @ y) + c_s * tau - z
        r_g = float(b_s @ y - c_s @ x - kappa)
        mu = (float(x @ z) + tau * kappa) / degree

        x_c = _rotate_vector(x / tau) * b_scale
        y_c = (y * row_scale / tau) * c_scale
        z_c = _rotate_vector(z / tau) * c_scale
        pres = float(np.max(np.abs(a_ext @ x_c - b_ext), initial=0.0))
        dres = float(np.max(np.abs(a_ext_t @ y_c + z_c - c_ext), initial=0.0))
        pobj = float(c_ext @ x_c)
        dobj = float(b_ext @ y_c)
        comp = float(x_c @ z_c)
        gap = abs(pobj - dobj)
        gap_norm = 1.0 + abs(pobj) + abs(dobj)
        gap_tol = tol * gap_norm
        # Relative accuracy, free of tol, so that the stall count and the
        # best point are the same at every tolerance.
        metric = max(pres / b_norm, dres / c_norm, gap / gap_norm)
        candidate = ConeSolve(
            status="optimal",
            x=x_c,
            y=y_c,
            z=z_c,
            objective=pobj,
            iterations=iteration - 1,
            residuals={"primal": pres, "dual": dres, "gap": gap, "comp": comp, "tau": tau, "kappa": kappa},
        )
        stall = 0 if (best is None or metric < 0.99 * best[0]) else stall + 1
        if best is None or metric < best[0]:
            best = (metric, candidate)
        if pres <= b_tol and dres <= c_tol and gap <= gap_tol:
            status = "optimal"
            break
        if tau <= 1e-10 * max(1.0, kappa) and mu <= 1e-10 * mu0:
            status = "infeasible"
            break
        if stall >= 15:
            # No meaningful progress for many iterations: stuck at the
            # numerical floor, so stop and report the best point seen.
            status = "max-iterations"
            break

        scaling = nt_scaling(x.reshape(-1, 3), z.reshape(-1, 3))
        lam = scaling.lam
        eta2 = scaling.eta**2
        if not (
            np.isfinite(eta2).all()
            and np.isfinite(scaling.wbar).all()
            and np.isfinite(scaling.lam).all()
        ):
            # numerical floor: an iterate hugs a cone boundary so tightly
            # that the scaling degenerates; return the best point seen
            status = "max-iterations"
            break
        hblocks = 2.0 * eta2[:, None, None] * np.einsum(
            "ij,ik->ijk", scaling.wbar, scaling.wbar
        )
        hblocks -= eta2[:, None, None] * np.diag(_J)

        def apply_hmat(u: np.ndarray) -> np.ndarray:
            return _apply_w(scaling, _apply_w(scaling, u.reshape(-1, 3))).ravel()

        try:
            kkt.factor(hblocks, lambda u: a_s @ apply_hmat(a_st @ u))
        except (RuntimeError, ValueError):
            status = "max-iterations"
            break

        hc = apply_hmat(c_s)
        u1 = kkt.solve(b_s + a_s @ hc)
        x1 = apply_hmat(a_st @ u1) - hc
        denom = float(b_s @ u1) - float(c_s @ x1) + kappa / tau
        if not np.isfinite(denom) or denom == 0.0:
            status = "max-iterations"
            break

        def direction(d1, d2, d3, d_s, d_kappa):
            dtil = jordan_solve(lam, d_s)
            v0 = (_apply_w(scaling, dtil) + _apply_w(scaling, _apply_w(scaling, d2.reshape(-1, 3)))).ravel()
            u2 = kkt.solve(d1 - a_s @ v0)
            x2 = v0 + apply_hmat(a_st @ u2)
            dtau = (d3 + float(c_s @ x2) - float(b_s @ u2) + d_kappa / tau) / denom
            dy = u2 + dtau * u1
            dx = x2 + dtau * x1
            dz = -(a_st @ dy) + c_s * dtau - d2
            dkappa = (d_kappa - kappa * dtau) / tau
            return dx, dy, dz, dtau, dkappa

        xz = np.concatenate([x, z]).reshape(-1, 3)

        def step_bound(dx, dz, dtau, dkappa):
            alpha = cone_max_step(xz, np.concatenate([dx, dz]).reshape(-1, 3))
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0.0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        # Predictor: pure Newton step toward feasibility and zero gap.
        lam_sq = jordan_product(lam, lam)
        dxa, dya, dza, dtaua, dkappaa = direction(-r_p, -r_d.reshape(-1, 3).ravel(), -r_g, -lam_sq, -tau * kappa)
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
            status = "max-iterations"
            break

        x += alpha * dx
        y += alpha * dy
        z += alpha * dz
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status == "optimal":
        return replace(candidate, iterations=iteration)
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
    return replace(best[1], status="max-iterations", iterations=iteration)
