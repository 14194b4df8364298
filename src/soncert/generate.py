"""Seeded random instance generator for sparse lower-bound benchmarks.

Instances are built the same way the pipeline consumes them: pick square
points (a simplex or a small polytope of even lattice points plus the
origin), cover randomly sampled interior lattice points with circuits,
give every circuit integer masses on its trellis, and size each interior
coefficient safely below the circuit capacity so the instance decomposes
by construction.  Interior mode adds a unit constant so the decomposition
has slack everywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import exact
from .cover import affinely_independent, simplex_cover
from .polyring import MAX_VARIABLES, Exponent, SparsePoly, is_even

POLY_CLASSES = ("standard-simplex", "general-simplex", "arbitrary-polytope")


@dataclass
class GenInstance:
    poly: SparsePoly
    n: int
    degree: int
    poly_class: str
    interior: bool
    seed: Optional[int]


def _standard_simplex(n: int, d: int) -> List[Exponent]:
    pts = [(0,) * n]
    for i in range(n):
        pts.append(tuple(d if j == i else 0 for j in range(n)))
    return pts


def _random_even_point(rng: random.Random, n: int, d: int) -> Exponent:
    # Spend the halved degree budget across coordinates in random order.
    # Rejection sampling in a box never terminates in high dimension.
    halves = [0] * n
    remaining = d // 2
    for i in rng.sample(range(n), n):
        halves[i] = rng.randint(0, remaining)
        remaining -= halves[i]
    return tuple(2 * h for h in halves)


def _general_simplex(rng: random.Random, n: int, d: int) -> List[Exponent]:
    pts: List[Exponent] = [(0,) * n]
    attempts = 0
    while len(pts) < n + 1:
        attempts += 1
        if attempts > 400:
            # Degenerate draw streak: fall back to the axis simplex.
            return _standard_simplex(n, d)
        cand = _random_even_point(rng, n, d)
        if cand in pts or cand == (0,) * n:
            continue
        if affinely_independent(pts + [cand]):
            pts.append(cand)
    return pts


def _arbitrary_polytope(rng: random.Random, n: int, d: int) -> List[Exponent]:
    pts = {(0,) * n}
    attempts = 0
    while len(pts) < n + 3 and attempts < 400:
        attempts += 1
        cand = _random_even_point(rng, n, d)
        if cand != (0,) * n:
            pts.add(cand)
    if len(pts) < 2:
        return _standard_simplex(n, d)
    return sorted(pts)


def _budget(terms: int, squares: int, interior: bool) -> int:
    """The interior points a terms budget leaves next to the square points
    (and the unit constant in interior mode); refuses a budget of none."""
    budget = terms - squares - (1 if interior else 0)
    if budget < 1:
        raise ValueError(
            f"terms budget {terms} leaves no room for interior points "
            f"next to {squares} square points"
        )
    return budget


def _affine_basis(lam: Sequence[Exponent]) -> List[Exponent]:
    basis: List[Exponent] = []
    for pt in lam:
        if affinely_independent(basis + [pt]):
            basis.append(pt)
    return basis


class _SimplexScreen:
    """Exact hull-membership test for an affinely independent point set.

    A float least-squares screen rejects clearly outside candidates; the
    survivors get exact barycentric coordinates from the basis's barycentric
    matrix, eliminated once (``exact.UniqueSolver``, as the cover does), so
    every accepted point provably lies in the hull.
    """

    def __init__(self, basis: Sequence[Exponent]):
        n = len(basis[0])
        rows = [[pt[i] for pt in basis] for i in range(n)] + [[1] * len(basis)]
        self.solver = exact.UniqueSolver(rows)
        self.mat_f = np.array([[float(v) for v in row] for row in rows])
        self.pinv_f = np.linalg.pinv(self.mat_f)
        self.scale = max(1.0, float(np.abs(self.mat_f).max()))

    def contains(self, cand: Exponent) -> bool:
        rhs_f = np.array([float(x) for x in cand] + [1.0])
        w_f = self.pinv_f @ rhs_f
        if w_f.min() < -1e-6 or np.abs(self.mat_f @ w_f - rhs_f).max() > 1e-5 * self.scale:
            return False
        w = self.solver.numerators([*cand, 1])
        return w is not None and min(w) >= 0


def _nonzero_columns(lam: Sequence[Exponent]) -> List[List[Tuple[int, int]]]:
    """Per coordinate, (vertex index, entry) of each nonzero entry there."""
    return [[(j, pt[i]) for j, pt in enumerate(lam) if pt[i]] for i in range(len(lam[0]))]


def _hull_proposal(rng: random.Random, lam: Sequence[Exponent], columns: Sequence[Sequence[Tuple[int, int]]]) -> Exponent:
    # Round a uniform convex combination of the vertices to the lattice;
    # exponential weights make the combination uniform over the hull.  A
    # zero entry would add an exact 0.0, so columns lists the others only.
    weights = [-math.log(rng.random()) for _ in lam]
    total = sum(weights)
    return tuple([round(sum(weights[j] * x for j, x in col) / total) for col in columns])


def _sample_betas(
    rng: random.Random,
    lam: Sequence[Exponent],
    n: int,
    d: int,
    count: int,
    standard: bool,
) -> List[Exponent]:
    taken = set(lam)
    taken.add((0,) * n)
    betas: List[Exponent] = []
    if standard:
        # axis simplex: membership is coords >= 0 and total degree <= d
        basis = list(lam)
        screen = None
    else:
        # Propose inside a full-rank sub-simplex so rounding rarely leaves
        # it, then confirm membership exactly.
        basis = _affine_basis(lam)
        screen = _SimplexScreen(basis)
    columns = _nonzero_columns(basis)
    attempts = 0
    limit = 120 * max(count, 1)
    while len(betas) < count and attempts < limit:
        if not betas and attempts >= 40 * max(count, 1):
            break
        attempts += 1
        cand = _hull_proposal(rng, basis, columns)
        if sum(cand) > d or cand in taken:
            continue
        if screen is not None and not screen.contains(cand):
            continue
        betas.append(cand)
        taken.add(cand)
    return betas


def random_instance(
    n: int,
    degree: int,
    terms: int,
    poly_class: str = "standard-simplex",
    interior: bool = False,
    seed: Optional[int] = None,
) -> GenInstance:
    """Draw one instance with at most `terms` monomials and degree <= degree."""

    if poly_class not in POLY_CLASSES:
        raise ValueError(f"unknown class {poly_class!r}; choose from {POLY_CLASSES}")
    if n < 1:
        raise ValueError("need at least one variable")
    if n > MAX_VARIABLES:
        raise ValueError(f"n = {n} exceeds the cap of {MAX_VARIABLES} variables")
    d = degree - degree % 2
    if d < 2:
        raise ValueError("degree must be at least 2")
    if poly_class != "arbitrary-polytope":
        # both simplex classes have n + 1 square points: refuse a budget
        # before drawing them (O(n^2) work), taking nothing from rng
        _budget(terms, n + 1, interior)
    rng = random.Random(seed)

    if poly_class == "standard-simplex":
        lam = _standard_simplex(n, d)
    elif poly_class == "general-simplex":
        lam = _general_simplex(rng, n, d)
    else:
        lam = _arbitrary_polytope(rng, n, d)

    budget = _budget(terms, len(lam), interior)
    betas = _sample_betas(
        rng, lam, n, d, budget, standard=poly_class == "standard-simplex"
    )
    if not betas and poly_class != "standard-simplex":
        # Degenerate support with an empty lattice interior: restart on the
        # axis simplex so every sane parameter choice yields an instance.
        lam = _standard_simplex(n, d)
        budget = terms - len(lam) - (1 if interior else 0)
        if budget >= 1:
            betas = _sample_betas(rng, lam, n, d, budget, standard=True)
    if not betas:
        raise ValueError("no interior lattice point found inside the support hull")

    cover = simplex_cover(lam, betas)
    masses: Dict[Exponent, int] = {}
    capacity: Dict[Exponent, float] = {}
    for circuit in cover.circuits:
        log_theta = 0.0
        for alpha, weight in zip(circuit.trellis, circuit.weights):
            mass = rng.randint(1, 10)
            masses[alpha] = masses.get(alpha, 0) + mass
            log_theta += float(weight) * (math.log(mass) - math.log(float(weight)))
        capacity[circuit.beta] = capacity.get(circuit.beta, 0.0) + math.exp(log_theta)
    for alpha in cover.uncovered:
        masses[alpha] = masses.get(alpha, 0) + rng.randint(1, 10)

    terms_dict: Dict[Exponent, Fraction] = {
        alpha: Fraction(m) for alpha, m in masses.items()
    }
    for beta in betas:
        mag = rng.uniform(0.3, 0.8) * capacity[beta]
        coef = Fraction(round(mag * 100), 100)
        if coef == 0:
            continue
        if is_even(beta):
            terms_dict[beta] = -coef
        else:
            terms_dict[beta] = rng.choice((-1, 1)) * coef
    if interior:
        zero = (0,) * n
        terms_dict[zero] = terms_dict.get(zero, Fraction(0)) + 1

    poly = SparsePoly(n, terms_dict)
    return GenInstance(
        poly=poly,
        n=n,
        degree=poly.degree(),
        poly_class=poly_class,
        interior=interior,
        seed=seed,
    )
