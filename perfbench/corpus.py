"""Seeded workloads for perfbench and the per-item correctness gate.

Every workload draws its polynomials with ``soncert.generate.random_instance``
from the benchmark seed.  The size schedule of each workload (class, n, d and
term count per item) is fixed by the recipe; the seed picks the instance
seeds, so a new seed gives new polynomials of the same shapes.  Seed 0
reproduces the corpora of the acceptance criteria 6 and 7 and of the scale
probe (the ROADMAP Baseline).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from soncert.generate import POLY_CLASSES, random_instance
from soncert.polyring import SparsePoly, poly_dumps

# Instance seeds of seed s start at base + SEED_STRIDE * s.
SEED_STRIDE = 1000

# Sample points per polynomial for the lower-bound check, drawn uniformly
# from [-2, 2]^n as acceptance criterion 7 does.
SAMPLE_POINTS = 10_000

# A bound may exceed the sampled minimum by this share of the largest
# coefficient: criterion 7's tolerance for exact certificates, and a looser
# one for numeric bounds, whose solver stops at a relative accuracy of 1e-8.
CERT_SAMPLE_TOL = 1e-9
BOUND_SAMPLE_TOL = 1e-7

# A result may be looser than the stored reference by at most
# REFERENCE_TOL * (1 + |reference|); tighter results always pass.
REFERENCE_TOL = 1e-6


@dataclass(frozen=True)
class Item:
    name: str
    seed: int
    poly: SparsePoly


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "certify" (then verify) or "bound"
    size: int
    recipe: Callable[[int, int], List[Tuple[int, dict]]]

    def items(self, seed: int) -> List[Item]:
        out = []
        for inst_seed, kwargs in self.recipe(seed, self.size):
            poly = random_instance(seed=inst_seed, **kwargs).poly
            out.append(Item(f"{self.name}/seed={inst_seed}", inst_seed, poly))
        return out


def _certify_c7(seed: int, size: int) -> List[Tuple[int, dict]]:
    rng = random.Random(7)
    out = []
    for i in range(size):
        n = (4, 8)[i % 2]
        d = (10, 20)[(i // 2) % 2]
        t = rng.randint(n + 8, 50)
        kwargs = dict(n=n, degree=d, terms=t, poly_class="standard-simplex", interior=True)
        out.append((70_000 + SEED_STRIDE * seed + i, kwargs))
    return out


def _bound_c6(seed: int, size: int) -> List[Tuple[int, dict]]:
    rng = random.Random(2024)
    out = []
    for i in range(size):
        cls = POLY_CLASSES[i % 3]
        n = rng.randint(1, 10)
        d = rng.choice([4, 10, 20, 30])
        t = rng.randint(n + 6, 50)
        out.append((60_000 + SEED_STRIDE * seed + i, dict(n=n, degree=d, terms=t, poly_class=cls)))
    return out


def _bound_c6_simplex(seed: int, size: int) -> List[Tuple[int, dict]]:
    return [(s, kw) for s, kw in _bound_c6(seed, 3 * size) if kw["poly_class"] == "standard-simplex"]


def _bound_scale(seed: int, size: int) -> List[Tuple[int, dict]]:
    kwargs = dict(n=10, degree=30, terms=200, poly_class="standard-simplex", interior=True)
    return [(1 + SEED_STRIDE * seed + i, kwargs) for i in range(size)]


# random_instance arguments of the untimed warm-up item of every workload.
WARMUP = dict(n=3, degree=8, terms=14, poly_class="standard-simplex", interior=True, seed=7)

# bound-c6 and bound-scale are not in BENCHMARK.json: over five seeds their
# metrics spread up to 39% (bound-c6: a few slow general-simplex and
# arbitrary-polytope items decide a run) and 30% (bound-scale: a run fits
# five to seven 6-9 s items), more than any allowed bound.  Run them by hand
# for claims on those classes, the sparse KKT path or the stall at ~6,000
# rows.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("certify-c7", "certify", 40, _certify_c7),
        Workload("bound-c6", "bound", 48, _bound_c6),
        Workload("bound-c6-simplex", "bound", 66, _bound_c6_simplex),
        Workload("bound-scale", "bound", 3, _bound_scale),
    )
}


def corpus_sha256(items: List[Item]) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(item.name.encode("ascii") + b"\n")
        digest.update(poly_dumps(item.poly).encode("ascii") + b"\n")
    return digest.hexdigest()


def sample_minimum(poly: SparsePoly, seed: int) -> Tuple[float, float]:
    """Minimum of f over seeded sample points, and f's largest |coefficient|."""

    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(SAMPLE_POINTS, poly.n))
    top = max(max(exp) for exp in poly.terms)
    powers = np.empty((top + 1, poly.n, SAMPLE_POINTS))  # powers[k, j] = x_j ** k
    powers[0] = 1.0
    for k in range(1, top + 1):
        powers[k] = powers[k - 1] * points.T
    values = np.zeros(SAMPLE_POINTS)
    cols = np.arange(poly.n)
    for exp, coef in poly.terms.items():
        values += float(coef) * np.prod(powers[list(exp), cols], axis=0)
    scale = max(abs(float(c)) for c in poly.terms.values())
    return float(values.min()), scale


def check_item(
    command: str, xi: str, sampled: Tuple[float, float], reference: Optional[dict]
) -> Optional[str]:
    """Reason a reported bound breaks the gate, or None when it passes.

    xi is the bound as an exact rational string (certify) or a float repr
    (bound); sampled is sample_minimum of the polynomial; reference is the
    stored outcome for this instance, when one exists.  Only items that
    produced a bound come here; run.gate judges the others.
    """

    bound = _as_float(xi)
    low, scale = sampled
    tol = (CERT_SAMPLE_TOL if command == "certify" else BOUND_SAMPLE_TOL) * scale
    if bound - low > tol:
        return f"bound {bound:.12g} exceeds sampled minimum {low:.12g}"
    if reference is None or reference["status"] != "ok":
        return None
    ref = _as_float(reference["xi"])
    if bound < ref - REFERENCE_TOL * (1 + abs(ref)):
        return f"bound {bound:.12g} looser than reference {ref:.12g}"
    return None


def _as_float(text: str) -> float:
    return float(Fraction(text)) if "/" in text else float(text)
