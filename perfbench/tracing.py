"""Outside-in tracing for perfbench: spans around soncert's layer functions.

For the length of one traced item, ``patched`` replaces the module (or class)
attributes through which soncert looks up each layer with a wrapper that
records a span, then puts every original back.  Nothing inside ``src/`` is
edited.  ``round_to_rational`` and ``check_cone_strict`` are deliberately
not wrapped: they run tens of thousands of times per item, so a wrapper
would mostly measure itself.  Their time is part of the self time of
``exact_sobs``.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Sequence, Tuple

# (module, attribute, layer).  The same layer at several sites is one
# function looked up from several modules.
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("soncert.cli", "main", "cli.main"),
    ("soncert.cli", "exact_sobs", "certify.exact_sobs"),
    ("soncert.cli", "lower_bound", "socp.lower_bound"),
    ("soncert.cli", "verify_certificate", "certify.verify_certificate"),
    ("soncert.cli", "poly_loads", "polyring.poly_loads"),
    ("soncert.certify", "Certificate.loads", "certify.cert_loads"),
    ("soncert.socp", "simplex_cover", "cover.simplex_cover"),
    ("soncert.socp", "med_set", "mediated.med_set"),
    ("soncert.socp", "med_set_odd", "mediated.med_set"),
    ("soncert.socp", "build_plan", "socp.build_plan"),
    ("soncert.socp", "assemble", "socp.assemble"),
    ("soncert.socp", "solve_problem", "socp.solve_problem"),
    ("soncert.socp", "solve_socp", "ipm.solve_socp"),
    ("soncert.certify", "lower_bound", "socp.lower_bound"),
    ("soncert.certify", "simplex_cover", "cover.simplex_cover"),
    ("soncert.certify", "build_plan", "socp.build_plan"),
    ("soncert.certify", "assemble", "socp.assemble"),
    ("soncert.certify", "solve_problem", "certify.solve_problem"),
    ("soncert.certify", "project_slots", "certify.project_slots"),
    ("soncert.ipm", "cone_max_step", "ipm.cone_max_step"),
    ("soncert.ipm", "nt_scaling", "ipm.nt_scaling"),
    ("scipy.linalg", "cho_factor", "ipm.cho_factor"),
    ("scipy.sparse.linalg", "splu", "ipm.splu"),
)


def _facts(layer: str, result: Any) -> Dict[str, Any]:
    """Counts read off a layer's return value, cheap enough to take inline."""

    if layer == "cover.simplex_cover":
        return {"circuits": len(result.circuits), "uncovered": len(result.uncovered)}
    if layer == "mediated.med_set":
        return {"triples": len(result)}
    if layer == "socp.build_plan":
        return {"plan": result}  # max_denominator is read after the item
    if layer == "socp.assemble":
        return {"rows": result.num_rows, "nonzeros": len(result.entries)}
    if layer == "ipm.solve_socp":
        return {"iterations": result.iterations, "optimal": result.status == "optimal"}
    return {}


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    facts: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Spans of one traced item, nested by call order in a single thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, layer: str, fn: Any) -> Any:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            try:
                span.facts = _facts(layer, result)
            except (AttributeError, TypeError):
                pass  # a layer whose result changed shape keeps its times
            return result

        return traced


def _owner(module: str, dotted: str) -> Tuple[Any, str]:
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def patched(tracer: Tracer, sites: Sequence[Tuple[str, str, str]] = SITES) -> Iterator[List[str]]:
    """Wrap every site for the body of the with-block; yield absent layers.

    A site whose module or attribute does not exist is skipped and its
    layer reported absent, so a later refactor that renames a layer shows
    up in the output instead of crashing the benchmark.
    """

    saved: List[Tuple[Any, str, Any]] = []
    absent: List[str] = []
    try:
        for module, dotted, layer in sites:
            try:
                owner, attr = _owner(module, dotted)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                absent.append(layer)
                continue
            if isinstance(original, (classmethod, staticmethod)):
                replacement: Any = staticmethod(tracer.wrap(layer, getattr(owner, attr)))
            else:
                replacement = tracer.wrap(layer, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield sorted(set(absent))
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its children's.

    Spans come from one thread's call stack, so the children of a span
    follow one another and never overlap.
    """

    selfs = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            selfs[span.parent] -= span.end - span.start
    return selfs


def has_ancestor(spans: Sequence[Span], index: int, layer: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False


@dataclass
class ItemTrace:
    """Per-layer totals of one traced item."""

    wall: float
    self_s: Dict[str, float]
    total_s: Dict[str, float]
    counts: Dict[str, float]


def summarize(spans: Sequence[Span], start: float, end: float) -> ItemTrace:
    selfs = self_times(spans)
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}

    def bump(key: str, value: float = 1.0) -> None:
        counts[key] = counts.get(key, 0.0) + value

    max_den = 0
    for i, span in enumerate(spans):
        self_s[span.layer] = self_s.get(span.layer, 0.0) + selfs[i]
        total_s[span.layer] = total_s.get(span.layer, 0.0) + (span.end - span.start)
        bump(span.layer)
        for key, value in span.facts.items():
            if key == "plan":
                max_den = max(max_den, value.max_denominator)
            elif key == "optimal":
                bump("ipm.not_optimal", 0.0 if value else 1.0)
            else:
                bump(f"{span.layer}.{key}", float(value))
        if span.layer == "ipm.solve_socp" and has_ancestor(spans, i, "certify.exact_sobs"):
            bump("certify.solves")
    counts["socp.max_denominator"] = float(max_den)
    counts["unattributed_s"] = (end - start) - sum(s.end - s.start for s in spans if s.parent < 0)
    return ItemTrace(end - start, self_s, total_s, counts)
