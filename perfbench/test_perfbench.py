"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import SITES, Span, Tracer, patched, self_times, summarize  # noqa: E402


def _static(module: str, dotted: str):
    return inspect.getattr_static(*tracing._owner(module, dotted))


def test_patched_restores_every_original_even_on_error():
    originals = [_static(m, a) for m, a, _ in SITES]
    with pytest.raises(RuntimeError):
        with patched(Tracer()) as absent:
            assert absent == []
            for (m, a, _), original in zip(SITES, originals):
                assert _static(m, a) is not original
            raise RuntimeError("boom")
    for (m, a, _), original in zip(SITES, originals):
        assert _static(m, a) is original


def test_missing_site_is_reported_absent():
    sites = SITES[:1] + (("soncert.cover", "no_such_layer", "cover.gone"),)
    with patched(Tracer(), sites) as absent:
        assert absent == ["cover.gone"]


def test_traced_bound_records_nested_layers(tmp_path):
    from soncert import cli
    from soncert.generate import random_instance
    from soncert.polyring import poly_dumps

    path = tmp_path / "poly.json"
    path.write_text(poly_dumps(random_instance(3, 8, 14, interior=True, seed=7).poly))
    tracer = Tracer()
    with patched(tracer):
        start = tracing.perf_counter()
        assert cli.main(["bound", str(path), "--json"]) == 0
        end = tracing.perf_counter()
    trace = summarize(tracer.spans, start, end)
    assert tracer.spans[0].layer == "cli.main" and tracer.spans[0].parent == -1
    for layer in ("polyring.poly_loads", "socp.lower_bound", "cover.simplex_cover",
                  "socp.build_plan", "socp.assemble", "ipm.solve_socp", "ipm.cone_max_step"):
        assert trace.counts.get(layer, 0) >= 1, layer
    assert trace.counts["ipm.solve_socp"] == 1
    assert sum(trace.self_s.values()) == pytest.approx(trace.wall - trace.counts["unattributed_s"])


def test_self_time_is_parent_minus_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 3.0, 4.0, 0),
        Span("c", 5.0, 6.0, 0),
        Span("c.child", 5.2, 5.7, 3),
        Span("second", 10.5, 11.0, -1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 2.0 - 1.0 - 1.0, 2.0, 1.0, 0.5, 0.5, 0.5])
    trace = summarize(spans, -1.0, 12.0)
    assert trace.counts["unattributed_s"] == pytest.approx(13.0 - 10.5)


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def test_every_printed_metric_is_declared_with_its_unit():
    records = [
        {"status": "ok", "gate": "", "bits": 100, "verify_s": 0.1, "latency_s": 0.5, "cpu_s": 0.5},
        {"status": "solver-failure", "gate": "", "bits": None, "verify_s": None, "latency_s": 0.7,
         "cpu_s": 0.6},
    ]
    spans = [Span("cli.main", 0.0, 1.0, -1), Span("ipm.solve_socp", 0.1, 0.9, 0)]
    spans[1].facts = {"iterations": 20, "optimal": True}
    per_layer = {**run.outcome_metrics(records),
                 **run.per_layer_metrics([summarize(spans, 0.0, 1.0)], 0.9)}
    e2e = run.end_to_end_metrics(records, 1.2, 3.0, 80.0)
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")
    assert set(e2e) == set(run.END_TO_END)
    assert set(per_layer) == set(run.PER_LAYER)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(v) for v in range(1, 31)]
    value, pct = run.tail(values)
    assert value == 20.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_gate_accepts_tighter_and_rejects_looser_or_too_high_bounds():
    from corpus import check_item

    sampled = (2.0, 10.0)  # sampled minimum 2, largest coefficient 10
    ref = {"status": "ok", "xi": "3/2"}
    assert check_item("certify", "3/2", sampled, ref) is None
    assert check_item("certify", "7/4", sampled, ref) is None
    assert "looser" in check_item("certify", "1/1", sampled, ref)
    assert "exceeds" in check_item("certify", "201/100", sampled, None)
    assert check_item("bound", "2.0000001", sampled, {"status": "solver-failure", "xi": None}) is None


def _record(seed: int, status: str, xi=None) -> dict:
    return {"name": f"w/seed={seed}", "seed": seed, "status": status, "reason": "r",
            "xi": xi, "gate": ""}


def test_gate_fails_errors_and_declines_the_reference_answered(monkeypatch):
    import corpus

    workload = corpus.Workload("w", "bound", 4, lambda seed, size: [])
    items = [corpus.Item(f"w/seed={i}", i, corpus.random_instance(**corpus.WARMUP).poly)
             for i in range(4)]
    monkeypatch.setattr(run, "load_reference", lambda name: {
        0: {"status": "ok", "xi": "-1e9"},
        1: {"status": "solver-failure", "xi": None},
        3: {"status": "ok", "xi": "-1e9"},
    })
    records = [
        _record(0, "solver-failure"),  # the reference answered: fails
        _record(1, "solver-failure"),  # declined in the reference too: passes
        _record(2, "error"),           # raised: always fails
        _record(3, "ok", "-1e9"),      # same answer as the reference: passes
        _record(1, "ok", "-1e9"),      # answers where the reference declined: passes
    ]
    run.gate(workload, items, records)
    assert [bool(r["gate"]) for r in records] == [True, False, True, False, False]
    assert "reference" in records[0]["gate"] and records[2]["gate"] == "error: r"


def test_timed_pass_runs_whole_passes_over_the_corpus():
    class Fake:
        def reset_cache(self):
            return True

        def run(self, item):
            return {"name": item}

    records, _ = run.timed_pass(Fake(), ["a", "b", "c"], 0.0)
    assert [r["name"] for r in records] == ["a", "b", "c"]
    records, elapsed = run.timed_pass(Fake(), ["a", "b", "c"], 0.001)
    assert len(records) % 3 == 0 and elapsed >= 0.001


def test_each_item_and_the_warm_up_get_their_own_file(tmp_path):
    import corpus
    from soncert.generate import random_instance
    from soncert.polyring import poly_dumps

    workload = corpus.WORKLOADS["certify-c7"]
    items = workload.items(0)[:3]
    runner = run.Runner(workload, None, None, str(tmp_path))
    runner.write(items)
    runner.write([corpus.Item("warm-up", -1, random_instance(**corpus.WARMUP).poly)])
    for item in items:
        with open(runner.poly_paths[item.name], encoding="utf-8") as handle:
            assert handle.read() == poly_dumps(item.poly)


def test_an_item_that_raises_is_recorded_as_error(tmp_path):
    import corpus
    from soncert.generate import random_instance

    class Broken:
        @staticmethod
        def main(argv):
            raise KeyError("triples")

    item = corpus.Item("x", 5, random_instance(**corpus.WARMUP).poly)
    runner = run.Runner(corpus.WORKLOADS["bound-c6"], Broken, None, str(tmp_path))
    runner.write([item])
    rec = runner.run(item)
    assert rec["status"] == "error" and rec["reason"] == "KeyError: 'triples'"
    assert "KeyError" in rec["traceback"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-c7", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
