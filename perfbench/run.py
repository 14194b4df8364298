"""perfbench: end-to-end and per-layer benchmark of the soncert CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-c7 --seed 0 --seconds 10 --trace 0

Each run generates its workload's corpus from --seed (see corpus.py), then
drives the public entry point ``soncert.cli.main`` in-process, one item at a
time, in whole passes over the corpus until a pass ends at least --seconds
after the first began, so every item counts equally in each statistic.
With --trace 0 it reports the end-to-end metrics of an untraced pass.  With
--trace 1 it runs every item twice, once plain and once with spans around
each layer (see tracing.py), alternating which goes first, and reports
per-layer metrics plus the tracing overhead.
Every output is checked by the gate in corpus.py.  The last line of
standard output is one JSON object; the lines before it name each metric
with its unit and sample count.  --out writes the full record, which
compare.py can set against another.

main() pins BLAS and OpenMP to one thread before numpy loads, so a run
keeps to one core and its timings spread less.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, process_time
from typing import Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE_DIR = os.path.join(HERE, "baseline")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

# Set-up is timed this many times per run and its median reported.
SETUP_REPEATS = 3

END_TO_END: Dict[str, str] = {
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Times and counts are per traced item unless the unit says otherwise.
PER_LAYER: Dict[str, str] = {
    "fail_frac": "ratio",
    "verify_p50_s": "s",
    "cert_bits_p50": "bits",
    "ipm.solve_socp_s": "s/item",
    "ipm.cone_max_step_s": "s/item",
    "ipm.nt_scaling_s": "s/item",
    "ipm.kkt_factor_s": "s/item",
    "ipm.newton_self_s": "s/item",
    "ipm.dense_factors": "1/item",
    "ipm.sparse_factors": "1/item",
    "ipm.solves": "1/item",
    "ipm.iterations": "1/solve",
    "ipm.not_optimal": "1/item",
    "cover.simplex_cover_s": "s/item",
    "cover.calls": "1/item",
    "cover.circuits": "1/item",
    "cover.uncovered": "1/item",
    "mediated.med_set_s": "s/item",
    "mediated.triples": "1/item",
    "socp.lower_bound_self_s": "s/item",
    "socp.build_plan_self_s": "s/item",
    "socp.max_denominator": "max",
    "socp.assemble_s": "s/item",
    "socp.rows": "rows/problem",
    "socp.nonzeros": "nnz/problem",
    "socp.solve_problem_self_s": "s/item",
    "certify.exact_sobs_self_s": "s/item",
    "certify.project_slots_s": "s/item",
    "certify.attempts": "1/cert",
    "certify.solves_per_cert": "1/cert",
    "certify.verify_certificate_s": "s/item",
    "certify.cert_loads_s": "s/item",
    "cli.self_s": "s/item",
    "polyring.poly_loads_s": "s/item",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

DECLINED = ("solver-failure", "boundary-failure")
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", metavar="PATH", help="write the full record as JSON")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# statistics


def tail(values: List[float]) -> Tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its rank.

    With fewer than 11 samples that is the maximum (percentile 100).
    """

    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end_metrics(
    records: List[dict], pass_s: float, setup_s: float, rss_mb: float
) -> Dict[str, Tuple[float, str]]:
    """Each end-to-end metric as (value, sample-count note)."""

    latencies = [r["latency_s"] for r in records]
    tail_s, pct = tail(latencies)
    n = len(records)
    cpu_s = sum(r["cpu_s"] for r in records)
    return {
        "items_per_s": (n / pass_s, f"{n} items in {pass_s:.3f} s, {cpu_s:.3f} s of it on the CPU"),
        "latency_p50_s": (statistics.median(latencies), f"n={n}"),
        "latency_tail_s": (tail_s, f"p{pct:.1f}, n={n}"),
        "setup_s": (setup_s, f"median of {SETUP_REPEATS} set-ups"),
        "peak_rss_mb": (rss_mb, "whole process"),
    }


def outcome_metrics(records: List[dict]) -> Dict[str, Tuple[float, str]]:
    """fail_frac, verify_p50_s and cert_bits_p50 over untraced executions."""

    n = len(records)
    bad = sum(1 for r in records if r["status"] != "ok" or r["gate"])
    certs = [r for r in records if r["status"] == "ok" and r["bits"] is not None]
    verify = [r["verify_s"] for r in certs]
    bits = [r["bits"] for r in certs]
    return {
        "fail_frac": (bad / n, f"{bad}/{n} items"),
        "verify_p50_s": (statistics.median(verify) if verify else 0.0, f"n={len(verify)}"),
        "cert_bits_p50": (statistics.median(bits) if bits else 0.0, f"n={len(bits)}"),
    }


def per_layer_metrics(traces: list, plain_wall: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced items (tracing.ItemTrace)."""

    n = len(traces)

    def total(kind: str, *layers: str) -> float:
        return sum(getattr(t, kind).get(layer, 0.0) for t in traces for layer in layers)

    def count(key: str) -> float:
        return sum(t.counts.get(key, 0.0) for t in traces)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = sum(t.wall for t in traces)
    per_item = {
        "ipm.solve_socp_s": total("total_s", "ipm.solve_socp"),
        "ipm.cone_max_step_s": total("total_s", "ipm.cone_max_step"),
        "ipm.nt_scaling_s": total("total_s", "ipm.nt_scaling"),
        "ipm.kkt_factor_s": total("total_s", "ipm.cho_factor", "ipm.splu"),
        "ipm.newton_self_s": total("self_s", "ipm.solve_socp"),
        "ipm.dense_factors": count("ipm.cho_factor"),
        "ipm.sparse_factors": count("ipm.splu"),
        "ipm.solves": count("ipm.solve_socp"),
        "ipm.not_optimal": count("ipm.not_optimal"),
        "cover.simplex_cover_s": total("total_s", "cover.simplex_cover"),
        "cover.calls": count("cover.simplex_cover"),
        "cover.circuits": count("cover.simplex_cover.circuits"),
        "cover.uncovered": count("cover.simplex_cover.uncovered"),
        "mediated.med_set_s": total("total_s", "mediated.med_set"),
        "mediated.triples": count("mediated.med_set.triples"),
        "socp.lower_bound_self_s": total("self_s", "socp.lower_bound"),
        "socp.build_plan_self_s": total("self_s", "socp.build_plan"),
        "socp.assemble_s": total("total_s", "socp.assemble"),
        "socp.solve_problem_self_s": total("self_s", "socp.solve_problem", "certify.solve_problem"),
        "certify.exact_sobs_self_s": total("self_s", "certify.exact_sobs"),
        "certify.project_slots_s": total("total_s", "certify.project_slots"),
        "certify.verify_certificate_s": total("total_s", "certify.verify_certificate"),
        "certify.cert_loads_s": total("total_s", "certify.cert_loads"),
        "cli.self_s": total("self_s", "cli.main"),
        "polyring.poly_loads_s": total("total_s", "polyring.poly_loads"),
    }
    note = f"mean of {n} traced items"
    out = {name: (value / n, note) for name, value in per_item.items()}
    solves, problems, certs = count("ipm.solve_socp"), count("socp.assemble"), count("certify.exact_sobs")
    out["ipm.iterations"] = (ratio(count("ipm.solve_socp.iterations"), solves), f"{solves:.0f} solves")
    out["socp.rows"] = (ratio(count("socp.assemble.rows"), problems), f"{problems:.0f} problems")
    out["socp.nonzeros"] = (ratio(count("socp.assemble.nonzeros"), problems), f"{problems:.0f} problems")
    out["socp.max_denominator"] = (max(t.counts["socp.max_denominator"] for t in traces),
                                   f"max over {n} traced items")
    out["certify.attempts"] = (ratio(count("certify.solve_problem"), certs), f"{certs:.0f} certificates")
    out["certify.solves_per_cert"] = (ratio(count("certify.solves"), certs), f"{certs:.0f} certificates")
    out["trace.unattributed_frac"] = (count("unattributed_s") / wall, note)
    out["trace.overhead_frac"] = (wall / plain_wall - 1.0, f"{n} traced/plain pairs")
    return out


# --------------------------------------------------------------------------
# running items


class Runner:
    """Runs workload items through ``soncert.cli.main`` in this process."""

    def __init__(self, workload, cli_module, cover_module, work_dir: str = WORK_DIR) -> None:
        self.workload = workload
        self.cli = cli_module
        self.cover = cover_module
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.poly_paths: Dict[str, str] = {}

    def write(self, items: list) -> None:
        from soncert.polyring import poly_dumps

        for item in items:
            path = os.path.join(self.work_dir, f"{self.workload.name}-{item.seed}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(poly_dumps(item.poly))
            self.poly_paths[item.name] = path

    def reset_cache(self) -> bool:
        cache = getattr(self.cover, "_COVER_CACHE", None)
        if cache is None:
            return False
        cache.clear()
        return True

    def _call(self, argv: List[str]) -> Tuple[int, str, float]:
        out = io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue(), perf_counter() - start

    def run(self, item) -> dict:
        """One item: certify then verify, or bound.  Never raises."""

        poly = self.poly_paths[item.name]
        cert = os.path.join(self.work_dir, f"{self.workload.name}-cert.json")
        rec = {"name": item.name, "seed": item.seed, "status": "error", "reason": "",
               "xi": None, "bits": None, "verify_s": None, "latency_s": 0.0, "cpu_s": 0.0, "gate": ""}
        if os.path.exists(cert):
            os.remove(cert)
        start, cpu = perf_counter(), process_time()
        try:
            if self.workload.command == "certify":
                code, text, _ = self._call(["certify", poly, "-o", cert, "--json"])
                report = json.loads(text.splitlines()[0])
                if code == 0 and report["status"] == "ok":
                    _, verdict, rec["verify_s"] = self._call(["verify", poly, cert, "--json"])
                    verdict = json.loads(verdict)
                    if not verdict["ok"]:
                        rec["gate"] = f"verify rejected the certificate: {verdict['reason']}"
                    rec["xi"], rec["bits"] = report["exact_xi"], report["certificate_bits"]
            else:
                code, text, _ = self._call(["bound", poly, "--json"])
                report = json.loads(text.splitlines()[0])
                if report["xi"] is not None:
                    rec["xi"] = repr(float(report["xi"]))
            rec["status"], rec["reason"] = report["status"], report["reason"]
        except Exception as err:  # the benchmark must outlive any one item
            rec["status"], rec["reason"] = "error", f"{type(err).__name__}: {err}"
            rec["traceback"] = traceback.format_exc()
        rec["latency_s"] = perf_counter() - start
        rec["cpu_s"] = process_time() - cpu
        return rec


def whole_passes(items: list, seconds: float) -> Iterator:
    """The items, pass after pass, until a pass ends ``seconds`` or more after the start."""

    start = perf_counter()
    while True:
        yield from items
        if perf_counter() - start >= seconds:
            return


def timed_pass(runner: Runner, items: list, seconds: float) -> Tuple[List[dict], float]:
    records: List[dict] = []
    start = perf_counter()
    for item in whole_passes(items, seconds):
        runner.reset_cache()
        records.append(runner.run(item))
    return records, perf_counter() - start


def traced_pass(runner: Runner, items: list, seconds: float):
    import tracing

    plain: List[dict] = []
    traced: List[dict] = []
    absent: set = set()
    for index, item in enumerate(whole_passes(items, seconds)):
        for is_traced in (False, True) if index % 2 == 0 else (True, False):
            runner.reset_cache()
            if not is_traced:
                plain.append(runner.run(item))
                continue
            tracer = tracing.Tracer()
            with tracing.patched(tracer) as missing:
                t0 = perf_counter()
                rec = runner.run(item)
                t1 = perf_counter()
            absent.update(missing)
            rec["trace"] = tracing.summarize(tracer.spans, t0, t1)
            traced.append(rec)
    return plain, traced, sorted(absent)


# --------------------------------------------------------------------------
# main


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in PINNED_THREADS},
    }


def load_reference(workload: str) -> Dict[int, dict]:
    path = os.path.join(BASELINE_DIR, f"{workload}.trace0.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        items = json.load(handle)["items"]
    return {r["seed"]: {"status": r["status"], "xi": r["xi"]} for r in reversed(items)}


def gate(workload, items: list, records: List[dict]) -> None:
    """Fill each record's gate field with the reason it fails, if it does.

    An item fails when it raised, when the stored reference answered it but
    this run did not, or when its bound breaks corpus.check_item.
    """

    import corpus

    polys = {item.seed: item.poly for item in items}
    reference = load_reference(workload.name)
    sampled: Dict[int, Tuple[float, float]] = {}
    for rec in records:
        if rec["gate"]:
            continue
        seed = rec["seed"]
        ref = reference.get(seed)
        if rec["status"] == "error":
            rec["gate"] = f"error: {rec['reason']}"
            continue
        if rec["status"] != "ok":
            if ref is not None and ref["status"] == "ok":
                rec["gate"] = f"{rec['status']} where the reference answered ok"
            continue
        if seed not in sampled:
            sampled[seed] = corpus.sample_minimum(polys[seed], seed)
        rec["gate"] = corpus.check_item(workload.command, rec["xi"], sampled[seed], ref) or ""


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    t0 = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
        import soncert.cli as cli_module
        import soncert.cover as cover_module
        import corpus
    except ImportError as err:
        fail(f"cannot import soncert from {os.path.join(ROOT, 'src')}: {err}")
    if not os.path.abspath(cli_module.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        fail(f"soncert was imported from {cli_module.__file__}, not from this checkout")
    import_s = perf_counter() - t0
    if args.workload not in corpus.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(corpus.WORKLOADS)}")
    workload = corpus.WORKLOADS[args.workload]
    runner = Runner(workload, cli_module, cover_module)

    setups, hashes = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        items = workload.items(args.seed)
        runner.write(items)
        cache_present = runner.reset_cache()
        setups.append(perf_counter() - t0)
        hashes.add(corpus.corpus_sha256(items))
    if len(hashes) != 1:
        fail("corpus generation is not deterministic: set-ups gave different corpora")
    from soncert.generate import random_instance

    warm = corpus.Item(f"{workload.name}/warm-up", -1, random_instance(**corpus.WARMUP).poly)
    runner.write([warm])
    t0 = perf_counter()
    warm_rec = runner.run(warm)
    runner.reset_cache()
    warm_s = perf_counter() - t0
    if warm_rec["status"] != "ok":
        fail(f"warm-up item failed: {warm_rec['status']} {warm_rec['reason']}")
    setup_s = import_s + statistics.median(setups) + warm_s

    corpus_sha = hashes.pop()
    env = environment()
    print(f"perfbench workload={workload.name} seed={args.seed} items={len(items)} "
          f"corpus_sha256={corpus_sha}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads")
          + " blas_threads=1 (" + ",".join(PINNED_THREADS) + " pinned to 1 by perfbench)")
    if not cache_present:
        print("note: soncert.cover._COVER_CACHE is absent, nothing to clear")

    absent: List[str] = []
    if args.trace:
        plain, traced, absent = traced_pass(runner, items, args.seconds)
        records = plain + traced
    else:
        plain, pass_s = timed_pass(runner, items, args.seconds)
        records = plain
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate(workload, items, records)

    shown = outcome_metrics(plain)
    if args.trace:
        plain_wall = sum(r["latency_s"] for r in plain)
        shown.update(per_layer_metrics([r["trace"] for r in traced], plain_wall))
        reported = {name: shown[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        e2e = end_to_end_metrics(plain, pass_s, setup_s, rss_mb)
        reported = e2e
        units = END_TO_END
        shown = {**e2e, **shown}
    all_units = {**END_TO_END, **PER_LAYER}
    for name, (value, note) in shown.items():
        print(f"metric {name} = {value!r} {all_units[name]} ({note})")
    if absent:
        print("absent layers (reported as 0): " + " ".join(absent))
    failed = [r for r in records if r["gate"]]
    listed = set()
    for rec in records:
        kind = "FAILED" if rec["gate"] else "declined" if rec["status"] in DECLINED else None
        if kind and (rec["name"], rec["status"]) not in listed:
            listed.add((rec["name"], rec["status"]))
            print(f"{kind} {rec['name']} {rec['status']}: {(rec['gate'] or rec['reason'])[:160]}")

    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in reported.items()},
    }
    if args.out:
        for rec in traced if args.trace else ():
            rec["trace"] = dataclasses.asdict(rec["trace"])
        record = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "corpus_sha256": corpus_sha, "corpus_items": len(items),
            "env": env, "setup_runs_s": setups, "import_s": import_s, "warmup_s": warm_s,
            "absent_layers": absent, "result": result,
            "notes": {name: note for name, (_, note) in shown.items()},
            "metrics": {name: value for name, (value, _) in shown.items()},
            "items": records,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
