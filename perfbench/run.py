"""Benchmark of the fggc query path: source text + parameters -> start weights.

    python3 perfbench/run.py --workload cky --seed 1 --seconds 45 --trace 0

Runs one seeded workload (see workloads.py) in a closed loop with one
client: each query starts when the previous one has returned. The queries
of the workload's set run in turn, over and over, until every one has run
and `--seconds` of wall time have passed, so no query is timed more than
once more often than another. Each query is followed by a reading of the
machine's speed (speed.py), and its times are scaled to reference speed.
Every answer is checked against an oracle that shares only the parser and
the parameter reader with the compiler; a query that raises, does not converge or misses its oracle
is counted as failed, and the run goes on. `attempted` and `failed` count
distinct queries, so they depend on the seed only.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1`
it alternates untraced passes with traced ones, in which each layer call is
wrapped in a span, and reports per-layer metrics and the tracing overhead.
The spans are written to .bench_out/ at the root of the checkout.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# BLAS threads are fixed so that the two cores are not shared between the
# benchmark's one client and a BLAS pool.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 21
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fggc; "
                "t = time.perf_counter() - t; print(fggc.__file__); print(repr(t))")

END_TO_END = {  # name: (unit, meaning)
    "query_p50_s": ("s", "median query latency, compile + solve, over per-query medians"),
    "query_tail_s": ("s", "highest percentile with ten samples beyond it, at least p50"),
    "queries_per_s": ("1/s", "correct answers per second of query time, one pass of the set"),
    "ok_frac": ("frac", "share of queries converged and within 1e-9 of the oracle"),
    "compile_p50_s": ("s", "median compile_source time, source to simplified FGG"),
    "infer_p50_s": ("s", "median solve_fixed_point time"),
    "fgg_rules": ("count", "mean rules of the compiled grammar per query"),
    "fgg_factor_entries": ("count", "mean factor-table entries of the compiled grammar per query"),
    "peak_rss_mb": ("MB", "peak resident memory of the benchmark process"),
    "setup_s": ("s", f"median time to import fggc in a fresh process, of {SETUP_RUNS}"
                     " spread over the run"),
}

PER_LAYER = {  # name: (unit, meaning); times are medians per traced query, scaled
    "parser.parse_s": ("s", "parse self time"),
    "frontend.scope_s": ("s", "desugar + scope_check self time"),
    "frontend.domains_s": ("s", "assign_domains self time"),
    "frontend.domain_values": ("count", "sum of interned domain sizes, mean per query"),
    "frontend.max_domain": ("count", "largest interned domain, mean per query"),
    "translate.translate_s": ("s", "translate self time"),
    "translate.rules": ("count", "rules after translate, mean per query"),
    "translate.factor_entries": ("count", "factor entries after translate, mean per query"),
    "translate.simplify_s": ("s", "simplify (all passes, one call) self time"),
    "translate.simplify_rules": ("count", "rules after simplify, mean per query"),
    "translate.simplify_nodes": ("count", "rule nodes after simplify, mean per query"),
    "translate.fired.inline": ("count", "inline firings, mean per query"),
    "translate.fired.compose": ("count", "compose firings, mean per query"),
    "translate.fired.contract": ("count", "contract firings, mean per query"),
    "translate.fired.prune": ("count", "prune firings, mean per query"),
    "translate.pass.inline_s": ("s", "simplify(cu, ('inline',)) alone, outside the query"),
    "translate.pass.compose_s": ("s", "then simplify(cu, ('compose',)), outside the query"),
    "translate.pass.contract_s": ("s", "then simplify(cu, ('contract',)), outside the query"),
    "translate.pass.prune_s": ("s", "then simplify(cu, ('prune',)), outside the query"),
    "inference.plan_s": ("s", "separate plan_elimination over every rule, outside the query"),
    "inference.plan_cost": ("ops", "sum of EliminationPlan.cost over rules, mean per query"),
    "inference.plan_cost_max": ("ops", "largest rule EliminationPlan.cost, mean per query"),
    "inference.solve_s": ("s", "solve_fixed_point self time, its own planning included"),
    "inference.iterations": ("count", "solver iterations, mean per query"),
    "inference.ops": ("ops", "SolverState.ops, mean per query"),
    "inference.ops_per_iter": ("ops/iter", "total ops over total iterations"),
    "inference.s_per_iter": ("s/iter", "median of solve time over iterations"),
    "inference.ops_per_planned": ("ratio", "ops over iterations x plan_cost, summed over queries"),
    "inference.converged": ("count", "queries ending in status converged"),
    "inference.max_iter": ("count", "queries ending in status max-iter"),
    "inference.divergent": ("count", "queries ending in status divergent"),
    "inference.rel_err_max": ("ratio", "largest error relative to the oracle's largest entry"),
    "bench.query_s": ("s", "median traced query span"),
    "bench.glue_s": ("s", "median query-span self time: benchmark code between layer calls"),
    "bench.trace_overhead_frac": ("frac", "median over queries of traced over untraced "
                                  "query time, minus one"),
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def load_library():
    """Import fggc from this checkout's src/, and nowhere else."""
    if not (SRC / "fggc" / "__init__.py").is_file():
        raise ImportError(f"no fggc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fggc
    if Path(fggc.__file__).resolve().parent != (SRC / "fggc").resolve():
        raise ImportError(f"imported fggc from {fggc.__file__}, not from {SRC}")


def child_env() -> dict:
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}


def import_time() -> float:
    """Time `import fggc` in a fresh interpreter, which is waited for."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    where, seconds = done.stdout.split()
    if Path(where).resolve().parent != (SRC / "fggc").resolve():
        raise RuntimeError(f"fresh interpreter imported fggc from {where}")
    return float(seconds)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; never below the median, which it is for 21 samples or fewer."""
    s = sorted(values)
    i = max(len(s) - 11, len(s) // 2)
    return s[i], 100.0 * (i + 1) / len(s)


def per_query(samples: list, n: int, attr: str) -> list[float]:
    """Each distinct query's median scaled time over its runs. `samples`
    holds (outcome, speed scale) pairs, the `n` queries in turn, over and
    over, so the statistics rest on `n` samples however many rounds the
    run had time for."""
    return [statistics.median(getattr(o, attr) * k for o, k in samples[i::n]) for i in range(n)]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# The functions below import fggc, and the benchmark modules that import it,
# only when called: main() first fixes the BLAS thread count and puts this
# checkout's src/ on the path.


def prepare(workload: str, seed: int):
    import workloads
    from fggc.params import params_from_json
    return [(q, params_from_json(q.params)) for q in workloads.queries(workload, seed)]


def judge_all(cases, outs) -> tuple[list, bool]:
    """Check every answer against its oracle, computed here, after the
    timed loop, so the oracle's time and memory stay out of the metrics.

    `outs` holds the cases in turn, over and over. Returns the first run of
    each case, and whether every later run of a case got the same verdict:
    the same inputs must give the same answer."""
    import workloads
    from harness import judge
    wants = [workloads.oracle(q) for q, _ in cases]
    for i, out in enumerate(outs):
        judge(out, wants[i % len(cases)])
    first = outs[:len(cases)]
    same = all((o.status, o.ok, o.explained) == (first[i % len(cases)].status,
                                                  first[i % len(cases)].ok,
                                                  first[i % len(cases)].explained)
               for i, o in enumerate(outs))
    return first, same


def timed_pass(cases, gauge, run) -> list:
    """`run(q, params)` for each case, each followed by a speed reading."""
    done = []
    for q, params in cases:
        gc.collect()
        out = run(q, params)
        done.append((out, gauge.scale()))
    return done


def failure_summary(outs) -> list[str]:
    kinds: dict[str, int] = {}
    for o in outs:
        if not o.ok:
            kind = o.error.split(":")[0] if o.status == "error" else o.status
            kinds[kind] = kinds.get(kind, 0) + 1
    lines = [f"  failed {n}: {kind}" for kind, n in sorted(kinds.items())]
    errors = [o.error for o in outs if o.status == "error"]
    if errors:
        lines.append(f"  first error: {errors[0][:200]}")
    return lines


def end_to_end(cases, seconds: float) -> tuple[dict, list, bool, list[str]]:
    from harness import run_query
    from speed import SpeedGauge

    def query(q, params):
        return run_query(q.source, params)

    query(*cases[0])  # warm-up: lazy imports and first-call costs
    gc.collect()
    gc.freeze()
    gauge = SpeedGauge()
    samples, setup = [], []
    t0 = time.perf_counter()
    while len(samples) < len(cases) or time.perf_counter() - t0 < seconds:
        # the import probes are spread evenly over the first `seconds`,
        # between queries, so that they sample the same machine as the queries
        due = len(setup) * seconds / SETUP_RUNS
        if len(setup) < SETUP_RUNS and time.perf_counter() - t0 >= due:
            raw = import_time()
            setup.append((raw, raw * gauge.scale()))
            continue
        samples += timed_pass([cases[len(samples) % len(cases)]], gauge, query)
    while len(setup) < SETUP_RUNS:
        raw = import_time()
        setup.append((raw, raw * gauge.scale()))
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first, same = judge_all(cases, [o for o, _ in samples])
    n = len(cases)
    lat = per_query(samples, n, "latency_s")
    tail_s, tail_pct = tail(lat)
    compiled = [o.counts for o in first if o.counts]
    m = {
        "query_p50_s": statistics.median(lat),
        "query_tail_s": tail_s,
        "queries_per_s": sum(o.ok for o in first) / sum(lat),
        "ok_frac": sum(o.ok for o in first) / n,
        "compile_p50_s": statistics.median(per_query(samples, n, "compile_s")),
        "infer_p50_s": statistics.median(per_query(samples, n, "infer_s")),
        "fgg_rules": mean(c["rules"] for c in compiled),
        "fgg_factor_entries": mean(c["factor_entries"] for c in compiled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(s for _, s in setup),
    }
    scales = [k for _, k in samples]
    raw_lat = [statistics.median(o.latency_s for o, _ in samples[i::n]) for i in range(n)]
    notes = [f"{len(samples)} timed queries, {len(samples) / n:.2f} rounds over {n} distinct "
             f"queries, {wall:.1f} s wall; times are scaled to reference speed, medians "
             f"over the {n} per-query medians, tail is p{tail_pct:.1f}",
             f"speed scale per query: min {min(scales):.3f}, median "
             f"{statistics.median(scales):.3f}, max {max(scales):.3f}; unscaled median of "
             f"per-query median latencies {statistics.median(raw_lat):.6g} s",
             "setup runs, unscaled: " + ", ".join(f"{r:.4f}" for r, _ in setup) + " s",
             "setup runs, scaled: " + ", ".join(f"{s:.4f}" for _, s in setup) + " s"]
    if not same:
        notes.append("  repeated runs of one query got different verdicts")
    notes += failure_summary(first)
    return m, first, same, notes


def per_layer(cases, seconds: float, workload: str,
              seed: int) -> tuple[dict, list, bool, list[str]]:
    from fggc.translate import ALL_PASSES
    from harness import LAYERS, STATUSES, Tracer, run_query, run_traced_query
    from speed import SpeedGauge
    tracer = Tracer()

    def plain_query(q, params):
        return run_query(q.source, params)

    def traced_query(q, params):
        return run_traced_query(tracer, q.qid, q.source, params)

    plain_query(*cases[0])
    gc.collect()
    gc.freeze()
    gauge = SpeedGauge()
    plain, traced = [], []
    passes = 0
    t0 = time.perf_counter()
    while passes < 2 or time.perf_counter() - t0 < seconds:
        if passes % 2 == 0:
            plain += timed_pass(cases, gauge, plain_query)
        else:
            traced += timed_pass(cases, gauge, traced_query)
        passes += 1
    first, same = judge_all(cases, [o for o, _ in plain] + [t[0] for t, _ in traced])
    n = len(cases)
    # (outcome, root span, layer counts, speed scale) of each traced run
    runs = [(o, root, x, k) for (o, root, x), k in traced]
    done = [r for r in runs if r[0].status != "error"]
    layers = [x for o, _, x, _ in runs[:n] if o.status != "error"]

    # self times and the separate measurement spans, scaled like the query
    selfs = [{name: v * k for name, v in tracer.self_times(root).items()}
             for _, root, _, k in done]
    aux: dict[str, list[float]] = {}
    span_scale = {root.qid: k for _, root, _, k in runs}
    for sp in tracer.spans:
        if sp.parent is None and sp.name != "query":
            aux.setdefault(sp.name, []).append((sp.end - sp.start) * span_scale.get(sp.qid, 1.0))
    spans = [(root.end - root.start) * k for _, root, _, k in runs]
    # each query's traced time over its untraced time, both per-query medians:
    # a paired comparison, unmoved by which query happens to be the median
    overhead = statistics.median(
        statistics.median(spans[i::n]) / p - 1.0
        for i, p in enumerate(per_query(plain, n, "latency_s")))

    def med_self(name):
        return statistics.median(s.get(name, 0.0) for s in selfs) if selfs else 0.0

    iters = sum(x["iterations"] for x in layers)
    ops = sum(x["ops"] for x in layers)
    planned = sum(x["iterations"] * x["plan_cost"] for x in layers)
    status = {s: sum(o.status == s for o in first) for s in STATUSES}
    m = {
        "parser.parse_s": med_self("parser.parse"),
        "frontend.scope_s": med_self("frontend.scope"),
        "frontend.domains_s": med_self("frontend.domains"),
        "frontend.domain_values": mean(x["domain_values"] for x in layers),
        "frontend.max_domain": mean(x["max_domain"] for x in layers),
        "translate.translate_s": med_self("translate.translate"),
        "translate.rules": mean(x["translate"]["rules"] for x in layers),
        "translate.factor_entries": mean(x["translate"]["factor_entries"] for x in layers),
        "translate.simplify_s": med_self("translate.simplify"),
        "translate.simplify_rules": mean(x["simplify"]["rules"] for x in layers),
        "translate.simplify_nodes": mean(x["simplify"]["nodes"] for x in layers),
    }
    for p in ALL_PASSES:
        m[f"translate.fired.{p}"] = mean(x["fired"].get(p, 0) for x in layers)
        m[f"translate.pass.{p}_s"] = statistics.median(aux.get(f"translate.pass.{p}", [0.0]))
    m.update({
        "inference.plan_s": statistics.median(aux.get("inference.plan", [0.0])),
        "inference.plan_cost": mean(x["plan_cost"] for x in layers),
        "inference.plan_cost_max": mean(x["plan_cost_max"] for x in layers),
        "inference.solve_s": med_self("inference.solve"),
        "inference.iterations": mean(x["iterations"] for x in layers),
        "inference.ops": mean(x["ops"] for x in layers),
        "inference.ops_per_iter": ops / iters if iters else 0.0,
        "inference.s_per_iter": statistics.median(
            [s["inference.solve"] / x["iterations"]
             for s, (_, _, x, _) in zip(selfs, done) if x["iterations"]] or [0.0]),
        "inference.ops_per_planned": ops / planned if planned else 0.0,
        "inference.converged": status["converged"],
        "inference.max_iter": status["max-iter"],
        "inference.divergent": status["divergent"],
        "inference.rel_err_max": max((o.rel_err for o in first if o.status != "error"),
                                     default=0.0),
        "bench.query_s": statistics.median(spans),
        "bench.glue_s": med_self("query"),
        "bench.trace_overhead_frac": overhead,
    })

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump([sp.__dict__ for sp in tracer.spans], f)
        f.write("\n")

    total_span = sum(spans[i] for i, r in enumerate(runs) if r[0].status != "error")
    by_layer = {layer: sum(v for s in selfs for k, v in s.items() if k.startswith(layer + "."))
                for layer in LAYERS}
    glue = sum(s.get("query", 0.0) for s in selfs)
    notes = [f"{len(traced)} traced and {len(plain)} untraced queries in {passes} "
             f"alternating passes over {n} distinct queries; times are scaled to "
             "reference speed",
             "self time, summed over traced queries that raised nothing: "
             + " + ".join(f"{k} {v:.4f}" for k, v in by_layer.items())
             + f" + glue {glue:.4f} = {sum(by_layer.values()) + glue:.4f} s;"
             f" their query spans total {total_span:.4f} s",
             "inference.plan_s is a separate plan_elimination call; inference.solve_s "
             "includes the solver's own planning",
             f"spans (unscaled) written to {path.relative_to(ROOT)}"]
    if not same:
        notes.append("  repeated runs of one query got different verdicts")
    notes += failure_summary(first)
    return m, first, same, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    try:
        load_library()
    except ImportError as e:
        return fail(str(e))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r} "
                    f"(choose from {', '.join(workloads.WORKLOADS)})")

    import numpy
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"closed loop, one client; Python {sys.version.split()[0]}, numpy "
          f"{numpy.__version__}, {os.cpu_count()} CPUs, BLAS threads "
          f"{BLAS_ENV['OPENBLAS_NUM_THREADS']}")
    t = time.perf_counter()
    cases = prepare(args.workload, args.seed)
    print(f"generated {len(cases)} queries in "
          f"{time.perf_counter() - t:.1f} s (not timed)")

    if args.trace:
        metrics, outs, same, notes = per_layer(cases, args.seconds, args.workload, args.seed)
        table = PER_LAYER
    else:
        metrics, outs, same, notes = end_to_end(cases, args.seconds)
        table = END_TO_END
    for line in notes:
        print(line)
    for name, (unit, meaning) in table.items():
        print(f"  {name:28s} {metrics[name]:>14.6g} {unit:8s} {meaning}")
    result = {
        "correct": same and all(o.explained for o in outs),
        "attempted": len(outs),
        "failed": sum(not o.ok for o in outs),
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]} for name in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
