"""Running, checking and tracing queries.

`run_query` is the query exactly as `fggc infer` makes it:
`compile_source` with every pass, then `solve_fixed_point` with its
defaults. `run_traced_query` makes the same calls one layer at a time and
records a span around each, from outside the library.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from fggc.frontend import DomainError, assign_domains, desugar, scope_check
from fggc.inference import CONVERGED, DIVERGENT, MAX_ITER, plan_elimination, solve_fixed_point
from fggc.parser import parse
from fggc.translate import ALL_PASSES, compile_source, simplify, translate

REL_TOL = 1e-9   # per entry, relative to the oracle's largest entry
STATUSES = (CONVERGED, MAX_ITER, DIVERGENT)
LAYERS = ("parser", "frontend", "translate", "inference")


@dataclass
class Outcome:
    """One query run: its timings, what it returned, and the verdict."""
    compile_s: float
    infer_s: float
    status: str = "error"        # solver status, or "error" if a call raised
    error: str = ""
    answer: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    rel_err: float = math.inf
    ok: bool = False             # converged and within REL_TOL of the oracle
    explained: bool = False      # ok, or wrong only in the known ways

    @property
    def latency_s(self) -> float:
        return self.compile_s + self.infer_s


def grammar_counts(cu) -> dict:
    g = cu.fgg
    return {"rules": len(g.rules),
            "factor_entries": sum(int(t.weights.size) for t in g.factors.values()),
            "nodes": sum(len(r.rhs.nodes) for r in g.rules)}


def start_weights(state, g) -> dict:
    return {values[0]: w for values, w in state.tau[g.start].items()}


def run_query(source: str, params) -> Outcome:
    t0 = time.perf_counter()
    try:
        cu = compile_source(source, params, ALL_PASSES)
    except Exception as e:  # a failed query is counted, never fatal
        return Outcome(time.perf_counter() - t0, 0.0, error=f"{type(e).__name__}: {e}")
    t1 = time.perf_counter()
    try:
        state = solve_fixed_point(cu.fgg)
    except Exception as e:
        return Outcome(t1 - t0, time.perf_counter() - t1, error=f"{type(e).__name__}: {e}")
    t2 = time.perf_counter()
    counts = grammar_counts(cu)
    counts.update(iterations=state.iteration, ops=state.ops,
                  fired={name: n for name, n in cu.pass_log})
    return Outcome(t1 - t0, t2 - t1, status=state.status,
                   answer=start_weights(state, cu.fgg), counts=counts)


def judge(out: Outcome, want: dict) -> Outcome:
    """Compare an answer with the oracle's and set the verdict.

    A Kleene iterate from zero never exceeds the least fixed point, so an
    answer that is low (stopped early, or hit max-iter) is the solver's
    known defect; an exception, a divergent status or an answer above the
    oracle is not explained by it."""
    if out.status == "error":
        return out
    scale = max(want.values())
    keys = set(want) | set(out.answer)
    diffs = [out.answer.get(v, 0.0) - want.get(v, 0.0) for v in keys]
    out.rel_err = max(abs(d) for d in diffs) / scale
    out.ok = out.status == CONVERGED and out.rel_err <= REL_TOL
    out.explained = out.ok or (out.status != DIVERGENT
                               and max(diffs) <= REL_TOL * scale)
    return out


# ---------------------------------------------------------------------------
# Tracing


@dataclass
class Span:
    sid: int
    name: str
    qid: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Spans kept in memory; the caller writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: str):
        sp = Span(len(self.spans), name, qid, self._open[-1] if self._open else None,
                  time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def self_times(self, root: Span) -> dict:
        """Self time of `root` and of each span below it, by span name.

        Children of one span never overlap (one thread), so the part of a
        span its children cover is the sum of their durations."""
        kids: dict[int, list[Span]] = {}
        for sp in self.spans[root.sid + 1:]:
            kids.setdefault(sp.parent, []).append(sp)
        out: dict[str, float] = {}

        def visit(sp: Span):
            below = kids.get(sp.sid, [])
            if not all(sp.start <= k.start <= k.end <= sp.end for k in below):
                raise RuntimeError(f"span {sp.name} does not contain its children")
            out[sp.name] = out.get(sp.name, 0.0) + (sp.end - sp.start) - sum(
                k.end - k.start for k in below)
            for k in below:
                visit(k)

        visit(root)
        return out


def run_traced_query(tracer: Tracer, qid: str, source: str, params):
    """The query's calls made one layer at a time, each inside a span.

    Returns the outcome, the query's root span and per-query layer counts.
    The per-pass simplify calls and the elimination planning run after the
    query span closes: they are measurements, not part of the query."""
    layer: dict = {}
    with tracer.span("query", qid) as root:
        try:
            with tracer.span("parser.parse", qid):
                program = parse(source)
            with tracer.span("frontend.scope", qid):
                program = desugar(program)
                diags = scope_check(program, frozenset(params.global_names()))
                if diags:
                    raise DomainError("; ".join(str(d) for d in diags))
            with tracer.span("frontend.domains", qid):
                domains = assign_domains(program, params)
            with tracer.span("translate.translate", qid):
                cu0 = translate(program, params)
            with tracer.span("translate.simplify", qid):
                cu = simplify(cu0, ALL_PASSES)
            with tracer.span("inference.solve", qid) as solve:
                state = solve_fixed_point(cu.fgg)
        except Exception as e:  # counted like an untraced failure
            out = Outcome(time.perf_counter() - root.start, 0.0,
                          error=f"{type(e).__name__}: {e}")
            return out, root, layer
    out = Outcome(solve.start - root.start, solve.end - solve.start, status=state.status,
                  answer=start_weights(state, cu.fgg))
    sizes = [len(d) for d in domains.values()]
    layer.update(domain_values=sum(sizes), max_domain=max(sizes),
                 translate=grammar_counts(cu0), simplify=grammar_counts(cu),
                 fired={name: n for name, n in cu.pass_log},
                 iterations=state.iteration, ops=state.ops)
    staged = cu0
    for p in ALL_PASSES:
        with tracer.span(f"translate.pass.{p}", qid):
            staged = simplify(staged, (p,))
    with tracer.span("inference.plan", qid):
        plans = [plan_elimination(cu.fgg, r) for r in cu.fgg.rules]
    layer.update(plan_cost=sum(p.cost for p in plans),
                 plan_cost_max=max((p.cost for p in plans), default=0.0))
    return out, root, layer
