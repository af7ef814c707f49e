"""Scope checking and domain assignment.

Domain assignment gives every subexpression a finite domain: the set of
values it can evaluate to, and an environment listing the bound variables
in scope with their domains. Domains of recursive functions are computed
by a monotone fixed point over value sets, seeded from the parameter file;
an explicit enumeration declared as domains["f.x"] seeds parameter x of
function f.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Optional

from .ast import (BuiltinApp, Call, Case, Expr, If, Let, Lookup, Observe,
                  Program, Sample, TypeInfo, Var)
from .fgg import Diagnostic
from .params import Params
from .scc import strongly_connected_components
from .values import (FALSE, NIL, TRUE, UNIT, Atom, Bool, Dist, Domain,
                     FggcError, Inl, Inr, Pair, Unit, Value, sorted_values)


class DomainError(FggcError):
    pass


def desugar(p: Program) -> Program:
    """The identity: the parser already reads `and`, `or`, `not(e)` and
    `fail` as core forms. Kept for callers written before it did."""
    return p


# ---------------------------------------------------------------------------
# Scope checking


def scope_check(p: Program, global_names: frozenset[str] = frozenset()) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    funs = {}
    for f in p.functions:
        if f.name in funs:
            out.append(Diagnostic(f"duplicate function name {f.name!r}",
                                  f"{f.pos[0]}:{f.pos[1]}"))
        funs[f.name] = f
        if len(set(f.params)) != len(f.params):
            out.append(Diagnostic(f"duplicate parameter in {f.name!r}",
                                  f"{f.pos[0]}:{f.pos[1]}"))

    def binder_ok(name: str, pos, bound):
        if name in funs:
            out.append(Diagnostic(
                f"variable {name!r} shadows a function name", f"{pos[0]}:{pos[1]}"))
        if name in bound:
            out.append(Diagnostic(
                f"variable {name!r} shadows an enclosing binding", f"{pos[0]}:{pos[1]}"))

    def walk(e: Expr, bound: frozenset[str]):
        where = f"{e.pos[0]}:{e.pos[1]}"
        if isinstance(e, Var):
            if e.name not in bound and e.name not in global_names:
                if e.name in funs:
                    out.append(Diagnostic(
                        f"function {e.name!r} used as a value", where))
                else:
                    out.append(Diagnostic(f"unbound variable {e.name!r}", where))
        elif isinstance(e, Let):
            binder_ok(e.name, e.pos, bound)
            walk(e.bound, bound)
            walk(e.body, bound | {e.name})
        elif isinstance(e, Call):
            f = funs.get(e.fn)
            if f is None:
                out.append(Diagnostic(f"call to undeclared function {e.fn!r}", where))
            elif len(e.args) != len(f.params):
                out.append(Diagnostic(
                    f"function {e.fn!r} takes {len(f.params)} argument(s), got {len(e.args)}",
                    where))
            for a in e.args:
                walk(a, bound)
        elif isinstance(e, Sample):
            walk(e.arg, bound)
        elif isinstance(e, Observe):
            walk(e.value, bound)
            walk(e.dist, bound)
        elif isinstance(e, If):
            walk(e.cond, bound)
            walk(e.then, bound)
            walk(e.els, bound)
        elif isinstance(e, Case):
            binder_ok(e.left_var, e.pos, bound)
            binder_ok(e.right_var, e.pos, bound)
            walk(e.scrutinee, bound)
            walk(e.left, bound | {e.left_var})
            walk(e.right, bound | {e.right_var})
        elif isinstance(e, BuiltinApp):
            for a in e.args:
                walk(a, bound)
        elif isinstance(e, Lookup):
            walk(e.index, bound)
        else:
            raise TypeError(f"unknown expression {e!r}")

    for f in p.functions:
        walk(f.body, frozenset(f.params))
    walk(p.main, frozenset())
    return out


# ---------------------------------------------------------------------------
# Built-in semantics (partial functions over values; None = undefined)


def apply_builtin(op: str, args: tuple[Value, ...]) -> Optional[Value]:
    if op == "=":
        return Bool(args[0] == args[1])
    if op == "!=":
        return Bool(args[0] != args[1])
    if op == "pair":
        return Pair(args[0], args[1])
    if op == "fst":
        return args[0].first if isinstance(args[0], Pair) else None
    if op == "snd":
        return args[0].second if isinstance(args[0], Pair) else None
    if op == "inl":
        return Inl(args[0])
    if op == "inr":
        return Inr(args[0])
    if op == "cons":
        a, s = args
        if isinstance(a, Atom) and len(a.name) == 1 and isinstance(s, Atom):
            return Atom(a.name + s.name)
        return None
    if op == "car":
        (s,) = args
        return Atom(s.name[0]) if isinstance(s, Atom) and s.name else None
    if op == "cdr":
        (s,) = args
        return Atom(s.name[1:]) if isinstance(s, Atom) and s.name else None
    if op == "true":
        return TRUE
    if op == "false":
        return FALSE
    if op == "unit":
        return UNIT
    if op == "nil":
        return NIL
    if op == "zerodist":
        return Dist("__zero__")
    raise ValueError(f"unknown built-in {op!r}")


# ---------------------------------------------------------------------------
# Domain assignment


class DomainInterner:
    """Deduplicates value sets into named Domain objects, deterministically."""

    def __init__(self):
        self._by_set: dict[frozenset[Value], Domain] = {}

    def intern(self, values) -> Domain:
        key = frozenset(values) if values else frozenset((UNIT,))
        dom = self._by_set.get(key)
        if dom is None:
            dom = Domain(f"D{len(self._by_set)}", sorted_values(key))
            self._by_set[key] = dom
        return dom

    @property
    def domains(self) -> dict[str, Domain]:
        return {d.name: d for d in self._by_set.values()}


_SET_LIMIT = 100_000  # total values across all sets; growth beyond this is diagnosed
_MAX_EVALUATIONS = 500  # per recursive body, and per body on average; then non-stabilizing
# Evaluator frames that nested body evaluations may take, when the deepest
# body alone takes fewer (see assign_domains): well inside Python's default
# recursion limit of 1000, and room for about twenty levels of calls to
# bodies ten expressions deep.
_NEST_FRAMES = 256
# Constructors a value may nest, beyond which a value set is taken to grow
# without bound: key() and hash() recurse once or twice per level, so far
# deeper values would exhaust Python's stack before _MAX_EVALUATIONS is
# reached (`fun g(x) = inr(x)` fed its own result grows one level per
# evaluation).
_MAX_NESTING = 200


def assign_domains(p: Program, params: Params) -> dict[str, Domain]:
    """Annotate every expression with env and result Domain (stored in .ty).

    One abstract evaluator computes the value set of every subexpression,
    resolves variables and checks the typing discipline, one function body
    (or the main expression) at a time. Every body is evaluated once,
    callers first, and again whenever one of its parameter sets, or the
    result set of a function it read, has grown since. A call that finds
    its callee waiting so evaluates the callee on the spot and then reads
    its result, unless the callee is already being evaluated (recursion) or
    the evaluator's stack would grow deeper than the deepest body alone, or
    _NEST_FRAMES frames, takes it. Other bodies wait in a worklist ordered
    by the call graph's components, callees first. So a non-recursive
    program whose functions each have one caller evaluates each body once.
    When no body waits, the last evaluation of each body saw only the final
    sets, so its post-order record of (expression, env, result) is what
    gets interned: functions in source order, then main, each distinct set
    once.

    Returns the registry of interned domains. Raises DomainError on type
    errors or when value-set propagation fails to stabilize (an
    un-enumerable recursive type without a declared finite enumeration): a
    body of a recursive component needs more than _MAX_EVALUATIONS
    evaluations, all bodies together more than _MAX_EVALUATIONS each on
    average (a non-recursive program can still feed a result back to its
    callee, as `let u = g(x) in g(u)` does), the sets hold more than
    _SET_LIMIT values in all, or a value nests more than _MAX_NESTING pair
    and sum constructors.
    """
    funs = p.functions
    main = len(funs)
    bodies = [f.body for f in funs] + [p.main]
    number = {f.name: i for i, f in enumerate(funs)}
    heights, callees = [], []
    for body in bodies:
        height, calls = _shape(body)
        heights.append(height)
        callees.append(list(dict.fromkeys(number[c] for c in calls)))
    callers: list[list[int]] = [[] for _ in bodies]
    for b, cs in enumerate(callees):
        for c in cs:
            callers[c].append(b)
    components = strongly_connected_components(range(len(bodies)), callees)
    order = [b for members, _ in components for b in members]  # callees first
    rank = {b: i for i, b in enumerate(order)}
    recursive = {b for members, rec in components if rec for b in members}

    param_sets: list[list[set[Value]]] = [
        [set(params.domains.get(f"{f.name}.{x}") or ()) for x in f.params] for f in funs]
    result_sets: list[set[Value]] = [set() for _ in funs]
    total = sum(len(s) for ss in param_sets for s in ss)
    pending = set(range(len(bodies)))  # never evaluated, or inputs grew since
    queue: list[tuple[int, int]] = []  # (rank, body) of bodies that became pending
    active: set[int] = set()
    frames = 0  # evaluator frames the active bodies can take
    budget = max(max(heights) + 1, _NEST_FRAMES)
    evaluations = [0] * len(bodies)
    runs_left = _MAX_EVALUATIONS * len(bodies)
    records: list = [None] * len(bodies)
    # (expr, env, result) of the body being evaluated, in post-order. Sets in
    # it must never be updated in place: a later union would change a
    # recorded domain.
    record: list[tuple[Expr, dict[str, set[Value]], set[Value]]] = []
    reads: list[tuple[int, int]] = []  # (callee, size of the result read) of that body

    def union_into(target: set[Value], values: set[Value]) -> bool:
        nonlocal total
        before = len(target)
        target |= values
        total += len(target) - before
        return len(target) != before

    def wait(b: int) -> None:
        if b not in pending:
            pending.add(b)
            heapq.heappush(queue, (rank[b], b))

    def run(b: int) -> None:
        nonlocal record, reads, frames, runs_left
        if runs_left == 0 or (b in recursive and evaluations[b] == _MAX_EVALUATIONS):
            raise DomainError(
                "value-set propagation did not stabilize; declare a finite "
                "enumeration for the recursive type (domains entry 'f.x')")
        runs_left -= 1
        evaluations[b] += 1
        pending.discard(b)
        active.add(b)
        frames += heights[b] + 1
        outer = record, reads
        record, reads = [], []
        env = dict(zip(funs[b].params, param_sets[b])) if b != main else {}
        result = evaluate(bodies[b], env)
        records[b] = record
        stale = any(len(result_sets[g]) != size for g, size in reads)
        record, reads = outer
        frames -= heights[b] + 1
        active.discard(b)
        if b != main and union_into(result_sets[b], result):
            for c in callers[b]:
                if c not in active:  # an active caller checks what it read when it ends
                    wait(c)
        if stale:
            wait(b)
        if total > _SET_LIMIT:
            raise DomainError(
                "value-set propagation exceeded the size limit; declare a finite "
                "enumeration for the recursive type (domains entry 'f.x')")

    def evaluate(e: Expr, env: dict[str, set[Value]]) -> set[Value]:
        result: set[Value]
        if isinstance(e, Var):
            if e.name in env:
                e.resolution = "var"
                result = set(env[e.name])
            elif e.name in params.inputs:
                e.resolution = "input"
                result = {params.inputs[e.name]}
            else:
                e.resolution = "atom"
                result = {Atom(e.name)}
        elif isinstance(e, Let):
            bound = evaluate(e.bound, env)
            result = evaluate(e.body, {**env, e.name: bound})
        elif isinstance(e, Call):
            g = number[e.fn]
            grew = False
            for i, a in enumerate(e.args):
                grew |= union_into(param_sets[g][i], evaluate(a, env))
            if grew:
                wait(g)
            if g in pending and g not in active and frames + heights[g] + 1 <= budget:
                run(g)
            result = set(result_sets[g])
            reads.append((g, len(result)))
        elif isinstance(e, Sample):
            dists = evaluate(e.arg, env)
            _require(dists, Dist, "sample argument is not a distribution", e.pos)
            result = set()
            for d in dists:
                result |= set(params.dist_table(d.name).keys())
        elif isinstance(e, Observe):
            _require(evaluate(e.dist, env), Dist, "observe target is not a distribution", e.pos)
            result = evaluate(e.value, env)
        elif isinstance(e, If):
            _require(evaluate(e.cond, env), Bool, "if condition is not boolean", e.pos)
            result = evaluate(e.then, env) | evaluate(e.els, env)
        elif isinstance(e, Case):
            scrut = evaluate(e.scrutinee, env)
            _require(scrut, (Inl, Inr), "case scrutinee is not a sum value", e.pos)
            lefts = {v.value for v in scrut if isinstance(v, Inl)}
            rights = {v.value for v in scrut if isinstance(v, Inr)}
            result = (evaluate(e.left, {**env, e.left_var: lefts})
                      | evaluate(e.right, {**env, e.right_var: rights}))
        elif isinstance(e, BuiltinApp):
            arg_sets = [evaluate(a, env) for a in e.args]
            result = set()
            for combo in _product(arg_sets, e.pos):
                v = apply_builtin(e.op, combo)
                if v is not None:
                    result.add(v)
            if e.op in ("pair", "inl", "inr") and any(_nesting(v) > _MAX_NESTING
                                                      for v in result):
                raise DomainError("value-set propagation did not stabilize: values "
                                  f"nest more than {_MAX_NESTING} pair and sum "
                                  "constructors deep", e.pos)
        elif isinstance(e, Lookup):
            index = evaluate(e.index, env)
            keys = set(params.lookup_keys(e.param))
            result = {params.dist_value(e.param, k) for k in index & keys}
        else:
            raise TypeError(f"unknown expression {e!r}")
        record.append((e, env, result))
        return result

    for b in reversed(order):  # callers first: main, which nothing calls, leads
        if b in pending:
            run(b)
    while queue:
        b = heapq.heappop(queue)[1]
        if b in pending:
            run(b)

    interner = DomainInterner()
    domains: dict[int, Domain] = {}  # by id(set): `records` holds every set
    envs: dict[int, tuple[tuple[str, Domain], ...]] = {}  # by id(env), likewise

    def intern(values: set[Value]) -> Domain:
        dom = domains.get(id(values))
        if dom is None:
            dom = domains[id(values)] = interner.intern(values)
        return dom

    for record in records:
        for e, env, result in record:
            ty_env = envs.get(id(env))
            if ty_env is None:
                ty_env = envs[id(env)] = tuple((x, intern(s)) for x, s in env.items())
            e.ty = TypeInfo(env=ty_env, result=intern(result))
    return interner.domains


def _shape(body: Expr) -> tuple[int, list[str]]:
    """The nesting depth of `body`, which is the evaluator's recursion depth
    on it, and the name of every function it calls, in order."""
    height, calls = 0, []
    stack = [(body, 1)]
    while stack:
        e, depth = stack.pop()
        height = max(height, depth)
        if isinstance(e, Call):
            calls.append(e.fn)
            kids = e.args
        elif isinstance(e, BuiltinApp):
            kids = e.args
        elif isinstance(e, Let):
            kids = (e.bound, e.body)
        elif isinstance(e, Sample):
            kids = (e.arg,)
        elif isinstance(e, Observe):
            kids = (e.value, e.dist)
        elif isinstance(e, If):
            kids = (e.cond, e.then, e.els)
        elif isinstance(e, Case):
            kids = (e.scrutinee, e.left, e.right)
        elif isinstance(e, Lookup):
            kids = (e.index,)
        else:
            continue
        stack.extend((k, depth + 1) for k in reversed(kids))
    return height, calls


def _require(values: set[Value], kind, message: str, pos) -> None:
    """Raise a DomainError naming the smallest value that is not a `kind`."""
    bad = [v for v in values if not isinstance(v, kind)]
    if bad:
        raise DomainError(f"{message} (can be {sorted_values(bad)[0].key()})", pos)


def _nesting(v: Value) -> int:
    """The most pair and sum constructors on one path into `v`, counted
    level by level rather than by recursion."""
    depth, level = 0, [v]
    while True:
        level = [c for x in level
                 for c in ((x.first, x.second) if isinstance(x, Pair)
                           else (x.value,) if isinstance(x, (Inl, Inr)) else ())]
        if not level:
            return depth
        depth += 1


def _product(sets: list[set[Value]], pos):
    """Every combination of one value from each set, in no fixed order:
    the caller only collects the results into a set."""
    size = 1
    for s in sets:
        size *= max(len(s), 1)
    if size > 1_000_000:
        raise DomainError("built-in argument domains are too large to enumerate", pos)
    return product(*sets)


# ---------------------------------------------------------------------------
# Convenience pipeline


def check_program(source: str, params: Params) -> tuple[Program, dict[str, Domain]]:
    """parse + scope_check + assign_domains; raises on any failure."""
    from .parser import parse
    p = parse(source)
    diags = scope_check(p, frozenset(params.global_names()))
    if diags:
        raise DomainError("; ".join(str(d) for d in diags))
    domains = assign_domains(p, params)
    return p, domains
