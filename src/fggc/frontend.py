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
import math
from itertools import product
from typing import Optional

from .ast import (BuiltinApp, Call, Case, Expr, Fail, If, Let, Lookup,
                  Observe, Program, Sample, TypeInfo, Var)
from .fgg import Diagnostic
from .params import Params
from .scc import strongly_connected_components
from .values import (FALSE, NIL, TRUE, UNIT, Atom, Bool, Dist, Domain,
                     FggcError, Inl, Inr, Pair, Unit, Value, sorted_values)


class DomainError(FggcError):
    pass


def desugar(p: Program) -> Program:
    """The identity: the parser already reads `and`, `or` and `not(e)` as
    core forms, and `fail` is one. Kept for callers written before it did."""
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
        elif not isinstance(e, Fail):  # fail binds and uses nothing
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
# Atom characters plus pair and sum constructors that the values built by
# `cons`, `pair`, `inl` and `inr` may hold in all, beyond which the sets
# are taken to grow without bound: only these built-ins make values larger
# than their arguments. `cons` adding one character per evaluation reaches
# it after about 2,800 evaluations.
_WEIGHT_LIMIT = 4_000_000
# Evaluator frames that nested body evaluations may take, when the deepest
# body alone takes fewer (see assign_domains): well inside Python's default
# recursion limit of 1000, and room for about twenty levels of calls to
# bodies ten expressions deep.
_NEST_FRAMES = 256
# Constructors a value may nest, beyond which a value set is taken to grow
# without bound: key() and hash() recurse once or twice per level, so far
# deeper values would exhaust Python's stack before _WEIGHT_LIMIT is
# reached (`fun g(x) = inr(x)` fed its own result grows one level per
# evaluation).
_MAX_NESTING = 200
# Built-ins that give distinct values for distinct arguments.
_CONSTRUCTORS = ("pair", "inl", "inr")
_BUILDERS = ("cons",) + _CONSTRUCTORS
_UNSTABLE = ("value-set propagation did not stabilize; declare a finite "
             "enumeration for the recursive type (domains entry 'f.x')")
_TOO_LARGE = ("value-set propagation exceeded the size limit; declare a finite "
              "enumeration for the recursive type (domains entry 'f.x')")


def assign_domains(p: Program, params: Params) -> dict[str, Domain]:
    """Annotate every expression with env and result Domain (stored in .ty).

    One abstract evaluator computes the value set of every subexpression,
    resolves variables and checks the typing discipline, one function body
    (or the main expression) at a time. It is semi-naive: each expression
    keeps the set of values it has produced, which only grows because it
    is always evaluated in the same env, and evaluating it again takes only
    the values its inputs gained since (its variables, its operands, the
    result of the function it calls) and returns only the values new to its
    own set. A built-in distributes over union in each argument, so it is
    applied to the new tuples of its argument sets alone: over all
    evaluations, to each tuple of the final product once.

    Every body is evaluated once, callers first, and again whenever one of
    its parameter sets, or the result set of a function it read, has grown
    since. A call that finds its callee waiting so evaluates the callee on
    the spot and then reads its result, unless the callee is already being
    evaluated (recursion) or the evaluator's stack would grow deeper than
    the deepest body alone, or _NEST_FRAMES frames, takes it. Other bodies
    wait in a worklist ordered by the call graph's components, callees
    first. So a non-recursive program whose functions each have one caller
    evaluates each body once. When no body waits, every expression's set is
    final, and the post-order record of (expression, env, result) of each
    body is interned: functions in source order, then main, each distinct
    set once.

    Returns the registry of interned domains. Raises DomainError on type
    errors or when value-set propagation fails to stabilize (an
    un-enumerable recursive type without a declared finite enumeration):
    the parameter and result sets hold more than _SET_LIMIT values in all;
    a pair or sum constructor would give one expression more than
    _SET_LIMIT values (diagnosed before they are enumerated); the values
    that `cons` and the constructors build hold more than _WEIGHT_LIMIT
    atom characters and constructors in all; or a value nests more than
    _MAX_NESTING pair and sum constructors.
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

    param_sets: list[list[set[Value]]] = [
        [set(params.domains.get(f"{f.name}.{x}") or ()) for x in f.params] for f in funs]
    result_sets: list[set[Value]] = [set() for _ in funs]
    total = sum(len(s) for ss in param_sets for s in ss)
    weight = 0  # of the values built by `cons` and the constructors
    pending = set(range(len(bodies)))  # never evaluated, or inputs grew since
    queue: list[tuple[int, int]] = []  # (rank, body) of bodies that became pending
    active: set[int] = set()
    frames = 0  # evaluator frames the active bodies can take
    budget = max(max(heights) + 1, _NEST_FRAMES)
    # The values each expression has produced so far, by id(expression). A
    # Let or an Observe shares the set of its body or its value.
    seen: dict[int, set[Value]] = {}
    # By id(expression): the env of a Let's body, the envs of a Case's arms.
    scopes: dict[int, dict | tuple[dict, dict]] = {}
    # (expr, env, result) of each body, in post-order, made on its first
    # evaluation: its sets are those of `seen`, `scopes` and the parameters,
    # final once no body waits.
    records: list[list[tuple[Expr, dict[str, set[Value]], set[Value]]]] = [[] for _ in bodies]
    record = records[main]  # that of the body being evaluated
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
        nonlocal record, reads, frames
        pending.discard(b)
        active.add(b)
        frames += heights[b] + 1
        outer = record, reads
        record, reads = records[b], []
        env = dict(zip(funs[b].params, param_sets[b])) if b != main else {}
        result = evaluate(bodies[b], env)
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
            raise DomainError(_TOO_LARGE)

    def evaluate(e: Expr, env: dict[str, set[Value]]) -> set[Value]:
        """The values new to e's set, from those new to its inputs."""
        nonlocal weight
        known = seen.get(id(e))  # None on the first evaluation of e's body
        new: set[Value]
        if isinstance(e, Var):
            if e.name in env:
                e.resolution = "var"
                new = _unread(env[e.name], known)
            elif e.name in params.inputs:
                e.resolution = "input"
                new = {params.inputs[e.name]} if known is None else set()
            else:
                e.resolution = "atom"
                new = {Atom(e.name)} if known is None else set()
        elif isinstance(e, BuiltinApp):
            deltas = [evaluate(a, env) for a in e.args]
            if known is not None and not any(deltas):
                return set()
            fulls = [seen[id(a)] for a in e.args]
            _check_enumerable(fulls, e.pos)
            if known is None:
                blocks = [fulls]
            else:
                # the tuples with a new value in argument i and none after it
                blocks = [fulls[:i] + [d] + [f - g if g else f
                                             for f, g in zip(fulls[i + 1:], deltas[i + 1:])]
                          for i, d in enumerate(deltas) if d]
            if e.op in _CONSTRUCTORS and (len(known or ()) + sum(
                    math.prod(map(len, block)) for block in blocks) > _SET_LIMIT):
                raise DomainError(_TOO_LARGE)
            new = set()
            for block in blocks:
                for combo in product(*block):
                    v = apply_builtin(e.op, combo)
                    if v is not None:
                        new.add(v)
            if e.op in _BUILDERS:
                for v in new:
                    depth, size = _measure(v)
                    if depth > _MAX_NESTING:
                        raise DomainError("value-set propagation did not stabilize: values "
                                          f"nest more than {_MAX_NESTING} pair and sum "
                                          "constructors deep", e.pos)
                    weight += size
                if weight > _WEIGHT_LIMIT:
                    raise DomainError(_UNSTABLE)
        elif isinstance(e, Let):
            bound = evaluate(e.bound, env)
            scope = scopes.get(id(e))
            if scope is None:
                scope = scopes[id(e)] = {**env, e.name: seen[id(e.bound)]}
            new = evaluate(e.body, scope)
            if known is not None:  # the body's set, which is e's, took `new`
                return new
        elif isinstance(e, Call):
            g = number[e.fn]
            grew = False
            for i, a in enumerate(e.args):
                grew |= union_into(param_sets[g][i], evaluate(a, env))
            if grew:
                wait(g)
            if g in pending and g not in active and frames + heights[g] + 1 <= budget:
                run(g)
            reads.append((g, len(result_sets[g])))
            new = _unread(result_sets[g], known)
        elif isinstance(e, Sample):
            dists = evaluate(e.arg, env)
            _require(dists, Dist, "sample argument is not a distribution", e.pos)
            new = set()
            for d in dists:
                new.update(params.dist_table(d.name))
        elif isinstance(e, Observe):
            _require(evaluate(e.dist, env), Dist, "observe target is not a distribution", e.pos)
            new = evaluate(e.value, env)
            if known is not None:  # the value's set, which is e's, took `new`
                return new
        elif isinstance(e, If):
            _require(evaluate(e.cond, env), Bool, "if condition is not boolean", e.pos)
            new = evaluate(e.then, env) | evaluate(e.els, env)
        elif isinstance(e, Case):
            scrut = evaluate(e.scrutinee, env)
            _require(scrut, (Inl, Inr), "case scrutinee is not a sum value", e.pos)
            arms = scopes.get(id(e))
            if arms is None:
                arms = scopes[id(e)] = ({**env, e.left_var: set()}, {**env, e.right_var: set()})
            left, right = arms
            left[e.left_var].update(v.value for v in scrut if isinstance(v, Inl))
            right[e.right_var].update(v.value for v in scrut if isinstance(v, Inr))
            new = evaluate(e.left, left) | evaluate(e.right, right)
        elif isinstance(e, Lookup):
            index = evaluate(e.index, env)
            keys = set(params.lookup_keys(e.param))
            new = {params.dist_value(e.param, k) for k in index & keys}
        elif isinstance(e, Fail):
            new = set()
        else:
            raise TypeError(f"unknown expression {e!r}")
        if known is None:
            seen[id(e)] = new
            record.append((e, env, new))
        elif new:
            new -= known
            known |= new
        return new

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


def _measure(v: Value) -> tuple[int, int]:
    """The most pair and sum constructors on one path into `v`, and its atom
    characters plus pair and sum constructors, counted level by level
    rather than by recursion."""
    depth, size, level = -1, 0, [v]
    while level:
        depth += 1
        below = []
        for x in level:
            if isinstance(x, Pair):
                size += 1
                below += (x.first, x.second)
            elif isinstance(x, (Inl, Inr)):
                size += 1
                below.append(x.value)
            elif isinstance(x, Atom):
                size += len(x.name)
        level = below
    return depth, size


def _check_enumerable(sets, pos) -> None:
    """Raise a DomainError if the product of `sets` has more than a million
    combinations (an empty set counts as one value)."""
    size = 1
    for s in sets:
        size *= max(len(s), 1)
    if size > 1_000_000:
        raise DomainError("built-in argument domains are too large to enumerate", pos)


def _unread(values: set[Value], known: Optional[set[Value]]) -> set[Value]:
    """The values of a set that only grows that are not in `known`, the
    ones a reader of it has taken so far (None: it has taken none)."""
    if known is None:
        return set(values)
    return values - known if len(values) != len(known) else set()


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
