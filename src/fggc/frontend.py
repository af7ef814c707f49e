"""Desugaring, scope checking, and domain assignment.

Domain assignment gives every subexpression a finite domain: the set of
values it can evaluate to, and an environment listing the bound variables
in scope with their domains. Domains of recursive functions are computed
by a monotone fixed point over value sets, seeded from the parameter file;
an explicit enumeration declared as domains["f.x"] seeds parameter x of
function f.
"""

from __future__ import annotations

from typing import Optional

from .ast import (And, BuiltinApp, Call, Case, Expr, Fail, FunDef, If, Let,
                  Lookup, Not, Observe, Or, Program, Sample, TypeInfo, Var)
from .fgg import Diagnostic
from .params import ParamError, Params
from .values import (FALSE, NIL, TRUE, UNIT, Atom, Bool, Dist, Domain, Inl,
                     Inr, Pair, Unit, Value, sorted_values)


class DomainError(Exception):
    def __init__(self, message: str, pos=(0, 0)):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}" if pos != (0, 0) else message)
        self.message = message
        self.pos = pos


# ---------------------------------------------------------------------------
# Desugaring


def desugar_expr(e: Expr) -> Expr:
    if isinstance(e, And):
        return If(desugar_expr(e.left), desugar_expr(e.right),
                  BuiltinApp("false", [], pos=e.pos), pos=e.pos)
    if isinstance(e, Or):
        return If(desugar_expr(e.left), BuiltinApp("true", [], pos=e.pos),
                  desugar_expr(e.right), pos=e.pos)
    if isinstance(e, Not):
        return If(desugar_expr(e.arg), BuiltinApp("false", [], pos=e.pos),
                  BuiltinApp("true", [], pos=e.pos), pos=e.pos)
    if isinstance(e, Fail):
        # observe true <- «zero»: multiplies the branch weight by 0
        return Observe(BuiltinApp("true", [], pos=e.pos),
                       BuiltinApp("zerodist", [], pos=e.pos), pos=e.pos)
    if isinstance(e, Var):
        return Var(e.name, pos=e.pos)
    if isinstance(e, Let):
        return Let(e.name, desugar_expr(e.bound), desugar_expr(e.body), pos=e.pos)
    if isinstance(e, Call):
        return Call(e.fn, [desugar_expr(a) for a in e.args], pos=e.pos)
    if isinstance(e, Sample):
        return Sample(desugar_expr(e.arg), pos=e.pos)
    if isinstance(e, Observe):
        return Observe(desugar_expr(e.value), desugar_expr(e.dist), pos=e.pos)
    if isinstance(e, If):
        return If(desugar_expr(e.cond), desugar_expr(e.then), desugar_expr(e.els), pos=e.pos)
    if isinstance(e, Case):
        return Case(desugar_expr(e.scrutinee), e.left_var, desugar_expr(e.left),
                    e.right_var, desugar_expr(e.right), pos=e.pos)
    if isinstance(e, BuiltinApp):
        return BuiltinApp(e.op, [desugar_expr(a) for a in e.args], pos=e.pos)
    if isinstance(e, Lookup):
        return Lookup(e.param, desugar_expr(e.index), pos=e.pos)
    raise TypeError(f"unknown expression {e!r}")


def desugar(p: Program) -> Program:
    return Program([FunDef(f.name, list(f.params), desugar_expr(f.body), f.pos)
                    for f in p.functions], desugar_expr(p.main))


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
        elif isinstance(e, (And, Or, Not, Fail)):
            raise DomainError("scope_check requires a desugared program", e.pos)
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
        self._by_content: dict[tuple[Value, ...], Domain] = {}

    def intern(self, values) -> Domain:
        content = sorted_values(values) if values else (UNIT,)
        dom = self._by_content.get(content)
        if dom is None:
            dom = Domain(f"D{len(self._by_content)}", content)
            self._by_content[content] = dom
        return dom

    @property
    def domains(self) -> dict[str, Domain]:
        return {d.name: d for d in self._by_content.values()}


_SET_LIMIT = 100_000  # total values across all sets; growth beyond this is diagnosed
_MAX_PASSES = 500  # value-set passes before propagation is diagnosed as non-stabilizing


def assign_domains(p: Program, params: Params) -> dict[str, Domain]:
    """Annotate every expression with env and result Domain (stored in .ty).

    One abstract evaluator computes the value set of every subexpression,
    resolves variables and checks the typing discipline. It runs over the
    whole program until a pass grows no parameter or result set; that pass
    saw only the final sets, so its post-order record of (expression, env,
    result) is what gets interned. Returns the registry of interned
    domains. Raises DomainError on type errors or when value-set
    propagation fails to stabilize (an un-enumerable recursive type without
    a declared finite enumeration).
    """
    param_sets: dict[str, list[set[Value]]] = {
        f.name: [set(params.domains.get(f"{f.name}.{x}") or ()) for x in f.params]
        for f in p.functions}
    result_sets: dict[str, set[Value]] = {f.name: set() for f in p.functions}
    changed = False
    # (expr, env, result) of the current pass, in post-order. Sets in it must
    # never be updated in place: a later union would change a recorded domain.
    record: list[tuple[Expr, dict[str, set[Value]], set[Value]]] = []

    def union_into(target: set[Value], values) -> None:
        nonlocal changed
        before = len(target)
        target |= set(values)
        if len(target) != before:
            changed = True

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
            for i, a in enumerate(e.args):
                union_into(param_sets[e.fn][i], evaluate(a, env))
            result = set(result_sets[e.fn])
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
        elif isinstance(e, Lookup):
            index = evaluate(e.index, env)
            keys = set(params.lookup_keys(e.param))
            result = {params.dist_value(e.param, k) for k in index & keys}
        else:
            raise DomainError("domain assignment requires a desugared program", e.pos)
        record.append((e, env, result))
        return result

    for _ in range(_MAX_PASSES):
        changed = False
        record.clear()
        for f in p.functions:
            env = dict(zip(f.params, param_sets[f.name]))
            union_into(result_sets[f.name], evaluate(f.body, env))
        evaluate(p.main, {})
        total = sum(len(s) for ss in param_sets.values() for s in ss)
        total += sum(len(s) for s in result_sets.values())
        if total > _SET_LIMIT:
            raise DomainError(
                "value-set propagation exceeded the size limit; declare a finite "
                "enumeration for the recursive type (domains entry 'f.x')")
        if not changed:
            break
    else:
        raise DomainError(
            "value-set propagation did not stabilize; declare a finite "
            "enumeration for the recursive type (domains entry 'f.x')")

    interner = DomainInterner()
    for e, env, result in record:
        e.ty = TypeInfo(env=tuple((x, interner.intern(s)) for x, s in env.items()),
                        result=interner.intern(result))
    return interner.domains


def _require(values: set[Value], kind, message: str, pos) -> None:
    """Raise a DomainError naming the smallest value that is not a `kind`."""
    bad = [v for v in values if not isinstance(v, kind)]
    if bad:
        raise DomainError(f"{message} (can be {sorted_values(bad)[0].key()})", pos)


def _product(sets: list[set[Value]], pos):
    from itertools import product
    ordered = [sorted_values(s) for s in sets]
    size = 1
    for s in ordered:
        size *= max(len(s), 1)
    if size > 1_000_000:
        raise DomainError("built-in argument domains are too large to enumerate", pos)
    return product(*ordered)


# ---------------------------------------------------------------------------
# Convenience pipeline


def check_program(source: str, params: Params) -> tuple[Program, dict[str, Domain]]:
    """parse + desugar + scope_check + assign_domains; raises on any failure."""
    from .parser import parse
    p = desugar(parse(source))
    diags = scope_check(p, frozenset(params.global_names()))
    if diags:
        raise DomainError("; ".join(str(d) for d in diags))
    domains = assign_domains(p, params)
    return p, domains
