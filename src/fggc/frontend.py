"""Scope checking and domain assignment.

Domain assignment gives every subexpression a finite domain: the set of
values it can evaluate to, and an environment listing the bound variables
in scope with their domains. Domains of recursive functions are computed
by a monotone fixed point over value sets, seeded from the parameter file;
an explicit enumeration declared as domains["f.x"] seeds parameter x of
function f.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from itertools import product
from typing import Optional

from .ast import (BuiltinApp, Call, Case, Expr, Fail, If, Let, Lookup,
                  Observe, Program, Sample, TypeInfo, Var)
from .fgg import Diagnostic
from .params import Params
from .values import (FALSE, NIL, TRUE, UNIT, Atom, Bool, Dist, Domain,
                     FggcError, Inl, Inr, Pair, Value, sorted_values)


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


_SET_LIMIT = 100_000  # values in the parameter and result sets in all; more is diagnosed
# Atom characters plus pair and sum constructors that the values built by
# `cons`, `pair`, `inl` and `inr` may hold in all, beyond which the sets
# are taken to grow without bound: only these built-ins make values larger
# than their arguments. A `cons` chain a, aa, aaa, ... reaches it after
# about 2,800 strings.
_WEIGHT_LIMIT = 4_000_000
# Constructors a value may nest, beyond which a value set is taken to grow
# without bound: key() and hash() recurse once or twice per level, so far
# deeper values would exhaust Python's stack before _WEIGHT_LIMIT is
# reached (`fun g(x) = inr(x)` fed its own result grows one level per
# value).
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

    The value sets are the least solution of monotone set constraints,
    solved semi-naively over cells. A cell belongs to each expression that
    makes values (a built-in, `sample`, a lookup, the join of an `if` or a
    `case`, an input or atom, `fail`), to each `case` binder and to each
    function parameter and result. An expression that only passes a set on
    shares the cell it reads: a `let` binder its bound expression's, a
    variable its binder's, a `let` its body's, an `observe` its value's and
    a call its callee's result cell.

    One walk over each body makes its cells, resolves its variables,
    records (expression, scope, cell) in post-order and gives each cell its
    readers: a union into a cell (an argument into a parameter, a body into
    its result, an arm into its join), the type check of an `if`, `sample`,
    `observe` or `case` (then the supports of the tables a `sample` names,
    the projections of a `case` onto its binders), a lookup or a built-in.
    A FIFO queue holds the cells that gained values; popping one hands the
    values new to it to each of its readers, once. A built-in takes, for
    each argument slot that reads the popped cell, the tuples with a new
    value in that slot and none in a later such slot, the other slots
    holding the values already handed on: so it is applied to each tuple of
    its final argument sets once. When the queue is empty every set is
    final; the records are interned, functions in source order and then
    main, each env's sets before the result's, each distinct set once.

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
    number = {f.name: i for i, f in enumerate(funs)}
    done: list[set[Value]] = []  # by cell: the values handed to its readers
    readers: list[list] = []  # by cell: callables given each set of new values
    fresh: dict[int, set[Value]] = {}  # by queued cell: the values not yet handed on
    queue: deque[int] = deque()
    total = 0  # values in the parameter and result cells
    weight = 0  # of the values built by `cons` and the constructors

    def cell() -> int:
        done.append(set())
        readers.append([])
        return len(done) - 1

    results = [cell() for _ in funs]
    param_cells = [[cell() for _ in f.params] for f in funs]
    counted = len(done)  # the parameter and result cells come first

    def add(c: int, values: set[Value]) -> set[Value]:
        """Add `values` to cell c; returns those new to it."""
        nonlocal total
        new = values - done[c]
        queued = fresh.get(c)
        if queued is None:
            if not new:
                return new
            fresh[c] = new
            queue.append(c)
        else:
            new -= queued
            queued |= new
        if c < counted:
            total += len(new)
            if total > _SET_LIMIT:
                raise DomainError(_TOO_LARGE)
        return new

    def builtin(e: BuiltinApp, args: list[int], out: int, slots: list[int]):
        """The reader of the argument cell that `slots` of `e` read."""
        def read(new: set[Value]) -> None:
            nonlocal weight
            fulls = [done[a] for a in args]
            _check_enumerable(fulls, e.pos)
            old = fulls[slots[0]] - new if len(slots) > 1 else None
            blocks = [fulls[:i] + [new] + [old if j in slots else f
                                           for j, f in enumerate(fulls[i + 1:], i + 1)]
                      for i in slots]
            if e.op in _CONSTRUCTORS and (len(done[out]) + len(fresh.get(out, ())) + sum(
                    math.prod(map(len, block)) for block in blocks) > _SET_LIMIT):
                raise DomainError(_TOO_LARGE)
            values = set()
            for block in blocks:
                for combo in product(*block):
                    v = apply_builtin(e.op, combo)
                    if v is not None:
                        values.add(v)
            built = add(out, values)
            if e.op in _BUILDERS:
                for v in built:
                    depth, size = _measure(v)
                    if depth > _MAX_NESTING:
                        raise DomainError("value-set propagation did not stabilize: values "
                                          f"nest more than {_MAX_NESTING} pair and sum "
                                          "constructors deep", e.pos)
                    weight += size
                if weight > _WEIGHT_LIMIT:
                    raise DomainError(_UNSTABLE)
        return read

    def join(arms: tuple[int, int]) -> int:
        c = cell()
        for arm in arms:
            readers[arm].append(partial(add, c))
        return c

    # (expression, scope, cell) of each body in post-order; a scope maps
    # each bound variable to its cell
    records: list[list[tuple[Expr, dict[str, int], int]]] = []

    def walk(e: Expr, scope: dict[str, int]) -> int:
        """Make the cells and readers of `e`; returns its cell."""
        if isinstance(e, Var):
            c = scope.get(e.name)
            if c is not None:
                e.resolution = "var"
            else:
                c = cell()
                if e.name in params.inputs:
                    e.resolution = "input"
                    add(c, {params.inputs[e.name]})
                else:
                    e.resolution = "atom"
                    add(c, {Atom(e.name)})
        elif isinstance(e, BuiltinApp):
            args = [walk(a, scope) for a in e.args]
            c = cell()
            if not args:
                add(c, {apply_builtin(e.op, ())})
            for a in dict.fromkeys(args):
                readers[a].append(builtin(e, args, c, [i for i, b in enumerate(args) if b == a]))
        elif isinstance(e, Let):
            c = walk(e.body, {**scope, e.name: walk(e.bound, scope)})
        elif isinstance(e, Call):
            g = number[e.fn]
            for a, param in zip(e.args, param_cells[g]):
                readers[walk(a, scope)].append(partial(add, param))
            c = results[g]
        elif isinstance(e, Sample):
            arg, c = walk(e.arg, scope), cell()

            def sample(new: set[Value]) -> None:
                _require(new, Dist, "sample argument is not a distribution", e.pos)
                add(c, {v for d in new for v in params.dist_table(d)})
            readers[arg].append(sample)
        elif isinstance(e, Observe):
            readers[walk(e.dist, scope)].append(partial(
                _require, kind=Dist, message="observe target is not a distribution", pos=e.pos))
            c = walk(e.value, scope)
        elif isinstance(e, If):
            readers[walk(e.cond, scope)].append(partial(
                _require, kind=Bool, message="if condition is not boolean", pos=e.pos))
            c = join((walk(e.then, scope), walk(e.els, scope)))
        elif isinstance(e, Case):
            scrutinee, left, right = walk(e.scrutinee, scope), cell(), cell()

            def case(new: set[Value]) -> None:
                _require(new, (Inl, Inr), "case scrutinee is not a sum value", e.pos)
                add(left, {v.value for v in new if isinstance(v, Inl)})
                add(right, {v.value for v in new if isinstance(v, Inr)})
            readers[scrutinee].append(case)
            c = join((walk(e.left, {**scope, e.left_var: left}),
                      walk(e.right, {**scope, e.right_var: right})))
        elif isinstance(e, Lookup):
            index, c, keys = walk(e.index, scope), cell(), set(params.lookup_keys(e.param))
            readers[index].append(
                lambda new: add(c, {Dist(e.param, k) for k in new & keys}))
        elif isinstance(e, Fail):
            c = cell()
        else:
            raise TypeError(f"unknown expression {e!r}")
        records[-1].append((e, scope, c))
        return c

    for f, cs in zip(funs, param_cells):
        for x, c in zip(f.params, cs):
            add(c, set(params.domains.get(f"{f.name}.{x}") or ()))
    for f, result, cs in zip(funs, results, param_cells):
        records.append([])
        readers[walk(f.body, dict(zip(f.params, cs)))].append(partial(add, result))
    records.append([])
    walk(p.main, {})
    while queue:
        c = queue.popleft()
        new = fresh.pop(c)
        done[c] |= new
        for read in readers[c]:
            read(new)

    interner = DomainInterner()
    domains: dict[int, Domain] = {}  # by cell
    envs: dict[int, tuple[tuple[str, Domain], ...]] = {}  # by id(scope): `records` holds each

    def intern(c: int) -> Domain:
        dom = domains.get(c)
        if dom is None:
            dom = domains[c] = interner.intern(done[c])
        return dom

    for record in records:
        for e, scope, c in record:
            ty_env = envs.get(id(scope))
            if ty_env is None:
                ty_env = envs[id(scope)] = tuple((x, intern(s)) for x, s in scope.items())
            e.ty = TypeInfo(env=ty_env, result=intern(c))
    return interner.domains


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
