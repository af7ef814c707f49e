"""Abstract syntax for the source language, plus a pretty-printer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .values import Domain

Pos = tuple[int, int]  # (line, column), 1-based


@dataclass
class TypeInfo:
    env: tuple[tuple[str, Domain], ...]  # bound variables in binding order
    result: Domain


@dataclass
class Expr:
    pos: Pos = field(default=(0, 0), kw_only=True, compare=False)
    ty: Optional[TypeInfo] = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Var(Expr):
    name: str
    # filled in by assign_domains: "var" (bound), "input" (params constant),
    # or "atom" (bare atom literal)
    resolution: str = field(default="var", compare=False)


@dataclass
class Let(Expr):
    name: str
    bound: Expr
    body: Expr


@dataclass
class Call(Expr):
    fn: str
    args: list[Expr]


@dataclass
class Sample(Expr):
    arg: Expr


@dataclass
class Observe(Expr):
    value: Expr
    dist: Expr


@dataclass
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr


@dataclass
class Case(Expr):
    scrutinee: Expr
    left_var: str
    left: Expr
    right_var: str
    right: Expr


@dataclass
class Fail(Expr):
    """`fail`: drops the path. It has no value."""


@dataclass
class BuiltinApp(Expr):
    """Built-in function or constant application (constants have no args)."""
    op: str
    args: list[Expr]


@dataclass
class Lookup(Expr):
    """Parameter-table lookup p[e]."""
    param: str
    index: Expr


@dataclass
class FunDef:
    name: str
    params: list[str]
    body: Expr
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass
class Program:
    functions: list[FunDef]
    main: Expr


BUILTIN_ARITY = {
    "=": 2, "!=": 2, "pair": 2, "fst": 1, "snd": 1, "inl": 1, "inr": 1,
    "cons": 2, "car": 1, "cdr": 1,
    "true": 0, "false": 0, "unit": 0, "nil": 0, "not": 1,
}

# built-ins callable by name in source; pair is written (e1, e2), and not(e)
# parses to `if e then false else true`
NAMED_BUILTINS = {"fst", "snd", "inl", "inr", "cons", "car", "cdr", "not"}


# ---------------------------------------------------------------------------
# Pretty-printer. print -> parse is the identity on ASTs (modulo positions).
# `and`, `or` and `not(e)` print as the `if` forms they parse to.

_CONSTS = {"true": "true", "false": "false", "unit": "unit", "nil": "nil"}


def pp_expr(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Let):
        return f"let {e.name} = {pp_expr(e.bound)} in {pp_expr(e.body)}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(pp_expr(a) for a in e.args)})"
    if isinstance(e, Sample):
        return f"sample {_atom(e.arg)}"
    if isinstance(e, Fail):
        return "fail"
    if isinstance(e, Observe):
        return f"observe {_cmp_level(e.value)} <- {pp_expr(e.dist)}"
    if isinstance(e, If):
        return f"if {pp_expr(e.cond)} then {pp_expr(e.then)} else {pp_expr(e.els)}"
    if isinstance(e, Case):
        return (f"case {pp_expr(e.scrutinee)} of inl({e.left_var}) => {_arm(e.left)}"
                f" | inr({e.right_var}) => {pp_expr(e.right)}")
    if isinstance(e, Lookup):
        return f"{e.param}[{pp_expr(e.index)}]"
    if isinstance(e, BuiltinApp):
        if e.op in _CONSTS and not e.args:
            return _CONSTS[e.op]
        if e.op == "pair":
            return f"({pp_expr(e.args[0])}, {pp_expr(e.args[1])})"
        if e.op in ("=", "!="):
            return f"{_atom(e.args[0])} {e.op} {_atom(e.args[1])}"
        return f"{e.op}({', '.join(pp_expr(a) for a in e.args)})"
    raise TypeError(f"unknown expression {e!r}")


def _paren(e: Expr) -> str:
    return f"({pp_expr(e)})"


def _atom(e: Expr) -> str:
    if isinstance(e, (Var, Lookup, Call, Fail)):
        return pp_expr(e)
    if isinstance(e, BuiltinApp) and e.op not in ("=", "!="):
        return pp_expr(e)
    return _paren(e)


def _cmp_level(e: Expr) -> str:
    if isinstance(e, BuiltinApp) and e.op in ("=", "!="):
        return pp_expr(e)
    return _atom(e)


def _arm(e: Expr) -> str:
    # the left case arm must not swallow the '|' separator
    if isinstance(e, Case):
        return _paren(e)
    return pp_expr(e)


def pp_program(p: Program) -> str:
    parts = [f"fun {f.name}({', '.join(f.params)}) = {pp_expr(f.body)};"
             for f in p.functions]
    parts.append(pp_expr(p.main))
    return "\n".join(parts) + "\n"
