"""Independent ground-truth engines for testing and the compare command:

- a direct branch-enumerating interpreter of the source language,
- a bounded derivation-tree enumerator with brute-force weight summation,
- a textbook inside-algorithm (CKY) implementation.

The interpreter and the inside algorithm share only the Value/Domain types
and the parameter file reader with the main pipeline, so agreement between
them and the compiled grammars is evidence rather than tautology. The
enumerator shares more: it builds each derivation's graph with
`fgg.yield_graph` and sums it with the solver's own
`inference.external_marginal`. That contraction is checked on its own in
tests/test_reference_equivalence.py, against `reference_impl.eliminate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .ast import (BuiltinApp, Call, Case, Expr, Fail, If, Let, Lookup,
                  Observe, Program, Sample, Var)
from .fgg import FGG, DerivationTree, yield_graph
from .params import Params
from .values import (FALSE, NIL, TRUE, UNIT, Atom, Bool, Dist, FggcError,
                     Inl, Inr, Pair, Value)


@dataclass(frozen=True)
class BranchOutcome:
    value: Value
    weight: float
    depth: int  # structural depth used by this branch (main counts as 1)
    # the code path: if/case arm choices in evaluation order, each a
    # (line, column, arm) triple; sampling choices are not part of the path
    path: tuple = ()


class OracleError(FggcError):
    pass


# -- independent built-in evaluation (kept separate from frontend semantics)


def _apply(op: str, args):
    if op == "=":
        return Bool(args[0] == args[1])
    if op == "!=":
        return Bool(args[0] != args[1])
    if op == "pair":
        return Pair(args[0], args[1])
    if op == "fst":
        if not isinstance(args[0], Pair):
            return None
        return args[0].first
    if op == "snd":
        if not isinstance(args[0], Pair):
            return None
        return args[0].second
    if op == "inl":
        return Inl(args[0])
    if op == "inr":
        return Inr(args[0])
    if op == "cons":
        a, s = args
        if not (isinstance(a, Atom) and isinstance(s, Atom) and len(a.name) == 1):
            return None
        return Atom(a.name + s.name)
    if op == "car":
        s = args[0]
        if not (isinstance(s, Atom) and s.name):
            return None
        return Atom(s.name[0])
    if op == "cdr":
        s = args[0]
        if not (isinstance(s, Atom) and s.name):
            return None
        return Atom(s.name[1:])
    consts = {"true": TRUE, "false": FALSE, "unit": UNIT, "nil": NIL}
    if op in consts:
        return consts[op]
    raise OracleError(f"unknown built-in {op!r}")


def branches(p: Program, params: Params, depth_bound: int) -> list[BranchOutcome]:
    """Exhaustively enumerate terminating computation branches.

    A branch's depth mirrors the height of the derivation tree of the fully
    simplified compiled grammar: entering an if/case arm or a function body
    adds a level, except that a function (or the top level) whose body is
    itself a bare if/case shares its level with that body.
    """
    funs = {f.name: f for f in p.functions}
    bare = {f.name: isinstance(f.body, (If, Case)) for f in p.functions}

    def ev(e: Expr, env: dict[str, Value], d: int, absorb: bool = False):
        # yields (value, weight, max structural depth, code path)
        if isinstance(e, Var):
            if e.name in env:
                v = env[e.name]
            elif e.name in params.inputs:
                v = params.inputs[e.name]
            else:
                v = Atom(e.name)
            yield v, 1.0, d, ()
            return
        if isinstance(e, Let):
            for v1, w1, m1, p1 in ev(e.bound, env, d):
                for v2, w2, m2, p2 in ev(e.body, {**env, e.name: v1}, d):
                    yield v2, w1 * w2, max(m1, m2), p1 + p2
            return
        if isinstance(e, Call):
            f = funs[e.fn]
            d2 = d + 1
            for argvals, w, m, p1 in _ev_args(e.args, env, d):
                if d2 > depth_bound:
                    continue
                env_f = dict(zip(f.params, argvals))
                for v, w2, m2, p2 in ev(f.body, env_f, d2, absorb=bare[e.fn]):
                    yield v, w * w2, max(m, m2), p1 + p2
            return
        if isinstance(e, Sample):
            for dv, w, m, p1 in ev(e.arg, env, d):
                if not isinstance(dv, Dist):
                    raise OracleError("sample of a non-distribution")
                for val, pw in params.dist_table(dv).items():
                    if pw > 0.0:
                        yield val, w * pw, m, p1
            return
        if isinstance(e, Observe):
            for v, w, m, p1 in ev(e.value, env, d):
                for dv, w2, m2, p2 in ev(e.dist, env, d):
                    if not isinstance(dv, Dist):
                        raise OracleError("observe against a non-distribution")
                    pw = params.dist_table(dv).get(v, 0.0)
                    if pw > 0.0:
                        yield v, w * w2 * pw, max(m, m2), p1 + p2
            return
        if isinstance(e, If):
            d2 = d if absorb else d + 1
            if d2 > depth_bound:
                return
            for c, w, m, p1 in ev(e.cond, env, d2):
                arm, tag = (e.then, "then") if c == TRUE else (e.els, "else")
                choice = (e.pos[0], e.pos[1], tag)
                for v, w2, m2, p2 in ev(arm, env, d2):
                    yield v, w * w2, max(m, m2), p1 + (choice,) + p2
            return
        if isinstance(e, Case):
            d2 = d if absorb else d + 1
            if d2 > depth_bound:
                return
            for s, w, m, p1 in ev(e.scrutinee, env, d2):
                if isinstance(s, Inl):
                    arm, binder, inner, tag = e.left, e.left_var, s.value, "inl"
                elif isinstance(s, Inr):
                    arm, binder, inner, tag = e.right, e.right_var, s.value, "inr"
                else:
                    raise OracleError("case scrutinee is not a sum value")
                choice = (e.pos[0], e.pos[1], tag)
                for v, w2, m2, p2 in ev(arm, {**env, binder: inner}, d2):
                    yield v, w * w2, max(m, m2), p1 + (choice,) + p2
            return
        if isinstance(e, BuiltinApp):
            for argvals, w, m, p1 in _ev_args(e.args, env, d):
                v = _apply(e.op, argvals)
                if v is not None:
                    yield v, w, m, p1
            return
        if isinstance(e, Lookup):
            for k, w, m, p1 in ev(e.index, env, d):
                if k in params.params.get(e.param, {}):
                    yield Dist(e.param, k), w, m, p1
            return
        if isinstance(e, Fail):  # no branch survives it
            return
        raise OracleError(f"cannot interpret unknown expression {e!r}")

    def _ev_args(args, env, d):
        if not args:
            yield (), 1.0, d, ()
            return
        for v, w, m, p1 in ev(args[0], env, d):
            for rest, w2, m2, p2 in _ev_args(args[1:], env, d):
                yield (v,) + rest, w * w2, max(m, m2), p1 + p2

    out = [BranchOutcome(v, w, m, pa)
           for v, w, m, pa in ev(p.main, {}, 1, absorb=isinstance(p.main, (If, Case)))
           if w > 0.0]
    return out


def interpret(p: Program, params: Params, depth_bound: int) -> dict[Value, float]:
    """Finite-depth weight map: value -> summed weight of its branches."""
    out: dict[Value, float] = {}
    for b in branches(p, params, depth_bound):
        out[b.value] = out.get(b.value, 0.0) + b.weight
    return out


# ---------------------------------------------------------------------------
# Derivation-tree enumeration


def enumerate_derivations(g: FGG, nonterminal: str, max_height: int,
                          limit: int = 500_000) -> list[DerivationTree]:
    """All derivation trees of height <= max_height (a leaf rule has height 1),
    ordered by rule order and then child order."""
    memo: dict[tuple[str, int], list[DerivationTree]] = {}
    count = 0

    def trees(x: str, h: int) -> list[DerivationTree]:
        nonlocal count
        if h <= 0:
            return []
        key = (x, h)
        if key in memo:
            return memo[key]
        out: list[DerivationTree] = []
        for r in g.rules:
            if r.lhs != x:
                continue
            nt_edges = [e for e in r.rhs.edges if g.labels[e.label].is_nonterminal]
            child_lists = [trees(e.label, h - 1) for e in nt_edges]
            for combo in iproduct(*child_lists):
                out.append(DerivationTree(r, dict(zip((e.id for e in nt_edges), combo))))
                count += 1
                if count > limit:
                    raise OracleError(f"more than {limit} derivation trees; "
                                      "raise the limit or lower the height bound")
        memo[key] = out
        return out

    return trees(nonterminal, max_height)


def truncated_wX(g: FGG, nonterminal: str, max_height: int, limit: int = 500_000):
    """Brute-force weight tensor: sum of external marginals of the yields of
    all derivation trees with at most max_height levels below the root rule."""
    from .inference import WeightTensor, external_marginal
    ext_doms = g.ext_domains().get(nonterminal)
    if ext_doms is None:
        raise OracleError(f"nonterminal {nonterminal!r} has no rules or uses")
    acc = WeightTensor.zeros(g.domain_tuple(ext_doms))
    for t in enumerate_derivations(g, nonterminal, max_height + 1, limit=limit):
        graph = yield_graph(t, g.labels)
        m = external_marginal(graph, g.domains, g.factors)
        acc.data = acc.data + m.data
    return acc


# ---------------------------------------------------------------------------
# Inside algorithm (CKY) reference


def inside_reference(pcfg: dict[Value, dict[Value, float]], w: str,
                     start: str = "S") -> float:
    """Textbook O(n^3) inside probability of string w.

    pcfg maps a nonterminal Atom to its rule distribution: Inl(Atom(a)) for a
    terminal rule X -> a, Inr(Pair(Y, Z)) for a binary rule X -> Y Z.
    """
    n = len(w)
    if n == 0:
        return 0.0
    terminal_rules: dict[str, list[tuple[str, float]]] = {}
    binary_rules: list[tuple[str, str, str, float]] = []
    for lhs, dist in pcfg.items():
        if not isinstance(lhs, Atom):
            raise OracleError("PCFG nonterminals must be atoms")
        for rhs, prob in dist.items():
            if isinstance(rhs, Inl) and isinstance(rhs.value, Atom):
                terminal_rules.setdefault(rhs.value.name, []).append((lhs.name, prob))
            elif (isinstance(rhs, Inr) and isinstance(rhs.value, Pair)
                  and isinstance(rhs.value.first, Atom)
                  and isinstance(rhs.value.second, Atom)):
                binary_rules.append((lhs.name, rhs.value.first.name,
                                     rhs.value.second.name, prob))
            else:
                raise OracleError(f"PCFG rule is not in CNF: {rhs.key()}")
    # chart[i][j][X] = inside probability of X over w[i:j]
    chart: dict[tuple[int, int], dict[str, float]] = {}
    for i in range(n):
        cell: dict[str, float] = {}
        for lhs, prob in terminal_rules.get(w[i], []):
            cell[lhs] = cell.get(lhs, 0.0) + prob
        chart[(i, i + 1)] = cell
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            cell = {}
            for k in range(i + 1, j):
                left, right = chart[(i, k)], chart[(k, j)]
                for lhs, y, z, prob in binary_rules:
                    py, pz = left.get(y, 0.0), right.get(z, 0.0)
                    if py > 0.0 and pz > 0.0:
                        cell[lhs] = cell.get(lhs, 0.0) + prob * py * pz
            chart[(i, j)] = cell
    return chart[(0, n)].get(start, 0.0)
