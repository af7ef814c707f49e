"""Reference implementations kept for equivalence tests.

These are the straightforward forms of five paths:

- the paper's translation, which gives every subexpression a nonterminal of
  its own and every variable reference an identity ("copy") table, and
  three passes over its grammar: `pass_inline`, which folds each
  nonterminal but the `if`, `case`, function and start labels back into its
  one use (rescanning the whole grammar from its first label after every
  inlined label, and rebuilding a right-hand side for every inlined edge);
  `pass_contract`, which merges the two nodes of a copy edge (rescanning a
  rule from its first edge after every firing and rebuilding it each time);
  and `pass_prune`, which drops the rules with an all-zero table.
  `compile_program` runs the four and `_gc`, which drops the rules that
  use a nonterminal with no live rule by sweeping the whole grammar until
  nothing changes: the library's translator must build that grammar, and
  the grammar before the passes must give the same start weights;
- the Jacobi solver that scans all rules for every nonterminal and rebuilds
  every rule's factors on every iteration;
- variable elimination as hand-written tensor algebra that re-derives every
  scope on every application, and min-fill ordering over sets of node
  names that counts every candidate's fill in full;
- domain assignment as two traversals (a value-set fixpoint, then a typing
  walk that interns the final sets);
- the parser over a list of `Token` objects, tokenized by one `finditer`
  step per token, newline and comment, that tests each token through
  method calls (`reference_parse`, `reference_parse_value`).

The library's versions must produce identical grammars, identical
elimination orders and costs, bit-identical solver states, rule contributions equal to 1e-12 relative and identical domain
annotations, and the parser identical ASTs, positions included, and
identical errors (see test_reference_equivalence.py). `assignment_weight`, the
weight of one total assignment of a terminal-only graph, is the brute-force
oracle for variable elimination (see test_inference.py).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from fggc import ast
from fggc.ast import (BuiltinApp, Call, Case, Expr, Fail, FunDef, If, Let,
                      Lookup, Observe, Program, Sample, TypeInfo, Var)
from fggc.fgg import (FGG, NONTERMINAL, TERMINAL, Edge, EdgeLabel, FactorTable,
                      Hypergraph, Node, Rule, rules_by_lhs)
from fggc.frontend import (_SET_LIMIT, DomainError, DomainInterner, _check_enumerable,
                           apply_builtin)
from fggc import inference
from fggc.inference import (CONVERGED, DIVERGENCE_BOUND, DIVERGENT, MAX_ITER,
                            EliminationPlan, InferenceError, OpCounter, SolverState,
                            WeightTensor, align, plan_elimination)
from fggc.params import Params
from fggc.parser import KEYWORDS, SYMBOLS, ParseError
from fggc.translate import (RESULT, START, CompilationUnit, _density_table, _graph,
                            _Names)
from fggc.values import (FALSE, NIL, TRUE, UNIT, Atom, Bool, Dist, Domain, Inl, Inr,
                         Pair, Value, ValueSyntaxError)


# ---------------------------------------------------------------------------
# The paper's translation, one nonterminal per subexpression, and the pass
# that inlines it


PROTECTED_KINDS = {"if", "case", "fun", "start"}


@dataclass
class ReferenceUnit(CompilationUnit):
    label_kinds: dict[str, str] = field(default_factory=dict)  # nonterminal -> construct
    factor_origins: dict[str, str] = field(default_factory=dict)  # terminal -> construct


class _Translator:
    """Each subexpression in an environment with k bound variables becomes a
    nonterminal of arity k+1 (the environment slots in binding order, then
    the result slot). Conditionals and case expressions get two rules, one
    per arm; everything else gets one rule; each function definition and
    the program top level get one rule each."""

    def __init__(self, program: Program, params: Params):
        self.program = program
        self.params = params
        self.names = _Names()
        self.labels: dict[str, EdgeLabel] = {}
        self.rules: list[Rule] = []
        self.factors: dict[str, FactorTable] = {}
        self.domains: dict[str, Domain] = {}
        self.provenance: dict[str, str] = {}
        self.label_kinds: dict[str, str] = {}
        self.factor_origins: dict[str, str] = {}
        self._nt_of: dict[int, str] = {}  # id(expr) -> label name
        self._tables: dict[tuple, np.ndarray] = {}  # see terminal()

    # -- naming and registration --------------------------------------------

    def _dom(self, d: Domain) -> str:
        self.domains[d.name] = d
        return d.name

    def nt(self, e: Expr) -> str:
        name = self._nt_of.get(id(e))
        if name is None:
            kind = _kind_of(e)
            name = self.names.fresh(f"{kind}@{e.pos[0]}:{e.pos[1]}")
            self.labels[name] = EdgeLabel(name, len(e.ty.env) + 1, NONTERMINAL)
            self.label_kinds[name] = kind
            self.provenance[name] = f"{e.pos[0]}:{e.pos[1]}"
            self._nt_of[id(e)] = name
        return name

    def terminal(self, base: str, doms: tuple[Domain, ...], key: tuple, make,
                 origin: str) -> str:
        """A fresh terminal label over `doms`. Its table, `make()`, is
        computed once per `key` and domains and shared, read-only, by every
        label with the same key and domains."""
        key += tuple(d.name for d in doms)
        table = self._tables.get(key)
        if table is None:
            table = make()
            table.flags.writeable = False
            self._tables[key] = table
        name = self.names.fresh(base)
        self.labels[name] = EdgeLabel(name, len(doms), TERMINAL)
        self.factors[name] = FactorTable(name, tuple(self._dom(d) for d in doms), table)
        self.factor_origins[name] = origin
        return name

    # -- rule assembly --------------------------------------------------------

    def _rule(self, lhs: str, e: Expr, nodes, edges):
        """nodes: extra (id, Domain) pairs beyond env+result; edges as built."""
        env_nodes = [Node(x, self._dom(d)) for x, d in e.ty.env]
        all_nodes = env_nodes + [Node(RESULT, self._dom(e.ty.result))]
        all_nodes += [Node(nid, self._dom(d)) for nid, d in nodes]
        ext = tuple(x for x, _ in e.ty.env) + (RESULT,)
        self.rules.append(Rule(lhs, Hypergraph(all_nodes, edges, ext)))

    def _edge_for(self, eid: str, sub: Expr, result_node: str) -> Edge:
        return Edge(eid, self.nt(sub), tuple(x for x, _ in sub.ty.env) + (result_node,))

    # -- per-construct translation -------------------------------------------

    def translate_expr(self, e: Expr) -> str:
        lhs = self.nt(e)
        span = f"{e.pos[0]}:{e.pos[1]}"

        if isinstance(e, Var):
            if e.resolution == "var":
                xdom = dict(e.ty.env)[e.name]
                lab = self.terminal(f"copy@{span}", (xdom, e.ty.result), ("copy",),
                                    lambda: _graph((xdom,), e.ty.result, lambda v: v[0]),
                                    origin="copy")
                self._rule(lhs, e, [], [Edge("e0", lab, (e.name, RESULT))])
            else:
                value = (self.params.inputs[e.name] if e.resolution == "input"
                         else Atom(e.name))
                lab = self.terminal(f"const@{span}", (e.ty.result,), ("const", value),
                                    lambda: _graph((), e.ty.result, lambda v: value),
                                    origin="builtin")
                self._rule(lhs, e, [], [Edge("e0", lab, (RESULT,))])
            return lhs

        if isinstance(e, BuiltinApp):
            arg_nodes = []
            edges = []
            for j, a in enumerate(e.args):
                self.translate_expr(a)
                nid = f"%{j + 1}"
                arg_nodes.append((nid, a.ty.result))
                edges.append(self._edge_for(f"e{j}", a, nid))
            arg_doms = tuple(a.ty.result for a in e.args)
            lab = self.terminal(f"{e.op}@{span}", arg_doms + (e.ty.result,), ("op", e.op),
                                lambda: _graph(arg_doms, e.ty.result,
                                               lambda v: apply_builtin(e.op, v)),
                                origin="builtin")
            edges.append(Edge(f"e{len(e.args)}", lab,
                              tuple(nid for nid, _ in arg_nodes) + (RESULT,)))
            self._rule(lhs, e, arg_nodes, edges)
            return lhs

        if isinstance(e, Lookup):
            self.translate_expr(e.index)
            idom, rdom = e.index.ty.result, e.ty.result
            keys = set(self.params.lookup_keys(e.param))

            def entry(v):
                return Dist(e.param, v[0]) if v[0] in keys else None

            lab = self.terminal(f"{e.param}[]@{span}", (idom, rdom), ("lookup", e.param),
                                lambda: _graph((idom,), rdom, entry), origin="lookup")
            self._rule(lhs, e, [("%1", idom)],
                       [self._edge_for("e0", e.index, "%1"),
                        Edge("e1", lab, ("%1", RESULT))])
            return lhs

        if isinstance(e, Sample):
            self.translate_expr(e.arg)
            ddom = e.arg.ty.result
            lab = self.terminal(f"density@{span}", (ddom, e.ty.result), ("density",),
                                lambda: _density_table(ddom, e.ty.result, self.params),
                                origin="density")
            self._rule(lhs, e, [("%1", ddom)],
                       [self._edge_for("e0", e.arg, "%1"),
                        Edge("e1", lab, ("%1", RESULT))])
            return lhs

        if isinstance(e, Observe):
            self.translate_expr(e.value)
            self.translate_expr(e.dist)
            ddom = e.dist.ty.result
            lab = self.terminal(f"density@{span}", (ddom, e.ty.result), ("density",),
                                lambda: _density_table(ddom, e.ty.result, self.params),
                                origin="density")
            # the observed expression's result node IS the rule's result
            self._rule(lhs, e, [("%1", ddom)],
                       [self._edge_for("e0", e.value, RESULT),
                        self._edge_for("e1", e.dist, "%1"),
                        Edge("e2", lab, ("%1", RESULT))])
            return lhs

        if isinstance(e, If):
            self.translate_expr(e.cond)
            cdom = e.cond.ty.result
            for arm, want, tag in ((e.then, True, "true"), (e.els, False, "false")):
                self.translate_expr(arm)
                lab = self.terminal(f"is-{tag}@{span}", (cdom,), (tag,),
                                    lambda: _graph((), cdom, lambda v: Bool(want)),
                                    origin="constraint")
                self._rule(lhs, e, [("%1", cdom)],
                           [self._edge_for("e0", e.cond, "%1"),
                            Edge("e1", lab, ("%1",)),
                            self._edge_for("e2", arm, RESULT)])
            return lhs

        if isinstance(e, Case):
            self.translate_expr(e.scrutinee)
            sdom = e.scrutinee.ty.result
            for arm, binder, con, tag in ((e.left, e.left_var, Inl, "inl"),
                                          (e.right, e.right_var, Inr, "inr")):
                self.translate_expr(arm)
                bdom = dict(arm.ty.env)[binder]
                lab = self.terminal(f"is-{tag}@{span}", (sdom, bdom), (tag,),
                                    lambda: np.ascontiguousarray(
                                        _graph((bdom,), sdom, lambda v: con(v[0])).T),
                                    origin="constraint")
                self._rule(lhs, e, [("%1", sdom), (binder, bdom)],
                           [self._edge_for("e0", e.scrutinee, "%1"),
                            Edge("e1", lab, ("%1", binder)),
                            self._edge_for("e2", arm, RESULT)])
            return lhs

        if isinstance(e, Fail):
            lab = self.terminal(f"fail@{span}", (e.ty.result,), ("fail",),
                                lambda: np.zeros(len(e.ty.result)), origin="fail")
            self._rule(lhs, e, [], [Edge("e0", lab, (RESULT,))])
            return lhs

        if isinstance(e, Let):
            self.translate_expr(e.bound)
            self.translate_expr(e.body)
            self._rule(lhs, e, [(e.name, e.bound.ty.result)],
                       [self._edge_for("e0", e.bound, e.name),
                        self._edge_for("e1", e.body, RESULT)])
            return lhs

        if isinstance(e, Call):
            arg_nodes = []
            edges = []
            for j, a in enumerate(e.args):
                self.translate_expr(a)
                nid = f"%{j + 1}"
                arg_nodes.append((nid, a.ty.result))
                edges.append(self._edge_for(f"e{j}", a, nid))
            edges.append(Edge(f"e{len(e.args)}", e.fn,
                              tuple(nid for nid, _ in arg_nodes) + (RESULT,)))
            self._rule(lhs, e, arg_nodes, edges)
            return lhs

        raise TypeError(f"cannot translate unknown expression {e!r}")

    def translate_fun(self, f: FunDef):
        body_lhs = self.translate_expr(f.body)
        self.labels[f.name] = EdgeLabel(f.name, len(f.params) + 1, NONTERMINAL)
        self.label_kinds[f.name] = "fun"
        self.provenance[f.name] = f"{f.pos[0]}:{f.pos[1]}"
        nodes = [Node(x, self._dom(d)) for x, d in f.body.ty.env]
        nodes.append(Node(RESULT, self._dom(f.body.ty.result)))
        att = tuple(x for x, _ in f.body.ty.env) + (RESULT,)
        self.rules.append(Rule(f.name, Hypergraph(nodes, [Edge("e0", body_lhs, att)], att)))

    def translate_program(self) -> ReferenceUnit:
        for f in self.program.functions:
            self.translate_fun(f)
        main_lhs = self.translate_expr(self.program.main)
        start = self.names.fresh(START)
        self.labels[start] = EdgeLabel(start, 1, NONTERMINAL)
        self.label_kinds[start] = "start"
        main = self.program.main
        self.rules.append(Rule(start, Hypergraph(
            [Node(RESULT, self._dom(main.ty.result))],
            [Edge("e0", main_lhs, (RESULT,))], (RESULT,))))
        g = FGG(labels=self.labels, rules=self.rules, start=start,
                domains=self.domains, factors=self.factors)
        return ReferenceUnit(fgg=g, provenance=self.provenance,
                             label_kinds=self.label_kinds,
                             factor_origins=self.factor_origins)


def _kind_of(e: Expr) -> str:
    # `fail`'s nonterminal is a "failure", which leaves the name `fail@` to
    # its terminal, as in the library's grammar
    return {Var: "var", Let: "let", Call: "call", Sample: "sample",
            Observe: "observe", If: "if", Case: "case",
            BuiltinApp: "builtin", Lookup: "lookup", Fail: "failure"}[type(e)]


def translate(program: Program, params: Params) -> ReferenceUnit:
    return _Translator(program, params).translate_program()


def _inline_edge(rhs: Hypergraph, edge: Edge, sub: Hypergraph) -> Hypergraph:
    """Replace one nonterminal edge by a rule's right-hand side."""
    ren = {}
    fuse = dict(zip(sub.ext, edge.att))
    for n in sub.nodes:
        ren[n.id] = fuse.get(n.id, f"{edge.id}.{n.id}")
    nodes = list(rhs.nodes)
    nodes += [Node(ren[n.id], n.domain) for n in sub.nodes if n.id not in fuse]
    edges = [e for e in rhs.edges if e.id != edge.id]
    edges += [Edge(f"{edge.id}.{e.id}", e.label, tuple(ren[a] for a in e.att))
              for e in sub.edges]
    return Hypergraph(nodes, edges, rhs.ext)


def pass_inline(cu: ReferenceUnit) -> int:
    """Inline single-rule nonterminals other than if/case/function lhs, and
    collapse function/start rules whose whole rhs is one if/case edge."""
    g = cu.fgg
    fired = 0
    while True:
        by_lhs: dict[str, list[Rule]] = {}
        for r in g.rules:
            by_lhs.setdefault(r.lhs, []).append(r)
        candidate = None
        for name, lab in g.labels.items():
            if (lab.is_nonterminal and cu.label_kinds.get(name) not in PROTECTED_KINDS
                    and len(by_lhs.get(name, [])) == 1):
                sub = by_lhs[name][0].rhs
                if any(e.label == name for e in sub.edges):
                    continue  # self-recursive; cannot inline
                if any(e.label == name for r in g.rules if r.lhs != name
                       for e in r.rhs.edges):
                    candidate = (name, sub)
                    break
        if candidate is None:
            break
        name, sub = candidate
        new_rules = []
        for r in g.rules:
            if r.lhs == name:
                continue
            rhs = r.rhs
            while True:
                hit = next((e for e in rhs.edges if e.label == name), None)
                if hit is None:
                    break
                rhs = _inline_edge(rhs, hit, sub)
                fired += 1
            new_rules.append(Rule(r.lhs, rhs))
        g.rules = new_rules
        del g.labels[name]

    # unit-rule collapse: fun/start whose rhs is exactly one if/case edge
    changed = True
    while changed:
        changed = False
        by_lhs = {}
        for r in g.rules:
            by_lhs.setdefault(r.lhs, []).append(r)
        for name in list(g.labels):
            if cu.label_kinds.get(name) not in ("fun", "start"):
                continue
            rules = by_lhs.get(name, [])
            if len(rules) != 1:
                continue
            rhs = rules[0].rhs
            if (len(rhs.edges) == 1 and len(rhs.nodes) == len(rhs.ext)
                    and rhs.edges[0].att == rhs.ext
                    and cu.label_kinds.get(rhs.edges[0].label) in ("if", "case")):
                child = rhs.edges[0].label
                uses = sum(1 for r in g.rules for e in r.rhs.edges if e.label == child)
                if uses != 1:
                    continue
                child_rules = [r for r in g.rules if r.lhs == child]
                # relabel: reuse this rule's node names for the external slots
                replacement = []
                for cr in child_rules:
                    ren = dict(zip(cr.rhs.ext, rhs.ext))
                    nodes = [Node(ren.get(n.id, n.id), n.domain) for n in cr.rhs.nodes]
                    edges = [Edge(e.id, e.label, tuple(ren.get(a, a) for a in e.att))
                             for e in cr.rhs.edges]
                    replacement.append(Rule(name, Hypergraph(nodes, edges, rhs.ext)))
                g.rules = [r for r in g.rules if r.lhs not in (name, child)] + replacement
                del g.labels[child]
                fired += 1
                changed = True
                break
    return fired


# ---------------------------------------------------------------------------
# Simplification passes, which the library's translator does as it builds
# each rule


def pass_contract(cu: ReferenceUnit) -> int:
    """Contract copy factors v = x by merging the two nodes."""
    g = cu.fgg
    fired = 0
    new_rules = []
    for r in g.rules:
        rhs = r.rhs
        while True:
            target = None
            for e in rhs.edges:
                if cu.factor_origins.get(e.label) != "copy" or len(e.att) != 2:
                    continue
                a, b = e.att
                if a == b:
                    continue
                if rhs.domain_of(a) != rhs.domain_of(b):
                    continue
                if a in rhs.ext and b in rhs.ext:
                    continue  # merging would duplicate an external node
                target = e
                break
            if target is None:
                break
            a, b = target.att
            keep, drop = (b, a) if b in rhs.ext else (a, b)
            nodes = [n for n in rhs.nodes if n.id != drop]
            edges = [Edge(e.id, e.label, tuple(keep if x == drop else x for x in e.att))
                     for e in rhs.edges if e.id != target.id]
            rhs = Hypergraph(nodes, edges, rhs.ext)
            fired += 1
        new_rules.append(Rule(r.lhs, rhs))
    g.rules = new_rules
    return fired


def pass_prune(cu: CompilationUnit) -> int:
    """Drop rules containing an identically-zero factor table. The start
    symbol keeps its last rule if it would lose them all: its weight is 0
    either way, and the rule records the start symbol's domains."""
    g = cu.fgg
    zero = {name for name, tab in g.factors.items() if not tab.weights.any()}
    dead = [any(e.label in zero and g.labels[e.label].is_terminal for e in r.rhs.edges)
            for r in g.rules]
    starts = [i for i, r in enumerate(g.rules) if r.lhs == g.start]
    if starts and all(dead[i] for i in starts):
        dead[starts[-1]] = False
    before = len(g.rules)
    g.rules = [r for r, d in zip(g.rules, dead) if not d]
    return before - len(g.rules)


def _gc(cu: CompilationUnit):
    """Keep the live rules, those whose nonterminals all have a live rule,
    found by sweeping every rule again until a sweep adds none (the first
    finds the rules that use no nonterminal), but for the start symbol's
    last rule if it has no live one (its weight is 0 either way); then the
    rules, labels, factors, and domains unreachable from the start symbol,
    and the removed labels' provenance. Run after pass_prune, so no rule
    holds an all-zero table but a start rule that pass_prune kept."""
    g = cu.fgg
    nonterminals = {name for name, lab in g.labels.items() if lab.is_nonterminal}
    rules = []
    while True:
        productive = {r.lhs for r in rules}
        kept = [r for r in g.rules
                if all(e.label in productive for e in r.rhs.edges if e.label in nonterminals)]
        if len(kept) == len(rules):
            break
        rules = kept
    if g.start not in productive:
        keep = {id(r) for r in rules} | {id([r for r in g.rules if r.lhs == g.start][-1])}
        rules = [r for r in g.rules if id(r) in keep]
    g.rules = rules
    reachable = {g.start}
    frontier = [g.start]
    by_lhs = rules_by_lhs(g.rules)
    while frontier:
        for r in by_lhs.get(frontier.pop(), ()):
            for e in r.rhs.edges:
                lab = g.labels.get(e.label)
                if lab is not None and lab.is_nonterminal and e.label not in reachable:
                    reachable.add(e.label)
                    frontier.append(e.label)
    g.rules = [r for r in g.rules if r.lhs in reachable]
    used_labels = {g.start} | {r.lhs for r in g.rules}
    used_domains = set()
    for r in g.rules:
        for e in r.rhs.edges:
            used_labels.add(e.label)
        for n in r.rhs.nodes:
            used_domains.add(n.domain)
    for t in list(g.factors.values()):
        if t.label in used_labels:
            used_domains.update(t.domains)
    g.labels = {k: v for k, v in g.labels.items() if k in used_labels}
    g.factors = {k: v for k, v in g.factors.items() if k in used_labels}
    g.domains = {k: v for k, v in g.domains.items() if k in used_domains}
    for k in [k for k in cu.provenance if k not in g.labels]:
        del cu.provenance[k]


def compile_program(program: Program, params: Params) -> ReferenceUnit:
    """The paper's translation, inlined, with its copies contracted and its
    rules with an all-zero table pruned: the grammar the library's
    translator builds."""
    cu = translate(program, params)
    pass_inline(cu)
    pass_contract(cu)
    pass_prune(cu)
    _gc(cu)
    return cu


def solve_fixed_point(g: FGG, tol: float = 1e-10, max_iter: int = 10000) -> SolverState:
    """Kleene iteration from zero tensors, synchronous (Jacobi) updates,
    rescanning the rules for every nonterminal and preparing every rule
    anew on every iteration (by the library's rule_contribution, so that
    the states must agree bit for bit)."""
    ext = g.ext_domains()
    nts = [n for n in g.nonterminals() if n in ext]
    shapes = {n: g.domain_tuple(ext[n]) for n in nts}
    tau = {n: WeightTensor.zeros(shapes[n]) for n in nts}
    plans = {id(r): plan_elimination(g, r).order for r in g.rules}
    counter = OpCounter()
    state = SolverState(tau=tau, iteration=0, delta=float("inf"), status=MAX_ITER)
    for it in range(1, max_iter + 1):
        new_tau = {}
        for n in nts:
            acc = WeightTensor.zeros(shapes[n])
            for r in g.rules:
                if r.lhs != n:
                    continue
                c = inference.rule_contribution(g, r, tau, order=plans[id(r)],
                                                counter=counter)
                acc.data += c.data
            new_tau[n] = acc
        delta = 0.0
        for n in nts:
            d = float(np.max(np.abs(new_tau[n].data - tau[n].data))) if tau[n].data.size else 0.0
            delta = max(delta, d)
        tau = new_tau
        state.tau = tau
        state.iteration = it
        state.delta = delta
        state.ops = counter.ops
        if any(np.any(t.data > DIVERGENCE_BOUND) for t in tau.values()):
            state.status = DIVERGENT
            return state
        if delta < tol:
            state.status = CONVERGED
            return state
    state.status = MAX_ITER
    return state


def plan_order(node_domains: dict[str, Domain], scopes, ext) -> EliminationPlan:
    """Min-fill ordering over the interaction graph induced by factor scopes:
    the node of least fill, the first by name on a tie."""
    neighbors: dict[str, set[str]] = {n: set() for n in node_domains}
    for scope in scopes:
        for a in scope:
            for b in scope:
                if a != b:
                    neighbors[a].add(b)
    internal = sorted(n for n in node_domains if n not in ext)
    remaining = set(node_domains)
    order: list[str] = []
    cost = 0.0
    pending = set(internal)
    while pending:
        best = None
        for n in sorted(pending):
            nbrs = [m for m in neighbors[n] if m in remaining]
            fill = sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:]
                       if b not in neighbors[a])
            if best is None or fill < best[0]:
                best = (fill, n, nbrs)
        _, n, nbrs = best
        clique = 1.0
        for m in nbrs + [n]:
            clique *= len(node_domains[m])
        cost += clique
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    neighbors[a].add(b)
        order.append(n)
        pending.discard(n)
        remaining.discard(n)
    return EliminationPlan(order=order, cost=cost)


def _multiply(scope1, arr1, scope2, arr2, sizes, counter):
    """Pointwise product over the union scope (scope1 order, then new nodes)."""
    scope = list(scope1) + [n for n in scope2 if n not in scope1]
    # expand arr1
    a1 = arr1.reshape(arr1.shape + (1,) * (len(scope) - len(scope1)))
    # permute/expand arr2 into the union scope
    perm = []
    for n in scope:
        if n in scope2:
            perm.append(scope2.index(n))
    a2 = np.transpose(arr2, perm)
    shape2 = tuple(sizes[n] if n in scope2 else 1 for n in scope)
    a2 = a2.reshape(shape2)
    out = a1 * a2
    if counter is not None:
        counter.ops += out.size
    return scope, out


def _dedupe(scope: list[str], arr: np.ndarray):
    """Collapse repeated attachments to the same node onto the diagonal."""
    while True:
        dup = None
        for i, n in enumerate(scope):
            j = scope.index(n)
            if j != i:
                dup = (j, i, n)
                break
        if dup is None:
            return scope, arr
        j, i, n = dup
        arr = arr.diagonal(axis1=j, axis2=i)  # diagonal axis moves to the end
        scope = [m for k, m in enumerate(scope) if k not in (i, j)] + [n]


def eliminate(node_domains: dict[str, Domain], factors, ext,
              order, counter: OpCounter | None = None) -> WeightTensor:
    """Sum-product variable elimination.

    node_domains: node id -> Domain; factors: list of (scope, array) where
    scope is a tuple of node ids; ext: output node order; order: internal
    nodes in elimination order. Accumulation order is fixed by `order` and
    by the positions of factors in the list, so results are reproducible.
    """
    sizes = {n: len(d) for n, d in node_domains.items()}
    work = [_dedupe(list(s), np.asarray(a, dtype=float)) for s, a in factors]
    for n in order:
        group = [(s, a) for s, a in work if n in s]
        work = [(s, a) for s, a in work if n not in s]
        if not group:
            # unconstrained internal node: contributes a factor |domain|
            work.append(([], np.array(float(sizes[n]))))
            continue
        scope, acc = group[0]
        for s, a in group[1:]:
            scope, acc = _multiply(scope, acc, s, a, sizes, counter)
        ax = scope.index(n)
        if counter is not None:
            counter.ops += acc.size
        acc = acc.sum(axis=ax)
        scope = scope[:ax] + scope[ax + 1:]
        work.append((scope, acc))
    # combine what remains (scopes are subsets of ext plus scalars)
    scope: list[str] = []
    acc = np.array(1.0)
    for s, a in work:
        bad = [n for n in s if n not in ext]
        if bad:
            raise InferenceError(f"node {bad[0]!r} survived elimination but is not external")
        scope, acc = _multiply(scope, acc, s, a, sizes, counter)
    # broadcast up to the full external scope, in ext order
    for n in ext:
        if n not in scope:
            scope, acc = _multiply(scope, acc, [n], np.ones(sizes[n]), sizes, counter)
    perm = [scope.index(n) for n in ext]
    out = np.transpose(acc, perm) if perm else acc
    if not np.all(np.isfinite(out)):
        raise InferenceError("non-finite result in external marginal (overflow)")
    # note: ascontiguousarray would promote 0-d results to 1-d
    return WeightTensor(tuple(node_domains[n] for n in ext),
                        np.array(out, dtype=float, copy=True, order="C"))


def rule_contribution(g: FGG, rule: Rule, tau: dict[str, WeightTensor],
                      order=None, counter: OpCounter | None = None) -> WeightTensor:
    """One-level unrolling: every edge's table (tau[X] for a nonterminal X)
    aligned onto its nodes, then eliminated by `eliminate`."""
    rhs = rule.rhs
    node_domains = {n.id: g.domains[n.domain] for n in rhs.nodes}
    factors = []
    for e in rhs.edges:
        nds = tuple(node_domains[a] for a in e.att)
        if g.labels[e.label].is_terminal:
            tab = g.factors[e.label]
            factors.append((e.att, align(tab.weights, g.domain_tuple(tab.domains), nds)))
        else:
            t = tau[e.label]
            if len(t.domains) != len(e.att):
                raise InferenceError(
                    f"tensor for {e.label} has rank {len(t.domains)}, edge arity {len(e.att)}")
            factors.append((e.att, align(t.data, t.domains, nds)))
    if order is None:
        order = plan_elimination(g, rule).order
    return eliminate(node_domains, factors, rhs.ext, order, counter)


def assignment_weight(g: Hypergraph, domains: dict[str, Domain], factors,
                      assignment: dict[str, Value]) -> float:
    """Product of factor values under a total assignment (terminal edges only)."""
    for n in g.nodes:
        v = assignment[n.id]
        if v not in domains[n.domain]:
            raise InferenceError(f"value {v.key()} outside domain of node {n.id}")
    w = 1.0
    for e in g.edges:
        tab = factors[e.label]
        pairs = [(domains[d], assignment[a]) for a, d in zip(e.att, tab.domains)]
        ok = all(v in dom for dom, v in pairs)
        w *= float(tab.weights[tuple(dom.index(v) for dom, v in pairs)]) if ok else 0.0
    return w


def _product(sets, pos):
    _check_enumerable(sets, pos)
    return product(*sets)


def assign_domains(p: Program, params: Params,
                   max_passes: int = 500) -> dict[str, Domain]:
    """Value-set fixpoint (`flow`), then a second walk (`annotate`) that
    resolves variables, checks the typing discipline and interns domains."""
    param_sets: dict[str, list[set[Value]]] = {}
    result_sets: dict[str, set[Value]] = {f.name: set() for f in p.functions}
    for f in p.functions:
        param_sets[f.name] = []
        for x in f.params:
            seed: set[Value] = set()
            declared = params.domains.get(f"{f.name}.{x}")
            if declared:
                seed = set(declared)
            param_sets[f.name].append(seed)

    changed = True

    def union_into(target: set[Value], values) -> None:
        nonlocal changed
        before = len(target)
        target |= set(values)
        if len(target) != before:
            changed = True

    def flow(e: Expr, env: dict[str, set[Value]]) -> set[Value]:
        if isinstance(e, Var):
            if e.name in env:
                return set(env[e.name])
            if e.name in params.inputs:
                return {params.inputs[e.name]}
            return {Atom(e.name)}
        if isinstance(e, Let):
            bound = flow(e.bound, env)
            return flow(e.body, {**env, e.name: bound})
        if isinstance(e, Call):
            for i, a in enumerate(e.args):
                union_into(param_sets[e.fn][i], flow(a, env))
            return set(result_sets[e.fn])
        if isinstance(e, Sample):
            dists = flow(e.arg, env)
            out: set[Value] = set()
            for d in dists:
                if isinstance(d, Dist):
                    out |= set(params.dist_table(d).keys())
            return out
        if isinstance(e, Observe):
            flow(e.dist, env)
            return flow(e.value, env)
        if isinstance(e, If):
            flow(e.cond, env)
            return flow(e.then, env) | flow(e.els, env)
        if isinstance(e, Case):
            scrut = flow(e.scrutinee, env)
            lefts = {v.value for v in scrut if isinstance(v, Inl)}
            rights = {v.value for v in scrut if isinstance(v, Inr)}
            out = flow(e.left, {**env, e.left_var: lefts})
            out |= flow(e.right, {**env, e.right_var: rights})
            return out
        if isinstance(e, BuiltinApp):
            arg_sets = [flow(a, env) for a in e.args]
            out = set()
            for combo in _product(arg_sets, e.pos):
                v = apply_builtin(e.op, combo)
                if v is not None:
                    out.add(v)
            return out
        if isinstance(e, Lookup):
            index = flow(e.index, env)
            keys = set(params.lookup_keys(e.param))
            return {Dist(e.param, k) for k in index & keys}
        if isinstance(e, Fail):
            return set()
        raise DomainError("domain assignment requires a desugared program", e.pos)

    for _ in range(max_passes):
        changed = False
        for f in p.functions:
            env = {x: param_sets[f.name][i] for i, x in enumerate(f.params)}
            union_into(result_sets[f.name], flow(f.body, env))
        flow(p.main, {})
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

    # second pass: annotate with interned domains and check typing discipline
    interner = DomainInterner()

    def annotate(e: Expr, env: list[tuple[str, set[Value]]]) -> set[Value]:
        env_dict = dict(env)
        result: set[Value]
        if isinstance(e, Var):
            if e.name in env_dict:
                e.resolution = "var"
                result = set(env_dict[e.name])
            elif e.name in params.inputs:
                e.resolution = "input"
                result = {params.inputs[e.name]}
            else:
                e.resolution = "atom"
                result = {Atom(e.name)}
        elif isinstance(e, Let):
            bound = annotate(e.bound, env)
            result = annotate(e.body, env + [(e.name, bound)])
        elif isinstance(e, Call):
            for a in e.args:
                annotate(a, env)
            result = set(result_sets[e.fn])
        elif isinstance(e, Sample):
            dists = annotate(e.arg, env)
            bad = [v for v in dists if not isinstance(v, Dist)]
            if bad:
                raise DomainError(
                    f"sample argument is not a distribution (can be {bad[0].key()})", e.pos)
            result = set()
            for d in dists:
                result |= set(params.dist_table(d).keys())
        elif isinstance(e, Observe):
            dists = annotate(e.dist, env)
            bad = [v for v in dists if not isinstance(v, Dist)]
            if bad:
                raise DomainError(
                    f"observe target is not a distribution (can be {bad[0].key()})", e.pos)
            result = annotate(e.value, env)
        elif isinstance(e, If):
            cond = annotate(e.cond, env)
            bad = [v for v in cond if not isinstance(v, Bool)]
            if bad:
                raise DomainError(
                    f"if condition is not boolean (can be {bad[0].key()})", e.pos)
            result = annotate(e.then, env) | annotate(e.els, env)
        elif isinstance(e, Case):
            scrut = annotate(e.scrutinee, env)
            bad = [v for v in scrut if not isinstance(v, (Inl, Inr))]
            if bad:
                raise DomainError(
                    f"case scrutinee is not a sum value (can be {bad[0].key()})", e.pos)
            lefts = {v.value for v in scrut if isinstance(v, Inl)}
            rights = {v.value for v in scrut if isinstance(v, Inr)}
            result = annotate(e.left, env + [(e.left_var, lefts)])
            result |= annotate(e.right, env + [(e.right_var, rights)])
        elif isinstance(e, BuiltinApp):
            arg_sets = [annotate(a, env) for a in e.args]
            result = set()
            for combo in _product(arg_sets, e.pos):
                v = apply_builtin(e.op, combo)
                if v is not None:
                    result.add(v)
        elif isinstance(e, Lookup):
            index = annotate(e.index, env)
            keys = set(params.lookup_keys(e.param))
            result = {Dist(e.param, k) for k in index & keys}
        elif isinstance(e, Fail):
            result = set()
        else:
            raise DomainError("domain assignment requires a desugared program", e.pos)
        e.ty = TypeInfo(env=tuple((x, interner.intern(s)) for x, s in env),
                        result=interner.intern(result))
        return result

    for f in p.functions:
        env = [(x, param_sets[f.name][i]) for i, x in enumerate(f.params)]
        annotate(f.body, env)
    annotate(p.main, [])
    return interner.domains


# ---------------------------------------------------------------------------
# The parser over a list of Token objects, one method call per token test


_CONSTANTS = {"true": TRUE, "false": FALSE, "unit": UNIT, "nil": NIL}


def _const(op: str, pos: tuple[int, int]) -> BuiltinApp:
    return BuiltinApp(op, [], pos=pos)


@dataclass
class Token:
    kind: str  # "ident", "kw", "sym", "eof"
    text: str
    pos: tuple[int, int]


# Spaces, tabs and carriage returns, then one token, comment or newline. An
# identifier starts with a letter or '_' (checked in tokenize, since
# `[^\W\d]` also takes digits that are not decimal, such as '²') and goes on
# with letters, digits, '_' and "'". Any other character is unexpected.
_TOKEN = re.compile(r"[ \t\r]*(?:(?P<ident>[^\W\d][\w']*)|(?P<sym>"
                    + "|".join(re.escape(sym) for sym in SYMBOLS)
                    + r")|(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<bad>[^ \t\r]))")


def tokenize(source: str) -> list[Token]:
    """The tokens of `source`, each at its (line, column), both from 1; a
    tab is one column."""
    toks: list[Token] = []
    line, start = 1, 0  # the current line and the index of its first character
    m = None
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text, pos = m.group(kind), (line, m.start(kind) - start + 1)
        if kind == "ident" and (text[0].isalpha() or text[0] == "_"):
            toks.append(Token("kw" if text in KEYWORDS else "ident", text, pos))
        elif kind == "sym":
            toks.append(Token("sym", text, pos))
        elif kind == "newline":
            line, start = line + 1, m.end()
        elif kind != "comment":
            raise ParseError(f"unexpected character {text[0]!r}", pos)
    # a comment that ends the source leaves the end of input at its '#'
    end = m.start(m.lastgroup) if m is not None and m.lastgroup == "comment" else len(source)
    toks.append(Token("eof", "", (line, end - start + 1)))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    @property
    def tok(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.tok
        self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            want = "end of input" if kind == "eof" else repr(text)
            raise ParseError(f"expected {want}, found {self.tok.text or 'end of input'!r}",
                             self.tok.pos)
        return self.advance()

    def ident(self) -> Token:
        if not self.at("ident"):
            raise ParseError(f"expected identifier, found {self.tok.text or 'end of input'!r}",
                             self.tok.pos)
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        funs: list[FunDef] = []
        while self.at("kw", "fun"):
            pos = self.advance().pos
            name = self.ident().text
            self.expect("sym", "(")
            params: list[str] = []
            if not self.at("sym", ")"):
                params.append(self.ident().text)
                while self.at("sym", ","):
                    self.advance()
                    params.append(self.ident().text)
            self.expect("sym", ")")
            self.expect("sym", "=")
            body = self.expr()
            self.expect("sym", ";")
            funs.append(FunDef(name, params, body, pos))
        main = self.expr()
        self.expect("eof")
        return Program(funs, main)

    def expr(self) -> Expr:
        t = self.tok
        if self.at("kw", "let"):
            self.advance()
            name = self.ident().text
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("kw", "in")
            body = self.expr()
            return Let(name, bound, body, pos=t.pos)
        if self.at("kw", "if"):
            self.advance()
            cond = self.expr()
            self.expect("kw", "then")
            then = self.expr()
            self.expect("kw", "else")
            els = self.expr()
            return If(cond, then, els, pos=t.pos)
        if self.at("kw", "case"):
            self.advance()
            scrut = self.expr()
            self.expect("kw", "of")
            self.expect("kw", "inl")
            self.expect("sym", "(")
            lv = self.ident().text
            self.expect("sym", ")")
            self.expect("sym", "=>")
            left = self.expr()
            self.expect("sym", "|")
            self.expect("kw", "inr")
            self.expect("sym", "(")
            rv = self.ident().text
            self.expect("sym", ")")
            self.expect("sym", "=>")
            right = self.expr()
            return Case(scrut, lv, left, rv, right, pos=t.pos)
        if self.at("kw", "sample"):
            self.advance()
            return Sample(self.atom(), pos=t.pos)
        if self.at("kw", "observe"):
            self.advance()
            value = self.orexpr()
            self.expect("sym", "<-")
            dist = self.expr()
            return Observe(value, dist, pos=t.pos)
        return self.orexpr()

    def orexpr(self) -> Expr:
        e = self.andexpr()
        while self.at("kw", "or"):
            pos = self.advance().pos
            e = If(e, _const("true", pos), self.andexpr(), pos=pos)
        return e

    def andexpr(self) -> Expr:
        e = self.cmpexpr()
        while self.at("kw", "and"):
            pos = self.advance().pos
            e = If(e, self.cmpexpr(), _const("false", pos), pos=pos)
        return e

    def cmpexpr(self) -> Expr:
        e = self.atom()
        if self.at("sym", "=") or self.at("sym", "!="):
            op = self.advance()
            rhs = self.atom()
            return BuiltinApp(op.text, [e, rhs], pos=op.pos)
        return e

    def atom(self) -> Expr:
        t = self.tok
        if t.kind == "kw" and t.text in ("true", "false", "unit", "nil"):
            self.advance()
            return _const(t.text, t.pos)
        if self.at("kw", "fail"):
            self.advance()
            return Fail(pos=t.pos)
        if self.at("kw", "inl") or self.at("kw", "inr"):
            op = self.advance()
            self.expect("sym", "(")
            arg = self.expr()
            self.expect("sym", ")")
            return BuiltinApp(op.text, [arg], pos=op.pos)
        if self.at("sym", "("):
            self.advance()
            e = self.expr()
            if self.at("sym", ","):
                self.advance()
                second = self.expr()
                self.expect("sym", ")")
                return BuiltinApp("pair", [e, second], pos=t.pos)
            self.expect("sym", ")")
            return e
        if self.at("ident"):
            name = self.advance()
            if self.at("sym", "("):
                self.advance()
                args: list[Expr] = []
                if not self.at("sym", ")"):
                    args.append(self.expr())
                    while self.at("sym", ","):
                        self.advance()
                        args.append(self.expr())
                self.expect("sym", ")")
                if name.text in ast.NAMED_BUILTINS:
                    want = ast.BUILTIN_ARITY[name.text]
                    if len(args) != want:
                        raise ParseError(
                            f"built-in {name.text!r} takes {want} argument(s), got {len(args)}",
                            name.pos)
                    if name.text == "not":
                        return If(args[0], _const("false", name.pos),
                                  _const("true", name.pos), pos=name.pos)
                    return BuiltinApp(name.text, args, pos=name.pos)
                return Call(name.text, args, pos=name.pos)
            if self.at("sym", "["):
                self.advance()
                index = self.expr()
                self.expect("sym", "]")
                return Lookup(name.text, index, pos=name.pos)
            return Var(name.text, pos=name.pos)
        raise ParseError(f"expected expression, found {t.text or 'end of input'!r}", t.pos)

    def value(self) -> Value:
        t = self.advance()
        if t.kind == "sym" and t.text == "(":
            v = self.value()
            if self.at("sym", ","):
                self.advance()
                v = Pair(v, self.value())
            self.expect("sym", ")")
            return v
        if t.kind == "kw" and t.text in _CONSTANTS:
            return _CONSTANTS[t.text]
        if t.kind == "kw" and t.text in ("inl", "inr"):
            return (Inl if t.text == "inl" else Inr)(self.value())
        if t.text == "dist" and self.at("ident"):
            param = self.advance().text
            self.expect("sym", "[")
            index = self.value()
            self.expect("sym", "]")
            return Dist(param, index)
        if t.text == "atom" and self.at("kw"):
            return Atom(self.advance().text)
        if t.kind in ("ident", "kw"):
            return Atom(t.text)
        raise ParseError(f"expected value, found {t.text or 'end of input'!r}", t.pos)


def reference_parse(source: str) -> Program:
    return _Parser(tokenize(source)).program()


def reference_parse_value(text: str) -> Value:
    try:
        if "#" in text:  # tokenize would drop the rest of the line as a comment
            raise ParseError("unexpected character '#'")
        p = _Parser(tokenize(text))
        v = p.value()
        p.expect("eof")
        return v
    except ParseError as e:
        raise ValueSyntaxError(f"bad value literal {text!r}: {e}") from None
