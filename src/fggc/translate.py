"""Translation of typed programs into factor graph grammars, and the
weight-preserving simplification passes.

Each subexpression in an environment with k bound variables becomes a
nonterminal of arity k+1 (the environment slots in binding order, then the
result slot). Conditionals and case expressions get two rules, one per arm;
everything else gets one rule; each function definition and the program
top level get one rule each.

Every primitive occurrence (a copy, constant, built-in, parameter lookup,
density or branch test) gets a terminal label of its own, named after its
source position. Its table depends only on the construct and its domains,
so each distinct table is computed once and shared, read-only, by all the
labels it serves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .ast import (BuiltinApp, Call, Case, Expr, FunDef, If, Let, Lookup,
                  Observe, Program, Sample, Var)
from .fgg import (FGG, NONTERMINAL, TERMINAL, Edge, EdgeLabel, FactorTable,
                  Hypergraph, Node, Rule, rules_by_lhs)
from .frontend import apply_builtin
from .inference import align
from .params import Params
from .values import Atom, Bool, Dist, Domain, Inl, Inr

START = "$start"
RESULT = "%v"  # result node id inside every rule ('%' cannot appear in identifiers)


@dataclass
class CompilationUnit:
    fgg: FGG
    provenance: dict[str, str]  # nonterminal label -> source span "line:col"
    pass_log: list[tuple[str, int]] = field(default_factory=list)
    # metadata used by the simplifier and the oracle comparisons:
    label_kinds: dict[str, str] = field(default_factory=dict)   # nonterminal -> construct
    factor_origins: dict[str, str] = field(default_factory=dict)  # terminal -> origin


class _Names:
    def __init__(self, taken=()):
        self.taken: set[str] = set(taken)

    def fresh(self, base: str) -> str:
        name = base
        n = 1
        while name in self.taken:
            n += 1
            name = f"{base}#{n}"
        self.taken.add(name)
        return name


def _graph(arg_doms: tuple[Domain, ...], out: Domain, fn) -> np.ndarray:
    """The graph of the partial function `fn` as a 0/1 table, one axis per
    argument domain and a last one for `out`: 1 at (args, fn(args)) where
    fn(args) is defined and lies in `out`. `fn` is called once per
    argument tuple."""
    t = np.zeros(tuple(len(d) for d in arg_doms) + (len(out),))
    for idx in iproduct(*(range(len(d)) for d in arg_doms)):
        result = fn(tuple(d.values[i] for d, i in zip(arg_doms, idx)))
        if result in out:
            t[idx + (out.index(result),)] = 1.0
    return t


def _density_table(dist_dom: Domain, val_dom: Domain, params: Params) -> np.ndarray:
    t = np.zeros((len(dist_dom), len(val_dom)))
    for i, d in enumerate(dist_dom.values):
        if not isinstance(d, Dist):
            continue
        table = params.dist_table(d.name)
        for j, v in enumerate(val_dom.values):
            t[i, j] = table.get(v, 0.0)
    return t


class _Translator:
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
                return self.params.dist_value(e.param, v[0]) if v[0] in keys else None

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

    def translate_program(self) -> CompilationUnit:
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
        return CompilationUnit(fgg=g, provenance=self.provenance,
                               label_kinds=self.label_kinds,
                               factor_origins=self.factor_origins)


def _kind_of(e: Expr) -> str:
    return {Var: "var", Let: "let", Call: "call", Sample: "sample",
            Observe: "observe", If: "if", Case: "case",
            BuiltinApp: "builtin", Lookup: "lookup"}[type(e)]


def translate(program: Program, params: Params) -> CompilationUnit:
    """Compile a domain-annotated program (see frontend.assign_domains)."""
    if program.main.ty is None:
        raise ValueError("program is not domain-annotated; run assign_domains first")
    return _Translator(program, params).translate_program()


# ---------------------------------------------------------------------------
# Simplification passes


ALL_PASSES = ("inline", "compose", "contract", "prune")
PROTECTED_KINDS = {"if", "case", "fun", "start"}


def simplify(cu: CompilationUnit, passes=ALL_PASSES) -> CompilationUnit:
    """Apply the requested weight-preserving passes, in the given order."""
    g = cu.fgg
    cu = CompilationUnit(fgg=FGG(labels=dict(g.labels), rules=list(g.rules), start=g.start,
                                 domains=dict(g.domains), factors=dict(g.factors)),
                         provenance=dict(cu.provenance), pass_log=list(cu.pass_log),
                         label_kinds=dict(cu.label_kinds),
                         factor_origins=dict(cu.factor_origins))
    for name in passes:
        fired = {"inline": _pass_inline, "compose": _pass_compose,
                 "contract": _pass_contract, "prune": _pass_prune}[name](cu)
        cu.pass_log.append((name, fired))
    _gc(cu)
    return cu


def _pass_inline(cu: CompilationUnit) -> int:
    """Inline single-rule nonterminals other than if/case/function lhs, and
    collapse function/start rules whose whole rhs is one if/case edge.

    The inlined labels are the unprotected nonterminals with exactly one
    rule, at least one use and no use in that rule. Each rule whose lhs
    stays and that uses one is rebuilt once: its other edges stay, in
    order, then each inlined edge is spliced in, depth first in edge order,
    its rule's internal nodes and edges renamed under `{edge id}.`. The
    translator creates labels in preorder, which is also the order of the
    nonterminal edges within each rule, so this is the grammar that
    inlining one label at a time, in label order, gives. A cycle of inlined
    labels reached from a kept rule would expand forever, so it raises a
    ValueError naming the cycle; the translator makes none.
    """
    g = cu.fgg
    by_lhs = rules_by_lhs(g.rules)
    used = {e.label for r in g.rules for e in r.rhs.edges}
    inlined = {}  # label -> the rhs of its one rule
    for name, lab in g.labels.items():
        own = by_lhs.get(name, ())
        if (lab.is_nonterminal and cu.label_kinds.get(name) not in PROTECTED_KINDS
                and len(own) == 1 and name in used
                and all(e.label != name for e in own[0].rhs.edges)):
            inlined[name] = own[0].rhs
    fired = 0

    def splice(rhs, ren, prefix, path, nodes, edges):
        """Append `rhs`, renamed, to `nodes` and `edges`, then splice its
        inlined edges; `ren` maps its external nodes, `path` the labels
        being spliced."""
        nonlocal fired
        for n in rhs.nodes:
            if n.id not in ren:
                ren[n.id] = prefix + n.id
                nodes.append(Node(ren[n.id], n.domain))
        hits = []
        for e in rhs.edges:
            e = Edge(prefix + e.id, e.label, tuple(ren[a] for a in e.att))
            (hits if e.label in inlined else edges).append(e)
        for hit in hits:
            if hit.label in path:
                raise ValueError("cannot inline the cycle "
                                 + " -> ".join(path[path.index(hit.label):] + (hit.label,)))
            sub = inlined[hit.label]
            splice(sub, dict(zip(sub.ext, hit.att)), hit.id + ".", path + (hit.label,),
                   nodes, edges)
            fired += 1

    rules = []
    for r in g.rules:
        if r.lhs in inlined:
            continue
        if any(e.label in inlined for e in r.rhs.edges):
            nodes, edges = [], []
            splice(r.rhs, {}, "", (), nodes, edges)
            r = Rule(r.lhs, Hypergraph(nodes, edges, r.rhs.ext))
        rules.append(r)
    for name in inlined:
        del g.labels[name]

    # unit-rule collapse: fun/start whose rhs is exactly one if/case edge
    by_lhs = rules_by_lhs(rules)
    uses = Counter(e.label for r in rules for e in r.rhs.edges)
    collapsed = {}  # fun/start labels whose rules are replaced, in order
    for name in list(g.labels):
        if cu.label_kinds.get(name) not in ("fun", "start"):
            continue
        while len(by_lhs.get(name, ())) == 1:
            rhs = by_lhs[name][0].rhs
            if not (len(rhs.edges) == 1 and len(rhs.nodes) == len(rhs.ext)
                    and rhs.edges[0].att == rhs.ext
                    and cu.label_kinds.get(rhs.edges[0].label) in ("if", "case")
                    and uses[rhs.edges[0].label] == 1):
                break
            child = rhs.edges[0].label
            # relabel: reuse this rule's node names for the external slots
            replacement = []
            for cr in by_lhs.pop(child, ()):
                ren = dict(zip(cr.rhs.ext, rhs.ext))
                nodes = [Node(ren.get(n.id, n.id), n.domain) for n in cr.rhs.nodes]
                edges = [Edge(e.id, e.label, tuple(ren.get(a, a) for a in e.att))
                         for e in cr.rhs.edges]
                replacement.append(Rule(name, Hypergraph(nodes, edges, rhs.ext)))
            by_lhs[name] = replacement
            collapsed[name] = None
            del g.labels[child]
            fired += 1
    # the replacements go last, as if appended one collapse at a time
    g.rules = ([r for r in rules if r.lhs in by_lhs and r.lhs not in collapsed]
               + [r for name in collapsed for r in by_lhs[name]])
    return fired


def _pass_compose(cu: CompilationUnit) -> int:
    """Fuse pairs of built-in factor tables that meet at a private internal
    node (attached once to each of exactly two edges).

    One forward scan over a rule's nodes fuses where restarting from the
    first node after each fusion would: a node attached to both fused edges
    is attached twice to the fused one, so it stops being a candidate, and
    every other node keeps its candidacy. The edges are edited in place,
    with a node-to-edges map kept in edge order (the fused edge goes last),
    and the rule's hypergraph is built once, if anything fused.
    """
    g = cu.fgg
    names = _Names(g.labels)
    fired = 0
    for i, r in enumerate(g.rules):
        rhs = r.rhs
        edges = {e.id: e for e in rhs.edges}
        incident: dict[str, dict[str, None]] = {n.id: {} for n in rhs.nodes}
        for e in rhs.edges:
            for a in e.att:
                incident[a][e.id] = None
        fused = set()
        for n in rhs.nodes:
            if n.id in rhs.ext or len(incident[n.id]) != 2:
                continue
            e1, e2 = (edges[eid] for eid in incident[n.id])
            if not all(e.att.count(n.id) == 1 and cu.factor_origins.get(e.label) == "builtin"
                       for e in (e1, e2)):
                continue
            # reindex both tables onto the attachment nodes' domains so the
            # contracted axes agree and the fused table matches its domains
            t1, t2 = (align(g.factors[e.label].weights,
                            g.domain_tuple(g.factors[e.label].domains),
                            g.domain_tuple(rhs.domain_of(a) for a in e.att)) for e in (e1, e2))
            table = np.tensordot(np.moveaxis(t1, e1.att.index(n.id), -1),
                                 np.moveaxis(t2, e2.att.index(n.id), 0), axes=1)
            att = tuple(a for a in e1.att + e2.att if a != n.id)
            name = names.fresh(f"fused.{e1.label}.{e2.label}")
            g.labels[name] = EdgeLabel(name, len(att), TERMINAL)
            g.factors[name] = FactorTable(name, tuple(rhs.domain_of(a) for a in att), table)
            cu.factor_origins[name] = "builtin"
            for e in (e1, e2):
                del edges[e.id]
                for a in e.att:
                    incident[a].pop(e.id, None)
            eid = f"{e1.id}+{e2.id}"
            edges[eid] = Edge(eid, name, att)
            for a in att:
                incident[a][eid] = None
            fused.add(n.id)
        if fused:
            nodes = [n for n in rhs.nodes if n.id not in fused]
            g.rules[i] = Rule(r.lhs, Hypergraph(nodes, edges.values(), rhs.ext))
            fired += len(fused)
    return fired


def _pass_contract(cu: CompilationUnit) -> int:
    """Contract copy factors v = x by merging the two nodes.

    One forward scan over a rule's edges contracts where restarting from the
    first edge after each merge would: a merge only joins two nodes of one
    domain and never drops an external one, so an earlier copy edge can
    lose eligibility but never gain it. Attachments are resolved through the
    merge map; the remaining edges are rewritten, and the hypergraph built,
    once at the end, if anything merged.
    """
    g = cu.fgg
    fired = 0
    for i, r in enumerate(g.rules):
        rhs = r.rhs
        merged: dict[str, str] = {}  # dropped node -> the node it was merged into
        contracted = set()
        for e in rhs.edges:
            if cu.factor_origins.get(e.label) != "copy" or len(e.att) != 2:
                continue
            a, b = (_resolve(merged, x) for x in e.att)
            if (a == b or rhs.domain_of(a) != rhs.domain_of(b)
                    or a in rhs.ext and b in rhs.ext):  # would duplicate an external node
                continue
            keep, drop = (b, a) if b in rhs.ext else (a, b)
            merged[drop] = keep
            contracted.add(e.id)
        if contracted:
            nodes = [n for n in rhs.nodes if n.id not in merged]
            edges = [Edge(e.id, e.label, tuple(_resolve(merged, x) for x in e.att))
                     for e in rhs.edges if e.id not in contracted]
            g.rules[i] = Rule(r.lhs, Hypergraph(nodes, edges, rhs.ext))
            fired += len(contracted)
    return fired


def _resolve(merged: dict[str, str], node: str) -> str:
    while node in merged:
        node = merged[node]
    return node


def _pass_prune(cu: CompilationUnit) -> int:
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
    """Remove rules, labels, factors, and domains unreachable from the start
    symbol, and the removed labels' provenance, kinds and origins."""
    g = cu.fgg
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
    for meta in (cu.provenance, cu.label_kinds, cu.factor_origins):
        for k in [k for k in meta if k not in g.labels]:
            del meta[k]


# ---------------------------------------------------------------------------


def compile_source(source: str, params: Params, passes=ALL_PASSES) -> CompilationUnit:
    """Full pipeline: parse, check, translate, simplify."""
    from .frontend import check_program
    program, _ = check_program(source, params)
    return compile_program(program, params, passes)


def compile_program(program: Program, params: Params, passes=ALL_PASSES) -> CompilationUnit:
    """Translate a checked program (see frontend.check_program), then
    simplify it with `passes`; no passes skips `simplify`."""
    cu = translate(program, params)
    if passes:
        cu = simplify(cu, passes)
    return cu
