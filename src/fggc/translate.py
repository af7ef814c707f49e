"""Translation of typed programs into factor graph grammars.

Each function, `if` and `case` becomes a nonterminal whose arity is one more
than its number of bound variables (the environment slots in binding order,
then the result slot). A function body and the main body get one rule each,
and an `if` or `case` one rule per arm; a function or main body that is an
`if` or `case` gives its arms' rules straight to the function or start label.
Every other subexpression adds its nodes and edges to the rule that holds
it, under the ids that inlining the paper's one-nonterminal-per-subexpression
grammar would give them (tests/reference_impl.py keeps that translation).

Every primitive occurrence (a constant, built-in, parameter lookup, density
or branch test) gets a terminal label of its own, named after its source
position. Its table depends only on the construct and its domains, so each
distinct table is computed once and shared, read-only, by all the labels it
serves. A variable reference is the paper's identity ("copy") factor between
the variable's node and the node its value goes to; the two nodes are made
one instead (see _Rhs.merge), and only where they cannot be, because both
are external or their domains differ, is the copy table made. A rule with
an all-zero table is not kept, but for the start symbol's last rule when
every start rule has one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product as iproduct

import numpy as np

from .ast import (BuiltinApp, Call, Case, Expr, If, Let, Lookup,
                  Observe, Program, Sample, Var)
from .fgg import (FGG, NONTERMINAL, TERMINAL, Edge, EdgeLabel, FactorTable,
                  Hypergraph, Node, Rule, rules_by_lhs)
from .frontend import apply_builtin
from .params import Params
from .values import Atom, Bool, Dist, Domain, Inl, Inr

START = "$start"
RESULT = "%v"  # result node id inside every rule ('%' cannot appear in identifiers)


@dataclass
class CompilationUnit:
    fgg: FGG
    provenance: dict[str, str]  # nonterminal label -> source span "line:col"
    pass_log: list[tuple[str, int]] = field(default_factory=list)  # see simplify


class _Names:
    def __init__(self):
        self.taken: set[str] = set()

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


class _Rhs:
    """A rule's right-hand side as it is built. `merged` maps each node that
    was made one with another (see merge) to the node it was merged into;
    the hypergraph resolves every attachment through it."""

    def __init__(self, nodes: list[Node], ext: tuple[str, ...]):
        self.nodes = nodes
        self.ext = ext
        self.edges: list = []
        self.domain = {n.id: n.domain for n in nodes}
        self.merged: dict[str, str] = {}

    def add_node(self, nid: str, domain: str):
        self.nodes.append(Node(nid, domain))
        self.domain[nid] = domain

    def resolve(self, nid: str) -> str:
        while nid in self.merged:
            nid = self.merged[nid]
        return nid

    def merge(self, x: str, v: str) -> bool:
        """Make the nodes `x` and `v` one, as an identity factor between them
        would, and say whether they were. They are not if they already are
        one, if their domains differ or if both are external (a rule's
        external nodes are distinct). The node kept is `v` if it is
        external, else `x`. Merging only joins nodes of one domain and never
        drops an external one, so a pair refused here stays refused."""
        a, b = self.resolve(x), self.resolve(v)
        if a == b or self.domain[a] != self.domain[b] or a in self.ext and b in self.ext:
            return False
        keep, drop = (b, a) if b in self.ext else (a, b)
        self.merged[drop] = keep
        return True

    def graph(self) -> Hypergraph:
        if not self.merged:
            return Hypergraph(self.nodes, self.edges, self.ext)
        return Hypergraph([n for n in self.nodes if n.id not in self.merged],
                          [Edge(e.id, e.label, tuple(self.resolve(x) for x in e.att))
                           for e in self.edges], self.ext)


class _Translator:
    """Builds the rules of every function body, `if`/`case` arm and the main
    body; every other subexpression adds its nodes and edges to the body
    that holds it (see _fragment)."""

    def __init__(self, program: Program, params: Params):
        self.program = program
        self.params = params
        self.names = _Names()
        self.labels: dict[str, EdgeLabel] = {}
        self.rules: list[Rule] = []
        self.factors: dict[str, FactorTable] = {}
        self.domains: dict[str, Domain] = {}
        self.provenance: dict[str, str] = {}
        self._tables: dict[tuple, tuple[np.ndarray, bool]] = {}  # see terminal()
        self._zero: set[str] = set()  # terminal labels whose tables are all zero
        self._last_zero: tuple[str, _Rhs] | None = None  # the last rule not kept

    def _dom(self, d: Domain) -> str:
        self.domains[d.name] = d
        return d.name

    def terminal(self, base: str, doms: tuple[Domain, ...], key: tuple, make) -> str:
        """A fresh terminal label over `doms`. Its table, `make()`, is
        computed once per `key` and domains and shared, read-only, by every
        label with the same key and domains."""
        key += tuple(d.name for d in doms)
        if key not in self._tables:
            table = make()
            table.flags.writeable = False
            self._tables[key] = table, not table.any()
        table, zero = self._tables[key]
        name = self.names.fresh(base)
        self.labels[name] = EdgeLabel(name, len(doms), TERMINAL)
        self.factors[name] = FactorTable(name, tuple(self._dom(d) for d in doms), table)
        if zero:
            self._zero.add(name)
        return name

    def _rule(self, lhs: str, rhs: _Rhs):
        """Add a rule, unless one of its tables is all zero: such a rule adds
        nothing to any weight."""
        if any(e.label in self._zero for e in rhs.edges):
            self._last_zero = lhs, rhs
        else:
            self.rules.append(Rule(lhs, rhs.graph()))

    def _head(self, e: Expr) -> tuple[list[Node], tuple[str, ...]]:
        """The nodes of a rule for `e` that are its external nodes: the
        environment's, in binding order, then the result."""
        nodes = [Node(x, self._dom(d)) for x, d in e.ty.env]
        nodes.append(Node(RESULT, self._dom(e.ty.result)))
        return nodes, tuple(n.id for n in nodes)

    def body(self, lhs: str, e: Expr):
        """The rules of `lhs`, whose body is `e`: the arms' if `e` is an `if`
        or a `case`, else one."""
        if isinstance(e, (If, Case)):
            self.branch(e, lhs)
            return
        rhs = _Rhs(*self._head(e))
        self._fragment(e, "e0.", dict(zip(rhs.ext, rhs.ext)), rhs)
        self._rule(lhs, rhs)

    def branch(self, e: If | Case, lhs: str | None = None) -> str:
        """One rule per arm of `e`, under `lhs` or else under a new label
        named after `e`, which is returned. A rule's nodes are the external
        ones, `%1` for the tested value, the `case` arm's binder, then the
        test's and the arm's own; its edges are e0 (the test), e1 (the arm's
        condition on `%1`) and e2 (the arm), each spliced under `e0.` or
        `e2.` unless it is itself an `if` or `case`."""
        span = f"{e.pos[0]}:{e.pos[1]}"
        if lhs is None:
            lhs = self.names.fresh(f"{'if' if isinstance(e, If) else 'case'}@{span}")
            self.labels[lhs] = EdgeLabel(lhs, len(e.ty.env) + 1, NONTERMINAL)
            self.provenance[lhs] = span
        head, ext = self._head(e)
        if isinstance(e, If):
            test, arms = e.cond, [(e.then, (), "true"), (e.els, (), "false")]
        else:
            test, arms = e.scrutinee, [(e.left, (e.left_var,), "inl"),
                                       (e.right, (e.right_var,), "inr")]
        tdom = test.ty.result
        head.append(Node("%1", self._dom(tdom)))
        # the test is spliced once, into `shared`: each arm's rule takes its
        # nodes after the binder's, its edges after e0-e2, and its merges
        shared = _Rhs(list(head), ext)
        att = ext[:-1] + ("%1",)
        if isinstance(test, (If, Case)):
            test_edge = Edge("e0", self.branch(test), att)
        else:
            test_edge = None
            self._fragment(test, "e0.", _ext_map(test, att), shared)
        for arm, binder, tag in arms:
            rhs = _Rhs(head + [Node(x, self._dom(d)) for x, d in arm.ty.env if x in binder]
                       + shared.nodes[len(head):], ext)
            rhs.merged = dict(shared.merged)
            att = tuple(x for x, _ in arm.ty.env) + (RESULT,)
            if isinstance(arm, (If, Case)):
                arm_edge = Edge("e2", self.branch(arm), att)
            else:
                arm_edge = None
                self._fragment(arm, "e2.", _ext_map(arm, att), rhs)
            if isinstance(e, If):
                want = Bool(tag == "true")
                lab = self.terminal(f"is-{tag}@{span}", (tdom,), (tag,),
                                    lambda: _graph((), tdom, lambda v: want))
            else:
                con, bdom = (Inl if tag == "inl" else Inr), dict(arm.ty.env)[binder[0]]
                lab = self.terminal(f"is-{tag}@{span}", (tdom, bdom), (tag,),
                                    lambda: np.ascontiguousarray(
                                        _graph((bdom,), tdom, lambda v: con(v[0])).T))
            own = [edge for edge in (test_edge, Edge("e1", lab, ("%1",) + binder), arm_edge)
                   if edge is not None]
            rhs.edges[:0] = own + shared.edges
            self._rule(lhs, rhs)
        return lhs

    def _fragment(self, e: Expr, prefix: str, ren: dict[str, str], rhs: _Rhs):
        """Add `e`, which is not an `if` or `case`, to a rule body: its own
        nodes and edges get ids under `prefix`, and `ren` maps its external
        node ids (see _head) to the body's. A variable adds no edge where
        its node and its result's can be merged.

        This is the paper's rule for `e` spliced into its use, as inlining
        would: `e`'s own nodes, then its subexpressions', in preorder, and
        likewise its own edges (the edges to its `if`/`case` subexpressions'
        labels, then its factor or call), then its subexpressions'. The
        subexpression feeding `e`'s j-th edge gets the prefix `{prefix}ej.`.
        Labels are made in source order, each factor after its operands'.

        Variables are met in the order of their copy edges in the rule, so
        the merges are those one forward scan over the copy edges would
        make."""
        if isinstance(e, Var) and e.resolution == "var" and rhs.merge(ren[e.name], ren[RESULT]):
            return
        extra, subs = _parts(e)
        for nid, d in extra:
            ren[nid] = prefix + nid
            rhs.add_node(prefix + nid, self._dom(d))
        edges = rhs.edges
        # own edges go first, but their labels are made in source order:
        # hold their places, one per if/case subexpression, then one for the
        # factor or call that every construct but `let` ends with
        ends = not isinstance(e, Let)
        slot = len(edges)
        edges += [None] * (sum(isinstance(s, (If, Case)) for s, _ in subs) + ends)
        for j, (sub, out) in enumerate(subs):
            att = tuple(ren[x] for x, _ in sub.ty.env) + (ren[out],)
            if isinstance(sub, (If, Case)):
                edges[slot] = Edge(f"{prefix}e{j}", self.branch(sub), att)
                slot += 1
            else:
                self._fragment(sub, f"{prefix}e{j}.", _ext_map(sub, att), rhs)
        if ends:
            label, att = self._own_label(e, tuple(nid for nid, _ in extra))
            edges[slot] = Edge(f"{prefix}e{len(subs)}", label, tuple(ren[x] for x in att))

    def _own_label(self, e: Expr, extra: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
        """The label of `e`'s own last edge, a factor or a call, and the ids
        of the nodes it attaches."""
        span = f"{e.pos[0]}:{e.pos[1]}"
        att = extra + (RESULT,)
        if isinstance(e, Var):
            if e.resolution == "var":
                xdom = dict(e.ty.env)[e.name]
                return self.terminal(f"copy@{span}", (xdom, e.ty.result), ("copy",),
                                     lambda: _graph((xdom,), e.ty.result,
                                                    lambda v: v[0])), (e.name, RESULT)
            value = (self.params.inputs[e.name] if e.resolution == "input"
                     else Atom(e.name))
            return self.terminal(f"const@{span}", (e.ty.result,), ("const", value),
                                 lambda: _graph((), e.ty.result, lambda v: value)), att
        if isinstance(e, Call):
            return e.fn, att
        if isinstance(e, BuiltinApp):
            arg_doms = tuple(a.ty.result for a in e.args)
            return self.terminal(f"{e.op}@{span}", arg_doms + (e.ty.result,), ("op", e.op),
                                 lambda: _graph(arg_doms, e.ty.result,
                                                lambda v: apply_builtin(e.op, v))), att
        if isinstance(e, Lookup):
            idom, rdom = e.index.ty.result, e.ty.result
            keys = set(self.params.lookup_keys(e.param))

            def entry(v):
                return self.params.dist_value(e.param, v[0]) if v[0] in keys else None

            return self.terminal(f"{e.param}[]@{span}", (idom, rdom), ("lookup", e.param),
                                 lambda: _graph((idom,), rdom, entry)), att
        ddom = (e.arg if isinstance(e, Sample) else e.dist).ty.result  # Sample, Observe
        return self.terminal(f"density@{span}", (ddom, e.ty.result), ("density",),
                             lambda: _density_table(ddom, e.ty.result, self.params)), att

    def translate_program(self) -> CompilationUnit:
        for f in self.program.functions:
            self.body(f.name, f.body)
            self.labels[f.name] = EdgeLabel(f.name, len(f.params) + 1, NONTERMINAL)
            self.provenance[f.name] = f"{f.pos[0]}:{f.pos[1]}"
        start = self.names.fresh(START)
        self.body(start, self.program.main)
        if not any(r.lhs == start for r in self.rules):
            # every start rule has an all-zero table: keep the last one built,
            # for the start symbol's domain (its weight is 0 either way)
            lhs, rhs = self._last_zero
            self.rules.append(Rule(lhs, rhs.graph()))
        self.labels[start] = EdgeLabel(start, 1, NONTERMINAL)
        g = FGG(labels=self.labels, rules=self.rules, start=start,
                domains=self.domains, factors=self.factors)
        cu = CompilationUnit(fgg=g, provenance=self.provenance)
        _gc(cu)
        return cu


def _parts(e: Expr) -> tuple[list[tuple[str, Domain]], list[tuple[Expr, str]]]:
    """The nodes `e`'s rule has besides its external ones, and its
    subexpressions in edge order, each with the node its result goes to."""
    if isinstance(e, Var):
        return [], []
    if isinstance(e, Let):
        return [(e.name, e.bound.ty.result)], [(e.bound, e.name), (e.body, RESULT)]
    if isinstance(e, Observe):  # the observed value is the result
        return [("%1", e.dist.ty.result)], [(e.value, RESULT), (e.dist, "%1")]
    if isinstance(e, (Sample, Lookup)):
        sub = e.arg if isinstance(e, Sample) else e.index
        return [("%1", sub.ty.result)], [(sub, "%1")]
    if isinstance(e, (BuiltinApp, Call)):
        extra = [(f"%{j + 1}", a.ty.result) for j, a in enumerate(e.args)]
        return extra, [(a, nid) for a, (nid, _) in zip(e.args, extra)]
    raise TypeError(f"cannot translate unknown expression {e!r}")


def _ext_map(e: Expr, att: tuple[str, ...]) -> dict[str, str]:
    """Maps `e`'s external node ids to `att`, the nodes its edge attaches."""
    return dict(zip([x for x, _ in e.ty.env] + [RESULT], att))


def translate(program: Program, params: Params) -> CompilationUnit:
    """Compile a domain-annotated program (see frontend.assign_domains)."""
    if program.main.ty is None:
        raise ValueError("program is not domain-annotated; run assign_domains first")
    return _Translator(program, params).translate_program()


def _gc(cu: CompilationUnit):
    """Remove rules, labels, factors, and domains unreachable from the start
    symbol, and the removed labels' provenance."""
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
    for k in [k for k in cu.provenance if k not in g.labels]:
        del cu.provenance[k]


# ---------------------------------------------------------------------------


# perfbench/ calls compile_source(source, params, ALL_PASSES) and
# simplify(cu, (name,)) and reads cu.pass_log. The translator builds the final
# grammar itself, so these only keep that surface; the change that may edit
# perfbench/ deletes them (ROADMAP item 8).
ALL_PASSES = ("inline", "compose", "contract", "prune")


def simplify(cu: CompilationUnit, passes=ALL_PASSES) -> CompilationUnit:
    """`cu` as it is, with each of `passes` logged as firing 0 times."""
    return replace(cu, pass_log=cu.pass_log + [(name, 0) for name in passes])


def compile_source(source: str, params: Params, passes=ALL_PASSES) -> CompilationUnit:
    """Full pipeline: parse, check, translate."""
    from .frontend import check_program
    program, _ = check_program(source, params)
    return simplify(translate(program, params), passes)
