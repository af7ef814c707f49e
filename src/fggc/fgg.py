"""Hypergraphs, factor graph grammars, derivation trees, and the yield operation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .values import Domain, FggcError, value_from_json, value_to_json

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"


@dataclass(frozen=True)
class EdgeLabel:
    name: str
    arity: int
    kind: str  # TERMINAL or NONTERMINAL

    @property
    def is_terminal(self) -> bool:
        return self.kind == TERMINAL

    @property
    def is_nonterminal(self) -> bool:
        return self.kind == NONTERMINAL


class Node(NamedTuple):
    id: str
    domain: str


class Edge(NamedTuple):
    id: str
    label: str
    att: tuple[str, ...]


class Hypergraph:
    """Nodes, labeled hyperedges with ordered attachments, and ordered external nodes."""

    def __init__(self, nodes, edges, ext):
        # Node and Edge instances (with a tuple att) are kept as given;
        # raw tuples and lists are converted
        self.nodes: tuple[Node, ...] = tuple(n if isinstance(n, Node) else Node(*n) for n in nodes)
        self.edges: tuple[Edge, ...] = tuple(
            e if isinstance(e, Edge) and isinstance(e.att, tuple)
            else Edge(e[0], e[1], tuple(e[2])) for e in edges)
        self.ext: tuple[str, ...] = tuple(ext)
        self._domain_of = {n.id: n.domain for n in self.nodes}

    def domain_of(self, node_id: str) -> str:
        return self._domain_of[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._domain_of

    def __repr__(self):
        return (f"Hypergraph(nodes={[n.id for n in self.nodes]}, "
                f"edges={[(e.id, e.label, list(e.att)) for e in self.edges]}, ext={list(self.ext)})")


@dataclass(frozen=True)
class Rule:
    lhs: str  # nonterminal label name
    rhs: Hypergraph


@dataclass(frozen=True)
class FactorTable:
    label: str
    domains: tuple[str, ...]
    weights: np.ndarray  # shape = tuple of domain sizes, nonnegative


@dataclass
class FGG:
    labels: dict[str, EdgeLabel]
    rules: list[Rule]
    start: str
    domains: dict[str, Domain]
    factors: dict[str, FactorTable]

    def nonterminals(self) -> list[str]:
        return [name for name, lab in self.labels.items() if lab.is_nonterminal]

    def ext_domains(self) -> dict[str, tuple[str, ...]]:
        """Per-slot domain names of each nonterminal, from its first rule or,
        failing that, its first use; one with neither is absent."""
        own, used = {}, {}  # label -> (rhs, the nodes in slot order)
        for r in self.rules:
            own.setdefault(r.lhs, (r.rhs, r.rhs.ext))
            for e in r.rhs.edges:
                used.setdefault(e.label, (r.rhs, e.att))
        return {n: tuple(rhs.domain_of(x) for x in nodes)
                for n, (rhs, nodes) in {**used, **own}.items()
                if n in self.labels and self.labels[n].is_nonterminal}

    def domain_tuple(self, names) -> tuple[Domain, ...]:
        return tuple(self.domains[n] for n in names)


def rules_by_lhs(rules) -> dict[str, list[Rule]]:
    """The rules grouped by left-hand side, each group in grammar order."""
    by_lhs: dict[str, list[Rule]] = {}
    for r in rules:
        by_lhs.setdefault(r.lhs, []).append(r)
    return by_lhs


@dataclass
class DerivationTree:
    rule: Rule
    children: dict[str, "DerivationTree"] = field(default_factory=dict)


class StructuralError(FggcError):
    pass


def yield_graph(tree: DerivationTree, labels: dict[str, EdgeLabel], _prefix: str = "r") -> Hypergraph:
    """Expand a derivation tree into the factor graph it generates.

    Each nonterminal edge is replaced by the yield of its child derivation,
    fusing the child's external nodes with the edge's attachment nodes
    (in order). Node ids in the result encode the path through the tree,
    so repeated use of a rule cannot collide.
    """
    rhs = tree.rule.rhs
    ren = {n.id: f"{_prefix}/{n.id}" for n in rhs.nodes}
    nodes = [Node(ren[n.id], n.domain) for n in rhs.nodes]
    edges: list[Edge] = []
    for e in rhs.edges:
        lab = labels[e.label]
        if lab.is_terminal:
            edges.append(Edge(f"{_prefix}/{e.id}", e.label, tuple(ren[a] for a in e.att)))
            continue
        child = tree.children.get(e.id)
        if child is None:
            raise StructuralError(f"missing child derivation for nonterminal edge {e.id}")
        if child.rule.lhs != e.label:
            raise StructuralError(
                f"child derivation for edge {e.id} has root {child.rule.lhs}, expected {e.label}")
        sub = yield_graph(child, labels, _prefix=f"{_prefix}/{e.id}")
        if len(sub.ext) != len(e.att):
            raise StructuralError(f"arity mismatch replacing edge {e.id}")
        fuse = dict(zip(sub.ext, (ren[a] for a in e.att)))
        for n in sub.nodes:
            if n.id not in fuse:
                nodes.append(n)
        for se in sub.edges:
            edges.append(Edge(se.id, se.label, tuple(fuse.get(a, a) for a in se.att)))
    return Hypergraph(nodes, edges, tuple(ren[x] for x in rhs.ext))


def isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """True iff a node/edge bijection preserves labels, attachment order, and ext order."""
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges) or len(a.ext) != len(b.ext):
        return False

    def signature(g: Hypergraph):
        sig = {n.id: [g.domain_of(n.id)] for n in g.nodes}
        for e in g.edges:
            for i, v in enumerate(e.att):
                sig[v].append((e.label, i))
        return {k: (v[0], tuple(sorted(v[1:]))) for k, v in sig.items()}

    sig_a, sig_b = signature(a), signature(b)

    mapping: dict[str, str] = {}
    used: set[str] = set()
    # external correspondence is forced by order
    for x, y in zip(a.ext, b.ext):
        if sig_a[x] != sig_b[y]:
            return False
        if mapping.get(x, y) != y or (y in used and mapping.get(x) != y):
            return False
        mapping[x] = y
        used.add(y)

    rest = [n.id for n in a.nodes if n.id not in mapping]
    b_ids = [n.id for n in b.nodes]

    def edges_match(m: dict[str, str]) -> bool:
        # with a full node bijection, edges must match as a multiset
        want = sorted((e.label, tuple(m[v] for v in e.att)) for e in a.edges)
        have = sorted((e.label, e.att) for e in b.edges)
        return want == have

    def backtrack(i: int) -> bool:
        if i == len(rest):
            return edges_match(mapping)
        x = rest[i]
        for y in b_ids:
            if y in used or sig_b[y] != sig_a[x]:
                continue
            mapping[x] = y
            used.add(y)
            if backtrack(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return backtrack(0)


@dataclass(frozen=True)
class Diagnostic:
    message: str
    where: str = ""

    def __str__(self):
        return f"{self.where}: {self.message}" if self.where else self.message


def validate(g: FGG) -> list[Diagnostic]:
    """Structural well-formedness diagnostics; empty list means valid."""
    out: list[Diagnostic] = []
    for name, lab in g.labels.items():
        if lab.kind not in (TERMINAL, NONTERMINAL):
            out.append(Diagnostic(f"label {name!r} has unknown kind {lab.kind!r}"))
    if g.start not in g.labels:
        out.append(Diagnostic(f"start symbol {g.start!r} is not declared"))
    elif not g.labels[g.start].is_nonterminal:
        out.append(Diagnostic(f"start symbol {g.start!r} is not a nonterminal"))
    elif not any(r.lhs == g.start for r in g.rules):
        out.append(Diagnostic(f"start symbol {g.start!r} has no rule"))

    ext_doms: dict[str, tuple[str, ...]] = {}
    for ri, rule in enumerate(g.rules):
        where = f"rule {ri} ({rule.lhs})"
        lab = g.labels.get(rule.lhs)
        if lab is None:
            out.append(Diagnostic(f"lhs label {rule.lhs!r} undeclared", where))
            continue
        if not lab.is_nonterminal:
            out.append(Diagnostic(f"lhs label {rule.lhs!r} is not a nonterminal", where))
        rhs = rule.rhs
        ids = [n.id for n in rhs.nodes]
        if len(set(ids)) != len(ids):
            out.append(Diagnostic("duplicate node ids", where))
        eids = [e.id for e in rhs.edges]
        if len(set(eids)) != len(eids):
            out.append(Diagnostic("duplicate edge ids", where))
        if len(rhs.ext) != lab.arity:
            out.append(Diagnostic(
                f"rhs has {len(rhs.ext)} external nodes, lhs arity is {lab.arity}", where))
        if len(set(rhs.ext)) != len(rhs.ext):
            out.append(Diagnostic("external nodes are not pairwise distinct", where))
        for x in rhs.ext:
            if not rhs.has_node(x):
                out.append(Diagnostic(f"external node {x!r} is not a node", where))
        for n in rhs.nodes:
            if n.domain not in g.domains:
                out.append(Diagnostic(f"node {n.id!r} has undeclared domain {n.domain!r}", where))
        for e in rhs.edges:
            elab = g.labels.get(e.label)
            if elab is None:
                out.append(Diagnostic(f"edge {e.id!r} has undeclared label {e.label!r}", where))
                continue
            if len(e.att) != elab.arity:
                out.append(Diagnostic(
                    f"edge {e.id!r} has {len(e.att)} attachment nodes, label arity is {elab.arity}",
                    where))
            for a in e.att:
                if not rhs.has_node(a):
                    out.append(Diagnostic(f"edge {e.id!r} attaches to missing node {a!r}", where))
            if elab.is_terminal:
                tab = g.factors.get(e.label)
                if tab is None:
                    out.append(Diagnostic(f"terminal label {e.label!r} has no factor table", where))
                elif len(tab.domains) != elab.arity:
                    out.append(Diagnostic(
                        f"factor table {e.label!r} has {len(tab.domains)} domains, "
                        f"label arity is {elab.arity}", where))
        if all(rhs.has_node(x) for x in rhs.ext):
            doms = tuple(rhs.domain_of(x) for x in rhs.ext)
            prev = ext_doms.setdefault(rule.lhs, doms)
            if prev != doms:
                out.append(Diagnostic(
                    f"external domains {doms} disagree with earlier rule for {rule.lhs} ({prev})",
                    where))

    for name, tab in g.factors.items():
        w = tab.weights
        bad = [d for d in tab.domains if d not in g.domains]
        if bad:
            out.append(Diagnostic(f"undeclared domain {bad[0]!r}", f"factor {name}"))
        else:
            shape = tuple(len(g.domains[d]) for d in tab.domains)
            if w.shape != shape:
                out.append(Diagnostic(
                    f"weights shape {w.shape} does not match domains {shape}",
                    f"factor {name}"))
        if not np.all(np.isfinite(w)):
            out.append(Diagnostic("non-finite weight", f"factor {name}"))
        if np.any(w < 0):
            out.append(Diagnostic("negative weight", f"factor {name}"))
    return out


# ---------------------------------------------------------------------------
# JSON interchange


def fgg_to_json(g: FGG) -> dict:
    return {
        "labels": [{"name": l.name, "arity": l.arity, "kind": l.kind}
                   for l in g.labels.values()],
        "start": g.start,
        "rules": [{
            "lhs": r.lhs,
            "rhs": {
                "nodes": [{"id": n.id, "domain": n.domain} for n in r.rhs.nodes],
                "edges": [{"id": e.id, "label": e.label, "att": list(e.att)}
                          for e in r.rhs.edges],
                "ext": list(r.rhs.ext),
            },
        } for r in g.rules],
        "domains": {name: [value_to_json(v) for v in dom.values]
                    for name, dom in g.domains.items()},
        "factors": {name: {"domains": list(tab.domains),
                           "table": tab.weights.tolist()}
                    for name, tab in g.factors.items()},
    }


def _name(x, what: str) -> str:
    """`x`, a name read from FGG JSON, if it is a string; else ValueError."""
    if not isinstance(x, str):
        raise ValueError(f"{what} must be a string, not {type(x).__name__}")
    return x


def _arity(x) -> int:
    """`x`, a label's arity read from FGG JSON, if it is an integer (a JSON
    number without a fraction or exponent, not a boolean); else ValueError."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"label arity must be an integer, not {type(x).__name__}")
    return x


def _list(x, what: str) -> list:
    """`x`, read from FGG JSON, if it is a list; else ValueError (a string
    or an object would be read as its characters or keys)."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, not {type(x).__name__}")
    return x


def _object(x, what: str) -> dict:
    """`x`, read from FGG JSON, if it is an object; else ValueError."""
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be an object, not {type(x).__name__}")
    return x


def _table(x) -> np.ndarray:
    """`x`, a factor's table read from FGG JSON, as an array if it is a
    number (not a boolean) or nested lists of them; else ValueError, also
    for an integer too large for a float."""
    todo = [x]
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            todo += v
        elif not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"factor table entry must be a number, not {type(v).__name__}")
    try:
        return np.asarray(x, dtype=float)
    except OverflowError:
        raise ValueError("factor table entry is too large for a float") from None


def fgg_from_json(obj: dict) -> FGG:
    """The FGG that `fgg_to_json` wrote. The top level, `domains`,
    `factors`, and each label, rule, rhs, node, edge and factor must be an
    object; `labels`, `rules`, and each rhs's `nodes` and `edges` a list;
    every name in it (of a label, kind, rule lhs, node, domain, edge and
    attached or external node, and the start symbol) a string, every
    label's arity an integer, every edge's `att`, rule's `ext`, domain's
    values and factor's `domains` a list, and every table entry a number,
    else ValueError."""
    obj = _object(obj, "FGG")
    labels = [EdgeLabel(_name(l["name"], "label name"), _arity(l["arity"]),
                        _name(l["kind"], "label kind"))
              for l in (_object(l, "label") for l in _list(obj["labels"], "labels"))]
    domains = {name: Domain(name, [value_from_json(v) for v in _list(vals, "domain values")])
               for name, vals in _object(obj["domains"], "domains").items()}
    rules = []
    for r in _list(obj["rules"], "rules"):
        r = _object(r, "rule")
        rhs = _object(r["rhs"], "rule rhs")
        rules.append(Rule(_name(r["lhs"], "rule lhs"), Hypergraph(
            nodes=[Node(_name(n["id"], "node id"), _name(n["domain"], "node domain"))
                   for n in (_object(n, "node") for n in _list(rhs["nodes"], "rhs nodes"))],
            edges=[Edge(_name(e["id"], "edge id"), _name(e["label"], "edge label"),
                        tuple(_name(a, "edge att entry") for a in _list(e["att"], "edge att")))
                   for e in (_object(e, "edge") for e in _list(rhs["edges"], "rhs edges"))],
            ext=tuple(_name(x, "ext entry") for x in _list(rhs["ext"], "ext")),
        )))
    factors = {}
    for name, body in _object(obj["factors"], "factors").items():
        body = _object(body, "factor")
        factors[name] = FactorTable(name, tuple(_name(d, "factor domain")
                                                for d in _list(body["domains"], "factor domains")),
                                    _table(body["table"]))
    return FGG(labels={l.name: l for l in labels}, rules=rules,
               start=_name(obj["start"], "start"), domains=domains, factors=factors)


def dumps(g: FGG) -> str:
    return json.dumps(fgg_to_json(g), indent=2)


def loads(text: str) -> FGG:
    return fgg_from_json(json.loads(text))
