"""Exact inference: assignment weights, external marginals by variable
elimination, and nonterminal weight tensors by Kleene fixed-point iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fgg import FGG, Hypergraph, Rule, RuleIndex
from .values import Domain, Value


class InferenceError(Exception):
    pass


@dataclass
class WeightTensor:
    domains: tuple[Domain, ...]
    data: np.ndarray  # shape = tuple of domain sizes

    @classmethod
    def zeros(cls, domains) -> "WeightTensor":
        domains = tuple(domains)
        return cls(domains, np.zeros(tuple(len(d) for d in domains)))

    def __getitem__(self, values) -> float:
        if isinstance(values, Value):
            values = (values,)
        idx = tuple(d.index(v) for d, v in zip(self.domains, values))
        return float(self.data[idx])

    def items(self):
        from itertools import product
        for idx in product(*(range(len(d)) for d in self.domains)):
            yield tuple(d.values[i] for d, i in zip(self.domains, idx)), float(self.data[idx])

    def total(self) -> float:
        return float(self.data.sum())


class OpCounter:
    """Counts elementary table operations performed by the elimination engine."""

    def __init__(self):
        self.ops = 0


def align(arr: np.ndarray, table_domains, node_domains) -> np.ndarray:
    """Reindex a table from its own per-axis domains onto the attachment
    nodes' domains. Values missing from the table's domain contribute 0;
    values of the table's domain absent from a node's domain are dropped.
    """
    for ax, (td, nd) in enumerate(zip(table_domains, node_domains)):
        if td is nd or td == nd:
            continue
        idx = np.zeros(len(nd), dtype=int)
        mask = np.zeros(len(nd), dtype=bool)
        for i, v in enumerate(nd.values):
            if v in td:
                idx[i] = td.index(v)
                mask[i] = True
        arr = np.take(arr, idx, axis=ax)
        shape = [1] * arr.ndim
        shape[ax] = len(nd)
        arr = arr * mask.reshape(shape)
    return arr


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


# ---------------------------------------------------------------------------
# Elimination planning (min-fill, deterministic tie-break by node id)


@dataclass
class EliminationPlan:
    rule: Rule | None
    order: list[str]
    cost: float


def plan_order(node_domains: dict[str, Domain], scopes, ext) -> EliminationPlan:
    """Min-fill ordering over the interaction graph induced by factor scopes."""
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
    return EliminationPlan(rule=None, order=order, cost=cost)


def plan_elimination(g: FGG, rule: Rule) -> EliminationPlan:
    rhs = rule.rhs
    node_domains = {n.id: g.domains[n.domain] for n in rhs.nodes}
    plan = plan_order(node_domains, [e.att for e in rhs.edges], set(rhs.ext))
    plan.rule = rule
    return plan


# ---------------------------------------------------------------------------
# Assignment weight and external marginal over terminal-only graphs


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
        idx = []
        ok = True
        for a, dname in zip(e.att, tab.domains):
            dom = domains[dname] if isinstance(dname, str) else dname
            v = assignment[a]
            if v not in dom:
                ok = False
                break
            idx.append(dom.index(v))
        w *= float(tab.weights[tuple(idx)]) if ok else 0.0
    return w


def external_marginal(g: Hypergraph, domains: dict[str, Domain], factors,
                      order=None, counter: OpCounter | None = None) -> WeightTensor:
    """Marginal weight tensor over the external nodes of a terminal-only graph."""
    node_domains = {n.id: domains[n.domain] for n in g.nodes}
    fs = []
    for e in g.edges:
        tab = factors[e.label]
        tds = tuple(domains[d] if isinstance(d, str) else d for d in tab.domains)
        nds = tuple(node_domains[a] for a in e.att)
        fs.append((e.att, align(tab.weights, tds, nds)))
    if order is None:
        order = plan_order(node_domains, [e.att for e in g.edges], set(g.ext)).order
    return eliminate(node_domains, fs, g.ext, order, counter)


# ---------------------------------------------------------------------------
# Fixed-point solver


class _PreparedRule:
    """A rule made ready for repeated application: its node domains, its
    elimination order and its terminal factors aligned onto its nodes. Only
    the nonterminal edges' tensors change between applications."""

    def __init__(self, g: FGG, rule: Rule, order=None):
        rhs = rule.rhs
        self.ext = rhs.ext
        self.node_domains = {n.id: g.domains[n.domain] for n in rhs.nodes}
        self.factors: list = []
        self.tau_slots: list = []  # (position in factors, edge, node domains)
        for e in rhs.edges:
            nds = tuple(self.node_domains[a] for a in e.att)
            if g.labels[e.label].is_terminal:
                tab = g.factors[e.label]
                tds = tuple(g.domains[d] for d in tab.domains)
                self.factors.append((e.att, align(tab.weights, tds, nds)))
            else:
                self.tau_slots.append((len(self.factors), e, nds))
                self.factors.append(None)
        if order is None:
            order = plan_order(self.node_domains, [e.att for e in rhs.edges],
                               set(rhs.ext)).order
        self.order = order

    def apply(self, tau: dict[str, WeightTensor],
              counter: OpCounter | None = None) -> WeightTensor:
        fs = list(self.factors)
        for i, e, nds in self.tau_slots:
            t = tau[e.label]
            if len(t.domains) != len(e.att):
                raise InferenceError(
                    f"tensor for {e.label} has rank {len(t.domains)}, edge arity {len(e.att)}")
            fs[i] = (e.att, align(t.data, t.domains, nds))
        return eliminate(self.node_domains, fs, self.ext, self.order, counter)


def rule_contribution(g: FGG, rule: Rule, tau: dict[str, WeightTensor],
                      order=None, counter: OpCounter | None = None) -> WeightTensor:
    """One-level unrolling: nonterminal edges act as factors with table tau[X]."""
    return _PreparedRule(g, rule, order).apply(tau, counter)


CONVERGED = "converged"
MAX_ITER = "max-iter"
DIVERGENT = "divergent"


@dataclass
class SolverState:
    tau: dict[str, WeightTensor]
    iteration: int
    delta: float
    status: str
    ops: int = 0


def solve_fixed_point(g: FGG, tol: float = 1e-10, max_iter: int = 10000,
                      divergence_bound: float = 1e12) -> SolverState:
    """Kleene iteration from zero tensors, synchronous (Jacobi) updates.

    Each rule is prepared once per solve (see _PreparedRule); an iteration
    applies each nonterminal's rules in grammar order."""
    index = RuleIndex(g.rules)
    ext = {n: index.ext_domains(n) for n in g.nonterminals()}
    nts = [n for n, doms in ext.items() if doms is not None]
    shapes = {n: g.domain_tuple(ext[n]) for n in nts}
    prepared = {n: [_PreparedRule(g, index[pos]) for pos in index.lhs(n)] for n in nts}
    tau = {n: WeightTensor.zeros(shapes[n]) for n in nts}
    counter = OpCounter()
    state = SolverState(tau=tau, iteration=0, delta=float("inf"), status=MAX_ITER)
    for it in range(1, max_iter + 1):
        new_tau = {}
        for n in nts:
            acc = WeightTensor.zeros(shapes[n])
            for rule in prepared[n]:
                acc.data += rule.apply(tau, counter).data
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
        if any(np.any(t.data > divergence_bound) for t in tau.values()):
            state.status = DIVERGENT
            return state
        if delta < tol:
            state.status = CONVERGED
            return state
    state.status = MAX_ITER
    return state


def query_start(g: FGG, tol: float = 1e-10, max_iter: int = 10000) -> WeightTensor:
    state = solve_fixed_point(g, tol=tol, max_iter=max_iter)
    if state.status == DIVERGENT:
        raise InferenceError("divergent grammar: weights exceed the divergence bound")
    return state.tau[g.start]
